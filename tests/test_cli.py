"""Command line interface: exit codes, outputs, determinism."""

from pathlib import Path

import pytest

from latticeplan.cli import main

OPEN_SCENARIO = """\
dim 2
workspace 0 0 1 1
start 0.1 0.35
target 0.9 0.35
obstacle box 0.41 0 0.44 0.68 known
sensing_radius 0.12
step 0.05
"""

SEALED_SCENARIO = """\
dim 2
workspace 0 0 1 1
start 0.08 0.08
target 0.5 0.5
obstacle box 0.33 0.33 0.4 0.67 known
obstacle box 0.6 0.33 0.67 0.67 known
obstacle box 0.33 0.33 0.67 0.4 known
obstacle box 0.33 0.6 0.67 0.67 known
sensing_radius 0.1
step 0.04
"""

SLAB_3D_SCENARIO = """\
dim 3
workspace 0 0 0 1 1 1
start 0.1 0.35 0.35
target 0.85 0.35 0.35
obstacle box 0.45 0 0 0.48 0.55 1 known
sensing_radius 0.12
step 0.125
"""

TWO_ROBOT_SCENARIO = """\
dim 2
robots 2
workspace 0 0 1 1
start 0.1 0.44 0.1 0.5
target 0.9 0.44 0.9 0.5
sensing_radius 0.1
step 0.04
dmin 0.03
dmax 0.13
"""


@pytest.fixture
def scn(tmp_path):
    p = tmp_path / "scene.scn"
    p.write_text(OPEN_SCENARIO)
    return p


def test_validate_ok(scn, capsys):
    assert main(["validate", "--scenario", str(scn)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_file(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("dim 5\n")
    assert main(["validate", "--scenario", str(p)]) == 4


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--scenario", str(tmp_path / "nope.scn")]) == 4


def test_plan_success_writes_outputs(scn, tmp_path):
    out = tmp_path / "out"
    code = main(["plan", "--scenario", str(scn), "--out", str(out),
                 "--svg", "--metrics"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "graph_000.txt").exists()
    assert (out / "segment_000.svg").exists()


def test_plan_no_path_exit_code(tmp_path):
    p = tmp_path / "sealed.scn"
    p.write_text(SEALED_SCENARIO)
    assert main(["plan", "--scenario", str(p)]) == 2


def test_plan_resource_limit_exit_code(scn):
    assert main(["plan", "--scenario", str(scn),
                 "--override", "max_vertices=10"]) == 3


def test_override_applies(scn, tmp_path):
    out = tmp_path / "o"
    assert main(["plan", "--scenario", str(scn), "--out", str(out),
                 "--metrics", "--override", "step=0.04"]) == 0
    assert ",0.04," in (out / "metrics.csv").read_text()


def test_region_containment(scn, tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["region", "--scenario", str(scn), "--out", str(out), "--svg"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "containment: yes" in captured
    assert (out / "region.txt").exists()
    assert (out / "region.svg").exists()


def test_region_shift_breaks_containment(scn, tmp_path):
    # Structural self-check: displacing the region must flip the verdict.
    shifted = tmp_path / "shifted.scn"
    shifted.write_text(OPEN_SCENARIO + "region_shift 0.3 0.3\n")
    assert main(["region", "--scenario", str(shifted)]) == 2


def test_region_3d_slab_containment(tmp_path, capsys):
    # The slab blocks the straight descent; the region must grow around it.
    p = tmp_path / "slab.scn"
    p.write_text(SLAB_3D_SCENARIO)
    out = tmp_path / "r3"
    assert main(["region", "--scenario", str(p), "--out", str(out)]) == 0
    assert "containment: yes" in capsys.readouterr().out
    rows = (out / "region.txt").read_text().splitlines()
    assert all(len(r.split()) == 5 for r in rows)  # x y z in_region steady_rho


def test_region_rejects_two_robots_in_2d(tmp_path, capsys):
    p = tmp_path / "pair.scn"
    p.write_text(TWO_ROBOT_SCENARIO)
    assert main(["validate", "--scenario", str(p)]) == 0
    assert main(["region", "--scenario", str(p)]) == 4
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_in_file_is_scenario_error(tmp_path, capsys, value):
    p = tmp_path / "bad.scn"
    p.write_text(OPEN_SCENARIO + f"step {value}\n")
    assert main(["plan", "--scenario", str(p)]) == 4
    assert "line 8: step: numbers must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_override_is_scenario_error(scn, capsys, value):
    assert main(["plan", "--scenario", str(scn),
                 "--override", f"step={value}"]) == 4
    assert "step: numbers must be finite" in capsys.readouterr().err


def test_non_finite_coordinate_is_scenario_error(tmp_path, capsys):
    p = tmp_path / "bad.scn"
    p.write_text(OPEN_SCENARIO.replace("target 0.9 0.35", "target 0.9 nan"))
    assert main(["validate", "--scenario", str(p)]) == 4
    assert "line 4: target: numbers must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "plan", "region"])
@pytest.mark.parametrize("line", ["obstacle box 0.4 0.4 0.6 0.6", "region_shift 0.1 0.1"])
def test_dim_after_a_sized_line_is_scenario_error(tmp_path, capsys, command, line):
    p = tmp_path / "bad.scn"
    p.write_text(line + "\n" + SLAB_3D_SCENARIO)
    assert main([command, "--scenario", str(p)]) == 4
    assert ("line 2: dim 3 must come before line 1, which was read for dim 2"
            in capsys.readouterr().err)


def test_batch_aggregates(scn, tmp_path):
    other = tmp_path / "other.scn"
    other.write_text(OPEN_SCENARIO.replace("step 0.05", "step 0.04"))
    out = tmp_path / "b"
    code = main(["batch", "--scenario", str(scn), str(other), "--out", str(out)])
    assert code == 0
    table = (out / "batch_metrics.csv").read_text().strip().splitlines()
    assert len(table) == 3 and table[0].startswith("scenario,")


def test_svg_outputs_are_deterministic(scn, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["plan", "--scenario", str(scn), "--out", str(out),
                     "--svg"]) == 0
        outs.append((out / "segment_000.svg").read_bytes())
    assert outs[0] == outs[1]
