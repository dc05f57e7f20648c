"""Command line interface: exit codes, outputs, determinism."""

from pathlib import Path

import pytest

from latticeplan import fpe
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

# The sensing radius is below the motion pitch 0.02, so the robot steps into
# the box before it is seen.
UNSEEN_BOX_SCENARIO = """\
dim 2
workspace 0 0 1 1
start 0.1 0.5
target 0.9 0.5
obstacle box 0.45 0.4 0.55 0.6
sensing_radius 0.001
step 0.2
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


def test_plan_no_path_exit_code(tmp_path, capsys):
    p = tmp_path / "sealed.scn"
    p.write_text(SEALED_SCENARIO)
    out = tmp_path / "out"
    assert main(["plan", "--scenario", str(p), "--out", str(out), "--metrics"]) == 2
    # The exhausted tree that certifies no path is counted.
    header, row = (out / "metrics.csv").read_text().splitlines()
    metrics = dict(zip(header.split(","), row.split(",")))
    assert metrics["num_graphs"] == "1" and int(metrics["max_vertices"]) > 1
    assert "graphs: 1  max_vertices: " + metrics["max_vertices"] in capsys.readouterr().out


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


@pytest.mark.parametrize("overrides,pitch", [
    ([], "step 0.03"),
    (["--override", "step=0.05", "--override", "grid_step=0.03"], "grid_step 0.03")])
def test_region_target_off_the_region_lattice_is_scenario_error(
        tmp_path, capsys, overrides, pitch):
    # 0.8 is not a whole number of 0.03 pitches.
    p = tmp_path / "off.scn"
    p.write_text(OPEN_SCENARIO.replace("0.35", "0.5").replace("step 0.05", "step 0.03"))
    assert main(["region", "--scenario", str(p)] + overrides) == 4
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and f"({pitch})" in err


def test_out_of_memory_is_resource_limit(scn, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(fpe.Lattice, "build", exhausted)
    assert main(["region", "--scenario", str(scn)]) == 3
    err = capsys.readouterr().err
    assert err == "resource limit: out of memory: Unable to allocate 7.28 TiB\n"


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


@pytest.mark.parametrize("command", ["plan", "batch"])
def test_stepping_into_an_unseen_box_is_scenario_error(tmp_path, capsys, command):
    p = tmp_path / "unseen.scn"
    p.write_text(UNSEEN_BOX_SCENARIO)
    assert main([command, "--scenario", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("scenario error: ")
    assert "sensing_radius" in err and "motion pitch step/10" in err


# The dead end of tests/conftest.py:make_deadend with one robot.
SINGLE_DEADEND_SCENARIO = """\
dim 2
workspace 0 0 1 1
start 0.12 0.5
target 0.88 0.5
obstacle box 0.55 0.28 0.61 0.72
obstacle box 0.33 0.28 0.55 0.34
obstacle box 0.33 0.66 0.55 0.72
sensing_radius 0.12
step 0.04
"""


@pytest.mark.parametrize("command", ["validate", "plan", "batch"])
def test_fixed_shape_escape_with_one_robot_is_scenario_error(tmp_path, capsys, command):
    p = tmp_path / "deadend.scn"
    p.write_text(SINGLE_DEADEND_SCENARIO + "escape fixed-shape\n")
    assert main([command, "--scenario", str(p)]) == 4
    err = capsys.readouterr().err
    assert err == "scenario error: line 10: escape fixed-shape needs robots 2 or more\n"


@pytest.mark.parametrize("command", ["validate", "plan", "batch"])
def test_fixed_shape_escape_override_with_one_robot_is_scenario_error(tmp_path, capsys,
                                                                      command):
    p = tmp_path / "deadend.scn"
    p.write_text(SINGLE_DEADEND_SCENARIO)
    assert main([command, "--scenario", str(p), "--override", "escape=fixed-shape"]) == 4
    assert "escape fixed-shape needs robots 2 or more" in capsys.readouterr().err
    assert main([command, "--scenario", str(p), "--override", "escape=near-obstacle"]) == 0


@pytest.mark.parametrize("command", ["validate", "plan", "batch"])
def test_start_outside_formation_band_is_scenario_error(tmp_path, capsys, command):
    p = tmp_path / "wide.scn"
    p.write_text(TWO_ROBOT_SCENARIO.replace("start 0.1 0.44 0.1 0.5", "start 0.1 0.3 0.1 0.63"))
    assert main([command, "--scenario", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("scenario error: line 4: start has a robot pair outside [dmin, dmax]")
