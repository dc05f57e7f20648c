"""Command line interface: exit codes, outputs, determinism."""

import os
from pathlib import Path

import numpy as np
import pytest

from latticeplan import cli, fpe
from latticeplan.cli import main

OPEN_SCENARIO = """\
dim 2
workspace 0 0 1 1
start 0.1 0.35
target 0.9 0.35
obstacle box 0.41 0 0.44 0.68 known
sensing_radius 0.12
step 0.05
max_vertices 250
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
max_vertices 1120
"""

SLAB_3D_SCENARIO = """\
dim 3
workspace 0 0 0 1 1 1
start 0.1 0.35 0.35
target 0.85 0.35 0.35
obstacle box 0.45 0 0 0.48 0.55 1 known
sensing_radius 0.12
step 0.125
max_vertices 120
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
max_vertices 400
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
max_vertices 25
"""


# The wall's gap, 0.38 < y < 0.42, is narrower than a coarse region pitch.
GAP_SCENARIO = """\
dim 2
workspace 0 0 1 1
start 0.1 0.5
target 0.9 0.5
obstacle box 0.45 0 0.55 0.38
obstacle box 0.45 0.42 0.55 1
sensing_radius 0.1
step 0.01
max_vertices 480
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


@pytest.mark.parametrize("argv, said", [
    (["plan"], "latticeplan plan: the following arguments are required: --scenario"),
    (["frobnicate"], "latticeplan: argument command: invalid choice: 'frobnicate'"),
    ([], "latticeplan: the following arguments are required: command"),
])
def test_command_line_the_parser_rejects_is_invalid_input(capsys, monkeypatch, argv, said):
    """A usage error exits 4, invalid input, with argparse's message on one
    line; exit 2 means "no feasible path"."""
    monkeypatch.setattr(cli, "plan", None)  # nothing may be planned
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {said}") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latticeplan")


@pytest.mark.parametrize("command", ["validate", "plan", "region", "batch"])
@pytest.mark.parametrize("kind", ["not-utf-8", "directory", "no-read-permission"])
def test_unreadable_scenario_path_is_scenario_error(tmp_path, capsys, monkeypatch,
                                                    command, kind):
    """A scenario path that cannot be read as text exits 4 with one line
    that names the path, before anything is planned."""
    p = tmp_path / "scene.scn"
    if kind == "not-utf-8":
        p.write_bytes(OPEN_SCENARIO.replace("box", "b\xe9te").encode("latin-1"))
        reason = "is not UTF-8 text: byte 0xe9 at offset"
    elif kind == "directory":
        p.mkdir()
        reason = "Is a directory"
    else:
        p.write_text(OPEN_SCENARIO)
        p.chmod(0)
        if os.access(p, os.R_OK):  # a superuser reads it anyway: raise what others get
            def denied(self, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(self))
            monkeypatch.setattr(Path, "read_text", denied)
        reason = "Permission denied"
    monkeypatch.setattr(cli, "plan", None)  # nothing may be planned
    assert main([command, "--scenario", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1, err
    assert str(p) in err and reason in err, err


@pytest.mark.parametrize("command", ["plan", "region", "batch"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_fails_before_planning(scn, tmp_path, capsys,
                                                              monkeypatch, command, out):
    (tmp_path / "file").write_text("not a directory\n")
    monkeypatch.setattr(cli, "plan", None)  # nothing may be planned
    path = str(tmp_path / out)
    assert main([command, "--scenario", str(scn), "--out", path]) == 4
    assert capsys.readouterr().err == f"error: --out {path} is not a directory\n"
    assert (tmp_path / "file").read_text() == "not a directory\n"


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


def test_shifted_samples_break_containment(scn, monkeypatch, capsys):
    """Structural self-check: the trajectory's samples shifted by (0.3, 0.3)
    before `fpe.contains_path`, as displacing the region would, flip the
    verdict, and `region` reports "containment: no" with exit 2."""
    contains, verdicts = fpe.contains_path, []

    def shifted(region, samples):
        verdicts.append((contains(region, samples),
                         contains(region, [np.asarray(x) + 0.3 for x in samples])))
        return verdicts[-1][1]

    monkeypatch.setattr(fpe, "contains_path", shifted)
    assert main(["region", "--scenario", str(scn)]) == 2
    assert verdicts == [(True, False)]
    assert "containment: no" in capsys.readouterr().out


def test_region_shift_is_an_unknown_directive(tmp_path, capsys):
    p = tmp_path / "shifted.scn"
    p.write_text(OPEN_SCENARIO + "region_shift 0.3 0.3\n")
    assert main(["region", "--scenario", str(p)]) == 4
    assert "line 9: unknown directive 'region_shift'" in capsys.readouterr().err


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


def test_region_pitch_too_coarse_to_connect_is_scenario_error(tmp_path, capsys):
    """A 0.04 gap in a wall: `plan` at step 0.01 passes it, but no region
    lattice node at grid_step 0.2 connects start and target."""
    p = tmp_path / "gap.scn"
    p.write_text(GAP_SCENARIO)
    assert main(["plan", "--scenario", str(p)]) == 0
    capsys.readouterr()
    assert main(["region", "--scenario", str(p), "--override", "grid_step=0.2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("scenario error: target is not lattice-connected")
    assert err.endswith("(grid_step 0.2)\n") and err.count("\n") == 1


def test_out_of_memory_is_resource_limit(scn, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(fpe.Lattice, "build", exhausted)
    assert main(["region", "--scenario", str(scn)]) == 3
    err = capsys.readouterr().err
    assert err == "resource limit: out of memory: Unable to allocate 7.28 TiB\n"


@pytest.mark.parametrize("text", [OPEN_SCENARIO, SLAB_3D_SCENARIO])
def test_region_lattice_too_large_for_an_array_is_resource_limit(tmp_path, capsys, text):
    """At grid_step 1e-9 the region grid has about 1e18 points in 2-D and
    1e27 in 3-D: more than numpy can hold, so the lattice is refused before
    any array is allocated."""
    p = tmp_path / "fine.scn"
    p.write_text(text)
    assert main(["region", "--scenario", str(p), "--override", "grid_step=1e-9"]) == 3
    err = capsys.readouterr().err
    count = "1e+18" if text == OPEN_SCENARIO else "1e+27"
    assert err == (f"resource limit: out of memory: a region lattice of {count} grid "
                   "points (pitch 1e-09) is too large for one array\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_in_file_is_scenario_error(tmp_path, capsys, value):
    p = tmp_path / "bad.scn"
    p.write_text(OPEN_SCENARIO + f"step {value}\n")
    assert main(["plan", "--scenario", str(p)]) == 4
    assert "line 9: step: numbers must be finite" in capsys.readouterr().err


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
@pytest.mark.parametrize("line", ["obstacle box 0.4 0.4 0.6 0.6", "workspace 0 0 1 1"])
def test_dim_after_a_sized_line_is_scenario_error(tmp_path, capsys, command, line):
    p = tmp_path / "bad.scn"
    p.write_text(line + "\n" + SLAB_3D_SCENARIO)
    assert main([command, "--scenario", str(p)]) == 4
    assert ("line 2: dim 3 must come before line 1, which was read for dim 2"
            in capsys.readouterr().err)


def test_batch_aggregates(scn, tmp_path):
    """Each `batch_metrics.csv` row is the scenario's name and status
    followed by the row `plan --metrics` writes, under the same header."""
    other = tmp_path / "other.scn"
    other.write_text(OPEN_SCENARIO.replace("step 0.05", "step 0.04"))
    out = tmp_path / "b"
    assert main(["batch", "--scenario", str(scn), str(other), "--out", str(out)]) == 0
    header, *rows = (out / "batch_metrics.csv").read_text().splitlines()
    assert len(rows) == 2
    for i, (path, row) in enumerate(zip([scn, other], rows)):
        plan_out = tmp_path / f"plan{i}"
        assert main(["plan", "--scenario", str(path), "--metrics", "--out", str(plan_out)]) == 0
        want_header, want_row = (plan_out / "metrics.csv").read_text().splitlines()
        assert header == "scenario,status," + want_header
        assert row == f"{path.name},success,{want_row}"


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
max_vertices 220
"""


@pytest.mark.parametrize("command", ["validate", "plan", "batch"])
def test_fixed_shape_escape_with_one_robot_is_scenario_error(tmp_path, capsys, command):
    p = tmp_path / "deadend.scn"
    p.write_text(SINGLE_DEADEND_SCENARIO + "escape fixed-shape\n")
    assert main([command, "--scenario", str(p)]) == 4
    err = capsys.readouterr().err
    assert err == "scenario error: line 11: escape fixed-shape needs robots 2 or more\n"


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
