"""Scenario file parsing and validation."""

import numpy as np
import pytest

from latticeplan.errors import ScenarioError
from latticeplan.scenario import parse_scenario

GOOD = """\
# two robots crossing a corridor
dim 2
robots 2
workspace 0 0 1 1
start 0.1 0.47 0.1 0.53
target 0.9 0.47 0.9 0.53
obstacle box 0.25 0 0.75 0.33
obstacle box 0.25 0.67 0.75 1 known
sensing_radius 0.1
step 0.04
dmin 0.03
dmax 0.13
"""


def test_parse_good_scenario():
    sc = parse_scenario(GOOD)
    assert sc.dim == 2 and sc.robots == 2
    assert np.allclose(sc.start, [0.1, 0.47, 0.1, 0.53])
    assert len(sc.obstacles) == 2
    assert sc.obstacles[1][2] is True  # known flag
    assert sc.dmin == 0.03 and sc.dmax == 0.13


def test_error_carries_line_number():
    bad = "dim 2\nworkspace 0 0 1 1\nobstacle sphere 0.5 0.5 0.1\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(bad)
    assert exc.value.line == 3


def test_unknown_directive_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(GOOD + "gravity 9.81\n")


def test_missing_start_rejected():
    bad = "dim 2\ntarget 0.9 0.5\nstep 0.03\n"
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_multi_robot_needs_band():
    bad = GOOD.replace("dmin 0.03\n", "").replace("dmax 0.13\n", "")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_infeasible_start_rejected():
    bad = GOOD.replace("start 0.1 0.47 0.1 0.53", "start 0.3 0.1 0.3 0.16")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_dim_mismatch_rejected():
    bad = GOOD.replace("target 0.9 0.47 0.9 0.53", "target 0.9 0.47")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_derived_objects():
    sc = parse_scenario(GOOD)
    truth = sc.ground_truth()
    assert truth.dmin == 0.03
    assert len(truth.primitives) == 2
    cfg = sc.planner_config()
    assert cfg.step == 0.04 and cfg.sensing_radius == 0.1


SINGLE_DEADEND = """\
dim 2
workspace 0 0 1 1
start 0.12 0.5
target 0.88 0.5
obstacle box 0.55 0.28 0.61 0.72
obstacle box 0.33 0.28 0.55 0.34
obstacle box 0.33 0.66 0.55 0.72
sensing_radius 0.12
step 0.04
escape fixed-shape
"""


@pytest.mark.parametrize("text, line", [
    (SINGLE_DEADEND, 10),
    (SINGLE_DEADEND.replace("escape fixed-shape\n", "").replace(
        "dim 2\n", "dim 2\nescape fixed-shape\nrobots 1\n"), 2),
])
def test_fixed_shape_escape_with_one_robot_rejected(text, line):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.line == line
    assert "escape fixed-shape needs robots 2 or more" in str(exc.value)


def test_other_escapes_with_one_robot_accepted():
    for mode in ("none", "near-obstacle"):
        sc = parse_scenario(SINGLE_DEADEND.replace("fixed-shape", mode))
        assert sc.escape == mode and sc.robots == 1


@pytest.mark.parametrize("name, line, value", [
    ("start", 5, "0.1 0.3 0.1 0.63"),    # 0.33 apart, above dmax
    ("target", 6, "0.9 0.5 0.9 0.51"),   # 0.01 apart, below dmin
])
def test_start_or_target_outside_band_rejected(name, line, value):
    x = "0.1" if name == "start" else "0.9"
    bad = GOOD.replace(f"{name} {x} 0.47 {x} 0.53", f"{name} {value}")
    assert bad != GOOD
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(bad)
    assert exc.value.line == line
    assert f"{name} has a robot pair outside [dmin, dmax]" in str(exc.value)


MOVED_ROBOTS = GOOD.replace("robots 2\n", "").replace(
    "start 0.1 0.47 0.1 0.53\ntarget 0.9 0.47 0.9 0.53\n", "start 0.1 0.47\ntarget 0.9 0.47\n")


@pytest.mark.parametrize("text, line, message", [
    (GOOD.replace("dmin 0.03", "dmin -0.01"), 11, "need 0 <= dmin < dmax"),
    (GOOD.replace("dmax 0.13", "dmax 0.02"), 12, "need 0 <= dmin < dmax"),
    (GOOD + "stop_fraction 1.5\n", 13, "stop_fraction must lie in (0, 1)"),
    (MOVED_ROBOTS + "robots 2\n", 4, "start length does not match dim * robots"),
    (MOVED_ROBOTS.replace("start 0.1 0.47\ntarget 0.9 0.47\n",
                          "target 0.9 0.47\nrobots 2\nstart 0.1 0.47 0.1 0.53\n"), 4,
     "target length does not match dim * robots"),
    (GOOD.replace("dmin 0.03\ndmax 0.13\n", ""), 3, "multi-robot scenarios need dmin and dmax"),
    (GOOD.replace("start 0.1 0.47 0.1 0.53", "start 0.3 0.1 0.3 0.16"), 5,
     "start is infeasible in the ground-truth environment"),
])
def test_validation_errors_report_the_directive_line(text, line, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert message in str(exc.value) and exc.value.line == line


def test_start_with_blocked_link_rejected():
    """Both robots stand outside every box, 0.06 apart, but a thin box
    between them blocks their link; an unknown box counts, as the check is
    made against the ground truth."""
    bad = GOOD + "obstacle box 0.05 0.49 0.15 0.51\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(bad)
    assert exc.value.line == 5 and "link crossing a box" in str(exc.value)
