"""Deterministic potential-guided lattice-tree path planning in unknown
environments, with trap-escape strategies and a density-flow lattice solver
for bounding the search region."""

from .environment import GroundTruth, KnownEnvironment, distance_to_revealed, sense
from .errors import (CflViolationError, ModelViolationError, PlanningError,
                     RegionError, ResourceLimitError, ScenarioError)
from .geometry import ObstaclePrimitive, distance
from .graph import GenConfig, SearchGraph, generate_graph
from .pathfind import GraphPath, backtrace
from .planner import PlannerConfig, PlanResult, plan
from .trap_escape import TrapEscapePolicy

__version__ = "0.1.0"

__all__ = [
    "GroundTruth", "KnownEnvironment", "sense", "distance_to_revealed",
    "PlanningError", "ResourceLimitError", "ModelViolationError",
    "CflViolationError", "RegionError", "ScenarioError",
    "ObstaclePrimitive", "distance",
    "GenConfig", "SearchGraph", "generate_graph",
    "GraphPath", "backtrace",
    "PlannerConfig", "PlanResult", "plan", "TrapEscapePolicy",
    "__version__",
]
