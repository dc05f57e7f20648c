"""Exception types shared across the planner."""


class PlanningError(Exception):
    """Base class for planner failures."""


class ResourceLimitError(PlanningError):
    """A configured vertex or iteration budget was exceeded; `graph` is the
    tree that hit it."""

    def __init__(self, message: str, graph=None):
        super().__init__(message)
        self.graph = graph


class ModelViolationError(PlanningError):
    """The robot was discovered inside an obstacle while moving."""


class CflViolationError(PlanningError):
    """An explicit step produced negative or blown-up mass."""


class RegionError(PlanningError):
    """Search-region construction cannot proceed (e.g. disconnected lattice)."""


class ScenarioError(ValueError):
    """Scenario text failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
