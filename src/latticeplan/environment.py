"""Ground-truth world and the dynamically revealed view of it.

Every obstacle is an open axis-aligned box.  The ground truth holds all of
them once, as (P, dim) corner arrays `lo` and `hi`; the planner only ever
sees a KnownEnvironment snapshot, which caches the rows of the boxes
revealed so far in the same form.  A box becomes revealed, whole, once any
robot position comes within the sensing radius of it; initially-known boxes
are revealed from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .geometry import ObstaclePrimitive, as_config, box_distances


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Immutable world description: workspace box, obstacles, formation band."""

    dim: int
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray
    primitives: Tuple[ObstaclePrimitive, ...]
    lo: np.ndarray  # (P, dim) lower corners of the boxes, in primitive order
    hi: np.ndarray  # (P, dim) upper corners
    dmin: float | None = None
    dmax: float | None = None

    @staticmethod
    def create(dim: int, bounds_lo, bounds_hi, primitives: Sequence[ObstaclePrimitive],
               dmin: float | None = None, dmax: float | None = None) -> "GroundTruth":
        lo = np.asarray(bounds_lo, dtype=float)
        hi = np.asarray(bounds_hi, dtype=float)
        if lo.shape != (dim,) or hi.shape != (dim,) or np.any(lo >= hi):
            raise ValueError("workspace bounds must be a non-degenerate box of the given dim")
        primitives = tuple(primitives)
        for i, p in enumerate(primitives):
            if np.shape(p.lo) != (dim,) or np.shape(p.hi) != (dim,):
                raise ValueError(f"obstacle {i} has corners of shape {np.shape(p.lo)}, "
                                 f"not ({dim},)")
        shape = (len(primitives), dim)
        return GroundTruth(dim=dim, bounds_lo=lo, bounds_hi=hi, primitives=primitives,
                           lo=np.array([p.lo for p in primitives], dtype=float).reshape(shape),
                           hi=np.array([p.hi for p in primitives], dtype=float).reshape(shape),
                           dmin=dmin, dmax=dmax)

    def robot_positions(self, x) -> np.ndarray:
        """The (k, dim) robot positions stacked in configuration x."""
        x = as_config(x)
        if x.shape[0] % self.dim != 0:
            raise ValueError(f"configuration length {x.shape[0]} not divisible by workspace dim {self.dim}")
        return x.reshape(-1, self.dim)

    def known_ids(self) -> FrozenSet[int]:
        return frozenset(i for i, p in enumerate(self.primitives) if p.known)


@dataclass(frozen=True, eq=False)
class KnownEnvironment:
    """Snapshot of the revealed obstacle set; immutable, new snapshot per sense."""

    truth: GroundTruth
    revealed: FrozenSet[int]
    sensing_radius: float

    @staticmethod
    def initial(truth: GroundTruth, sensing_radius: float) -> "KnownEnvironment":
        return KnownEnvironment(truth=truth, revealed=truth.known_ids(),
                                sensing_radius=sensing_radius)

    @property
    def bounds_lo(self) -> np.ndarray:
        return self.truth.bounds_lo

    @property
    def bounds_hi(self) -> np.ndarray:
        return self.truth.bounds_hi

    @property
    def dim(self) -> int:
        return self.truth.dim

    @cached_property
    def lo(self) -> np.ndarray:
        """(P, dim) lower corners of the revealed boxes, in primitive order."""
        return self.truth.lo[sorted(self.revealed)]

    @cached_property
    def hi(self) -> np.ndarray:
        """(P, dim) upper corners of the revealed boxes, in primitive order."""
        return self.truth.hi[sorted(self.revealed)]

    def robot_positions(self, x) -> np.ndarray:
        return self.truth.robot_positions(x)

    def fully_revealed(self) -> "KnownEnvironment":
        return KnownEnvironment(truth=self.truth,
                                revealed=frozenset(range(len(self.truth.primitives))),
                                sensing_radius=self.sensing_radius)


def sense(known: KnownEnvironment, x) -> KnownEnvironment:
    """Reveal every box within the sensing radius of any robot position."""
    truth = known.truth
    positions = known.robot_positions(x)
    if len(known.revealed) == len(truth.primitives):
        return known
    near = box_distances(positions, truth.lo, truth.hi) <= known.sensing_radius
    new = known.revealed | frozenset(np.flatnonzero(near.any(axis=0)).tolist())
    if len(new) == len(known.revealed):
        return known
    return KnownEnvironment(truth=truth, revealed=new, sensing_radius=known.sensing_radius)


def distance_to_revealed(x, known: KnownEnvironment) -> float:
    """Minimum workspace distance from any robot position to any revealed box
    (infinite when none is revealed)."""
    d = box_distances(known.robot_positions(x), known.lo, known.hi)
    return float(d.min(initial=np.inf))


def clearances(configs, known: KnownEnvironment, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """`distance_to_revealed` of each configuration row of `configs` (N, n),
    in one pass; given `rows` of `known.lo` and `known.hi`, the distance to
    those boxes only."""
    lo, hi = (known.lo, known.hi) if rows is None else (known.lo[rows], known.hi[rows])
    pos = np.reshape(configs, (len(configs), -1, known.dim))
    return box_distances(pos, lo, hi).min(axis=(1, 2), initial=np.inf)
