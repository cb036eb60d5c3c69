"""Core state model: grid, pulses, brain factors, terms, system state.

The system lives on a uniform one-dimensional grid of brain-variable values.
A brain factor is a pulse (a normalized amplitude profile over grid sites),
a single site state or a disengaged X state, and each names the observer it
belongs to; rule 4 and a reduction act per observer. A term pairs an
apparatus label and complex coefficient with one brain factor; a system
state is an orthogonal superposition of terms sharing one grid and one
rule-1 normalizer ``s``. A pulse still widening after a reduction holds the
staged ``FormationPolicy`` it forms under.

Normalization conventions
-------------------------
Pulse weights discretize a density amplitude F(u): ``sum |F|^2 du = 1``.
Same-site grid basis states have inner product ``1/du``, so the amplitude of
the unit-norm basis state at site ``k`` inside a pulse is ``F[k] * sqrt(du)``.
All per-site square-modulus bookkeeping uses that unit-basis amplitude, which
keeps every reduction bounded by the pre-hit norm.

Everything here is value-semantic and immutable after construction; ndarray
fields are marked read-only so shared states cannot be mutated in place.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import (
    CenterOutOfRange,
    GridMismatch,
    GridTooCoarse,
    IndexOutOfRange,
    NonpositiveS,
    SimulationError,
)

__all__ = [
    "PulseKind",
    "BrainGrid",
    "FormationKind",
    "FormationPolicy",
    "Pulse",
    "SingleState",
    "DisengagedX",
    "BrainFactor",
    "Term",
    "SystemState",
    "make_gaussian_pulse",
    "delta_pulse",
    "pulse_overlap",
    "profile_norm_sq",
    "total_square_modulus",
]

# Amplitude below exp(-18) of the peak is clipped to exactly zero so that
# well-separated pulses are disjoint in floating point, not merely tiny.
GAUSSIAN_TRUNCATION_SIGMAS = 6.0


class PulseKind(enum.Enum):
    """Whether a brain excitation is experienced or merely available."""

    CONSCIOUS = "conscious"
    READY = "ready"


@dataclass(frozen=True)
class BrainGrid:
    """Uniform, non-periodic discretization of the brain variable u.

    Parameters
    ----------
    n_points : int
        Number of grid sites, at least 8.
    spacing : float
        Distance du between adjacent sites, positive.
    origin : float
        Coordinate of site 0.
    """

    n_points: int
    spacing: float
    origin: float = 0.0

    def __post_init__(self):
        if self.n_points < 8:
            raise GridTooCoarse(f"n_points must be >= 8, got {self.n_points}")
        if not (self.spacing > 0.0):
            raise GridTooCoarse(f"spacing must be positive, got {self.spacing}")

    @functools.cached_property
    def sites(self) -> np.ndarray:
        """Coordinates of all grid sites, computed once per grid (read-only)."""
        u = self.origin + self.spacing * np.arange(self.n_points)
        u.setflags(write=False)
        return u

    @property
    def u_max(self) -> float:
        return self.origin + self.spacing * (self.n_points - 1)

    def coord(self, index: int) -> float:
        """Coordinate of one site."""
        if not 0 <= index < self.n_points:
            raise IndexOutOfRange(f"site index {index} outside [0, {self.n_points})")
        return self.origin + self.spacing * index

    def nearest_index(self, u: float) -> int:
        """Grid site nearest to coordinate u (clipped to the grid)."""
        k = int(math.floor((u - self.origin) / self.spacing + 0.5))
        return min(max(k, 0), self.n_points - 1)


class FormationKind(enum.Enum):
    INSTANTANEOUS = "instant"
    STAGED = "staged"


@dataclass(frozen=True)
class FormationPolicy:
    """How a conscious pulse forms after a reduction.

    Instantaneous swaps the site state for the target Gaussian in one move.
    Staged starts from the bare site and widens with time constant tau:
    the effective width is ``target_sigma * stage + 2 du * (1 - stage)``,
    amplitude spreads at most neighbor_radius sites past the occupied set
    per step, and the profile keeps unit norm at every stage.
    """

    kind: FormationKind
    target_sigma: float
    tau: float = 0.0
    neighbor_radius: int = 1

    @classmethod
    def instantaneous(cls, target_sigma: float) -> "FormationPolicy":
        return cls(kind=FormationKind.INSTANTANEOUS, target_sigma=target_sigma)

    @classmethod
    def staged(cls, target_sigma: float, tau: float, neighbor_radius: int = 1) -> "FormationPolicy":
        if not tau > 0:
            raise SimulationError(f"staged formation needs tau > 0, got {tau}")
        if neighbor_radius < 1:
            raise SimulationError(f"neighbor_radius must be >= 1, got {neighbor_radius}")
        return cls(
            kind=FormationKind.STAGED,
            target_sigma=target_sigma,
            tau=tau,
            neighbor_radius=neighbor_radius,
        )


def profile_norm_sq(weights: np.ndarray, spacing: float) -> float:
    """Square modulus of a profile sampled on a grid, sum |F|^2 du."""
    return float(np.add.reduce(np.abs(weights) ** 2) * spacing)


def _frozen_array(values, dtype=np.complex128) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Pulse:
    """Brain factor: one observer's normalized amplitude profile over grid sites.

    Fields
    ------
    kind : PulseKind
        Conscious or ready.
    grid : BrainGrid
        Grid the weights are sampled on.
    weights : ndarray of complex
        Discretized F(u); ``sum |weights|^2 * du = 1`` within 1e-9.
    center_index : int
        Index of max ``|weights|``, ties broken by the lowest index.
    formation_stage : float
        1.0 for a fully formed pulse; in [0, 1) while still widening.
    forming : FormationPolicy, optional
        The staged policy the pulse forms under; present only while it widens.
    phantom_sites : ndarray of bool, optional
        Trail sites frozen at constant amplitude (drift shadows only).
    fed_sites : ndarray of bool, optional
        Sites that have ever received at least one full step of current at or
        above the phantom threshold (drift shadows only).
    observer_id : str
        The observer whose brain state the pulse is.
    """

    kind: PulseKind
    grid: BrainGrid
    weights: np.ndarray
    center_index: int
    formation_stage: float = 1.0
    forming: Optional[FormationPolicy] = None
    phantom_sites: Optional[np.ndarray] = None
    fed_sites: Optional[np.ndarray] = None
    observer_id: str = "obs"

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.shape != (self.grid.n_points,):
            raise GridMismatch(
                f"weights length {w.shape} does not match grid n_points {self.grid.n_points}"
            )
        object.__setattr__(self, "weights", w)
        for name in ("phantom_sites", "fed_sites"):
            mask = getattr(self, name)
            if mask is not None:
                object.__setattr__(self, name, _frozen_array(mask, dtype=bool))
        expected = int(np.argmax(np.abs(self.weights)))
        if expected != self.center_index:
            raise IndexOutOfRange(
                f"center_index {self.center_index} is not the peak site {expected}"
            )
        if not 0.0 <= self.formation_stage <= 1.0:
            raise ValueError(f"formation_stage outside [0, 1]: {self.formation_stage}")

    def norm_sq(self) -> float:
        """Square modulus of the profile, sum |F|^2 du."""
        return self._norm_sq

    @functools.cached_property
    def _norm_sq(self) -> float:
        # summed once: the weights are a read-only copy made at construction
        return profile_norm_sq(self.weights, self.grid.spacing)

    @property
    def is_ready(self) -> bool:
        return self.kind is PulseKind.READY

    def grid_of(self) -> Optional[BrainGrid]:
        return self.grid

    def site_amplitudes(self, grid: Optional[BrainGrid] = None) -> np.ndarray:
        """Amplitudes on the unit-norm site basis, F * sqrt(du); a given grid must be the pulse's."""
        if grid is not None and grid != self.grid:
            raise GridMismatch("factor grid differs from state grid")
        return self.weights * math.sqrt(self.grid.spacing)

    def with_kind(self, kind: PulseKind) -> "Pulse":
        return replace(self, kind=kind)


@dataclass(frozen=True)
class SingleState:
    """Brain factor occupying exactly one grid site.

    A station on the way to a pulse: reductions collapse to a conscious
    single state before formation widens it.
    """

    kind: PulseKind
    index: int
    observer_id: str = "obs"

    @property
    def is_ready(self) -> bool:
        return self.kind is PulseKind.READY

    def norm_sq(self) -> float:
        return 1.0

    def grid_of(self) -> Optional[BrainGrid]:
        return None

    def site_amplitudes(self, grid: BrainGrid) -> np.ndarray:
        if not 0 <= self.index < grid.n_points:
            raise IndexOutOfRange(f"single state site {self.index} outside grid")
        amps = np.zeros(grid.n_points, dtype=np.complex128)
        amps[self.index] = 1.0
        return amps


@dataclass(frozen=True, eq=False)
class DisengagedX:
    """Observer state no longer correlated with the measured variable.

    Carries a unit-norm profile (normally inherited from the conscious pulse
    it evolved from) but is neither conscious nor ready: it is never a hit
    target and never a transfer endpoint.
    """

    grid: BrainGrid
    weights: np.ndarray
    observer_id: str = "obs"

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))

    @property
    def is_ready(self) -> bool:
        return False

    def norm_sq(self) -> float:
        return self._norm_sq

    _norm_sq = Pulse._norm_sq  # the same once-per-instance sum over read-only weights

    def grid_of(self) -> Optional[BrainGrid]:
        return self.grid

    def site_amplitudes(self, grid: BrainGrid) -> np.ndarray:
        if self.grid != grid:
            raise GridMismatch("factor grid differs from state grid")
        return self.weights * math.sqrt(self.grid.spacing)


BrainFactor = Union[Pulse, SingleState, DisengagedX]


@dataclass(frozen=True, eq=False)
class Term:
    """One orthogonal component: apparatus label, coefficient, brain factor."""

    apparatus_label: int
    coefficient: complex
    brain: BrainFactor
    phantom: bool = False

    def square_modulus(self) -> float:
        return abs(self.coefficient) ** 2 * self.brain.norm_sq()


@dataclass(frozen=True, eq=False)
class SystemState:
    """Superposition of terms at one time, with the rule-1 normalizer s.

    Terms are mutually orthogonal by construction: distinct apparatus labels
    are orthonormal apparatus states, and brain factors of coinciding labels
    are orthogonal brain configurations. ``s`` is the square modulus of the
    isolated system at scenario start and is never re-based afterwards.
    """

    terms: tuple
    s: float
    time: float
    grid: BrainGrid

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not (self.s > 0.0):
            raise NonpositiveS(f"s must be positive, got {self.s}")
        for t in self.terms:
            g = t.brain.grid_of()
            if g is not None and g != self.grid:
                raise GridMismatch("all factors in one state must share the state grid")
            if isinstance(t.brain, SingleState) and not 0 <= t.brain.index < self.grid.n_points:
                raise IndexOutOfRange(f"single state site {t.brain.index} outside grid")

    def with_terms(self, terms, time: Optional[float] = None) -> "SystemState":
        return SystemState(
            terms=tuple(terms),
            s=self.s,
            time=self.time if time is None else time,
            grid=self.grid,
        )


def make_gaussian_pulse(
    grid: BrainGrid, center: float, sigma: float, kind: PulseKind = PulseKind.READY
) -> Pulse:
    """Build a normalized Gaussian pulse.

    The amplitude profile is ``F(u) ~ exp(-(u - center)^2 / (2 sigma^2))``,
    truncated to exactly zero beyond 6 sigma and renormalized so that
    ``sum |F|^2 du = 1`` holds exactly.

    Raises
    ------
    GridTooCoarse
        If ``sigma < 2 * spacing``.
    CenterOutOfRange
        If the center is outside the grid or nearer than 4 sigma to an edge.
    """
    du = grid.spacing
    if sigma < 2.0 * du:
        raise GridTooCoarse(f"sigma {sigma} < 2 * spacing {2.0 * du}: unresolvable")
    if not grid.origin <= center <= grid.u_max:
        raise CenterOutOfRange(f"center {center} outside [{grid.origin}, {grid.u_max}]")
    if center - 4.0 * sigma < grid.origin or center + 4.0 * sigma > grid.u_max:
        raise CenterOutOfRange(
            f"center {center} closer than 4 sigma ({4.0 * sigma}) to a grid edge"
        )
    u = grid.sites
    w = np.exp(-((u - center) ** 2) / (2.0 * sigma**2))
    w[np.abs(u - center) > GAUSSIAN_TRUNCATION_SIGMAS * sigma] = 0.0
    w = w / math.sqrt(float(np.sum(w**2)) * du)
    center_index = int(np.argmax(w))
    return Pulse(kind=kind, grid=grid, weights=w, center_index=center_index)


def delta_pulse(grid: BrainGrid, index: int, kind: PulseKind) -> Pulse:
    """Pulse with all weight on one site: F = 1/sqrt(du) at ``index``."""
    if not 0 <= index < grid.n_points:
        raise IndexOutOfRange(f"site index {index} outside grid")
    w = np.zeros(grid.n_points)
    w[index] = 1.0 / math.sqrt(grid.spacing)
    return Pulse(kind=kind, grid=grid, weights=w, center_index=index, formation_stage=0.0)


def pulse_overlap(p: Pulse, q: Pulse) -> float:
    """Absolute profile overlap, sum |F_p| |F_q| du.

    1.0 for identical profiles, 0.0 for disjoint supports. Raises
    GridMismatch if the pulses live on different grids.
    """
    if p.grid != q.grid:
        raise GridMismatch("pulse_overlap requires a shared grid")
    return float(np.sum(np.abs(p.weights) * np.abs(q.weights)) * p.grid.spacing)


def total_square_modulus(state: SystemState) -> float:
    """Square modulus of the whole superposition, sum over orthogonal terms."""
    return float(sum(t.square_modulus() for t in state.terms))
