"""Deterministic evolution between reductions.

Envelope schedules move square modulus between terms in closed form (exact
norm conservation, no accumulated integration error); ``step`` checks a
schedule against the state, advances it by dt and reports its probability
currents. No driver calls ``step``: the tests step it as the reference the
closed-form backbone must equal. Pulse formation after a hit and
conscious-pulse drift with a ready shadow live here too, each as a kernel
on plain arrays with its loop invariants computed once. ``FormationKernel``
widens a forming pulse over an occupied interval any number of rows at a
time, in 2-D blocks of rows, and stops computing once a row repeats;
``_advance_formation`` is one kernel row on a pulse, and a trajectory past
its hit advances the kernel a segment at a time.
``DriftKernel`` moves the conscious pulse and feeds the shadow on real
arrays, a block of rows per ``advance``: the conscious rows first, then the
shadow's; ``drift_pulse`` is one kernel row on a state, and the kernel's
``state`` rebuilds a state from its current row through the validating
constructors.

Currents are finite differences of square moduli over the step, so the
per-term entries always telescope to the envelope's total transfer and the
per-site entries of a proportionally growing pulse split a term's current as
|F(u)|^2 du.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    IndexOutOfRange,
    PhantomTransfer,
    Rule2Violation,
    Rule4Violation,
    ScheduleStateMismatch,
    SimulationError,
    StepTooLarge,
)
from .state import (
    BrainGrid,
    FormationKind,
    FormationPolicy,
    Pulse,
    PulseKind,
    SingleState,
    SystemState,
    Term,
    make_gaussian_pulse,
    delta_pulse,
    profile_norm_sq,
)

__all__ = [
    "RampKind",
    "Transfer",
    "EnvelopeSchedule",
    "CurrentReport",
    "Rule4Pair",
    "rule4_pairs",
    "step",
    "form_pulse",
    "FormationKernel",
    "DriftRows",
    "DriftKernel",
    "drift_pulse",
    "relative_intensity",
]

# A ready shadow site turns phantom when its incoming current stays below
# this for one full step after having been fed at least once.
PHANTOM_CURRENT_FLOOR = 1e-12

COEFF_MATCH_TOL = 1e-9

MIN_RAMP_STEPS = 100

# elements of one block of formation rows: FormationKernel.advance's memory is bounded at any grid size
FORMATION_BLOCK = 1 << 16
# values of one block of drift rows, for DriftKernel.advance's callers: 2**16 raised verify's peak RSS
DRIFT_BLOCK = 1 << 14


class RampKind(enum.Enum):
    TRIG = "trig"
    LINEAR = "linear"
    HOLD = "hold"


@dataclass(frozen=True)
class Transfer:
    """Square modulus flows from term ``src`` to terms ``dsts`` (equal split)."""

    src: int
    dsts: Tuple[int, ...]


@dataclass(frozen=True)
class Rule4Pair:
    """A configured transfer between two ready factors of one observer."""

    src: int
    dst: int
    observer_id: str


@dataclass(frozen=True)
class EnvelopeSchedule:
    """Closed-form envelope evolution over [t_start, t_end].

    TrigRamp: source coefficient a0*cos(theta(t)), each destination
    a0*sin(theta(t))/sqrt(m), theta ramping 0 -> asin(sqrt(fraction)).
    LinearRamp: transferred square modulus grows linearly to
    fraction*|a0|^2. Hold: nothing moves.

    Source amplitudes are captured at construction from ``state0``;
    destinations must start at exactly zero coefficient and hold ready-kind
    factors. A schedule never touches phantom terms.
    """

    kind: RampKind
    t_start: float
    t_end: float
    transfers: Tuple[Transfer, ...] = ()
    source_amplitudes: Tuple[complex, ...] = ()
    fraction: float = 1.0

    @classmethod
    def hold(cls) -> "EnvelopeSchedule":
        return cls(kind=RampKind.HOLD, t_start=0.0, t_end=0.0)

    @classmethod
    def trig(cls, state0, transfers, t_start, t_end, fraction=1.0) -> "EnvelopeSchedule":
        return cls._ramp(RampKind.TRIG, state0, transfers, t_start, t_end, fraction)

    @classmethod
    def linear(cls, state0, transfers, t_start, t_end, fraction=1.0) -> "EnvelopeSchedule":
        return cls._ramp(RampKind.LINEAR, state0, transfers, t_start, t_end, fraction)

    @classmethod
    def _ramp(cls, kind, state0: SystemState, transfers, t_start, t_end, fraction):
        if not t_end > t_start:
            raise SimulationError(f"ramp needs t_end > t_start, got [{t_start}, {t_end}]")
        if not 0.0 < fraction <= 1.0:
            raise SimulationError(f"transfer fraction must be in (0, 1], got {fraction}")
        transfers = tuple(
            Transfer(src=tr[0], dsts=tuple(tr[1]) if isinstance(tr[1], (tuple, list)) else (tr[1],))
            if not isinstance(tr, Transfer)
            else tr
            for tr in transfers
        )
        seen = set()
        amps = []
        for tr in transfers:
            for idx in (tr.src, *tr.dsts):
                if not 0 <= idx < len(state0.terms):
                    raise IndexOutOfRange(f"schedule references term {idx}")
                if idx in seen:
                    raise SimulationError(f"term {idx} appears twice in one schedule")
                seen.add(idx)
            if state0.terms[tr.src].phantom or any(state0.terms[d].phantom for d in tr.dsts):
                raise PhantomTransfer(f"transfer {tr.src} -> {tr.dsts} touches a phantom term")
            for d in tr.dsts:
                dterm = state0.terms[d]
                if dterm.coefficient != 0:
                    raise ScheduleStateMismatch(
                        f"destination term {d} must start at zero coefficient"
                    )
                if not dterm.brain.is_ready:
                    raise Rule2Violation(
                        f"destination term {d} must hold a ready factor, not "
                        f"{type(dterm.brain).__name__}"
                    )
            amps.append(complex(state0.terms[tr.src].coefficient))
        return cls(
            kind=kind,
            t_start=float(t_start),
            t_end=float(t_end),
            transfers=transfers,
            source_amplitudes=tuple(amps),
            fraction=float(fraction),
        )

    def progress(self, t: float) -> float:
        """Ramp progress clamped to [0, 1]."""
        if self.kind is RampKind.HOLD or t <= self.t_start:
            return 0.0
        if t >= self.t_end:
            return 1.0
        return (t - self.t_start) / (self.t_end - self.t_start)

    def envelope_factors(self, t: float) -> Tuple[float, float]:
        """(source multiplier, total destination multiplier) at time t."""
        lam = self.progress(t)
        if self.kind is RampKind.TRIG:
            theta = math.asin(math.sqrt(self.fraction)) * lam
            return math.cos(theta), math.sin(theta)
        if self.kind is RampKind.LINEAR:
            moved = self.fraction * lam
            return math.sqrt(1.0 - moved), math.sqrt(moved)
        return 1.0, 0.0

    def predicted_coefficients(self, t: float) -> Dict[int, complex]:
        """Scheduled terms' coefficients at time t."""
        return self.coefficients(*self.envelope_factors(t))

    def coefficients(self, src_f: float, dst_f: float) -> Dict[int, complex]:
        """Scheduled terms' coefficients at the given ``envelope_factors``: scalars, or
        arrays of factors for whole columns of times."""
        out: Dict[int, complex] = {}
        for tr, a0 in zip(self.transfers, self.source_amplitudes):
            out[tr.src] = a0 * src_f
            split = dst_f / math.sqrt(len(tr.dsts))
            for d in tr.dsts:
                out[d] = a0 * split
        return out

    def active_in(self, t0: float, t1: float) -> bool:
        if self.kind is RampKind.HOLD or not self.transfers:
            return False
        return t0 < self.t_end and t1 > self.t_start


@dataclass(frozen=True)
class CurrentReport:
    """Probability currents produced by one step.

    per_term[n] is d|c_n|^2/dt as a finite difference over the step.
    per_site maps the index of each non-phantom ready term to that term's
    per-site current array (finite differences of unit-basis site masses);
    each array sums to the term's per_term entry. total_positive is the
    rule-1 numerator, the sum of positive per-term currents.
    """

    per_term: np.ndarray
    per_site: Dict[int, np.ndarray]
    total_positive: float
    dt: float

    def __post_init__(self):
        pt = np.asarray(self.per_term, dtype=float)
        pt.setflags(write=False)
        object.__setattr__(self, "per_term", pt)
        for arr in self.per_site.values():
            arr.setflags(write=False)


def rule4_pairs(state: SystemState, schedule: EnvelopeSchedule) -> list:
    """Configured transfers that rule 4 forbids.

    A transfer is forbidden when source and destination both hold ready
    factors belonging to the same observer; a trailing edge may never feed
    its own leading edge.
    """
    pairs = []
    for tr in schedule.transfers:
        src = state.terms[tr.src].brain
        if not src.is_ready:
            continue
        for d in tr.dsts:
            dst = state.terms[d].brain
            if dst.is_ready and dst.observer_id == src.observer_id:
                pairs.append(Rule4Pair(src=tr.src, dst=d, observer_id=src.observer_id))
    return pairs


def _site_masses(state: SystemState) -> Dict[int, np.ndarray]:
    """Unit-basis square modulus per site for each non-phantom ready term."""
    out = {}
    for n, term in enumerate(state.terms):
        if term.phantom or not term.brain.is_ready:
            continue
        amps = term.brain.site_amplitudes(state.grid)
        out[n] = np.abs(term.coefficient) ** 2 * np.abs(amps) ** 2
    return out


class FormationKernel:
    """Staged formation of one pulse on plain arrays, any number of rows per ``advance``.

    It holds the current row (stage, weights, norm, the occupied interval
    ``[lo, hi]`` of its nonzero sites, which grow outward from the centre,
    and the interval ``grown`` it was cut to) and the loop invariants
    ``-(u - c)**2`` and ``|u - c|``. A row's stage is ``1 - (1 - stage) *
    decay`` of the last row's, its ``grown`` is the last row's ``[lo - r,
    hi + r]`` clipped to the grid, and its occupied interval is ``grown``
    within the 6σ window of its ``sigma_eff``: all three follow from the
    stages alone, so ``advance`` runs them first as scalar loops. Once a row
    would repeat the last row's stage and ``grown`` bit for bit, every later
    row is that row, and the kernel stops computing. The distinct rows are
    evaluated in blocks of at most FORMATION_BLOCK elements, in the order of
    the formation law: ``exp``, the 6σ cut, the interval cut, then the
    full-grid normalisation. Every row's peak must stay at the centre and its
    nonzero sites must be its occupied interval. ``pulse`` builds the
    ``Pulse`` of the current row; ``_advance_formation`` is one row of a
    kernel made from a pulse.
    """

    def __init__(self, pulse: Pulse, dt: float):
        policy = pulse.forming
        grid = pulse.grid
        self.pulse_kind, self.grid, self.policy = pulse.kind, grid, policy
        self.center_index, self.observer_id = pulse.center_index, pulse.observer_id
        self.du = grid.spacing
        self.decay = math.exp(-dt / policy.tau)
        offset = grid.sites - grid.coord(pulse.center_index)
        self.neg_sq = -(offset**2)
        self.dist = np.abs(offset)
        # |u - c| falls to 0 at the centre and rises past it: the 6σ window is an interval
        self._left = (-self.dist[: pulse.center_index + 1]).tolist()
        self._right = self.dist[pulse.center_index :].tolist()
        self.stage = pulse.formation_stage
        self.grown: Optional[Tuple[int, int]] = None  # the interval the current row was cut to
        self.weights = pulse.weights.real
        occupied = self.weights.nonzero()[0]
        if len(occupied) == 0:
            raise SimulationError("a forming pulse must occupy at least one site")
        self.lo, self.hi = int(occupied[0]), int(occupied[-1])
        if len(occupied) != self.hi - self.lo + 1:
            raise SimulationError(f"the occupied sites of a forming pulse are not an interval: {occupied}")
        self.occupied, self.norm_sq = len(occupied), pulse.norm_sq()

    def advance(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance the profile by ``n`` formation rows; return each row's stage,
        norm and occupied count, and leave the kernel on the last row."""
        radius, last, centre = self.policy.neighbor_radius, self.grid.n_points - 1, self.center_index
        stage, grown, lo, hi = self.stage, self.grown, self.lo, self.hi
        rows = []  # (stage, 2 sigma_eff**2, 6 sigma_eff, grown, lo, hi) of each distinct row
        for _ in range(n):
            nxt = 1.0 - (1.0 - stage) * self.decay
            cut = (max(lo - radius, 0), min(hi + radius, last))
            if nxt == stage and cut == grown:
                break  # the same inputs as the last row: it repeats from here on
            stage, grown = nxt, cut
            sigma_eff = self.policy.target_sigma * stage + 2.0 * self.du * (1.0 - stage)
            reach = 6.0 * sigma_eff
            lo = max(grown[0], bisect.bisect_left(self._left, -reach))
            hi = min(grown[1], centre + bisect.bisect_right(self._right, reach) - 1)
            rows.append((stage, 2.0 * sigma_eff**2, reach, *grown, lo, hi))

        if not rows:  # the current row repeats
            return np.full(n, self.stage), np.full(n, self.norm_sq), np.full(n, self.occupied)
        stages, denom, reach, g0, g1, lo_at, hi_at = (np.array(col) for col in zip(*rows))
        norms = np.empty(len(rows))
        sites = np.arange(self.grid.n_points)
        per_block = max(1, FORMATION_BLOCK // self.grid.n_points)
        for at in range(0, len(rows), per_block):
            block = slice(at, at + per_block)
            w = np.exp(self.neg_sq / denom[block, None])
            np.putmask(w, self.dist > reach[block, None], 0.0)
            np.putmask(w, (sites < g0[block, None]) | (sites > g1[block, None]), 0.0)
            w /= np.sqrt(np.add.reduce(w**2, axis=1) * self.du)[:, None]
            inside = (sites >= lo_at[block, None]) & (sites <= hi_at[block, None])
            peaks = w.argmax(axis=1)
            bad = np.flatnonzero((peaks != centre) | np.any((w != 0.0) != inside, axis=1))
            if bad.size:  # refuse the first bad row, its peak first
                j = bad[0]
                if peaks[j] != centre:
                    raise IndexOutOfRange(f"center_index {centre} is not the peak site {peaks[j]}")
                raise SimulationError(
                    f"the occupied sites of a forming pulse are not the interval "
                    f"[{lo_at[at + j]}, {hi_at[at + j]}]: {w[j].nonzero()[0]}"
                )
            norms[block] = np.add.reduce(w**2, axis=1) * self.du
        self.stage, self.grown, self.lo, self.hi = stage, grown, lo, hi
        self.weights, self.occupied, self.norm_sq = w[-1].copy(), hi - lo + 1, float(norms[-1])
        # rows past the fixed point repeat the last one computed
        return tuple(np.pad(a, (0, n - len(rows)), mode="edge") for a in (stages, norms, hi_at - lo_at + 1))

    def pulse(self) -> Pulse:
        """The current row as a validated ``Pulse``."""
        return Pulse(
            kind=self.pulse_kind,
            grid=self.grid,
            weights=self.weights,
            center_index=self.center_index,
            formation_stage=self.stage,
            forming=self.policy,
            observer_id=self.observer_id,
        )


def _advance_formation(pulse: Pulse, dt: float) -> Pulse:
    """A forming pulse one staged-formation step later: one ``FormationKernel`` row."""
    kernel = FormationKernel(pulse, dt)
    kernel.advance(1)
    return kernel.pulse()


def step(
    state: SystemState,
    schedule: EnvelopeSchedule,
    dt: float,
) -> Tuple[SystemState, CurrentReport]:
    """Advance the state by dt under a schedule; report currents.

    Raises PhantomTransfer if the schedule touches a phantom term,
    Rule4Violation when the schedule routes current between ready factors
    of one observer, StepTooLarge when dt exceeds 1/100 of an active ramp
    window, and ScheduleStateMismatch when the state's coefficients do not
    match the schedule's prediction at the current time (e.g. after a
    reduction zeroed a scheduled term).
    """
    if not dt > 0:
        raise SimulationError(f"dt must be positive, got {dt}")
    t0, t1 = state.time, state.time + dt
    if schedule.active_in(t0, t1):
        if dt > (schedule.t_end - schedule.t_start) / MIN_RAMP_STEPS:
            raise StepTooLarge(
                f"dt {dt} exceeds 1/{MIN_RAMP_STEPS} of the ramp window "
                f"{schedule.t_end - schedule.t_start}"
            )
    for tr in schedule.transfers:
        if state.terms[tr.src].phantom or any(state.terms[d].phantom for d in tr.dsts):
            raise PhantomTransfer(f"transfer {tr.src} -> {tr.dsts} touches a phantom term")
        for d in tr.dsts:
            if not state.terms[d].brain.is_ready:
                raise Rule2Violation(f"scheduled destination term {d} is not a ready factor")
    pairs = rule4_pairs(state, schedule)
    if pairs:
        raise Rule4Violation(pairs)

    predicted_now = schedule.predicted_coefficients(t0)
    for idx, expect in predicted_now.items():
        have = state.terms[idx].coefficient
        if abs(have - expect) > COEFF_MATCH_TOL * max(1.0, abs(expect)):
            raise ScheduleStateMismatch(
                f"term {idx} coefficient {have} does not match schedule value {expect} at t={t0}"
            )

    masses_before = _site_masses(state)
    sq_before = np.array([t.square_modulus() for t in state.terms])
    # scheduled coefficients (a term keeps its own otherwise), phantoms as they
    # are, and a forming pulse widens once however many terms share it
    coefficients = schedule.predicted_coefficients(t1)
    advanced_pulses: Dict[int, Pulse] = {}
    new_terms = []
    for n, term in enumerate(state.terms):
        if term.phantom:
            new_terms.append(term)
            continue
        brain = term.brain
        if isinstance(brain, Pulse) and brain.forming is not None:
            if id(brain) not in advanced_pulses:
                advanced_pulses[id(brain)] = _advance_formation(brain, dt)
            brain = advanced_pulses[id(brain)]
        new_terms.append(Term(term.apparatus_label, coefficients.get(n, term.coefficient), brain))
    new_state = state.with_terms(new_terms, time=t1)

    masses_after = _site_masses(new_state)
    sq_after = np.array([t.square_modulus() for t in new_state.terms])
    per_term = (sq_after - sq_before) / dt
    per_site = {}
    for n in masses_after:
        before = masses_before.get(n, np.zeros(state.grid.n_points))
        per_site[n] = (masses_after[n] - before) / dt
    total_positive = float(np.sum(per_term[per_term > 0.0]))
    report = CurrentReport(
        per_term=per_term, per_site=per_site, total_positive=total_positive, dt=dt
    )
    return new_state, report


def form_pulse(state: SystemState, chosen: int, policy: FormationPolicy) -> SystemState:
    """Convert the post-reduction conscious site state into a conscious pulse.

    Requires every term with nonzero coefficient to share one conscious
    SingleState at ``chosen`` (the state reduce() returns); raises
    NotPostReduction otherwise. The new pulse belongs to the survivors'
    observer, is shared across the surviving apparatus labels and keeps unit
    norm at every stage; a staged pulse holds ``policy`` while it widens.
    """
    from .errors import NotPostReduction

    if not 0 <= chosen < state.grid.n_points:
        raise IndexOutOfRange(f"chosen site {chosen} outside grid")
    survivors = [n for n, t in enumerate(state.terms) if t.coefficient != 0]
    if not survivors:
        raise NotPostReduction("no surviving terms to form a pulse from")
    for n in survivors:
        b = state.terms[n].brain
        ok = (
            isinstance(b, SingleState)
            and b.kind is PulseKind.CONSCIOUS
            and b.index == chosen
        )
        if not ok:
            raise NotPostReduction(
                f"term {n} does not hold a conscious site state at {chosen}"
            )
    observer = state.terms[survivors[0]].brain.observer_id
    if policy.kind is FormationKind.INSTANTANEOUS:
        bare = make_gaussian_pulse(
            state.grid, state.grid.coord(chosen), policy.target_sigma, PulseKind.CONSCIOUS
        )
        pulse = replace(bare, observer_id=observer)
    else:
        bare = delta_pulse(state.grid, chosen, PulseKind.CONSCIOUS)
        pulse = replace(bare, forming=policy, observer_id=observer)
    new_terms = []
    for n, term in enumerate(state.terms):
        if n in survivors:
            new_terms.append(
                Term(
                    apparatus_label=term.apparatus_label,
                    coefficient=term.coefficient,
                    brain=pulse,
                    phantom=term.phantom,
                )
            )
        else:
            new_terms.append(term)
    return state.with_terms(new_terms)


class DriftRows(NamedTuple):
    """The rows one ``DriftKernel.advance`` moved through, stacked one per row:
    the conscious weights and ``|coefficient|``, and, where the kernel feeds a
    shadow, the shadow's weights, ``|coefficient|``, unit-basis amplitude
    moduli ``|weights * sqrt(du)|`` and ``phantom`` masks (None without a
    shadow). The last row is the kernel's current row, and its arrays are
    the kernel's own."""

    cons_w: np.ndarray
    cons_abs: np.ndarray
    shadow_w: Optional[np.ndarray] = None
    shadow_abs: Optional[np.ndarray] = None
    shadow_amp: Optional[np.ndarray] = None
    phantom: Optional[np.ndarray] = None


class DriftKernel:
    """Conscious-pulse drift, and the shadow it feeds, on real arrays, many rows per ``advance``.

    Built from a state, it holds the current row: the conscious weights and
    coefficient and, with shedding (``shed_rate > 0``), the unique ready
    pulse's weights, coefficient, unit-basis moduli and ``fed`` and
    ``phantom`` masks; and the loop invariants ``u - v*dt`` and the
    conscious square modulus kept per step (``decay``). Every profile the
    package builds is real, so it steps real parts only and refuses a
    profile with an imaginary part. ``advance(m)`` computes ``m`` rows as one
    block, in three phases of the law of ``drift_pulse``: the conscious rows
    alone (resample, then renormalise), since the conscious profile never
    reads the shadow; the shares ``|F * sqrt(du)|**2`` of the whole block on
    the 2-D array; then, row by row, the shadow recurrence (masking, shed,
    ``below``, ``fed`` and ``phantom``, renormalisation of the shadow
    mass). A caller keeps ``m`` within ``block_rows``, so that a block holds
    at most DRIFT_BLOCK values. A still pulse (velocity 0) repeats its row.
    ``state`` rebuilds a state from the current row.
    """

    def __init__(self, state: SystemState, velocity: float, dt: float, shed_rate: float = 0.0):
        cons_idx = [
            n
            for n, t in enumerate(state.terms)
            if isinstance(t.brain, Pulse) and t.brain.kind is PulseKind.CONSCIOUS
        ]
        if len(cons_idx) != 1:
            raise SimulationError(f"drift needs exactly one conscious pulse term, found {len(cons_idx)}")
        self.origin, self.ci, self.si = state, cons_idx[0], None
        cons = state.terms[self.ci]
        if cons.brain.forming is not None:
            raise SimulationError("drift requires a fully formed conscious pulse")
        grid = state.grid
        self.du, self.sqrt_du, self.dt, self.still = grid.spacing, math.sqrt(grid.spacing), dt, velocity == 0.0
        self.sites = grid.sites
        self.sources = self.sites - velocity * dt  # where each site's new amplitude is read from
        self.cons_w, self.cons_c = _real_profile(cons.brain), cons.coefficient
        self.decay = None  # conscious square modulus kept per step; None without shedding
        self.has_phantom = False
        if shed_rate > 0.0:
            shadow_idx = [
                n
                for n, t in enumerate(state.terms)
                if n != self.ci
                and not t.phantom
                and isinstance(t.brain, Pulse)
                and t.brain.kind is PulseKind.READY
            ]
            if len(shadow_idx) != 1:
                raise SimulationError(
                    f"shadow drift needs exactly one ready-pulse term, found {len(shadow_idx)}"
                )
            self.si = shadow_idx[0]
            pulse = state.terms[self.si].brain
            self.decay = math.exp(-shed_rate * abs(velocity) * dt / self.du)
            self.shadow_w, self.shadow_c = _real_profile(pulse), state.terms[self.si].coefficient
            self.shadow_amp = np.abs(self.shadow_w * self.sqrt_du)
            self.fed, self.phantom = (
                m if m is not None else np.zeros(grid.n_points, dtype=bool)
                for m in (pulse.fed_sites, pulse.phantom_sites)
            )
            self.has_phantom = bool(self.phantom.any())

    @property
    def block_rows(self) -> int:
        """Rows of one block: at most DRIFT_BLOCK values, and at least one row."""
        return max(1, DRIFT_BLOCK // len(self.sites))

    def advance(self, m: int) -> DriftRows:
        """Advance by ``m`` rows; return them stacked, and leave the kernel on the last."""
        shape = (m, len(self.sites))
        if self.still:  # nothing moves: every row is the current one
            now = (self.cons_w, abs(self.cons_c))
            if self.si is not None:
                now += (self.shadow_w, abs(self.shadow_c), self.shadow_amp, self.phantom)
            return DriftRows(*(np.broadcast_to(a, (m, *np.shape(a))) for a in now))

        # phase 1: the conscious rows, resampled by linear interpolation and renormalised
        cons_w = np.empty(shape)
        row = self.cons_w
        for j in range(m):
            row = np.interp(self.sources, self.sites, row, left=0.0, right=0.0)
            nrm = math.sqrt(profile_norm_sq(row, self.du))
            if nrm == 0.0:
                raise SimulationError("conscious pulse drifted entirely off the grid")
            # the complex quotient by a real norm multiplies by its reciprocal, and so does this
            row = np.multiply(row, 1.0 / nrm, out=cons_w[j])
        self.cons_w = row
        if self.decay is None:
            return DriftRows(cons_w, np.full(m, abs(self.cons_c)))

        # phase 2: the block's shares, then the shadow recurrence row by row
        shares = np.abs(cons_w * self.sqrt_du) ** 2
        shadow_w, shadow_amp, phantom = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
        cons_abs, shadow_abs = np.empty(m), np.empty(m)
        keep = math.sqrt(self.decay)
        cons_c, shadow_c, fed, has_phantom = self.cons_c, self.shadow_c, self.fed, self.has_phantom
        w, amp, ph = self.shadow_w, self.shadow_amp, self.phantom
        for j in range(m):
            shed = abs(cons_c) ** 2 * (1.0 - self.decay)
            share = shares[j]
            if has_phantom:
                np.putmask(share, ph, 0.0)
            share_total = float(np.add.reduce(share))
            masses = np.abs(shadow_c) ** 2 * amp**2
            below = np.True_  # every site's incoming current is below the floor while nothing is shed
            if share_total > 0.0:
                shed_share = shed * (share / share_total)
                below = shed_share / self.dt < PHANTOM_CURRENT_FLOOR
                masses += shed_share
                cons_c = cons_c * keep
            newly = fed & ~ph & below
            fed = fed | ~below
            ph = np.logical_or(ph, newly, out=phantom[j])
            has_phantom = has_phantom or bool(newly.any())
            total_mass = float(np.add.reduce(masses))
            if total_mass > 0.0:
                w = np.divide(np.sqrt(masses / total_mass), self.sqrt_du, out=shadow_w[j])
                shadow_c = math.sqrt(total_mass)
                amp = np.abs(w * self.sqrt_du, out=shadow_amp[j])
            else:  # nothing to renormalise: the shadow row repeats
                shadow_w[j], shadow_amp[j] = w, amp
                w, amp = shadow_w[j], shadow_amp[j]
            cons_abs[j], shadow_abs[j] = abs(cons_c), abs(shadow_c)
        self.cons_c, self.shadow_c, self.fed, self.has_phantom = cons_c, shadow_c, fed, has_phantom
        self.shadow_w, self.shadow_amp, self.phantom = w, amp, ph
        return DriftRows(cons_w, cons_abs, shadow_w, shadow_abs, shadow_amp, phantom)

    def set_shadow(self, weights: np.ndarray) -> None:
        """Overwrite the current row's shadow weights, and its moduli, in place: the last
        row of the block ``advance`` returned changes with them."""
        self.shadow_w[...] = weights
        np.abs(self.shadow_w * self.sqrt_du, out=self.shadow_amp)

    def state(self, time: float) -> SystemState:
        """The kernel's state with its conscious term and, with shedding, its shadow term
        rebuilt from the current row through the validating constructors, at ``time``."""
        terms = list(self.origin.terms)
        terms[self.ci] = _pulse_term(terms[self.ci], PulseKind.CONSCIOUS, self.cons_w, self.cons_c)
        if self.si is not None:
            terms[self.si] = _pulse_term(
                terms[self.si], PulseKind.READY, self.shadow_w, self.shadow_c,
                phantom_sites=self.phantom, fed_sites=self.fed,
            )
        return self.origin.with_terms(terms, time=time)


def _real_profile(pulse: Pulse) -> np.ndarray:
    """The real part of a pulse's weights; a profile with an imaginary part is refused."""
    if np.any(pulse.weights.imag != 0.0):
        raise SimulationError("drift steps real profiles only; this pulse has an imaginary part")
    return pulse.weights.real


def _pulse_term(term: Term, kind: PulseKind, weights, coefficient, **masks) -> Term:
    """``term`` with a new pulse of ``kind``, peak site taken from the weights."""
    pulse = Pulse(
        kind=kind,
        grid=term.brain.grid,
        weights=weights,
        center_index=int(np.argmax(np.abs(weights))),
        observer_id=term.brain.observer_id,
        **masks,
    )
    return Term(
        apparatus_label=term.apparatus_label,
        coefficient=coefficient,
        brain=pulse,
        phantom=term.phantom,
    )


def drift_pulse(
    state: SystemState,
    velocity: float,
    dt: float,
    shadow_ready: bool = False,
    shed_rate: float = 0.0,
) -> SystemState:
    """Move the conscious pulse by velocity*dt; optionally feed a ready shadow.

    The conscious profile is resampled on the grid by linear interpolation
    and renormalized. With ``shadow_ready`` the conscious term sheds square
    modulus dM = |a|^2 (1 - exp(-shed_rate |v| dt / du)) into the unique
    ready-pulse term, distributed over non-phantom shadow sites proportional
    to the conscious profile; shadow sites never feed each other (rule 4).
    A shadow site that has been fed and then receives less than 1e-12
    current for a full step is flagged phantom and frozen.

    One row of a ``DriftKernel`` built from the state, as
    ``_advance_formation`` is one ``FormationKernel`` row; a profile with an
    imaginary part is refused. velocity = 0 returns the state's terms
    unchanged at ``time + dt``.
    """
    if not dt > 0:
        raise SimulationError(f"dt must be positive, got {dt}")
    if velocity == 0.0:
        return state.with_terms(state.terms, time=state.time + dt)
    kernel = DriftKernel(state, velocity, dt, shed_rate if shadow_ready else 0.0)
    kernel.advance(1)
    return kernel.state(state.time + dt)


def relative_intensity(pulse: Pulse, lo: int, hi: int) -> float:
    """Fraction of the pulse's intensity in sites [lo, hi] inclusive.

    Intensity element is |F(u)|^2 du; the full range gives 1 within 1e-9.
    Raises IndexOutOfRange for an empty or out-of-grid range.
    """
    if lo > hi:
        raise IndexOutOfRange(f"empty site range [{lo}, {hi}]")
    if lo < 0 or hi >= pulse.grid.n_points:
        raise IndexOutOfRange(
            f"site range [{lo}, {hi}] outside grid of {pulse.grid.n_points} sites"
        )
    w = pulse.weights[lo : hi + 1]
    return float(np.sum(np.abs(w) ** 2) * pulse.grid.spacing)
