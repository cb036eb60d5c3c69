"""Scenario construction and trajectory drivers.

Each runner builds the initial superposition and envelope schedule for one
measurement story, evolves it, applies the rule-1 stochastic choice, and
returns a result whose summary is a pure function of (config, seed).
What sets the stories apart is one ``Scenario`` record per name in
``SCENARIOS``; the code here and the CLI read it and name no scenario. No
run builds or steps more than MAX_STEPS steps: each counts them from the
config first and refuses a longer run, naming the keys that set it.

Two drivers share one probability law and one pre-hit flow. Before a hit
only the envelope moves, so ``build_backbone`` evaluates its closed form
once per time on a grid that reaches t_end, with the cumulative hit budget
C(t) = (transferred square modulus)/s; neither driver evaluates the schedule
again. A hit's step is placed by drawing one uniform against C(t)
(``_hit_steps``, an exact bucket lookup in the backbone's ``HitStepTable``)
and its site by drawing a second against the per-site positive-current
distribution of that step. Budget placement makes the
unconditional probability of a hit in step i exactly p_i = J+ dt / s, so a
completed transfer is a certain hit and the total equals the closed form.
Both drivers pick the site from the same flat (ready term, site) CDF,
built by ``site_cdfs``. ``run_batch`` places many trials' hits at once,
computes everything past the step for hits only and keeps aggregates,
reading the site tables the backbone builds once and keeps, while one
helper thread hashes each chunk's records when there is more than one
chunk; ``simulate_trajectory`` places one, reads its log up to the hit
from the backbone, applies the hit to a real state (reduce, form_pulse),
and builds the later rows on arrays from carried values: by the rules of
engagement nothing moves amplitude after the stochastic choice, so the rows
stay fixed apart from formation and the turn-off or disengage event, which
is applied to a state built for it and splits them into two segments. A staged pulse forms on the arrays of a
``dynamics.FormationKernel``, which gives each row's norm, occupied count
and stage a segment at a time; it becomes a ``Pulse`` only at the event and
at the end. A formation target that fits at no site is refused with the
initial state, and one that does not fit at the hit site at the hit, each
as a config error.

A residual budget below 1e-12 at the end of a completed transfer counts as
certain (float telescoping can leave ~1e-15 behind).

``run_pulse_drift`` has no hit. It advances a ``dynamics.DriftKernel`` a
block of rows at a time (at most ``dynamics.DRIFT_BLOCK`` values), takes the
log's square moduli and the phantom-freeze audit on each block's stacked
rows, checks conservation on the whole log, and builds the final state once.
Its two negative controls are named hooks outside the kernel:
``_tamper_phantom`` moves one frozen amplitude on the last row of a block
that ends there, and ``_ready_transfer_injection`` schedules a
ready-to-ready ramp whose rule-4 pairs refuse the run before its first
drift row.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import analysis
from .config import ScenarioConfig
from .dynamics import (
    DriftKernel,
    EnvelopeSchedule,
    FormationKernel,
    form_pulse,
    rule4_pairs,
)
from .errors import (
    CenterOutOfRange,
    ConfigError,
    GridTooCoarse,
    HitRateTooHigh,
    InvariantBreach,
    NonpositiveS,
    Rule4Violation,
    SimulationError,
    TooFewTrials,
)
from .reduction import (
    MAX_STEP_HIT_PROBABILITY,
    ReductionEvent,
    RngStream,
    reduce,
)
from .state import (
    BrainGrid,
    DisengagedX,
    FormationPolicy,
    Pulse,
    PulseKind,
    SingleState,
    SystemState,
    Term,
    make_gaussian_pulse,
    total_square_modulus,
)

__all__ = [
    "ScenarioResult",
    "TrajectoryLog",
    "Backbone",
    "build_initial",
    "build_backbone",
    "simulate_trajectory",
    "site_cdfs",
    "place_hits",
    "run_batch",
    "run_interaction",
    "run_unresolvable_observation",
    "run_turn_off",
    "run_disengage",
    "run_pulse_drift",
    "run_fade_in",
    "run_scenario",
    "Scenario",
    "SCENARIOS",
]

BUDGET_RESIDUAL_TOL = 1e-12
CONSERVATION_TOL = 1e-9
NORM_TOL = 1e-9
PHANTOM_FREEZE_TOL = 1e-12
PROVENANCE_TOL = 1e-12
CHUNK_TRIALS = 1 << 16  # trials drawn and placed at a time by run_batch
HIT_STEP_BUCKETS = 1 << 12  # buckets of the hit-step table: a power of two, so u * buckets is exact
MAX_SITE_TABLE_BYTES = 1 << 30
MAX_STEPS = 100_000  # steps one run may build or step


@dataclass
class TrajectoryLog:
    """Per-step record of one trajectory: one entry per row in ``times``,
    ``total_sq`` and ``budget``, and one row per step with a column per term
    in ``sq_terms`` and ``currents``. ``table`` lays them out as the columns
    ``header`` names."""

    times: np.ndarray
    sq_terms: np.ndarray
    currents: np.ndarray
    total_sq: np.ndarray
    budget: np.ndarray
    labels: Tuple[int, ...]

    def table(self) -> List[List[float]]:
        """One list of Python floats per step, in ``header`` order."""
        return np.column_stack((self.times, self.sq_terms, self.currents, self.total_sq, self.budget)).tolist()

    def header(self) -> List[str]:
        cols = ["t"]
        cols += [f"sq_modulus_term{n}_label{l}" for n, l in enumerate(self.labels)]
        cols += [f"current_term{n}" for n in range(len(self.labels))]
        cols += ["total_square_modulus", "cumulative_hit_budget"]
        return cols


@dataclass
class ScenarioResult:
    """What a runner hands back: its summary (what ``montecarlo``'s gates read, or
    ``run`` writes), and the events and log of a trajectory runner."""

    summary: Dict
    events: List[ReductionEvent] = field(default_factory=list)
    trajectory: Optional[TrajectoryLog] = None


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def _grid_of(cfg: ScenarioConfig) -> BrainGrid:
    g = cfg.data["grid"]
    return BrainGrid(n_points=g["n_points"], spacing=g["spacing"], origin=g["origin"])


def _formation_policy(cfg: ScenarioConfig) -> FormationPolicy:
    f = cfg.data["formation"]
    if f["mode"] == "staged":
        return FormationPolicy.staged(
            target_sigma=f["target_sigma"], tau=f["tau"], neighbor_radius=f["neighbor_radius"]
        )
    return FormationPolicy.instantaneous(target_sigma=f["target_sigma"])


def build_initial(cfg: ScenarioConfig) -> Tuple[SystemState, Optional[EnvelopeSchedule]]:
    """Initial superposition and schedule for a scenario config.

    A pulse the grid cannot resolve or hold, or a nonpositive s, is a
    ConfigError naming the config keys behind it. So is a formation target
    that could form at no site (``_check_formation``); one that does not fit
    at the site a hit picks is refused at the hit.
    """
    built = SCENARIOS[cfg.name].build(cfg)
    if "formation" in cfg.data:
        _check_formation(cfg)
    return built


def _check_formation(cfg: ScenarioConfig) -> None:
    """Refuse a formation target that fails at every site: a Gaussian of
    ``target_sigma`` the grid cannot resolve, or one wider than the grid."""
    sigma = cfg.data["formation"]["target_sigma"]
    g = cfg.data["grid"]
    if sigma < 2.0 * g["spacing"]:
        raise ConfigError(
            f"formation.target_sigma ({sigma}) must be at least 2 * grid.spacing "
            f"({2.0 * g['spacing']}) for the grid to resolve the formed pulse"
        )
    width = g["spacing"] * (g["n_points"] - 1)
    if 8.0 * sigma > width:
        raise ConfigError(
            f"formation.target_sigma ({sigma}): the formed pulse spans 8 sigma ({8.0 * sigma}), more than "
            f"the grid, whose grid.spacing * (grid.n_points - 1) is {width}, so it fits at no site"
        )


def _gaussian(cfg: ScenarioConfig, grid: BrainGrid, center: str, sigma: str, kind: PulseKind) -> Pulse:
    """The Gaussian pulse of the config's ``pulses.<center>`` and ``pulses.<sigma>``."""
    p = cfg.data["pulses"]
    try:
        return make_gaussian_pulse(grid, p[center], p[sigma], kind)
    except GridTooCoarse as exc:
        raise ConfigError(f"pulses.{sigma}, grid.spacing: {exc}") from exc
    except CenterOutOfRange as exc:
        raise ConfigError(
            f"pulses.{center}, pulses.{sigma}, grid.origin, grid.spacing, grid.n_points: {exc}"
        ) from exc


def _source_state(cfg: ScenarioConfig, grid: BrainGrid, terms, s: float, keys: str) -> SystemState:
    """The initial state at envelope.t_start; a nonpositive s names the source ``keys``."""
    try:
        return SystemState(terms=terms, s=s, time=cfg.data["envelope"]["t_start"], grid=grid)
    except NonpositiveS as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _one_source(cfg: ScenarioConfig) -> Tuple[SystemState, EnvelopeSchedule]:
    """A conscious source pulse and one empty ready pulse, with the ramp between them."""
    grid = _grid_of(cfg)
    a = cfg.data["source"]["amplitude"]
    conscious = _gaussian(cfg, grid, "conscious_center", "conscious_sigma", PulseKind.CONSCIOUS)
    ready = _gaussian(cfg, grid, "ready_center", "ready_sigma", PulseKind.READY)
    terms = (
        Term(apparatus_label=1, coefficient=complex(a), brain=conscious),
        Term(apparatus_label=2, coefficient=0j, brain=ready),
    )
    state = _source_state(cfg, grid, terms, a * a, "source.amplitude")
    return state, _ramp_from(cfg, state, [(0, (1,))])


def _two_sources(cfg: ScenarioConfig) -> Tuple[SystemState, EnvelopeSchedule]:
    """Two sources on one disengaged factor, each ramped into its own empty ready state."""
    grid = _grid_of(cfg)
    p = cfg.data["pulses"]
    a1 = cfg.data["source"]["amplitude1"]
    a2 = cfg.data["source"]["amplitude2"]
    if cfg.data["variant"]["arrangement"] == "single_state":
        x_profile = np.zeros(grid.n_points)
        mid = grid.nearest_index(0.5 * (p["center1"] + p["center2"]))
        x_profile[mid] = 1.0 / math.sqrt(grid.spacing)
        x_factor = DisengagedX(grid=grid, weights=x_profile)
        brains = [SingleState(kind=PulseKind.READY, index=grid.nearest_index(p[c])) for c in ("center1", "center2")]
    else:
        flat = np.full(grid.n_points, 1.0 / math.sqrt(grid.n_points * grid.spacing))
        x_factor = DisengagedX(grid=grid, weights=flat)
        brains = (
            _gaussian(cfg, grid, "center1", "sigma1", PulseKind.READY),
            _gaussian(cfg, grid, "center2", "sigma2", PulseKind.READY),
        )
    terms = (
        Term(apparatus_label=1, coefficient=complex(a1), brain=x_factor),
        Term(apparatus_label=2, coefficient=complex(a2), brain=x_factor),
        Term(apparatus_label=1, coefficient=0j, brain=brains[0]),
        Term(apparatus_label=2, coefficient=0j, brain=brains[1]),
    )
    state = _source_state(cfg, grid, terms, a1 * a1 + a2 * a2, "source.amplitude1, source.amplitude2")
    return state, _ramp_from(cfg, state, [(0, (2,)), (1, (3,))])


def _drift_pair(cfg: ScenarioConfig) -> Tuple[SystemState, None]:
    """A conscious pulse and its empty ready shadow; nothing is scheduled."""
    grid = _grid_of(cfg)
    conscious = _gaussian(cfg, grid, "center", "sigma", PulseKind.CONSCIOUS)
    terms = (
        Term(apparatus_label=1, coefficient=1.0 + 0j, brain=conscious),
        Term(apparatus_label=2, coefficient=0j, brain=conscious.with_kind(PulseKind.READY)),
    )
    return SystemState(terms=terms, s=1.0, time=0.0, grid=grid), None


def _ramp_from(cfg: ScenarioConfig, state: SystemState, transfers) -> EnvelopeSchedule:
    env = cfg.data["envelope"]
    maker = EnvelopeSchedule.trig if env["kind"] == "trig" else EnvelopeSchedule.linear
    return maker(
        state,
        transfers,
        t_start=env["t_start"],
        t_end=env["t_end"],
        fraction=env["fraction"],
    )


# ---------------------------------------------------------------------------
# backbone: the deterministic pre-hit pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HitStepTable:
    """``searchsorted(cum_budget, u, side="right")`` by exact bucket lookup.

    ``values`` holds the distinct cum_budget values with +inf appended, and
    ``steps[j]`` is the hit step of a draw with j of them at or below it,
    capped on a complete transfer at the last step with mass. A draw u
    starts at ``first[b]`` values for its bucket b = floor(u *
    HIT_STEP_BUCKETS); u * 2**12 is exact, so at most ``passes`` more values
    lie between the bucket's lower edge and u, and one exact comparison per
    pass counts them.
    """

    values: np.ndarray
    steps: np.ndarray
    first: np.ndarray
    passes: int


@dataclass
class Backbone:
    """Closed-form pre-hit flow on a time grid that reaches t_end, shared by all trials
    of one config: a row per time, and a row per step in ``currents``, ``step_mass``
    and ``cum_budget``.

    Two tables that depend on the backbone alone are built on first use and kept, so
    that every batch run on one backbone reads them: ``site_tables``, the flat site
    CDFs and totals of ``site_cdfs`` (once for each value of the bias switch), and
    ``scheduled_ready``, the schedule's ready coefficients that provenance compares
    survivors with. ``dataclasses.replace`` gives a backbone that builds its own.
    """

    state0: SystemState
    schedule: EnvelopeSchedule
    dt: float
    times: np.ndarray
    coeffs: np.ndarray
    sq_terms: np.ndarray
    currents: np.ndarray
    total_sq: np.ndarray
    step_mass: np.ndarray
    cum_budget: np.ndarray
    ready_ids: Tuple[int, ...]
    ready_amps: np.ndarray
    dst_factor: np.ndarray
    audits: Dict[str, float]
    hit_table: HitStepTable
    _site_tables: Dict[bool, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def complete(self) -> bool:
        return _complete(self.cum_budget)

    def site_tables(self, biased: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Each step's flat site CDF and total from ``site_cdfs``, built on first use for
        each value of ``biased`` (the site-selection negative control) and kept."""
        if biased not in self._site_tables:
            self._site_tables[biased] = site_cdfs(
                self.coeffs[:, list(self.ready_ids)], self.ready_amps, self.dt, self.state0.s, biased
            )
        return self._site_tables[biased]

    @cached_property
    def scheduled_ready(self) -> np.ndarray:
        """The ready terms' coefficients at the end of each step, one row per step, from the
        schedule's scalar ``predicted_coefficients`` and not from ``coeffs``: what the batch's
        provenance check compares each survivor with."""
        terms = self.state0.terms
        rows = []
        for t in self.times[1:].tolist():
            pred = self.schedule.predicted_coefficients(t)
            rows.append([pred.get(n, terms[n].coefficient) for n in self.ready_ids])
        return np.array(rows, dtype=np.complex128)


def _complete(cum_budget: np.ndarray) -> bool:
    return 1.0 - float(cum_budget[-1]) <= BUDGET_RESIDUAL_TOL


def _hit_step_table(cum_budget: np.ndarray, step_mass: np.ndarray) -> HitStepTable:
    # the budget never decreases, so its distinct values are the first of each run
    values = cum_budget[np.concatenate(([True], cum_budget[1:] != cum_budget[:-1]))]
    steps = np.concatenate(([0], np.searchsorted(cum_budget, values, side="right")))
    if _complete(cum_budget):
        # a complete transfer always hits: a draw past the budget's end lands on the last step with mass
        np.minimum(steps, np.flatnonzero(step_mass > 0)[-1], out=steps)
    edges = np.arange(HIT_STEP_BUCKETS + 1) / HIT_STEP_BUCKETS
    first = np.searchsorted(values, edges[:-1], side="right")
    past = np.searchsorted(values, edges[1:], side="left")
    past[-1] = len(values)  # the last bucket also takes budget values at or above 1
    return HitStepTable(np.append(values, np.inf), steps, first, int(np.max(past - first)))


def _conservation_bound(s: float, elapsed: float) -> float:
    """The largest drift of the total square modulus a run over ``elapsed`` time may
    show: CONSERVATION_TOL per unit time past the first, relative to s once s exceeds 1."""
    return CONSERVATION_TOL * max(1.0, elapsed) * max(1.0, s)


def _check_steps(steps: float, keys: Tuple[str, ...]) -> None:
    """Refuse a run of more than MAX_STEPS steps, naming the keys that set the count."""
    if steps > MAX_STEPS:
        raise ConfigError(f"{', '.join(keys)} set {steps:.4g} steps, over the {MAX_STEPS} step limit")


_BACKBONE_KEYS = ("scenario.dt", "envelope.t_start", "envelope.t_end", "scenario.tail_steps")


def _backbone_times(cfg: ScenarioConfig) -> List[float]:
    """The scenario's backbone time grid, checked before anything is built: repeated
    ``t + dt`` sums from t_start over the rounded ramp and the tail, and more while they
    fall short of t_end. Its step count is one less than its length."""
    if not SCENARIOS[cfg.name].ready_terms:
        raise SimulationError(f"scenario {cfg.name!r} has no ramp backbone")
    env, tail = cfg.data["envelope"], cfg.data["scenario"]["tail_steps"]
    ramp = (env["t_end"] - env["t_start"]) / cfg.dt
    _check_steps(ramp + tail, _BACKBONE_KEYS)
    times = [env["t_start"]]
    for _ in range(int(round(ramp)) + tail):
        times.append(times[-1] + cfg.dt)
    while times[-1] < env["t_end"]:  # with no tail, the rounded ramp can stop short
        _check_steps(len(times), _BACKBONE_KEYS)
        times.append(times[-1] + cfg.dt)
    return times


def _hit_targets(state: SystemState) -> Tuple[Tuple[int, ...], np.ndarray]:
    """The terms a hit may choose (non-phantom ready terms) and their |unit-basis site amplitudes|."""
    ids = tuple(n for n, t in enumerate(state.terms) if t.brain.is_ready and not t.phantom)
    return ids, np.vstack([np.abs(state.terms[n].brain.site_amplitudes(state.grid)) for n in ids])


def build_backbone(cfg: ScenarioConfig) -> Backbone:
    """Evaluate the envelope's closed form on the time grid, with its hit budget.

    Before a hit only the scheduled coefficients move and every brain factor
    is static, so the values equal those of ``step`` applied step by step.
    The schedule's rule-4 check runs once, first, and the per-step checks
    (hit-rate cap, conservation, pulse norm) once on whole arrays. One
    ``envelope_factors`` call per time, with ``math`` trig, gives its
    ``dst_factor``; the rest is taken on arrays from those factors in the
    order of the per-time closed form: the scheduled coefficient columns
    from one ``coefficients`` call on the factor columns, the square moduli
    ``float_power(abs(c), 2.0) * norm`` (Python's ``abs(c) ** 2 * norm`` bit
    for bit), and the totals as columns added left to right, as ``sum(row)``
    adds them.
    """
    times = _backbone_times(cfg)
    state0, schedule = build_initial(cfg)
    pairs = rule4_pairs(state0, schedule)
    if pairs:
        raise Rule4Violation(pairs)
    dt, s = cfg.dt, state0.s
    ready_ids, ready_amps = _hit_targets(state0)

    factors = np.array([schedule.envelope_factors(t) for t in times])  # (source, destination) multipliers
    coeffs = np.tile(np.array([t.coefficient for t in state0.terms], dtype=np.complex128), (len(times), 1))
    for n, column in schedule.coefficients(factors[1:, 0], factors[1:, 1]).items():
        coeffs[1:, n] = column
    # square moduli as Term.square_modulus takes them: abs, then pow, times the brain norm
    norms = np.array([t.brain.norm_sq() for t in state0.terms])
    sq_terms = np.float_power(np.abs(coeffs), 2.0) * norms
    total = sum(sq_terms.T)  # column by column: the sums sum(row) takes, left to right
    currents = np.diff(sq_terms, axis=0) / dt
    step_mass = np.clip(np.where(currents > 0.0, currents, 0.0).sum(axis=1) * dt / s, 0.0, 1.0)

    too_fast = np.flatnonzero(step_mass >= MAX_STEP_HIT_PROBABILITY)
    if too_fast.size:
        raise HitRateTooHigh(
            f"per-step hit probability {step_mass[too_fast[0]]:.4f} >= "
            f"{MAX_STEP_HIT_PROBABILITY}; reduce dt"
        )
    cons_drift = float(np.max(np.abs(total - total[0])))
    if cons_drift > _conservation_bound(s, times[-1] - times[0]):
        raise InvariantBreach(
            "norm-conservation", f"total square modulus drifted by {cons_drift:.3e}"
        )
    max_norm_err = max(
        (abs(t.brain.norm_sq() - 1.0) for t in state0.terms if isinstance(t.brain, Pulse)),
        default=0.0,
    )
    if max_norm_err > NORM_TOL:
        raise InvariantBreach("pulse-normalization", f"pulse norm error {max_norm_err:.3e}")

    cum_budget = np.cumsum(step_mass)
    return Backbone(
        state0=state0,
        schedule=schedule,
        dt=dt,
        times=np.array(times),
        coeffs=coeffs,
        sq_terms=sq_terms,
        currents=currents,
        total_sq=total,
        step_mass=step_mass,
        cum_budget=cum_budget,
        ready_ids=ready_ids,
        ready_amps=ready_amps,
        dst_factor=factors[:, 1].copy(),
        audits={
            "max_conservation_drift": cons_drift,
            "max_pulse_norm_error": max_norm_err,
            "max_step_hit_probability": float(step_mass.max(initial=0.0)),
        },
        hit_table=_hit_step_table(cum_budget, step_mass),
    )


# ---------------------------------------------------------------------------
# batch trials
# ---------------------------------------------------------------------------


@dataclass
class Placement:
    """Hit placement of one chunk of draws.

    ``step_index`` holds each trial's hit step (len(cum_budget) for no hit);
    the other fields hold one entry per hit, in trial order: its row in the
    chunk (``trial``), step, time, ready term, site, pre-hit total square
    modulus, survivor coefficients (one column per ready term) and ramp
    progress.
    """

    step_index: np.ndarray
    trial: np.ndarray
    step: np.ndarray
    t_sc: np.ndarray
    term_hit: np.ndarray
    u_sc: np.ndarray
    pre_norm: np.ndarray
    survivor_coeffs: np.ndarray
    ramp_progress: np.ndarray


@dataclass
class EventBatch:
    """Streaming aggregates of one batch run; no per-trial array or event is kept.

    ``final_identity``: (1/s) times the survivors' square modulus at each
    observed site's first hit, rescaled by the ramp progress at t_sc to
    envelope-final values, summed over sites. ``spot_count``: hits whose third
    draw falls below the label-2 Born weight at the site (the turn-off rule).
    """

    n_trials: int
    n_hits: int
    site_counts: np.ndarray
    multiplicity_counts: Dict[int, int]
    spot_count: int
    final_identity: float
    max_provenance_error: float
    events_digest: str


def site_cdfs(
    coeffs: np.ndarray, ready_amps: np.ndarray, dt: float, s: float, biased: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Each step's flat (ready term, site) hit-mass CDF and its total.

    ``coeffs`` holds the ready terms' coefficients at the step boundaries
    (one row more than steps) and ``ready_amps`` their |unit-basis site
    amplitudes|. The hit mass of (term, site) over a step is the positive
    increase of |c|^2 |w|^2 over the step, divided by s, computed as ``step``
    computes its per-site currents. ``biased`` squares the weights first:
    the site-selection negative control.
    """
    # |c|^2 as float_power(abs(c), 2.0), libm pow as in build_backbone, and |w|^2 through numpy's
    # array square, as dynamics._site_masses takes them, so the tables equal step's currents bit for bit
    csq = np.float_power(np.abs(coeffs), 2.0)
    mass = csq[:, :, None] * ready_amps**2
    weights = np.diff(mass, axis=0).reshape(len(mass) - 1, -1)
    del mass
    # clip(increase / dt, 0) * dt / s, in place so at most two tables are alive at once
    weights /= dt
    np.clip(weights, 0.0, None, out=weights)
    weights *= dt
    weights /= s
    if biased:
        weights = weights**2
    return np.cumsum(weights, axis=1), weights.sum(axis=1)


def _flat_cell(cdf: np.ndarray, targets):
    """Flat (ready term, site) cell whose CDF bracket holds each target.

    ``total`` is a pairwise sum and ``cdf[-1]`` a running one, so u2 * total
    can land at or past ``cdf[-1]``; such a target takes the last cell with
    mass, the first to reach ``cdf[-1]``.
    """
    return np.minimum(np.searchsorted(cdf, targets, side="right"), np.searchsorted(cdf, cdf[-1]))


def _hit_steps(bb: Backbone, u1: np.ndarray) -> np.ndarray:
    """Hit step of each first uniform against the cumulative budget,
    len(cum_budget) for no hit, read from the backbone's ``HitStepTable``.
    A complete transfer always hits."""
    table = bb.hit_table
    j = table.first[np.minimum((u1 * HIT_STEP_BUCKETS).astype(np.intp), HIT_STEP_BUCKETS - 1)]
    for _ in range(table.passes):
        j += table.values[j] <= u1
    return table.steps[j]


def place_hits(bb: Backbone, cdf: np.ndarray, total: np.ndarray, draws: np.ndarray) -> Placement:
    """Place each trial's hit: u1 = draws[:, 0] against the cumulative budget
    picks the step; u2 = draws[:, 1] against that step's site CDF picks the
    ready term and site. Everything past the step is computed for hits only.
    """
    n_steps = len(bb.cum_budget)
    step_idx = _hit_steps(bb, draws[:, 0])
    trial = np.flatnonzero(step_idx < n_steps)
    steps = step_idx[trial]

    # group hits by step; the narrowest key dtype lets numpy radix-sort it
    order = np.argsort(steps.astype(np.min_scalar_type(n_steps)), kind="stable")
    by_step = steps[order]
    target = draws[trial[order], 1] * total[by_step]
    bounds = np.searchsorted(by_step, np.arange(n_steps + 1))
    cells = np.empty(len(trial), dtype=np.int64)
    for i, lo, hi in zip(range(n_steps), bounds[:-1].tolist(), bounds[1:].tolist()):
        if hi > lo:
            if total[i] <= 0.0:
                raise InvariantBreach("site-selection", f"no positive site current at step {i}")
            cells[lo:hi] = np.searchsorted(cdf[i], target[lo:hi], side="right")
    # the rare target at or past its step's cdf[-1] is clamped as _flat_cell does
    for j in np.flatnonzero(cells == cdf.shape[1]).tolist():
        cells[j] = _flat_cell(cdf[by_step[j]], target[j])
    flat = np.empty_like(cells)
    flat[order] = cells
    rows, sites = np.divmod(flat, bb.ready_amps.shape[1])

    # per-step rows and site-major amplitudes, read once per hit (np.take copies
    # whole rows; fancy indexing takes about ten times as long here)
    ready = list(bb.ready_ids)
    coef_rows = bb.coeffs[1:, ready]
    amps_T = np.ascontiguousarray(bb.ready_amps.T)
    return Placement(
        step_index=step_idx,
        trial=trial,
        step=steps,
        t_sc=bb.times[1:][steps],
        term_hit=np.asarray(ready)[rows],
        u_sc=sites,
        pre_norm=bb.total_sq[1:][steps],
        # survivor coefficients: a_i(t_sc) * w_i(u_sc) for each ready term
        survivor_coeffs=np.take(coef_rows, steps, axis=0) * np.take(amps_T, sites, axis=0),
        ramp_progress=(bb.dst_factor[1:] / bb.dst_factor[-1])[steps],
    )


def _digest_chunk(digest, buf: np.ndarray, p: Placement, draws: np.ndarray, n_steps: int) -> None:
    """Hash the chunk's records, written to the leading rows of ``buf``: one
    float64 row per trial (hit, step, t_sc, term, site, survivors' re and im,
    three draws; nan, -1 and zeros where no hit), so the byte stream does not
    depend on the chunk size."""
    rows = buf[: len(draws)]
    rows[:, 1] = p.step_index
    rows[:, 0] = p.step_index < n_steps
    rows[:, 2] = np.nan
    rows[:, 3] = -1.0
    rows[:, 4:-3] = 0.0
    rows[p.trial, 2] = p.t_sc
    rows[p.trial, 3] = p.term_hit
    rows[p.trial, 4] = p.u_sc
    rows[p.trial, 5:-3] = p.survivor_coeffs.view(np.float64)
    rows[:, -3:] = draws
    digest.update(rows)


def run_batch(cfg: ScenarioConfig, backbone: Optional[Backbone] = None) -> Tuple[Backbone, EventBatch]:
    """Place every trial's hit against the backbone's budget and currents.

    Trials run in chunks of CHUNK_TRIALS rows of three uniforms, drawn one
    after another from one PCG64 stream (the same doubles as one whole
    draw), and each chunk is folded into the aggregates and dropped, so
    memory does not grow with the trial count. ``events_digest`` is a
    sha256 over per-trial records in trial order, whatever the chunk size.
    In a batch of more than one chunk, one helper thread hashes a chunk's
    records while the next chunk is placed; a batch of one chunk has no
    next chunk to overlap with and hashes in line. The site tables and the
    scheduled coefficients are the backbone's own (``Backbone.site_tables``
    for the config's bias switch, ``Backbone.scheduled_ready``), built by
    the first batch run on it. Survivor coefficients that differ from the
    schedule's a_i(t_sc) * w_i(u_sc) by more than PROVENANCE_TOL breach
    "provenance". A grid whose site tables (steps x ready terms x sites x
    8 B) would exceed MAX_SITE_TABLE_BYTES is refused before anything
    grid-sized is made.
    """
    n_points = cfg.data["grid"]["n_points"]
    n_steps = len(_backbone_times(cfg)) - 1
    table_bytes = 8 * n_steps * SCENARIOS[cfg.name].ready_terms * n_points
    if table_bytes > MAX_SITE_TABLE_BYTES:
        raise ConfigError(
            f"grid.n_points = {n_points} over {n_steps} steps (scenario.dt = {cfg.dt}) needs "
            f"{table_bytes / 2**30:.1f} GiB of site tables, over the {MAX_SITE_TABLE_BYTES >> 30} GiB limit"
        )
    bb = backbone if backbone is not None else build_backbone(cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    ready = list(bb.ready_ids)
    cdf, total = bb.site_tables(cfg.data["debug"]["bias_site_selection"])
    ready_terms = [bb.state0.terms[n] for n in ready]
    spot_col = [t.apparatus_label for t in ready_terms].index(2)
    # complex site amplitudes, site-major, for the provenance recomputation
    site_amps = np.vstack([t.brain.site_amplitudes(bb.state0.grid) for t in ready_terms]).T.copy()
    n_steps, n_sites = len(bb.cum_budget), len(site_amps)
    digest = hashlib.sha256()
    site_counts = np.zeros(n_sites, dtype=np.int64)
    mult_counts = np.zeros(len(ready) + 1, dtype=np.int64)
    first_mass = np.zeros(n_sites)
    spot_count = 0
    prov_err = 0.0
    # written only while a chunk is hashed; with a helper thread, a chunk is handed over
    # only once the one before it is hashed, so at most one waits and memory stays bounded
    row_buf = np.empty((min(CHUNK_TRIALS, cfg.trials), 8 + 2 * len(ready)))
    hasher = None
    if cfg.trials > CHUNK_TRIALS:
        # imported only here: it loads logging, about 3 ms of start-up that a batch of one chunk never needs
        from concurrent.futures import ThreadPoolExecutor

        hasher = ThreadPoolExecutor(max_workers=1)

    with hasher if hasher is not None else contextlib.nullcontext():
        hashing = None
        for start in range(0, cfg.trials, CHUNK_TRIALS):
            draws = rng.random((min(CHUNK_TRIALS, cfg.trials - start), 3))
            p = place_hits(bb, cdf, total, draws)
            if hasher is None:
                _digest_chunk(digest, row_buf, p, draws, n_steps)
            else:
                if hashing is not None:
                    hashing.result()
                hashing = hasher.submit(_digest_chunk, digest, row_buf, p, draws, n_steps)

            surv, sites = p.survivor_coeffs, p.u_sc
            amp = np.abs(surv)
            w = amp**2
            post = sum(w.T)  # column by column: the same sums as w.sum(axis=1), about 15 times faster
            if np.any(post > p.pre_norm + 1e-12):
                raise InvariantBreach("reduction-bound", "post square modulus exceeded pre-hit norm")
            # provenance: a_i(t_sc) * w_i(u_sc) from the schedule, apart from the kernel's tables
            recomputed = np.take(bb.scheduled_ready, p.step, axis=0) * np.take(site_amps, sites, axis=0)
            prov_err = max(prov_err, float(np.max(np.abs(recomputed - surv), initial=0.0)))
            if prov_err > PROVENANCE_TOL:
                raise InvariantBreach(
                    "provenance", f"survivor coefficients differ from the schedule's by {prov_err:.3e}"
                )
            mult_counts += np.bincount(sum(amp.T > 0), minlength=len(ready) + 1)
            born = np.where(post > 0, w[:, spot_col] / np.where(post > 0, post, 1.0), 0.0)
            spot_count += int(np.count_nonzero(draws[p.trial, 2] < born))
            first = np.full(n_sites, len(sites))
            np.minimum.at(first, sites, np.arange(len(sites)))
            new = np.flatnonzero((first < len(sites)) & (site_counts == 0))
            first_mass[new] = post[first[new]] / p.ramp_progress[first[new]] ** 2
            site_counts += np.bincount(sites, minlength=n_sites)
        if hashing is not None:
            hashing.result()

    return bb, EventBatch(
        n_trials=cfg.trials,
        n_hits=int(site_counts.sum()),
        site_counts=site_counts,
        multiplicity_counts={k: int(v) for k, v in enumerate(mult_counts) if v},
        spot_count=spot_count,
        final_identity=float(first_mass[site_counts > 0].sum() / bb.state0.s),
        max_provenance_error=prov_err,
        events_digest=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# single full-fidelity trajectory
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryOutcome:
    state: SystemState
    log: TrajectoryLog
    event: Optional[ReductionEvent]
    extras: Dict


def simulate_trajectory(
    cfg: ScenarioConfig, trial: int = 0, backbone: Optional[Backbone] = None
) -> TrajectoryOutcome:
    """One trial end to end, with reduction and formation on real states.

    Everything before the hit is read from the backbone (built here unless
    given), never from the schedule: the first uniform picks the hit step by
    the batch rule, ``_hit_steps``, and the log's rows, pre-hit norm and ramp
    progress up to it are the backbone's; a second uniform picks the site
    from that step's ``site_cdfs`` row. Later rows are built on arrays from
    carried values, in at most two segments: up to the scenario's post-hit
    event (set with the rows past the backbone by its table entry), and past
    it. Their times are repeated ``t + dt`` sums, their square moduli each
    fixed coefficient's ``abs(c) ** 2`` times its brain norm, their totals
    the columns added left to right, and their currents the row differences
    over dt that ``step`` reports; the event row keeps the currents taken
    before its event. The coefficients stay fixed within a segment, since
    nothing moves amplitude after a hit or past t_end; a forming pulse
    widens by one ``FormationKernel`` row per row, and the kernel's arrays
    give each row's norm, occupied count and stage. A state, with each
    forming pulse built from its kernel, is built only at the hit, at the
    event and at the end, where the last row must equal its square moduli.
    ``step`` is never called here.
    """
    sc = SCENARIOS[cfg.name]
    extra = sc.extra_steps(cfg)
    bb = backbone if backbone is not None else build_backbone(cfg)
    policy = _formation_policy(cfg)
    rng = RngStream(cfg.seed, trial)
    u1 = rng.uniform()
    dt, s = bb.dt, bb.state0.s

    k = int(_hit_steps(bb, np.array([u1]))[0])
    head = min(k + 2, len(bb.times))  # backbone rows, through the one the hit step ends on
    pulses, norms, forming = _carried_factors(bb.state0, dt)
    sq_head = bb.sq_terms[:head].copy()
    tot_head = bb.total_sq[:head].copy()
    budget_head = np.concatenate(([0.0], bb.cum_budget[: head - 1]))
    state = bb.state0  # the terms whose labels, factors and phantom flags the carried values belong to
    coeffs = bb.coeffs[head - 1].tolist()
    event: Optional[ReductionEvent] = None
    extras: Dict = {"occupied_counts": [], "formation_stages": [], "formation_norm_err": 0.0,
                    "turned_off": False, "disengaged": False}

    if k < len(bb.step_mass):
        u2 = rng.uniform()
        cdf, total = site_cdfs(
            bb.coeffs[k : k + 2, list(bb.ready_ids)], bb.ready_amps, dt, s,
            cfg.data["debug"]["bias_site_selection"],
        )
        if not total[0] > 0.0:
            raise InvariantBreach("site-selection", "hit fired with no positive site current")
        row, site = divmod(int(_flat_cell(cdf[0], u2 * total[0])), state.grid.n_points)
        term_idx = bb.ready_ids[row]
        pre = float(bb.total_sq[k + 1])
        state = reduce(_with_values(state, coeffs, pulses, forming, float(bb.times[head - 1])), term_idx, site)
        event = ReductionEvent(
            t_sc=state.time,
            term_hit=term_idx,
            u_sc=site,
            pre_norm=pre,
            post_coefficients={t.apparatus_label: t.coefficient for t in state.terms if t.coefficient != 0},
            rng_draws=(u1, u2),
            ramp_progress=float(bb.dst_factor[k + 1] / bb.dst_factor[-1]),
        )
        if total_square_modulus(state) > pre + 1e-12:
            raise InvariantBreach("reduction-bound", "post norm exceeded pre norm")
        try:
            state = form_pulse(state, site, policy)
        except CenterOutOfRange as exc:
            raise ConfigError(
                f"formation.target_sigma ({policy.target_sigma}): the formed pulse does not fit at "
                f"hit site {site}: {exc}"
            ) from exc
        coeffs = [t.coefficient for t in state.terms]
        pulses, norms, forming = _carried_factors(state, dt)
        # the hit step's row holds the formed state, with the currents that led to the hit
        sq_head[-1] = [t.square_modulus() for t in state.terms]
        tot_head[-1] = total_square_modulus(state)

    # the rows past the backbone's, in a segment up to a post-hit event's row and one past it;
    # times[0] is the last backbone row's
    steps = np.full(len(bb.step_mass) + extra + 1 - head, dt)
    times = np.add.accumulate(np.concatenate((bb.times[head - 1 : head], steps)))
    ends = [len(times) - 1]
    if event is not None and sc.event is not None:
        due = np.flatnonzero(times[1:] >= cfg.get(sc.until))
        if due.size:
            ends.insert(0, int(due[0]) + 1)
    segments, lives, prev, at = [], [], sq_head[-1], 0
    for i, end in enumerate(ends):
        sq, live = _carried_rows(pulses, coeffs, norms, forming, end - at)
        segments.append((sq, np.diff(np.vstack((prev, sq)), axis=0) / dt))
        if i < len(ends) - 1:
            # the event row keeps the currents taken before its turn-off or disengage event
            state = sc.event(_with_values(state, coeffs, pulses, forming, float(times[end])), event, rng, extras)
            coeffs = [term.coefficient for term in state.terms]
            pulses, norms, forming = _carried_factors(state, dt)
            sq[-1] = prev = [term.square_modulus() for term in state.terms]
        lives.append(live)
        at = end
    if event is not None:
        _record_live(extras, lives)

    state = _with_values(state, coeffs, pulses, forming, float(times[-1]))
    sq_post = np.vstack([sq for sq, _ in segments])
    sq_terms = np.vstack((sq_head, sq_post))
    if [term.square_modulus() for term in state.terms] != sq_terms[-1].tolist():
        raise InvariantBreach("trajectory-rows", "the last row differs from the final state's square moduli")
    log = TrajectoryLog(
        times=np.concatenate((bb.times[: head - 1], times)),
        sq_terms=sq_terms,
        currents=np.vstack((np.zeros((1, len(coeffs))), bb.currents[: head - 1], *(cur for _, cur in segments))),
        total_sq=np.concatenate((tot_head, sum(sq_post.T))),
        budget=np.concatenate((budget_head, np.full(len(times) - 1, budget_head[-1]))),
        labels=tuple(term.apparatus_label for term in state.terms),
    )
    return TrajectoryOutcome(state=state, log=log, event=event, extras=extras)


def _pulses(state: SystemState) -> List[Optional[Pulse]]:
    """Each term's pulse, None for other factors."""
    return [t.brain if isinstance(t.brain, Pulse) else None for t in state.terms]


def _carried_factors(state: SystemState, dt: float):
    """The per-term values a trajectory carries past a state: each term's pulse
    (None for other factors), its brain norm, and one ``FormationKernel`` per
    forming pulse with the non-phantom terms that share it, so that a shared
    pulse widens once per row."""
    pulses = _pulses(state)
    forming: Dict[int, List[int]] = {}
    for n, (term, pulse) in enumerate(zip(state.terms, pulses)):
        if pulse is not None and pulse.forming is not None and not term.phantom:
            forming.setdefault(id(pulse), []).append(n)
    kernels = [(FormationKernel(pulses[shared[0]], dt), shared) for shared in forming.values()]
    return pulses, [t.brain.norm_sq() for t in state.terms], kernels


def _carried_rows(pulses, coeffs, norms, forming, m: int):
    """The next ``m`` rows of carried values, with each forming kernel advanced ``m``
    rows: their square moduli as ``Term.square_modulus`` takes them, one column per
    term, and the live pulse's (kind, norms, occupied counts, stages) from the current
    row on, ``m + 1`` entries, read off its kernel while it forms (None with no live pulse)."""
    cols = [np.full(m, abs(c) ** 2 * nrm) for c, nrm in zip(coeffs, norms)]
    n = _live_term(pulses, coeffs)
    live = None
    for kernel, shared in forming:
        now = kernel.stage, kernel.norm_sq, kernel.occupied
        stages, kernel_norms, occupied = kernel.advance(m)
        for t in shared:
            cols[t] = abs(coeffs[t]) ** 2 * kernel_norms
        if n in shared:
            live = (kernel.pulse_kind, np.append(now[1], kernel_norms), np.append(now[2], occupied),
                    np.append(now[0], stages))
    if live is None and n is not None:
        pl = pulses[n]
        live = (pl.kind, np.full(m + 1, pl.norm_sq()), np.full(m + 1, np.count_nonzero(pl.weights)),
                np.full(m + 1, pl.formation_stage))
    return np.column_stack(cols), live


def _record_live(extras: Dict, lives) -> None:
    """Add each row's live pulse to ``extras``: its norm error and, for a conscious
    pulse, its occupied count and stage. ``lives`` holds each segment's live pulse
    from ``_carried_rows``, whose first entry is the row the segment starts after:
    the hit row, whose norm error is not counted, or the event row, which the
    segment before ends on and leaves to the pulse after the event."""
    for i, live in enumerate(lives):
        if live is None:
            continue
        kind, norms, occupied, stages = live
        stop = len(norms) - (i < len(lives) - 1)
        err = np.abs(norms[1 if i == 0 else 0 : stop] - 1.0)
        extras["formation_norm_err"] = max(extras["formation_norm_err"], float(np.max(err, initial=0.0)))
        if kind is PulseKind.CONSCIOUS:
            extras["occupied_counts"] += occupied[:stop].tolist()
            extras["formation_stages"] += stages[:stop].tolist()


def _with_values(state: SystemState, coeffs, pulses, forming, time: float) -> SystemState:
    """``state`` with the carried coefficients and pulses, each forming pulse
    built from its kernel's current row, at ``time``."""
    pulses = list(pulses)
    for kernel, shared in forming:
        pulse = kernel.pulse()
        for n in shared:
            pulses[n] = pulse
    terms = [
        Term(term.apparatus_label, c, term.brain if pulse is None else pulse, term.phantom)
        for term, c, pulse in zip(state.terms, coeffs, pulses)
    ]
    return state.with_terms(terms, time=time)


def _live_term(pulses, coeffs) -> Optional[int]:
    """The first term with a pulse factor and a nonzero coefficient, if any."""
    return next((n for n, (p, c) in enumerate(zip(pulses, coeffs)) if p is not None and c != 0), None)


def _turn_off(state: SystemState, event: ReductionEvent, rng: RngStream, extras: Dict) -> SystemState:
    """Switch source 1 off; a third uniform keeps the spot with label 2's Born weight among the survivors."""
    state = _zero_label(state, label=1)
    extras["turned_off"] = True
    extras["post_off_coefficients"] = {t.apparatus_label: t.coefficient for t in state.terms if t.coefficient != 0}
    labels = {lbl: abs(c) ** 2 for lbl, c in event.post_coefficients.items()}
    w1, w2 = labels.get(1, 0.0), labels.get(2, 0.0)
    u3 = rng.uniform()
    extras["spot_remains"] = bool(u3 < (w2 / (w1 + w2))) if (w1 + w2) > 0 else False
    extras["spot_draw"] = u3
    return state


def _disengage(state: SystemState, event: ReductionEvent, rng: RngStream, extras: Dict) -> SystemState:
    """The observer looks away; the swap must leave every coefficient as it was."""
    after = _swap_disengaged(state)
    extras["disengaged"] = True
    extras["swap_identical"] = tuple(t.coefficient for t in state.terms) == tuple(t.coefficient for t in after.terms)
    return after


def _zero_label(state: SystemState, label: int) -> SystemState:
    return state.with_terms([Term(t.apparatus_label, 0j, t.brain, t.phantom) if t.apparatus_label == label else t
                             for t in state.terms])


def _swap_disengaged(state: SystemState) -> SystemState:
    """Replace the shared conscious pulse factor with a disengaged one."""
    return state.with_terms([
        Term(t.apparatus_label, t.coefficient,
             DisengagedX(grid=t.brain.grid, weights=t.brain.weights, observer_id=t.brain.observer_id), t.phantom)
        if t.coefficient != 0 and isinstance(t.brain, Pulse) and t.brain.kind is PulseKind.CONSCIOUS else t
        for t in state.terms
    ])


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def run_interaction(cfg: ScenarioConfig) -> ScenarioResult:
    """Conscious source pulse feeding one ready pulse; rule-1 hit statistics.

    Closed form: P(hit) = |a_2(end)|^2 / s. The summary carries the
    probability report, the hit-site histogram against |F_2|^2 du, and the
    backbone audits.
    """
    bb, batch = run_batch(cfg)
    ready = bb.ready_ids[0]
    a2_final_sq = float(np.abs(bb.coeffs[-1, ready]) ** 2)
    closed = analysis.closed_form_p_hit(a2_final_sq, bb.state0.s)
    report = analysis.compare(batch.n_hits, batch.n_trials, closed)
    # 100 is enough for a valid pooled chi-square; acceptance-grade runs
    # assert >= 10_000 events on top of this.
    hist = analysis.hit_histogram(
        batch.site_counts, expected_profile=bb.ready_amps[0] ** 2, min_events=100
    )
    summary = {
        "scenario": cfg.name,
        "n_trials": cfg.trials,
        "closed_form_p_hit": closed,
        "empirical_p_hit": report.empirical,
        "z_score": report.z_score,
        "probability_pass": report.passed,
        "chi2": hist.chi2,
        "chi2_dof": hist.dof,
        "chi2_p_value": hist.p_value,
        "chi2_events": hist.n_events,
        "events_digest": batch.events_digest,
        **bb.audits,
    }
    return ScenarioResult(summary)


def run_unresolvable_observation(cfg: ScenarioConfig) -> ScenarioResult:
    """Two sources, overlapping or disjoint ready profiles, one observer.

    Every trial of a complete transfer reduces (``all_trials_reduced``,
    null on a partial transfer, where a trial may see no hit); survivors
    are all labels with weight at the chosen site. The summary reports
    multiplicity statistics, provenance
    error, and the final-vs-initial probability identity via quadrature over
    the observed sites (coefficients rescaled to envelope-final values by
    the recorded ramp progress).
    """
    bb, batch = run_batch(cfg)
    expected = np.zeros(bb.state0.grid.n_points)
    a_fin = bb.coeffs[-1, list(bb.ready_ids)]
    for r in range(len(bb.ready_ids)):
        expected += np.abs(a_fin[r]) ** 2 * bb.ready_amps[r] ** 2
    identity_target = float(expected.sum() / bb.state0.s)
    identity_tol = _identity_tolerance(expected / bb.state0.s, cfg.trials)
    hist = analysis.hit_histogram(batch.site_counts, expected_profile=expected, min_events=100)

    summary = {
        "scenario": cfg.name,
        "arrangement": cfg.data["variant"]["arrangement"],
        "n_trials": cfg.trials,
        "all_trials_reduced": batch.n_hits == batch.n_trials if bb.complete else None,
        "multiplicity_counts": batch.multiplicity_counts,
        "max_provenance_error": batch.max_provenance_error,
        "final_identity_estimate": batch.final_identity,
        "final_identity_target": identity_target,
        "final_identity_tolerance": identity_tol,
        "final_identity_pass": bool(abs(batch.final_identity - identity_target) <= identity_tol),
        "chi2_p_value": hist.p_value,
        "chi2_events": hist.n_events,
        "events_digest": batch.events_digest,
        **bb.audits,
    }
    return ScenarioResult(summary)


def run_turn_off(cfg: ScenarioConfig) -> ScenarioResult:
    """Observation followed by switching the first source off.

    A hit's spot survives with Born weight |c_2|^2 / (|c_1|^2+|c_2|^2) at
    the chosen site. Both ready coefficients follow one ramp factor, so that
    weight does not depend on t_sc, and over all trials, hit or not, the
    spot rate is P_2 = |a_2(end)|^2 / s for overlapping and disjoint
    profiles alike and for any envelope fraction. The rate is judged only
    on 1000 hits or more (``TooFewTrials`` otherwise).
    """
    bb, batch = run_batch(cfg)
    if batch.n_hits < 1000:
        raise TooFewTrials(f"{batch.n_hits} samples < required 1000")
    label2 = next(n for n in bb.ready_ids if bb.state0.terms[n].apparatus_label == 2)
    a2_sq = float(np.abs(bb.coeffs[-1, label2]) ** 2)
    closed = analysis.closed_form_p_hit(a2_sq, bb.state0.s)
    report = analysis.compare(batch.spot_count, batch.n_trials, closed)
    summary = {
        "scenario": cfg.name,
        "arrangement": cfg.data["variant"]["arrangement"],
        "n_trials": cfg.trials,
        "closed_form_p2": closed,
        "empirical_p2": report.empirical,
        "std_error": report.std_error,
        "z_score": report.z_score,
        "probability_pass": report.passed,
        "all_trials_reduced": batch.n_hits == batch.n_trials if bb.complete else None,
        "events_digest": batch.events_digest,
        **bb.audits,
    }
    return ScenarioResult(summary)


def run_disengage(cfg: ScenarioConfig, trial: int = 0, backbone: Optional[Backbone] = None) -> ScenarioResult:
    """Observation, then the observer looks away at t_dis.

    The conscious pulse factor is swapped for a disengaged one; coefficients
    must be untouched to the last bit and nothing stochastic may happen
    afterwards. A trial with no hit swaps nothing: its ``swap_identical`` is
    None.
    """
    out = simulate_trajectory(cfg, trial=trial, backbone=backbone)
    post = out.log
    currents_after, sq_after = _after_dis(post, cfg.data["disengage"]["t_dis"])
    constant = bool(np.all(sq_after == sq_after[0])) if len(sq_after) else True
    labels = {}
    if out.event is not None:
        labels = {k: abs(v) ** 2 for k, v in out.event.post_coefficients.items()}
    total_post = sum(labels.values())
    p2_eq7 = labels.get(2, 0.0) / out.state.s
    summary = {
        "scenario": cfg.name,
        "hit": out.event is not None,
        "swap_identical": out.extras.get("swap_identical", False) if out.event is not None else None,
        "currents_zero_after_dis": bool(np.all(currents_after == 0.0)),
        "square_moduli_constant_after_dis": constant,
        "p2_from_eq7_coefficients": p2_eq7,
        "post_norm": total_post,
        "final_factor_disengaged": any(
            isinstance(t.brain, DisengagedX) for t in out.state.terms if t.coefficient != 0
        ),
    }
    return ScenarioResult(summary, [out.event] if out.event else [], post)


def _after_dis(log: TrajectoryLog, t_dis: float) -> Tuple[np.ndarray, np.ndarray]:
    """The currents of the rows past the event row (the first at or past t_dis, which keeps
    the currents taken before the swap), and the square moduli from the event row on."""
    after = np.flatnonzero(log.times >= t_dis)
    return log.currents[after[1:]], log.sq_terms[after]


def _ready_transfer_injection(state: SystemState):
    """Negative control: two empty ready single states of the drift's observer,
    appended after its terms, with a ramp scheduled from one to the other.

    Returns the hook's own state and schedule, which are checked and never
    stepped. The drift's terms stand in at their initial values so that the
    rule-4 pair names the same term indices as in the drift state.
    """
    extras = (
        Term(apparatus_label=3, coefficient=0j, brain=SingleState(kind=PulseKind.READY, index=1)),
        Term(apparatus_label=4, coefficient=0j, brain=SingleState(kind=PulseKind.READY, index=2)),
    )
    hook = state.with_terms(tuple(state.terms) + extras)
    n = len(hook.terms)
    return hook, EnvelopeSchedule.trig(hook, [(n - 2, (n - 1,))], t_start=0.0, t_end=1.0)


def _tamper_phantom(weights: np.ndarray, phantom: np.ndarray) -> np.ndarray:
    """Negative control: the shadow weights with the largest phantom weight
    scaled by 1 + 1e-6, which the phantom-freeze audit must catch."""
    site = int(np.argmax(np.where(phantom, np.abs(weights), -1.0)))
    w = weights.copy()
    w[site] *= 1.0 + 1e-6
    return w


def run_pulse_drift(cfg: ScenarioConfig) -> ScenarioResult:
    """Conscious pulse drifting across the grid, shedding into a ready shadow.

    Advances a ``DriftKernel`` a block of rows at a time and builds the
    state only at the end. On each block's stacked rows it takes the log's
    square moduli of both terms and audits the phantom freeze: trailing
    shadow sites freeze into phantoms, and their amplitudes must stay
    constant to the last bit modulo renormalization rounding (audited at
    1e-12 against each site's amplitude at its first phantom row). Two
    negative controls: ``tamper_phantom`` moves one frozen amplitude at step
    3/5 of the run, where a block ends so that its own row's audit sees the
    move (a ConfigError when the shadow has no phantom site there to move),
    and ``intra_ready_transfer`` schedules an injected ready-to-ready ramp
    whose rule-4 pairs refuse the run before its first drift step.
    """
    state, _ = build_initial(cfg)
    dr = cfg.data["drift"]
    dt = cfg.dt
    _check_steps(dr["duration"] / dt, ("drift.duration", "scenario.dt"))
    n_steps = int(round(dr["duration"] / dt))

    if cfg.data["debug"]["intra_ready_transfer"]:
        pairs = rule4_pairs(*_ready_transfer_injection(state))
        if pairs:
            raise Rule4Violation(pairs)
    tamper_step = n_steps * 3 // 5 if cfg.data["debug"]["tamper_phantom"] else None

    kernel = DriftKernel(state, dr["velocity"], dt, dr["shed_rate"])
    du = state.grid.spacing
    # Term.square_modulus of each pulse, row by row; a shadow that sheds nothing keeps its own
    sq = np.empty((n_steps + 1, 2))
    sq[:] = [term.square_modulus() for term in state.terms]
    frozen = np.zeros(state.grid.n_points)
    has_frozen = np.zeros(state.grid.n_points, dtype=bool)
    max_phantom_drift = 0.0
    done = 0
    while done < n_steps:
        m = min(kernel.block_rows, n_steps - done)
        if tamper_step is not None and done <= tamper_step:
            m = min(m, tamper_step + 1 - done)  # a block ends on the tamper row
        rows = kernel.advance(m)
        if tamper_step == done + m - 1 and kernel.has_phantom:
            kernel.set_shadow(_tamper_phantom(kernel.shadow_w, kernel.phantom))
            tamper_step = None  # fired
        block = slice(done + 1, done + m + 1)
        sq[block, 0] = _square_moduli(rows.cons_abs, rows.cons_w, du)
        if rows.shadow_w is not None:
            sq[block, 1] = _square_moduli(rows.shadow_abs, rows.shadow_w, du)
            max_phantom_drift = _freeze_audit(rows, frozen, has_frozen, max_phantom_drift)
        done += m

    if tamper_step is not None:
        raise ConfigError(
            f"debug.tamper_phantom did not fire: the shadow had no phantom site at step "
            f"{tamper_step} of {n_steps}"
        )

    if max_phantom_drift >= PHANTOM_FREEZE_TOL:
        raise InvariantBreach(
            "phantom-freeze", f"phantom amplitude moved by {max_phantom_drift:.3e}"
        )
    total = sq[:, 0] + sq[:, 1]  # total_square_modulus's sum
    max_cons = float(np.fmax.reduce(np.abs(total[1:] - total[0]), initial=0.0))
    if max_cons > _conservation_bound(state.s, n_steps * dt):
        raise InvariantBreach("norm-conservation", f"drift run leaked {max_cons:.3e}")

    times = np.add.accumulate(np.concatenate(([state.time], np.full(n_steps, dt))))
    if dr["velocity"] != 0.0 and n_steps > 0:
        state = kernel.state(float(times[-1]))
    cons, shadow = state.terms
    phantom_sites = shadow.brain.phantom_sites
    summary = {
        "scenario": cfg.name,
        "steps": n_steps,
        "traverse_sites": dr["velocity"] * dr["duration"] / state.grid.spacing,
        "phantom_trail_count": int(phantom_sites.sum() if phantom_sites is not None else 0),
        "max_phantom_drift": float(max_phantom_drift),
        "max_conservation_drift": max_cons,
        "rule4_violations": 0,
        "conscious_square_modulus": cons.square_modulus(),
        "shadow_square_modulus": shadow.square_modulus(),
    }
    log = TrajectoryLog(
        times=times,
        sq_terms=sq,
        currents=np.vstack((np.zeros((1, 2)), np.diff(sq, axis=0) / dt)),
        total_sq=total,
        budget=np.zeros(len(times)),
        labels=tuple(term.apparatus_label for term in state.terms),
    )
    return ScenarioResult(summary, trajectory=log)


def _square_moduli(abs_c: np.ndarray, weights: np.ndarray, du: float) -> np.ndarray:
    """``Term.square_modulus`` of a pulse term on each row: ``float_power(|c|, 2.0)`` is
    Python's ``abs(c) ** 2``, and each row's sum is ``profile_norm_sq``'s."""
    return np.float_power(abs_c, 2.0) * (np.add.reduce(np.abs(weights) ** 2, axis=1) * du)


def _freeze_audit(rows, frozen: np.ndarray, has_frozen: np.ndarray, worst: float) -> float:
    """The largest move of a phantom amplitude, ``|shadow_c| * |shadow_w * sqrt(du)|``, over a
    block of drift rows and ``worst`` so far. Each site is frozen at its amplitude on its first
    phantom row (``frozen`` and ``has_frozen`` carry that across blocks) and audited on every
    row after it; fmax passes over a NaN difference, as max() over the sites one by one did."""
    phantom = rows.phantom
    if not phantom[-1].any():  # the phantom set only grows
        return worst
    amps = rows.shadow_abs[:, None] * rows.shadow_amp
    new = phantom[-1] & ~has_frozen
    first = np.where(has_frozen, -1, len(amps))  # the row each site froze on; -1 before the block
    first[new] = phantom[:, new].argmax(axis=0)
    frozen[new] = amps[first[new], new]
    has_frozen |= new
    audited = np.arange(len(amps))[:, None] > first
    return np.fmax.reduce(np.abs(amps - frozen), axis=None, where=audited, initial=worst)


def run_fade_in(cfg: ScenarioConfig) -> ScenarioResult:
    """Interaction with staged formation: watch the pulse widen.

    Right after t_sc exactly one site is occupied; the occupied set grows by
    at most neighbor_radius sites per step; the profile keeps unit norm; and
    long after tau the width fits the target within 2 percent.
    """
    out = simulate_trajectory(cfg, trial=0)
    occ = np.array(out.extras["occupied_counts"], dtype=int)
    stages = np.array(out.extras["formation_stages"])
    radius = cfg.data["formation"]["neighbor_radius"]
    grid = _grid_of(cfg)

    live = _live_term(_pulses(out.state), [t.coefficient for t in out.state.terms])
    sigma_fit = float("nan")
    if live is not None and out.event is not None:
        w2 = np.abs(out.state.terms[live].brain.weights) ** 2 * grid.spacing
        mu = float(np.sum(grid.sites * w2))
        var = float(np.sum((grid.sites - mu) ** 2 * w2))
        sigma_fit = math.sqrt(2.0 * var)

    growth = np.diff(occ) if len(occ) > 1 else np.array([0])
    summary = {
        "scenario": cfg.name,
        "hit": out.event is not None,
        "initial_occupied": int(occ[0]) if len(occ) else 0,
        "final_occupied": int(occ[-1]) if len(occ) else 0,
        "max_growth_per_step": int(growth.max()) if len(growth) else 0,
        "growth_bound": 2 * radius,
        "monotone_growth": bool(np.all(growth >= 0)),
        "final_stage": float(stages[-1]) if len(stages) else 0.0,
        "sigma_fit": sigma_fit,
        "target_sigma": cfg.data["formation"]["target_sigma"],
        "width_rel_err": abs(sigma_fit - cfg.data["formation"]["target_sigma"])
        / cfg.data["formation"]["target_sigma"],
        "max_formation_norm_err": out.extras["formation_norm_err"],
    }
    return ScenarioResult(summary, [out.event] if out.event else [], out.log)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Dispatch a config to its runner."""
    return SCENARIOS[cfg.name].runner(cfg)


# ---------------------------------------------------------------------------
# the scenario table, with each scenario's verify checks
# ---------------------------------------------------------------------------

Check = Tuple[str, bool, str]  # a verify row: invariant, passed, detail


def _first_hit(cfg: ScenarioConfig, bb: Backbone) -> Optional[int]:
    """The first of the config's trials whose first uniform hits, by simulate_trajectory's
    own rule, or None. Trials are tested in blocks of 1, 2, 4, ... trials: a stream costs
    about 27 us to seed, most configs hit on trial 0, and a long search seeds fewer than
    twice the streams it needs."""
    start, size = 0, 1
    while start < cfg.trials:
        trials = range(start, min(start + size, cfg.trials))
        u1 = np.array([RngStream(cfg.seed, trial).uniform() for trial in trials])
        hits = np.flatnonzero(_hit_steps(bb, u1) < len(bb.step_mass))
        if hits.size:
            return start + int(hits[0])
        start, size = start + size, 2 * size
    return None


def _batch_checks(cfg: ScenarioConfig) -> List[Check]:
    """Backbone audits, a repeated batch's digest, and the zeroing of the first trial
    that hits; with no hit in the batch's trials the zeroing row fails, unexamined.

    Both batches of 2,000 trials place and hash every trial; the repeat runs on the
    first batch's backbone, so it reads the site tables and scheduled coefficients
    that the first built, and each hashes its one chunk in line.
    """
    small = cfg.with_overrides(trials=2000)
    bb, batch = run_batch(small)
    elapsed = bb.times[-1] - bb.times[0]
    _, batch2 = run_batch(small, backbone=bb)
    rows = [
        ("normalization", bb.audits["max_pulse_norm_error"] <= NORM_TOL,
         f"max pulse norm error {bb.audits['max_pulse_norm_error']:.3e}"),
        ("conservation", bb.audits["max_conservation_drift"] <= _conservation_bound(bb.state0.s, elapsed),
         f"max drift {bb.audits['max_conservation_drift']:.3e} over {elapsed:.3g} time"),
        ("determinism", batch.events_digest == batch2.events_digest,
         f"event digest {batch.events_digest[:16]}"),
    ]
    trial = _first_hit(small, bb)
    if trial is None:
        return rows + [("reduction-zeroing", False, f"no hit in {small.trials} trials: zeroing not examined")]
    out = simulate_trajectory(small, trial=trial, backbone=bb)
    post = sum(abs(c) ** 2 for c in out.event.post_coefficients.values())
    labels = set(out.event.post_coefficients)
    ok = bool(labels) and post <= out.event.pre_norm + 1e-12
    if not out.extras["turned_off"]:
        # the final state still carries the survivors unless a turn-off zeroed them again
        ok = ok and {t.apparatus_label for t in out.state.terms if t.coefficient != 0} == labels
    return rows + [("reduction-zeroing", ok, f"{len(labels)} surviving label(s), post norm {post:.6f}")]


def _drift_checks(cfg: ScenarioConfig) -> List[Check]:
    """Phantom freeze and conservation of the run, and the rule-4 guard against an injected transfer."""
    s = run_pulse_drift(cfg).summary
    bound = _conservation_bound(build_initial(cfg)[0].s, s["steps"] * cfg.dt)
    rows = [
        ("phantom-freeze", s["max_phantom_drift"] < PHANTOM_FREEZE_TOL,
         f"max drift {s['max_phantom_drift']:.3e} over {s['phantom_trail_count']} trail sites"),
        ("conservation", s["max_conservation_drift"] <= bound,
         f"max drift {s['max_conservation_drift']:.3e}"),
    ]
    data = copy.deepcopy(cfg.data)
    data["debug"]["intra_ready_transfer"] = True
    try:
        run_pulse_drift(replace(cfg, data=data))
    except Rule4Violation as exc:
        return rows + [("rule4-guard", True, f"guard rejected: {exc}")]
    return rows + [("rule4-guard", False, "injected ready transfer was not rejected")]


def _disengage_checks(cfg: ScenarioConfig) -> List[Check]:
    """The freeze after t_dis on the first of 2,000 trials that hits; a failure names each of
    its conditions that failed, and with no hit the row fails, unexamined."""
    small = cfg.with_overrides(trials=2000)
    bb = build_backbone(small)
    trial = _first_hit(small, bb)
    if trial is None:
        return [("coefficient-freeze", False, f"no hit in {small.trials} trials: swap not examined")]
    result = run_disengage(small, trial, bb)
    conditions = ("swap_identical", "currents_zero_after_dis", "square_moduli_constant_after_dis")
    failed = [key for key in conditions if not result.summary[key]]
    if not failed:
        return [("coefficient-freeze", True, "disengage left coefficients bit-identical and currents zero")]
    currents = _after_dis(result.trajectory, cfg.data["disengage"]["t_dis"])[0].ravel()
    largest = currents[np.argmax(np.abs(currents))] if currents.size else 0.0
    return [("coefficient-freeze", False, f"disengage failed {', '.join(failed)}; largest current after the "
             f"event row {largest:.3e}")]


def _formation_checks(cfg: ScenarioConfig) -> List[Check]:
    s = run_scenario(cfg).summary
    return [
        ("normalization", s["max_formation_norm_err"] <= NORM_TOL,
         f"max staged-formation norm error {s['max_formation_norm_err']:.3e}"),
        ("formation-growth", s["max_growth_per_step"] <= s["growth_bound"] and s["monotone_growth"],
         f"max growth {s['max_growth_per_step']} sites/step"),
    ]


@dataclass(frozen=True)
class Gate:
    """A ``montecarlo`` gate on the batch summary's ``key``: it fails when the value is
    False or, with a ``bound``, when the value is not above it. ``line``, formatted
    with the summary, is its failure text."""

    key: str
    line: str
    bound: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    """One measurement story: how it starts, runs and ends, and what ``verify`` and
    ``montecarlo`` check.

    ``build`` makes the initial state and schedule; ``runner`` is what
    ``run_scenario`` calls; ``ready_terms`` counts the ready terms the ramp
    feeds (0: no backbone); ``gates`` are the ``montecarlo`` gates on the
    runner's summary, in the order their failures are reported, and a
    scenario with gates is a batch scenario (``batch``), which ``montecarlo``
    takes. A trajectory runs past its backbone up to the config time
    ``until`` (a dotted key) in whole steps, then ``hold`` more steps (a
    count or the dotted key of one). ``event(state, hit, rng, extras)``
    applies once after a hit, at the first row at or past ``until``.
    ``checks`` returns ``verify``'s (invariant, passed, detail) rows. The
    ``debug`` switches a scenario takes are in its config schema.
    """

    build: Callable[[ScenarioConfig], Tuple[SystemState, Optional[EnvelopeSchedule]]]
    runner: Callable[[ScenarioConfig], ScenarioResult]
    checks: Callable[[ScenarioConfig], List[Check]]
    ready_terms: int = 0
    gates: Tuple[Gate, ...] = ()
    until: Optional[str] = None
    hold: Union[int, str] = 0
    event: Optional[Callable[[SystemState, ReductionEvent, RngStream, Dict], SystemState]] = None

    def extra_steps(self, cfg: ScenarioConfig) -> int:
        """Steps a trajectory runs past the backbone; a total over MAX_STEPS is refused."""
        past = (cfg.get(self.until) - cfg.data["envelope"]["t_end"]) / cfg.dt if self.until else 0.0
        hold = cfg.get(self.hold) if isinstance(self.hold, str) else self.hold
        keys = _BACKBONE_KEYS + tuple(k for k in (self.until, self.hold) if isinstance(k, str))
        _check_steps(len(_backbone_times(cfg)) - 1 + past + hold, keys)
        return int(round(past)) + hold

    @property
    def batch(self) -> bool:
        return bool(self.gates)

    def failed_gates(self, summary: Dict) -> List[str]:
        """The failure line of each gate the summary fails. A key a gate reads that the
        summary lacks breaches "montecarlo-gate": read as absent, it would pass unseen."""
        failed = []
        for gate in self.gates:
            try:
                value = summary[gate.key]
                if (value is False) if gate.bound is None else not value > gate.bound:
                    failed.append(gate.line.format_map(summary))
            except KeyError as exc:
                raise InvariantBreach("montecarlo-gate", f"gate {gate.key} reads {exc}, which the summary lacks")
        return failed


# the montecarlo gates; a line's fields are summary keys
_P_HIT = Gate("probability_pass", "probability z={z_score:.3f} (closed form {closed_form_p_hit})")
_P2 = Gate("probability_pass", "probability z={z_score:.3f} (closed form {closed_form_p2})")
_CHI2 = Gate("chi2_p_value", "site histogram chi2 p={chi2_p_value:.5f} <= 0.01", bound=0.01)
_IDENTITY = Gate("final_identity_pass", "final identity {final_identity_estimate:.6f} vs {final_identity_target:.6f}")
_REDUCED = Gate("all_trials_reduced", "incomplete reduction on a completed transfer")


# in SCENARIO_NAMES order; no reference to run_batch or simulate_trajectory: a wrapper on the module sees all calls
SCENARIOS: Dict[str, Scenario] = {
    "interaction": Scenario(_one_source, run_interaction, _batch_checks, ready_terms=1, gates=(_P_HIT, _CHI2)),
    "unresolvable_observation": Scenario(
        _two_sources, run_unresolvable_observation, _batch_checks, ready_terms=2, gates=(_CHI2, _IDENTITY, _REDUCED)
    ),
    "turn_off": Scenario(
        _two_sources, run_turn_off, _batch_checks, ready_terms=2, gates=(_P2, _REDUCED),
        until="turn_off.t_off", hold=10, event=_turn_off,
    ),
    "disengage": Scenario(
        _two_sources, run_disengage, _disengage_checks, ready_terms=2,
        until="disengage.t_dis", hold="disengage.hold_steps", event=_disengage,
    ),
    "pulse_drift": Scenario(_drift_pair, run_pulse_drift, _drift_checks),
    "fade_in": Scenario(_one_source, run_fade_in, _formation_checks, ready_terms=1, hold="formation.settle_steps"),
}


# ---------------------------------------------------------------------------
# helpers shared by runners
# ---------------------------------------------------------------------------


def _identity_tolerance(rho: np.ndarray, n_trials: int) -> float:
    """Bound on the quadrature estimator's error from never-observed sites.

    A site with per-trial hit probability rho_u is missed by all trials with
    probability (1 - rho_u)^N; the estimator then lacks its mass rho_u. The
    bound is the expected missing mass plus three standard deviations of it.
    """
    miss = (1.0 - np.clip(rho, 0.0, 1.0)) ** n_trials
    bias = float(np.sum(rho * miss))
    var = float(np.sum(rho**2 * miss))
    return bias + 3.0 * math.sqrt(var) + 1e-9
