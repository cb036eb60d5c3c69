"""Stochastic reduction engine.

Rule 1 sets the chance of a stochastic choice: positive probability current
divided by the fixed normalizer s. Over one step that is
``p = clamp(total_positive * dt / s, 0, 1)``; over a whole trajectory the
*unconditional* probability that the choice lands in step i is p_i, so the
total equals the square modulus delivered to ready components divided by s
and a completed transfer is a certain hit. The drivers in ``scenarios``
realize that law by drawing the hit step against the cumulative budget and
the site against the step's positive per-site current.

``reduce`` applies rule 3: the chosen site keeps every apparatus label whose
ready factor has weight there (coefficient a_i(t_sc) * F_i(u_sc) * sqrt(du)
on the unit site basis, not renormalized) and every other component drops to
exactly zero. The brain factor collapses to one conscious site state shared
by the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .dynamics import CurrentReport
from .errors import NonpositiveS, ZeroWeightSite
from .state import (
    PulseKind,
    SingleState,
    SystemState,
    Term,
)

__all__ = [
    "MAX_STEP_HIT_PROBABILITY",
    "RngStream",
    "ReductionEvent",
    "hit_probability",
    "reduce",
]

# Per-step resolution bound: raw J+ dt / s must stay below this.
MAX_STEP_HIT_PROBABILITY = 0.05


class RngStream:
    """Uniform stream for one trajectory.

    Derived from (seed, trial) through numpy's SeedSequence spawn-key
    mechanism, so distinct trials get statistically independent streams and
    identical (seed, trial) pairs replay bit-exactly.
    """

    def __init__(self, seed: int, trial: int = 0):
        key = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),))
        self._gen = np.random.Generator(np.random.PCG64(key))

    def uniform(self) -> float:
        return float(self._gen.random())


@dataclass(frozen=True)
class ReductionEvent:
    """Record of one stochastic reduction.

    post_coefficients maps surviving apparatus labels to their coefficients;
    rng_draws holds the two uniforms consumed (hit test, site selection) so
    a run can be replayed bit-exactly. ramp_progress stores the envelope
    progress at t_sc for closed-form rescaling in analysis.
    """

    t_sc: float
    term_hit: int
    u_sc: int
    pre_norm: float
    post_coefficients: Dict[int, complex]
    rng_draws: Tuple[float, float]
    ramp_progress: float = 1.0


def hit_probability(report: CurrentReport, s: float, dt: float) -> float:
    """Rule-1 step probability, clamp((sum of positive J_n) * dt / s, 0, 1)."""
    if not s > 0.0:
        raise NonpositiveS(f"s must be positive, got {s}")
    return min(max(report.total_positive * dt / s, 0.0), 1.0)


def reduce(state: SystemState, term_hit: int, u_sc: int) -> SystemState:
    """Rule-3 reduction at site u_sc.

    Every apparatus label whose ready factor has nonzero weight at u_sc
    survives with coefficient a_i(t_sc) * w_i(u_sc), where w_i is the
    unit-basis site amplitude (F_i(u_sc) * sqrt(du) for pulses, 1 for a site
    state at u_sc). Survivors share one conscious SingleState at u_sc; every
    other coefficient is set to exactly zero. Nothing is renormalized.
    """
    if not 0 <= term_hit < len(state.terms):
        raise ZeroWeightSite(f"term_hit {term_hit} outside the term list")
    hit_term = state.terms[term_hit]
    if not hit_term.brain.is_ready:
        raise ZeroWeightSite(f"term {term_hit} does not hold a ready factor")
    hit_amp = hit_term.brain.site_amplitudes(state.grid)[u_sc]
    if hit_amp == 0:
        raise ZeroWeightSite(f"term {term_hit} has zero weight at site {u_sc}")

    observer = hit_term.brain.observer_id
    collapsed = SingleState(kind=PulseKind.CONSCIOUS, index=u_sc, observer_id=observer)
    new_terms = []
    for term in state.terms:
        amp = 0j
        if not term.phantom and term.brain.is_ready and term.brain.observer_id == observer:
            amp = complex(term.brain.site_amplitudes(state.grid)[u_sc])
        if amp != 0:
            new_terms.append(
                Term(
                    apparatus_label=term.apparatus_label,
                    coefficient=term.coefficient * amp,
                    brain=collapsed,
                    phantom=False,
                )
            )
        else:
            new_terms.append(
                Term(
                    apparatus_label=term.apparatus_label,
                    coefficient=0j,
                    brain=term.brain,
                    phantom=term.phantom,
                )
            )
    return state.with_terms(new_terms)
