"""Reduction-engine tests.

The stochastic choice is a two-draw scheme: one uniform against the step
hit probability, one against the positive per-site current distribution.
Reduction keeps every ready component with weight at the chosen site,
multiplies each coefficient by that site amplitude, and zeroes everything
else exactly (no renormalization), so the post norm can only shrink.
"""

import math

import numpy as np
import pytest

from pulsecollapse.dynamics import EnvelopeSchedule, rule4_pairs, step
from pulsecollapse.errors import NonpositiveS, ZeroWeightSite
from pulsecollapse.reduction import (
    ReductionEvent,
    RngStream,
    hit_probability,
    reduce,
)
from pulsecollapse.state import (
    BrainGrid,
    DisengagedX,
    PulseKind,
    SingleState,
    SystemState,
    Term,
    make_gaussian_pulse,
    total_square_modulus,
)

GRID = BrainGrid(n_points=256, spacing=0.1, origin=0.0)


def observation_state(a1=0.8, a2=0.6, c1=11.0, c2=13.0, sigma=1.0):
    """Two X-factor sources and two zero ready pulses, mid-transfer shape."""
    flat = np.full(GRID.n_points, 1.0 / math.sqrt(GRID.n_points * GRID.spacing))
    x = DisengagedX(grid=GRID, weights=flat)
    p1 = make_gaussian_pulse(GRID, c1, sigma, PulseKind.READY)
    p2 = make_gaussian_pulse(GRID, c2, sigma, PulseKind.READY)
    return SystemState(
        terms=(
            Term(apparatus_label=1, coefficient=complex(a1), brain=x),
            Term(apparatus_label=2, coefficient=complex(a2), brain=x),
            Term(apparatus_label=1, coefficient=0j, brain=p1),
            Term(apparatus_label=2, coefficient=0j, brain=p2),
        ),
        s=a1 * a1 + a2 * a2,
        time=0.0,
        grid=GRID,
    )


def ramped(state, t=0.5):
    """Advance an observation state partway through its transfer."""
    sch = EnvelopeSchedule.trig(state, [(0, (2,)), (1, (3,))], t_start=0.0, t_end=1.0)
    report = None
    while state.time < t - 1e-12:
        state, report = step(state, sch, 0.005)
    return state, sch, report


def test_hit_probability_formula():
    """P = total positive current * dt / s."""

    class R:
        total_positive = 0.42

    assert hit_probability(R(), s=2.0, dt=0.01) == pytest.approx(0.0021, abs=1e-15)


def test_hit_probability_clamps_to_unit_interval():
    class R:
        total_positive = 1e9

    assert hit_probability(R(), s=1.0, dt=1.0) == 1.0


def test_hit_probability_rejects_bad_s():
    class R:
        total_positive = 0.1

    with pytest.raises(NonpositiveS):
        hit_probability(R(), s=0.0, dt=0.01)


def test_rng_stream_reproducible():
    """Same (seed, trial) gives the same draws; trials are independent."""
    a = RngStream(1234, trial=7)
    b = RngStream(1234, trial=7)
    c = RngStream(1234, trial=8)
    da, db, dc = (np.array([r.uniform() for _ in range(5)]) for r in (a, b, c))
    np.testing.assert_array_equal(da, db)
    assert not np.array_equal(da, dc)
    assert np.all((0 <= da) & (da < 1))


def test_reduce_survivor_coefficients_are_amplitude_products():
    """c_i -> a_i(t_sc) * F_i(u_sc) * sqrt(du) exactly."""
    state = observation_state()
    state, sch, _ = ramped(state)
    u_sc = GRID.nearest_index(12.0)
    before = [t.coefficient for t in state.terms]
    amps = [t.brain.site_amplitudes(GRID)[u_sc] for t in state.terms]
    out = reduce(state, term_hit=2, u_sc=u_sc)
    for n in (2, 3):
        assert out.terms[n].coefficient == before[n] * amps[n]


def test_reduce_zeroes_everything_else_exactly():
    state = observation_state()
    state, sch, _ = ramped(state)
    out = reduce(state, term_hit=2, u_sc=GRID.nearest_index(12.0))
    assert out.terms[0].coefficient == 0j
    assert out.terms[1].coefficient == 0j
    # both ready pulses overlap at u = 12, so both labels survive
    assert out.terms[2].coefficient != 0
    assert out.terms[3].coefficient != 0


def test_reduce_never_grows_the_norm():
    state = observation_state()
    state, sch, _ = ramped(state)
    pre = total_square_modulus(state)
    out = reduce(state, term_hit=2, u_sc=GRID.nearest_index(12.0))
    assert total_square_modulus(out) <= pre + 1e-12


def test_reduce_disjoint_keeps_single_label():
    """No weight from the other pulse at the chosen site: multiplicity 1."""
    state = observation_state(c1=7.0, c2=18.0, sigma=0.8)
    state, sch, _ = ramped(state)
    out = reduce(state, term_hit=2, u_sc=GRID.nearest_index(7.0))
    survivors = [t for t in out.terms if t.coefficient != 0]
    assert len(survivors) == 1
    assert survivors[0].apparatus_label == 1


def test_reduce_installs_shared_conscious_site_state():
    state = observation_state()
    state, sch, _ = ramped(state)
    u_sc = GRID.nearest_index(12.0)
    out = reduce(state, term_hit=2, u_sc=u_sc)
    brains = [t.brain for t in out.terms if t.coefficient != 0]
    assert all(isinstance(b, SingleState) for b in brains)
    assert all(b.kind is PulseKind.CONSCIOUS for b in brains)
    assert all(b.index == u_sc for b in brains)
    assert brains[0] is brains[1]


def test_reduce_rejects_zero_weight_site():
    state = observation_state(c1=7.0, c2=18.0, sigma=0.8)
    state, sch, _ = ramped(state)
    # site 125 (u = 12.5) is beyond 6 sigma of both pulses
    with pytest.raises(ZeroWeightSite):
        reduce(state, term_hit=2, u_sc=125)


def test_reduce_single_state_targets_never_superpose():
    """Site-state targets at different sites survive one at a time."""
    flat = np.full(GRID.n_points, 1.0 / math.sqrt(GRID.n_points * GRID.spacing))
    x = DisengagedX(grid=GRID, weights=flat)
    state = SystemState(
        terms=(
            Term(apparatus_label=1, coefficient=0.8 + 0j, brain=x),
            Term(apparatus_label=2, coefficient=0.6 + 0j, brain=x),
            Term(apparatus_label=1, coefficient=0j, brain=SingleState(kind=PulseKind.READY, index=100)),
            Term(apparatus_label=2, coefficient=0j, brain=SingleState(kind=PulseKind.READY, index=150)),
        ),
        s=1.0,
        time=0.0,
        grid=GRID,
    )
    state, sch, _ = ramped(state)
    out = reduce(state, term_hit=2, u_sc=100)
    survivors = [t for t in out.terms if t.coefficient != 0]
    assert len(survivors) == 1
    assert isinstance(survivors[0].brain, SingleState)
    assert survivors[0].brain.kind is PulseKind.CONSCIOUS


def test_reduction_event_records_draws():
    ev = ReductionEvent(
        t_sc=0.5,
        term_hit=2,
        u_sc=120,
        pre_norm=1.0,
        post_coefficients={1: 0.1 + 0j},
        rng_draws=(0.25, 0.75),
    )
    assert ev.rng_draws == (0.25, 0.75)
    assert ev.ramp_progress == 1.0


def test_guard_rule4_flags_same_observer_pairs():
    r1 = SingleState(kind=PulseKind.READY, index=10)
    r2 = SingleState(kind=PulseKind.READY, index=20)
    state = SystemState(
        terms=(
            Term(apparatus_label=1, coefficient=1 + 0j, brain=r1),
            Term(apparatus_label=2, coefficient=0j, brain=r2),
        ),
        s=1.0,
        time=0.0,
        grid=GRID,
    )
    sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
    pairs = rule4_pairs(state, sch)
    assert len(pairs) == 1
    assert (pairs[0].src, pairs[0].dst) == (0, 1)
