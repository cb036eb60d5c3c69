"""Dynamics tests: envelopes, currents, stepping, formation, drift, intensity.

Closed-form anchors:
  - trig envelope with fraction f at progress 1 moves exactly f of the
    source square modulus (sin^2(asin(sqrt(f))) = f);
  - total square modulus is conserved by every schedule step to 1e-9 per
    unit time (the transfers are rotations);
  - a pulse centered on the midpoint between two sites splits its
    intensity exactly in half.
"""

import dataclasses
import math

import numpy as np
import pytest

from pulsecollapse import dynamics, scenarios
from pulsecollapse.dynamics import (
    DriftKernel,
    EnvelopeSchedule,
    FormationKernel,
    _advance_formation,
    drift_pulse,
    form_pulse,
    relative_intensity,
    rule4_pairs,
    step,
)
from pulsecollapse.errors import (
    IndexOutOfRange,
    SimulationError,
    NotPostReduction,
    Rule2Violation,
    Rule4Violation,
    ScheduleStateMismatch,
    StepTooLarge,
)
from pulsecollapse.reduction import reduce
from pulsecollapse.state import (
    BrainGrid,
    FormationPolicy,
    Pulse,
    PulseKind,
    SingleState,
    SystemState,
    Term,
    make_gaussian_pulse,
    total_square_modulus,
)

GRID = BrainGrid(n_points=256, spacing=0.1, origin=0.0)


def two_term_state(a=1.0, conscious_center=8.0, ready_center=17.0, sigma=0.8):
    conscious = make_gaussian_pulse(GRID, conscious_center, sigma, PulseKind.CONSCIOUS)
    ready = make_gaussian_pulse(GRID, ready_center, sigma, PulseKind.READY)
    return SystemState(
        terms=(
            Term(apparatus_label=1, coefficient=complex(a), brain=conscious),
            Term(apparatus_label=2, coefficient=0j, brain=ready),
        ),
        s=a * a,
        time=0.0,
        grid=GRID,
    )


# ─── envelope algebra ────────────────────────────────────────────────


class TestEnvelope:
    def test_trig_full_ramp_endpoints(self):
        """src goes 1 -> 0, dst goes 0 -> 1."""
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        assert sch.envelope_factors(0.0) == (1.0, 0.0)
        src, dst = sch.envelope_factors(1.0)
        assert src == pytest.approx(0.0, abs=1e-15)
        assert dst == pytest.approx(1.0, abs=1e-15)

    def test_trig_halted_fraction_exact(self):
        """fraction f leaves |dst|^2 = f exactly at the end of the window."""
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0, fraction=0.3)
        src, dst = sch.envelope_factors(1.0)
        assert dst * dst == pytest.approx(0.3, abs=1e-15)
        assert src * src + dst * dst == pytest.approx(1.0, abs=1e-15)

    def test_trig_conserves_at_all_times(self):
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0, fraction=0.7)
        for t in np.linspace(0, 1, 37):
            src, dst = sch.envelope_factors(t)
            assert src * src + dst * dst == pytest.approx(1.0, abs=1e-12)

    def test_linear_moves_square_modulus_linearly(self):
        """|dst(t)|^2 = f * progress for the linear ramp."""
        state = two_term_state()
        sch = EnvelopeSchedule.linear(state, [(0, (1,))], t_start=0.0, t_end=2.0, fraction=0.5)
        _, dst = sch.envelope_factors(1.0)
        assert dst * dst == pytest.approx(0.25, abs=1e-15)

    def test_progress_clamped(self):
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        assert sch.progress(-5.0) == 0.0
        assert sch.progress(5.0) == 1.0

    def test_predicted_coefficients_track_envelope(self):
        state = two_term_state(a=0.9)
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        pred = sch.predicted_coefficients(0.5)
        src, dst = sch.envelope_factors(0.5)
        assert pred[0] == pytest.approx(0.9 * src, abs=1e-15)
        assert pred[1] == pytest.approx(0.9 * dst, abs=1e-15)

    def test_destination_must_start_at_zero(self):
        state = two_term_state()
        bad = state.with_terms(
            (
                state.terms[0],
                Term(apparatus_label=2, coefficient=0.1 + 0j, brain=state.terms[1].brain),
            )
        )
        with pytest.raises(ScheduleStateMismatch):
            EnvelopeSchedule.trig(bad, [(0, (1,))], t_start=0.0, t_end=1.0)

    def test_destination_must_be_ready(self):
        conscious = make_gaussian_pulse(GRID, 8.0, 0.8, PulseKind.CONSCIOUS)
        other = make_gaussian_pulse(GRID, 17.0, 0.8, PulseKind.CONSCIOUS)
        state = SystemState(
            terms=(
                Term(apparatus_label=1, coefficient=1 + 0j, brain=conscious),
                Term(apparatus_label=2, coefficient=0j, brain=other),
            ),
            s=1.0,
            time=0.0,
            grid=GRID,
        )
        with pytest.raises(Rule2Violation):
            EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)


# ─── stepping and currents ───────────────────────────────────────────


class TestStep:
    def test_coefficients_follow_schedule(self):
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        dt = 0.005
        for _ in range(60):
            state, _ = step(state, sch, dt)
        pred = sch.predicted_coefficients(state.time)
        assert state.terms[0].coefficient == pred[0]
        assert state.terms[1].coefficient == pred[1]

    def test_conservation_over_full_ramp(self):
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        t0 = total_square_modulus(state)
        for _ in range(200):
            state, _ = step(state, sch, 0.005)
        assert abs(total_square_modulus(state) - t0) < 1e-9

    def test_current_report_matches_square_modulus_change(self):
        """per-term J * dt equals the change of that term's square modulus."""
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        dt = 0.005
        before = [t.square_modulus() for t in state.terms]
        state, report = step(state, sch, dt)
        after = [t.square_modulus() for t in state.terms]
        for n in range(2):
            assert report.per_term[n] * dt == pytest.approx(after[n] - before[n], abs=1e-15)

    def test_total_positive_counts_only_inflow(self):
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        state, report = step(state, sch, 0.005)
        # source drains (negative), ready destination gains
        assert report.per_term[0] < 0
        assert report.per_term[1] > 0
        assert report.total_positive == pytest.approx(report.per_term[1], abs=1e-15)

    def test_per_site_current_sums_to_per_term(self):
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        state, report = step(state, sch, 0.005)
        assert np.sum(report.per_site[1]) == pytest.approx(report.per_term[1], abs=1e-12)

    def test_step_too_large_rejected(self):
        state = two_term_state()
        sch = EnvelopeSchedule.trig(state, [(0, (1,))], t_start=0.0, t_end=1.0)
        with pytest.raises(StepTooLarge):
            step(state, sch, 0.05)

    def test_hold_is_inert(self):
        state = two_term_state()
        hold = EnvelopeSchedule.hold()
        state2, report = step(state, hold, 0.005)
        assert state2.terms[0].coefficient == state.terms[0].coefficient
        assert report.total_positive == 0.0

    def test_guard_rejects_ready_to_ready_same_observer(self):
        """Transfer between two ready factors of one observer is blocked."""
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
        with pytest.raises(Rule4Violation) as err:
            step(state, sch, 0.005)
        assert "observer" in str(err.value)
        assert rule4_pairs(state, sch)

    def test_different_observers_not_rule4(self):
        """The same transfer across distinct observers is allowed."""
        r1 = SingleState(kind=PulseKind.READY, index=10, observer_id="alice")
        r2 = SingleState(kind=PulseKind.READY, index=20, observer_id="bob")
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
        assert rule4_pairs(state, sch) == []
        step(state, sch, 0.005)


# ─── pulse formation ─────────────────────────────────────────────────


class TestFormation:
    def _post_reduction_state(self):
        """One surviving term holding a conscious single state at site 120."""
        chosen = SingleState(kind=PulseKind.CONSCIOUS, index=120)
        return SystemState(
            terms=(Term(apparatus_label=2, coefficient=0.5 + 0j, brain=chosen),),
            s=1.0,
            time=1.0,
            grid=GRID,
        )

    def test_instantaneous_formation_is_full_width(self):
        state = self._post_reduction_state()
        policy = FormationPolicy.instantaneous(target_sigma=0.8)
        formed = form_pulse(state, 120, policy)
        pulse = formed.terms[0].brain
        assert pulse.kind is PulseKind.CONSCIOUS
        assert pulse.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert pulse.formation_stage == 1.0
        assert formed.terms[0].coefficient == 0.5 + 0j

    def test_staged_formation_starts_at_one_site(self):
        state = self._post_reduction_state()
        policy = FormationPolicy.staged(target_sigma=0.8, tau=0.05, neighbor_radius=2)
        formed = form_pulse(state, 120, policy)
        pulse = formed.terms[0].brain
        assert np.count_nonzero(pulse.weights) == 1
        assert pulse.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert pulse.formation_stage == 0.0

    def test_staged_growth_bounded_and_norm_kept(self):
        """Occupied set grows by at most neighbor_radius per side per step."""
        state = self._post_reduction_state()
        policy = FormationPolicy.staged(target_sigma=0.8, tau=0.05, neighbor_radius=2)
        state = form_pulse(state, 120, policy)
        hold = EnvelopeSchedule.hold()
        occupied = [1]
        for _ in range(200):
            state, _ = step(state, hold, 0.005)
            pulse = state.terms[0].brain
            occupied.append(int(np.count_nonzero(pulse.weights)))
            assert pulse.norm_sq() == pytest.approx(1.0, abs=1e-9)
        growth = np.diff(occupied)
        assert growth.max() <= 2 * 2
        assert np.all(growth >= 0)
        assert state.terms[0].brain.formation_stage > 0.999999

    def test_step_keeps_phantoms_and_widens_a_shared_pulse_once(self):
        """Two survivors share one forming pulse; a phantom term rides along untouched."""
        chosen = SingleState(kind=PulseKind.CONSCIOUS, index=120)
        two = SystemState(
            terms=tuple(Term(apparatus_label=label, coefficient=0.5 + 0j, brain=chosen) for label in (1, 2)),
            s=1.0,
            time=1.0,
            grid=GRID,
        )
        policy = FormationPolicy.staged(target_sigma=0.8, tau=0.05, neighbor_radius=2)
        formed = form_pulse(two, 120, policy)
        ready = SingleState(kind=PulseKind.READY, index=5)
        phantom = Term(apparatus_label=3, coefficient=0.1 + 0j, brain=ready, phantom=True)
        state = formed.with_terms(formed.terms + (phantom,))
        nxt, _ = step(state, EnvelopeSchedule.hold(), 0.005)
        assert nxt.time == 1.0 + 0.005
        assert [t.coefficient for t in nxt.terms] == [0.5 + 0j, 0.5 + 0j, 0.1 + 0j]
        assert nxt.terms[2] is phantom
        pulse = nxt.terms[0].brain
        assert nxt.terms[1].brain is pulse
        assert pulse.formation_stage == 1.0 - math.exp(-0.005 / 0.05)
        assert np.count_nonzero(pulse.weights) == 5

    def test_step_under_hold_only_widens_the_forming_pulse(self):
        """Under a hold, step keeps the coefficient and widens the pulse by one formation stage."""
        policy = FormationPolicy.staged(target_sigma=0.8, tau=0.05)
        state = form_pulse(self._post_reduction_state(), 120, policy)
        pulse, t = state.terms[0].brain, state.time
        hold = EnvelopeSchedule.hold()
        for _ in range(20):
            state, _ = step(state, hold, 0.005)
            pulse, t = _advance_formation(pulse, 0.005), t + 0.005
            assert state.time == t
            assert state.terms[0].coefficient == 0.5 + 0j
            assert np.array_equal(state.terms[0].brain.weights, pulse.weights)

    def test_not_post_reduction_rejected(self):
        state = two_term_state()
        policy = FormationPolicy.instantaneous(target_sigma=0.8)
        with pytest.raises(NotPostReduction):
            form_pulse(state, 120, policy)


def frozen_advance_formation(pulse, dt):
    """The staged-formation law as it stood before it ran on arrays, kept as an
    independent oracle: a dilation loop over the occupied mask and a validated
    ``Pulse`` per row."""
    prog = pulse.forming
    du = pulse.grid.spacing
    decay = math.exp(-dt / prog.tau)
    stage = 1.0 - (1.0 - pulse.formation_stage) * decay
    sigma_eff = prog.target_sigma * stage + 2.0 * du * (1.0 - stage)

    occupied = np.abs(pulse.weights) > 0
    grown = occupied.copy()
    for shift in range(1, prog.neighbor_radius + 1):
        grown[shift:] |= occupied[:-shift]
        grown[:-shift] |= occupied[shift:]

    u = pulse.grid.sites
    center = pulse.grid.coord(pulse.center_index)
    w = np.exp(-((u - center) ** 2) / (2.0 * sigma_eff**2))
    w[np.abs(u - center) > 6.0 * sigma_eff] = 0.0
    w[~grown] = 0.0
    w = w / math.sqrt(float(np.sum(w**2)) * du)
    return Pulse(
        kind=pulse.kind,
        grid=pulse.grid,
        weights=w,
        center_index=pulse.center_index,
        formation_stage=stage,
        forming=prog,
    )


def staged_seed(site, radius, tau, target_sigma=0.8, grid=GRID):
    """The forming pulse ``form_pulse`` makes at ``site``: all weight on that one site."""
    chosen = SingleState(kind=PulseKind.CONSCIOUS, index=site)
    state = SystemState(terms=(Term(apparatus_label=2, coefficient=0.5 + 0j, brain=chosen),), s=1.0, time=1.0, grid=grid)
    policy = FormationPolicy.staged(target_sigma=target_sigma, tau=tau, neighbor_radius=radius)
    return form_pulse(state, site, policy).terms[0].brain


class TestFormationKernel:
    """The array kernel against the frozen pre-kernel law, row by row and bit for bit."""

    @pytest.mark.parametrize("tau", [0.05, 0.5])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("site", [120, 3])
    def test_rows_equal_the_frozen_law(self, site, radius, tau):
        """Weights, stage, occupied count and norm of every row, through the fixed
        point and 20 rows past it; site 3 grows into the grid edge."""
        dt = 0.005
        oracle = staged_seed(site, radius, tau)
        kernel = FormationKernel(oracle, dt)
        rows, repeats = 0, 0
        while repeats < 20:
            nxt = frozen_advance_formation(oracle, dt)
            kernel.advance(1)
            rows += 1
            assert not np.any(nxt.weights.imag)
            assert np.array_equal(kernel.weights, nxt.weights.real), rows
            assert kernel.stage == nxt.formation_stage
            assert kernel.occupied == np.count_nonzero(nxt.weights)
            assert kernel.norm_sq == nxt.norm_sq()
            same = nxt.formation_stage == oracle.formation_stage and np.array_equal(nxt.weights, oracle.weights)
            repeats = repeats + 1 if same else 0
            oracle = nxt
            assert rows < 5000
        built = kernel.pulse()
        assert np.array_equal(built.weights, oracle.weights)
        assert built.formation_stage == oracle.formation_stage and built.forming is oracle.forming

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_one_step_on_a_pulse_is_the_frozen_law(self, radius):
        pulse = staged_seed(120, radius, 0.05)
        for _ in range(30):
            want = frozen_advance_formation(pulse, 0.005)
            pulse = _advance_formation(pulse, 0.005)
            assert np.array_equal(pulse.weights, want.weights)
            assert pulse.formation_stage == want.formation_stage

    def test_stops_recomputing_at_the_fixed_point(self):
        """With the bundled tau 0.05 and dt 0.005 the last 66 of 416 rows repeat row 350."""
        kernel = FormationKernel(staged_seed(120, 2, 0.05), 0.005)
        computed = []
        for _ in range(416):
            before = kernel.weights
            kernel.advance(1)
            computed.append(kernel.weights is not before)
        assert computed == [True] * 350 + [False] * 66

    def test_peak_off_the_centre_is_refused(self):
        """A target so wide that neighbouring sites round to the peak value moves the peak off the centre."""
        kernel = FormationKernel(staged_seed(120, 2, 0.05, target_sigma=1e9), 0.005)
        with pytest.raises(IndexOutOfRange, match="center_index 120 is not the peak site"):
            for _ in range(400):
                kernel.advance(1)

    # (site, radius, tau, target sigma): the bundled law, which repeats row 350 from row
    # 351 on; a slow one at the grid edge, still forming past the first block of 256 rows;
    # and a target below 2 du, whose 6-sigma window binds before the grown interval
    ADVANCE_CASES = [(120, 2, 0.05, 0.8), (3, 1, 0.5, 0.8), (120, 5, 0.05, 0.15)]

    @pytest.mark.parametrize("site, radius, tau, target_sigma", ADVANCE_CASES)
    def test_advance_equals_single_rows_and_the_frozen_law(self, site, radius, tau, target_sigma):
        """advance(n) gives the stage, norm and occupied count of n advance(1) calls and of
        the frozen law, row for row and bit for bit, and ends on their last row."""
        dt, total = 0.005, 420
        oracle, law = staged_seed(site, radius, tau, target_sigma), []
        single, rows = FormationKernel(oracle, dt), []
        for _ in range(total):
            oracle = frozen_advance_formation(oracle, dt)
            law.append((oracle.formation_stage, oracle.norm_sq(), np.count_nonzero(oracle.weights), oracle.weights.real))
            (stage,), (norm,), (occupied,) = single.advance(1)
            rows.append((stage, norm, occupied, single.weights))
        for n in (0, 1, 300, total):
            kernel = FormationKernel(staged_seed(site, radius, tau, target_sigma), dt)
            stages, norms, occupied = kernel.advance(n)
            assert len(stages) == len(norms) == len(occupied) == n
            for i in range(n):
                assert (stages[i], norms[i], occupied[i]) == rows[i][:3] == law[i][:3], (n, i)
                assert np.array_equal(rows[i][3], law[i][3]), i
            if n:
                assert np.array_equal(kernel.weights, law[n - 1][3])
                assert (kernel.stage, kernel.norm_sq, kernel.occupied) == law[n - 1][:3]

    def test_advance_in_small_blocks(self, monkeypatch):
        """Blocks of three rows give the rows of one block."""
        want = FormationKernel(staged_seed(120, 2, 0.05), 0.005).advance(40)
        monkeypatch.setattr(dynamics, "FORMATION_BLOCK", 3 * GRID.n_points)
        got = FormationKernel(staged_seed(120, 2, 0.05), 0.005).advance(40)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)

    def test_advance_refuses_a_peak_off_the_centre(self):
        kernel = FormationKernel(staged_seed(120, 2, 0.05, target_sigma=1e9), 0.005)
        with pytest.raises(IndexOutOfRange, match="center_index 120 is not the peak site"):
            kernel.advance(400)

    def test_advance_refuses_a_hole_in_the_interval(self):
        """A site whose Gaussian value underflows to zero inside the grown interval leaves
        occupied sites that are no interval."""
        kernel = FormationKernel(staged_seed(120, 2, 0.05), 0.005)
        kernel.neg_sq = kernel.neg_sq.copy()
        kernel.neg_sq[121] = -np.inf
        with pytest.raises(SimulationError, match=r"not the interval \[118, 122\]: \[118 119 120 122\]"):
            kernel.advance(5)

    def test_support_must_be_an_interval(self):
        weights = np.zeros(GRID.n_points)
        weights[[118, 120]] = [0.5, 1.0]
        policy = FormationPolicy.staged(target_sigma=0.8, tau=0.05, neighbor_radius=1)
        pulse = Pulse(kind=PulseKind.CONSCIOUS, grid=GRID, weights=weights, center_index=120,
                      formation_stage=0.1, forming=policy)
        with pytest.raises(SimulationError, match="not an interval"):
            FormationKernel(pulse, 0.005)


# ─── drift and the phantom trail ─────────────────────────────────────


class TestDrift:
    def _drift_state(self):
        conscious = make_gaussian_pulse(GRID, 6.0, 0.8, PulseKind.CONSCIOUS)
        shadow = conscious.with_kind(PulseKind.READY)
        return SystemState(
            terms=(
                Term(apparatus_label=1, coefficient=1 + 0j, brain=conscious),
                Term(apparatus_label=2, coefficient=0j, brain=shadow),
            ),
            s=1.0,
            time=0.0,
            grid=GRID,
        )

    def test_zero_velocity_is_identity(self):
        """A still pulse keeps its terms, and its time advances by dt."""
        state = self._drift_state()
        out = drift_pulse(state, velocity=0.0, dt=0.01)
        assert out.terms == state.terms
        assert out.time == state.time + 0.01

    @pytest.mark.parametrize("term", [0, 1], ids=["conscious", "shadow"])
    def test_profile_with_an_imaginary_part_is_refused(self, term):
        """The drift steps real parts only: every profile the package builds is real, and one
        with a nonzero imaginary part is refused rather than stepped without it."""
        state = self._drift_state()
        terms = list(state.terms)
        pulse = terms[term].brain
        phased = dataclasses.replace(pulse, weights=pulse.weights * np.exp(0.3j))
        terms[term] = dataclasses.replace(terms[term], brain=phased)
        with pytest.raises(SimulationError, match="imaginary part"):
            drift_pulse(state.with_terms(terms), velocity=1.0, dt=0.01, shadow_ready=True, shed_rate=0.05)

    def test_nothing_to_shed_keeps_the_shadow(self):
        """With both coefficients zero nothing is shed, and the shadow's row repeats."""
        state = self._drift_state()
        empty = state.with_terms([dataclasses.replace(t, coefficient=0j) for t in state.terms])
        out = drift_pulse(empty, velocity=1.0, dt=0.01, shadow_ready=True, shed_rate=0.05)
        shadow = out.terms[1]
        assert np.array_equal(shadow.brain.weights, empty.terms[1].brain.weights)
        assert shadow.coefficient == 0 and not shadow.brain.phantom_sites.any()

    def test_drift_moves_center(self):
        state = self._drift_state()
        for _ in range(100):
            state = drift_pulse(state, velocity=1.0, dt=0.01)
        pulse = state.terms[0].brain
        moved = GRID.coord(pulse.center_index)
        assert moved == pytest.approx(7.0, abs=2 * GRID.spacing)

    def test_drift_conserves_total(self):
        state = self._drift_state()
        t0 = total_square_modulus(state)
        for _ in range(300):
            state = drift_pulse(state, velocity=1.0, dt=0.01, shadow_ready=True, shed_rate=0.05)
        assert abs(total_square_modulus(state) - t0) < 1e-9

    def test_shedding_feeds_shadow(self):
        state = self._drift_state()
        for _ in range(300):
            state = drift_pulse(state, velocity=1.0, dt=0.01, shadow_ready=True, shed_rate=0.05)
        assert state.terms[1].square_modulus() > 0.01
        assert state.terms[0].square_modulus() < 1.0

    def test_phantom_amplitudes_freeze(self):
        """Once a trail site stops receiving current its amplitude is locked."""
        state = self._drift_state()
        frozen = {}
        worst = 0.0
        for _ in range(900):
            state = drift_pulse(state, velocity=1.0, dt=0.01, shadow_ready=True, shed_rate=0.05)
            shadow = state.terms[1]
            pulse = shadow.brain
            if pulse.phantom_sites is None:
                continue
            amps = np.abs(shadow.coefficient) * np.abs(pulse.site_amplitudes())
            for site in np.flatnonzero(pulse.phantom_sites):
                site = int(site)
                if site in frozen:
                    worst = max(worst, abs(amps[site] - frozen[site]))
                else:
                    frozen[site] = float(amps[site])
        assert frozen, "drift never produced a phantom trail"
        assert worst < 1e-12


# ─── observer identity ───────────────────────────────────────────────


def alices(pulse):
    return dataclasses.replace(pulse, observer_id="alice")


class TestObserverIdentity:
    """Every rebuild of a brain factor keeps the observer it belonged to."""

    DT = 0.005
    STAGED = FormationPolicy.staged(target_sigma=0.8, tau=0.05, neighbor_radius=2)

    def _reduced(self):
        """Two of alice's ready pulses, both with weight at site 120, reduced there."""
        ready = [alices(make_gaussian_pulse(GRID, c, 0.8, PulseKind.READY)) for c in (11.8, 12.2)]
        terms = (Term(1, 0.6 + 0j, ready[0]), Term(2, 0.6 + 0j, ready[1]))
        return reduce(SystemState(terms=terms, s=0.72, time=1.0, grid=GRID), 0, 120)

    def _formed(self, policy):
        return form_pulse(self._reduced(), 120, policy)

    def test_reduce(self):
        state = self._reduced()
        assert [t.brain.observer_id for t in state.terms] == ["alice", "alice"]
        assert all(isinstance(t.brain, SingleState) and t.coefficient != 0 for t in state.terms)

    @pytest.mark.parametrize("policy", [FormationPolicy.instantaneous(0.8), STAGED], ids=["instant", "staged"])
    def test_form_pulse(self, policy):
        pulses = {id(t.brain): t.brain for t in self._formed(policy).terms}
        (pulse,) = pulses.values()
        assert pulse.observer_id == "alice"
        assert pulse.forming is (policy if policy is self.STAGED else None)

    def test_every_kernel_row_and_step(self):
        pulse = self._formed(self.STAGED).terms[0].brain
        kernel = FormationKernel(pulse, self.DT)
        for _ in range(400):
            kernel.advance(1)
            row = kernel.pulse()
            assert row.observer_id == "alice" and row.forming is self.STAGED
        assert _advance_formation(pulse, self.DT).observer_id == "alice"
        state = step(self._formed(self.STAGED), EnvelopeSchedule.hold(), self.DT)[0]
        assert {t.brain.observer_id for t in state.terms} == {"alice"}

    def test_trajectory_rebuild(self):
        formed = self._formed(self.STAGED)
        pulses, _, forming = scenarios._carried_factors(formed, self.DT)
        for _ in range(50):
            for kernel, _ in forming:
                kernel.advance(1)
        coeffs = [t.coefficient for t in formed.terms]
        state = scenarios._with_values(formed, coeffs, pulses, forming, formed.time + 50 * self.DT)
        brains = [t.brain for t in state.terms]
        assert brains[0] is brains[1] and brains[0] is not formed.terms[0].brain
        assert brains[0].observer_id == "alice" and brains[0].formation_stage > 0.99

    def test_drift(self):
        conscious = alices(make_gaussian_pulse(GRID, 6.0, 0.8, PulseKind.CONSCIOUS))
        terms = (Term(1, 1 + 0j, conscious), Term(2, 0j, conscious.with_kind(PulseKind.READY)))
        state = SystemState(terms=terms, s=1.0, time=0.0, grid=GRID)
        assert terms[1].brain.observer_id == "alice"
        for _ in range(300):
            state = drift_pulse(state, velocity=1.0, dt=0.01, shadow_ready=True, shed_rate=0.05)
        assert state.terms[1].brain.phantom_sites.any()
        assert [t.brain.observer_id for t in state.terms] == ["alice", "alice"]


# ─── relative intensity ──────────────────────────────────────────────


class TestRelativeIntensity:
    def test_full_range_is_one(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        assert relative_intensity(p, 0, GRID.n_points - 1) == pytest.approx(1.0, abs=1e-9)

    def test_mid_bond_center_splits_exactly_in_half(self):
        """Center midway between sites k and k+1: each half holds 0.5."""
        k = 120
        center = 0.5 * (GRID.coord(k) + GRID.coord(k + 1))
        p = make_gaussian_pulse(GRID, center, 0.8)
        left = relative_intensity(p, 0, k)
        right = relative_intensity(p, k + 1, GRID.n_points - 1)
        assert left == pytest.approx(0.5, abs=1e-3)
        assert right == pytest.approx(0.5, abs=1e-3)
        assert left + right == pytest.approx(1.0, abs=1e-9)

    def test_sub_range_is_monotone_in_width(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        c = p.center_index
        narrow = relative_intensity(p, c - 4, c + 4)
        wide = relative_intensity(p, c - 12, c + 12)
        assert 0 < narrow < wide <= 1.0 + 1e-12

    def test_bad_ranges_rejected(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        with pytest.raises(IndexOutOfRange):
            relative_intensity(p, 10, 5)
        with pytest.raises(IndexOutOfRange):
            relative_intensity(p, 0, GRID.n_points)
