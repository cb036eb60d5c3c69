"""Scenario and driver tests.

The hit budget is the transferred square modulus over s, so the backbone's
cumulative budget must land exactly on the closed form: fraction f for a
halted ramp, 1 for a complete one. Small-batch statistics here use wide
(5 sigma) bands; the tight 3 sigma comparisons live in the acceptance
suite at 10^5 trials.
"""

import numpy as np
import pytest

from pulsecollapse.config import parse_config
from pulsecollapse.errors import Rule4Violation, SimulationError
from pulsecollapse.scenarios import (
    build_backbone,
    build_initial,
    run_batch,
    run_fade_in,
    run_pulse_drift,
    simulate_trajectory,
)
from tests.conftest import bundled_config


def small(cfg, trials=4000):
    return cfg.with_overrides(trials=trials)


class TestBackbone:
    def test_halted_budget_is_the_transferred_fraction(self, interaction_halted_cfg):
        """Cumulative budget ends exactly at fraction = 0.3."""
        bb = build_backbone(interaction_halted_cfg)
        assert bb.cum_budget[-1] == pytest.approx(0.3, abs=1e-12)
        assert not bb.complete

    def test_full_ramp_budget_is_one(self, interaction_cfg):
        bb = build_backbone(interaction_cfg)
        assert bb.cum_budget[-1] == pytest.approx(1.0, abs=1e-12)
        assert bb.complete

    def test_step_probabilities_stay_under_cap(self, interaction_cfg):
        bb = build_backbone(interaction_cfg)
        assert bb.audits["max_step_hit_probability"] < 0.05

    def test_coefficients_conserve_square_modulus(self, observation_overlap_cfg):
        bb = build_backbone(observation_overlap_cfg)
        np.testing.assert_allclose(bb.total_sq, bb.total_sq[0], rtol=0, atol=1e-9)

    def test_ready_terms_identified(self, observation_overlap_cfg):
        bb = build_backbone(observation_overlap_cfg)
        assert bb.ready_ids == (2, 3)
        assert bb.site_mass.shape[1] == 2


class TestBatch:
    def test_deterministic_digest(self, interaction_halted_cfg):
        """Same config and seed give byte-identical event batches."""
        cfg = small(interaction_halted_cfg)
        _, b1 = run_batch(cfg)
        _, b2 = run_batch(cfg)
        assert b1.digest() == b2.digest()

    def test_seed_changes_the_batch(self, interaction_halted_cfg):
        cfg = small(interaction_halted_cfg)
        _, b1 = run_batch(cfg)
        _, b2 = run_batch(cfg.with_overrides(seed=cfg.seed + 1))
        assert b1.digest() != b2.digest()

    def test_complete_transfer_reduces_every_trial(self, interaction_cfg):
        cfg = small(interaction_cfg)
        _, batch = run_batch(cfg)
        assert batch.hit.all()

    def test_halted_transfer_hit_rate_near_fraction(self, interaction_halted_cfg):
        cfg = small(interaction_halted_cfg, trials=5000)
        _, batch = run_batch(cfg)
        rate = batch.n_hits / cfg.trials
        se = (0.3 * 0.7 / cfg.trials) ** 0.5
        assert abs(rate - 0.3) < 5 * se

    def test_hit_sites_inside_ready_support(self, interaction_cfg):
        cfg = small(interaction_cfg)
        bb, batch = run_batch(cfg)
        support = bb.ready_amps[0] > 0
        assert np.all(support[batch.u_sc[batch.hit]])

    def test_survivor_coefficients_match_recomputation(self, observation_overlap_cfg):
        """Stored coefficients are a_i(t_sc) * w_i(u_sc) to the last bit."""
        cfg = small(observation_overlap_cfg)
        bb, batch = run_batch(cfg)
        idx = np.flatnonzero(batch.hit)[:200]
        for i in idx:
            row = min(batch.step_index[i] + 1, len(bb.times) - 1)
            for col, term in enumerate(bb.ready_ids):
                want = bb.coeffs[row, term] * bb.ready_amps[col, batch.u_sc[i]]
                assert batch.survivor_coeffs[i, col] == want

    def test_post_norm_never_exceeds_pre(self, observation_overlap_cfg):
        cfg = small(observation_overlap_cfg)
        _, batch = run_batch(cfg)
        post = (np.abs(batch.survivor_coeffs[batch.hit]) ** 2).sum(axis=1)
        assert np.all(post <= batch.pre_norm[batch.hit] + 1e-12)

    def test_disjoint_multiplicity_is_always_one(self, observation_disjoint_cfg):
        cfg = small(observation_disjoint_cfg)
        _, batch = run_batch(cfg)
        assert set(batch.multiplicity()) == {1}


class TestTrajectory:
    def test_event_matches_budget_draw(self, interaction_cfg):
        """u1 falls inside the budget window of the recorded hit step."""
        for trial in range(8):
            out = simulate_trajectory(small(interaction_cfg), trial=trial)
            assert out.event is not None
            u1 = out.event.rng_draws[0]
            b = out.log.budget
            assert b[-1] <= 1.0 + 1e-12
            assert 0 < u1 < 1
            # the first logged budget above u1 is the row of the hit step;
            # the budget stays frozen after it
            k = np.searchsorted(b, u1, side="right")
            assert out.log.times[min(k, len(b) - 1)] == out.event.t_sc

    def test_trajectory_is_reproducible(self, interaction_cfg):
        a = simulate_trajectory(small(interaction_cfg), trial=5)
        b = simulate_trajectory(small(interaction_cfg), trial=5)
        assert a.event is not None and b.event is not None
        assert a.event.t_sc == b.event.t_sc
        assert a.event.u_sc == b.event.u_sc
        assert a.event.rng_draws == b.event.rng_draws
        np.testing.assert_array_equal(a.log.sq_terms, b.log.sq_terms)

    def test_provenance_recomputes_to_1e12(self, observation_overlap_cfg):
        """Criterion of Eq.-7 structure on the live reduce path."""
        cfg = small(observation_overlap_cfg)
        state0, schedule = build_initial(cfg)
        grid = state0.grid
        for trial in range(6):
            out = simulate_trajectory(cfg, trial=trial)
            ev = out.event
            assert ev is not None
            pred = schedule.predicted_coefficients(ev.t_sc)
            for n, term in enumerate(state0.terms):
                if not term.brain.is_ready:
                    continue
                amp = term.brain.site_amplitudes(grid)[ev.u_sc]
                want = pred.get(n, term.coefficient) * amp
                label = term.apparatus_label
                got = ev.post_coefficients.get(label, 0j)
                assert abs(got - want) <= 1e-12

    def test_turn_off_spot_decision_recorded(self, turn_off_overlap_cfg):
        out = simulate_trajectory(small(turn_off_overlap_cfg), trial=1)
        assert out.extras["turned_off"]
        assert "spot_remains" in out.extras
        assert isinstance(out.extras["spot_remains"], bool)

    def test_pulse_drift_rejected_by_ramp_driver(self):
        cfg = bundled_config("pulse_drift.yaml")
        with pytest.raises(SimulationError):
            simulate_trajectory(cfg)


class TestDriftScenario:
    def test_phantom_trail_forms_and_freezes(self):
        cfg = bundled_config("pulse_drift.yaml")
        result = run_pulse_drift(cfg)
        assert result.summary["phantom_trail_count"] > 10
        assert result.summary["max_phantom_drift"] < 1e-12
        assert result.summary["max_conservation_drift"] < 1e-9 * 12

    def test_injected_ready_transfer_is_caught_without_guard(self):
        """Guard off: the violation is surfaced after the run and aborted."""
        cfg = bundled_config("pulse_drift.yaml")
        raw = {k: dict(v) for k, v in cfg.raw.items()}
        raw["debug"] = {"intra_ready_transfer": True}
        raw["scenario"]["guard"] = False
        with pytest.raises(Rule4Violation):
            run_pulse_drift(parse_config(raw))

    def test_injected_ready_transfer_is_blocked_with_guard(self):
        """Guard on: the scheduled step itself refuses to run."""
        cfg = bundled_config("pulse_drift.yaml")
        raw = {k: dict(v) for k, v in cfg.raw.items()}
        raw["debug"] = {"intra_ready_transfer": True}
        with pytest.raises(Rule4Violation):
            run_pulse_drift(parse_config(raw))


class TestFadeIn:
    def test_formation_stages(self):
        cfg = bundled_config("fade_in.yaml")
        result = run_fade_in(cfg)
        s = result.summary
        assert s["initial_occupied"] == 1
        assert s["monotone_growth"]
        assert s["max_growth_per_step"] <= s["growth_bound"]
        assert s["width_rel_err"] < 0.02
        assert s["max_formation_norm_err"] < 1e-9
