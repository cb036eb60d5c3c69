"""Acceptance gate: one test per release criterion, one pass/fail line each.

Criteria, in order:
  1. halted ramp (|a_2|^2 = 0.3, s = 1): empirical hit rate within 3 sigma
     of 0.3 over 1e5 trials, completing in under 60 s;
  2. full ramp: every one of 1e5 trials reduces, exactly;
  3. chi-square of the reduction-site histogram against |F_2|^2 du over at
     least 1e4 events gives p > 0.01;
  4. symmetric turn-off: P_2 = 0.5 within 3 sigma over 1e5 trials, and the
     disjoint and overlapping arrangements agree within 3 sigma;
  5. survivor structure: stored coefficients match a_i(t_sc) F_i(u_sc)
     recomputed to 1e-12; disjoint profiles give multiplicity 1 in 100% of
     trials; a single-state apparatus never leaves a superposition;
  6. trial-averaged final probability equals (|a_1|^2 + |a_2|^2) / s within
     the quadrature tolerance;
  7. invariant suite: pulse norms 1 +- 1e-9, conservation 1e-9 per unit
     time, reduced terms exactly zero, phantom drift < 1e-12, the intra-ready
     transfer guard rejects, and repeated runs give byte-identical event logs;
  8. relative_intensity: full support reads 1 +- 1e-9 and a mid-bond center
     splits 0.5 +- 1e-3 per side.

The 1e5-trial runs come from the session fixtures in conftest so the gate
shares them with the statistics tests.
"""

import math
import time

import pytest

from pulsecollapse.config import parse_config
from pulsecollapse.dynamics import relative_intensity
from pulsecollapse.errors import Rule4Violation
from pulsecollapse.scenarios import (
    run_batch,
    run_fade_in,
    run_interaction,
    run_pulse_drift,
    simulate_trajectory,
)
from pulsecollapse.state import BrainGrid, make_gaussian_pulse

from tests.conftest import bundled_config

Z = 3.0


@pytest.fixture(scope="module")
def halted_timed(interaction_halted_cfg):
    t0 = time.perf_counter()
    result = run_interaction(interaction_halted_cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def drift_result():
    return run_pulse_drift(bundled_config("pulse_drift.yaml"))


def test_criterion_1_halted_ramp_probability(halted_timed):
    """Halted ramp at 0.3: hit rate within 3 sigma over 1e5 trials, < 60 s."""
    result, elapsed = halted_timed
    s = result.summary
    assert s["n_trials"] == 100_000
    assert s["closed_form_p_hit"] == pytest.approx(0.3, abs=1e-12)
    sigma = math.sqrt(0.3 * 0.7 / 100_000)
    assert abs(s["empirical_p_hit"] - 0.3) <= Z * sigma
    assert s["probability_pass"]
    assert elapsed < 60.0


def test_criterion_2_full_ramp_certainty(interaction_result):
    """Full ramp: 1e5 of 1e5 trials reduce, with no tolerance."""
    s = interaction_result.summary
    assert s["n_trials"] == 100_000
    assert s["closed_form_p_hit"] == 1.0
    assert s["empirical_p_hit"] == 1.0
    assert s["chi2_events"] == 100_000


def test_criterion_3_site_distribution_chi2(interaction_result):
    """Reduction sites follow |F_2|^2 du: chi-square p > 0.01 over >= 1e4 events."""
    s = interaction_result.summary
    assert s["chi2_events"] >= 10_000
    assert s["chi2_p_value"] > 0.01


def test_criterion_4_turn_off_born_rule(turn_off_overlap_result, turn_off_disjoint_result):
    """Symmetric turn-off gives P_2 = 0.5 within 3 sigma; arrangements agree."""
    so = turn_off_overlap_result.summary
    sd = turn_off_disjoint_result.summary
    for s in (so, sd):
        assert s["n_trials"] == 100_000
        assert s["closed_form_p2"] == pytest.approx(0.5, abs=1e-12)
        assert s["probability_pass"]
    gap_sigma = math.hypot(so["std_error"], sd["std_error"])
    assert abs(so["empirical_p2"] - sd["empirical_p2"]) <= Z * gap_sigma


def test_criterion_5_survivor_structure(
    observation_overlap_result, observation_disjoint_result, observation_single_result
):
    """Survivors are a_i(t_sc) F_i(u_sc) to 1e-12; disjoint and single-state give one term."""
    for result in (
        observation_overlap_result,
        observation_disjoint_result,
        observation_single_result,
    ):
        assert result.summary["max_provenance_error"] <= 1e-12
    assert observation_disjoint_result.summary["multiplicity_counts"] == {1: 100_000}
    assert observation_single_result.summary["multiplicity_counts"] == {1: 100_000}
    overlap_counts = observation_overlap_result.summary["multiplicity_counts"]
    assert set(overlap_counts) <= {1, 2}
    assert overlap_counts.get(2, 0) > 99_000


def test_criterion_6_probability_identity(
    observation_overlap_result, observation_disjoint_result, observation_single_result
):
    """Trial-averaged final probability matches (|a_1|^2 + |a_2|^2) / s."""
    for result in (
        observation_overlap_result,
        observation_disjoint_result,
        observation_single_result,
    ):
        s = result.summary
        assert s["final_identity_target"] == pytest.approx(1.0, abs=1e-9)
        err = abs(s["final_identity_estimate"] - s["final_identity_target"])
        assert err <= s["final_identity_tolerance"]
        assert s["final_identity_pass"]


def test_criterion_7_invariant_suite(
    interaction_cfg,
    interaction_halted_cfg,
    interaction_result,
    observation_overlap_result,
    observation_disjoint_result,
    observation_single_result,
    turn_off_overlap_result,
    turn_off_disjoint_result,
    drift_result,
):
    """Norms, conservation, exact zeroing, phantom freeze, guard, determinism."""
    ramped = (
        interaction_result,
        observation_overlap_result,
        observation_disjoint_result,
        observation_single_result,
        turn_off_overlap_result,
        turn_off_disjoint_result,
    )
    for result in ramped:
        assert result.summary["max_pulse_norm_error"] <= 1e-9
        assert result.summary["max_conservation_drift"] <= 1e-9

    # staged formation keeps unit norm at every stage
    staged = run_fade_in(bundled_config("fade_in.yaml"))
    assert staged.summary["max_formation_norm_err"] <= 1e-9

    # every trial of the full ramp reduces; non-survivors must be exactly zero
    out = simulate_trajectory(interaction_cfg, trial=0)
    assert out.event is not None
    survivors = set(out.event.post_coefficients)
    for term in out.state.terms:
        if term.apparatus_label not in survivors:
            assert term.coefficient == 0j

    assert drift_result.summary["max_phantom_drift"] < 1e-12
    assert drift_result.summary["max_conservation_drift"] <= 1e-9 * 12

    raw = {k: dict(v) for k, v in bundled_config("pulse_drift.yaml").raw.items()}
    raw["debug"] = {"intra_ready_transfer": True}
    with pytest.raises(Rule4Violation):
        run_pulse_drift(parse_config(raw))

    small = interaction_halted_cfg.with_overrides(trials=4000)
    _, batch_a = run_batch(small)
    _, batch_b = run_batch(small)
    assert batch_a.events_digest == batch_b.events_digest


def test_criterion_8_relative_intensity():
    """Full support reads 1 +- 1e-9; a mid-bond center splits 0.5 +- 1e-3."""
    grid = BrainGrid(n_points=256, spacing=0.1, origin=0.0)
    full = make_gaussian_pulse(grid, 12.0, 0.8)
    assert relative_intensity(full, 0, grid.n_points - 1) == pytest.approx(1.0, abs=1e-9)

    k = 120
    center = 0.5 * (grid.coord(k) + grid.coord(k + 1))
    split = make_gaussian_pulse(grid, center, 0.8)
    left = relative_intensity(split, 0, k)
    right = relative_intensity(split, k + 1, grid.n_points - 1)
    assert left == pytest.approx(0.5, abs=1e-3)
    assert right == pytest.approx(0.5, abs=1e-3)
