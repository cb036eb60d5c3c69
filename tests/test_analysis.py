"""Statistics helpers: binomial comparison and chi-square histogram test.

Anchor values are hand-computed: se = sqrt(p(1-p)/n), z = (emp-p)/se.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsecollapse.analysis import (
    _chi2_sf,
    closed_form_p2_after_off,
    closed_form_p_hit,
    compare,
    hit_histogram,
)
from pulsecollapse.errors import NonpositiveS, TooFewEvents, TooFewTrials


def test_closed_form_is_the_ratio():
    assert closed_form_p_hit(0.3, 1.0) == 0.3
    assert closed_form_p_hit(0.5, 2.0) == 0.25
    assert closed_form_p2_after_off(0.5, 1.0) == 0.5


def test_closed_form_rejects_bad_s():
    with pytest.raises(NonpositiveS):
        closed_form_p_hit(0.3, 0.0)


def test_closed_form_rejects_mass_beyond_s():
    with pytest.raises(ValueError):
        closed_form_p_hit(1.5, 1.0)


def test_compare_z_score_hand_value():
    """29600 of 1e5 successes against p=0.3: z = -0.004/0.00144914 = -2.7603."""
    outcomes = np.zeros(100_000, dtype=bool)
    outcomes[:29_600] = True
    rep = compare(outcomes, 0.3)
    assert rep.empirical == pytest.approx(0.296)
    assert rep.std_error == pytest.approx(0.0014491376746189439, rel=1e-12)
    assert rep.z_score == pytest.approx(-2.7602622374, rel=1e-9)
    assert rep.passed


def test_compare_fails_beyond_three_sigma():
    outcomes = np.zeros(100_000, dtype=bool)
    outcomes[:29_000] = True
    rep = compare(outcomes, 0.3)
    assert not rep.passed
    assert rep.z_score < -3


def test_compare_degenerate_closed_form_must_match_exactly():
    all_true = np.ones(2000, dtype=bool)
    assert compare(all_true, 1.0).passed
    one_off = all_true.copy()
    one_off[0] = False
    rep = compare(one_off, 1.0)
    assert not rep.passed
    assert rep.z_score == float("inf")


def test_compare_needs_enough_trials():
    with pytest.raises(TooFewTrials):
        compare(np.ones(10, dtype=bool), 0.5)


def test_compare_symmetric_under_complement():
    rng = np.random.default_rng(5)
    outcomes = rng.random(50_000) < 0.4
    a = compare(outcomes, 0.4)
    b = compare(~outcomes, 0.6)
    assert a.z_score == pytest.approx(-b.z_score, abs=1e-12)
    assert a.passed == b.passed


@given(p=st.floats(min_value=0.05, max_value=0.95), seed=st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_compare_accepts_its_own_distribution(p, seed):
    """Draws from the closed form itself pass at 5 sigma essentially always."""
    rng = np.random.default_rng(seed)
    outcomes = rng.random(20_000) < p
    rep = compare(outcomes, p)
    assert abs(rep.z_score) < 5.5


def test_histogram_accepts_true_profile():
    """Multinomial draws from the expected profile give p above 0.01."""
    rng = np.random.default_rng(17)
    profile = np.exp(-0.5 * ((np.arange(64) - 30.0) / 4.0) ** 2)
    probs = profile / profile.sum()
    sites = rng.choice(64, size=20_000, p=probs)
    check = hit_histogram(sites, profile, n_sites=64)
    assert check.p_value > 0.01
    assert check.dof == check.n_bins - 1


def test_histogram_rejects_wrong_profile():
    rng = np.random.default_rng(17)
    true_profile = np.exp(-0.5 * ((np.arange(64) - 30.0) / 4.0) ** 2)
    sites = rng.choice(64, size=20_000, p=true_profile / true_profile.sum())
    shifted = np.roll(true_profile, 6)
    check = hit_histogram(sites, shifted, n_sites=64)
    assert check.p_value < 1e-6


def test_histogram_pools_thin_bins():
    """All retained bins carry expectation of at least 5 events."""
    rng = np.random.default_rng(3)
    profile = np.exp(-0.5 * ((np.arange(64) - 30.0) / 2.0) ** 2) + 1e-12
    sites = rng.choice(64, size=10_000, p=profile / profile.sum())
    check = hit_histogram(sites, profile, n_sites=64)
    assert min(check.expected) >= 5.0
    assert sum(check.counts) == 10_000


def test_histogram_single_support_site_is_trivially_exact():
    """A one-site profile has zero dof; exact agreement reports p = 1."""
    sites = np.full(12_000, 40)
    profile = np.zeros(64)
    profile[40] = 1.0
    check = hit_histogram(sites, profile, n_sites=64)
    assert check.p_value == 1.0
    assert check.chi2 == 0.0
    assert check.dof == 0


def test_histogram_impossible_site_fails_hard():
    """Counts where the profile is exactly zero give p = 0."""
    sites = np.full(12_000, 40)
    sites[:100] = 10
    profile = np.zeros(64)
    profile[40] = 1.0
    check = hit_histogram(sites, profile, n_sites=64)
    assert check.p_value == 0.0


def test_histogram_needs_enough_events():
    with pytest.raises(TooFewEvents):
        hit_histogram(np.full(100, 3), np.ones(8), n_sites=8)


def test_histogram_profile_length_checked():
    with pytest.raises(ValueError):
        hit_histogram(np.full(20_000, 3), np.ones(9), n_sites=8)


def test_chi2_tail_closed_forms():
    """dof 2 gives exp(-x/2) and dof 1 gives erfc(sqrt(x/2)), series and fraction alike."""
    for x in (0.1, 1.0, 2.9, 3.0, 3.1, 10.0, 50.0, 300.0):
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
        assert _chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-12)


def test_chi2_tail_matches_scipy():
    """Agreement to 1e-10 relative over body and tail, and at every p = 0.01 cut."""
    stats = pytest.importorskip("scipy.stats")
    for dof in range(1, 301):
        xs = np.concatenate(
            [
                np.linspace(0.0, 3.0 * dof + 60.0, 61),
                # both sides of the switch from series to continued fraction
                np.nextafter(dof + 2.0, [0.0, np.inf]),
                [dof + 2.0, stats.chi2.isf(0.01, dof)],
            ]
        )
        got = [_chi2_sf(float(x), dof) for x in xs]
        np.testing.assert_allclose(got, stats.chi2.sf(xs, dof), rtol=1e-10, atol=0.0)


def test_chi2_tail_edges():
    assert _chi2_sf(0.0, 3) == 1.0
    assert _chi2_sf(math.inf, 3) == 0.0
    for dof in (1, 2, 255, 300):
        p = _chi2_sf(1e300, dof)
        assert math.isfinite(p) and p >= 0.0
