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
    closed_form_p_hit,
    compare,
    hit_histogram,
)
from pulsecollapse.errors import NonpositiveS, TooFewEvents, TooFewTrials


def test_closed_form_is_the_ratio():
    assert closed_form_p_hit(0.3, 1.0) == 0.3
    assert closed_form_p_hit(0.5, 2.0) == 0.25
    assert closed_form_p_hit(0.5, 1.0) == 0.5


def test_closed_form_rejects_bad_s():
    with pytest.raises(NonpositiveS):
        closed_form_p_hit(0.3, 0.0)


def test_closed_form_rejects_mass_beyond_s():
    with pytest.raises(ValueError):
        closed_form_p_hit(1.5, 1.0)


def test_compare_z_score_hand_value():
    """29600 of 1e5 successes against p=0.3: z = -0.004/0.00144914 = -2.7603."""
    rep = compare(29_600, 100_000, 0.3)
    assert rep.empirical == pytest.approx(0.296)
    assert rep.std_error == pytest.approx(0.0014491376746189439, rel=1e-12)
    assert rep.z_score == pytest.approx(-2.7602622374, rel=1e-9)
    assert rep.passed


def test_compare_fails_beyond_three_sigma():
    rep = compare(29_000, 100_000, 0.3)
    assert not rep.passed
    assert rep.z_score < -3


def test_compare_degenerate_closed_form_must_match_exactly():
    assert compare(2000, 2000, 1.0).passed
    rep = compare(1999, 2000, 1.0)
    assert not rep.passed
    assert rep.z_score == float("inf")


def test_compare_needs_enough_trials():
    with pytest.raises(TooFewTrials):
        compare(10, 10, 0.5)


def test_compare_symmetric_under_complement():
    rng = np.random.default_rng(5)
    hits = int(np.count_nonzero(rng.random(50_000) < 0.4))
    a = compare(hits, 50_000, 0.4)
    b = compare(50_000 - hits, 50_000, 0.6)
    assert a.z_score == pytest.approx(-b.z_score, abs=1e-12)
    assert a.passed == b.passed


@given(p=st.floats(min_value=0.05, max_value=0.95), seed=st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_compare_accepts_its_own_distribution(p, seed):
    """Draws from the closed form itself pass at 5 sigma essentially always."""
    rng = np.random.default_rng(seed)
    hits = int(np.count_nonzero(rng.random(20_000) < p))
    rep = compare(hits, 20_000, p)
    assert abs(rep.z_score) < 5.5


def test_histogram_accepts_true_profile():
    """Multinomial draws from the expected profile give p above 0.01."""
    rng = np.random.default_rng(17)
    profile = np.exp(-0.5 * ((np.arange(64) - 30.0) / 4.0) ** 2)
    probs = profile / profile.sum()
    counts = np.bincount(rng.choice(64, size=20_000, p=probs), minlength=64)
    check = hit_histogram(counts, profile)
    assert check.p_value > 0.01
    assert check.dof == check.n_bins - 1


def test_histogram_rejects_wrong_profile():
    rng = np.random.default_rng(17)
    true_profile = np.exp(-0.5 * ((np.arange(64) - 30.0) / 4.0) ** 2)
    counts = np.bincount(rng.choice(64, size=20_000, p=true_profile / true_profile.sum()), minlength=64)
    shifted = np.roll(true_profile, 6)
    check = hit_histogram(counts, shifted)
    assert check.p_value < 1e-6


def test_histogram_pools_thin_bins():
    """All retained bins carry expectation of at least 5 events."""
    rng = np.random.default_rng(3)
    profile = np.exp(-0.5 * ((np.arange(64) - 30.0) / 2.0) ** 2) + 1e-12
    counts = np.bincount(rng.choice(64, size=10_000, p=profile / profile.sum()), minlength=64)
    check = hit_histogram(counts, profile)
    assert min(check.expected) >= 5.0
    assert sum(check.counts) == 10_000


def test_histogram_single_support_site_is_trivially_exact():
    """A one-site profile has zero dof; exact agreement reports p = 1."""
    counts = np.zeros(64, dtype=np.int64)
    counts[40] = 12_000
    profile = np.zeros(64)
    profile[40] = 1.0
    check = hit_histogram(counts, profile)
    assert check.p_value == 1.0
    assert check.chi2 == 0.0
    assert check.dof == 0


def test_histogram_impossible_site_fails_hard():
    """Counts where the profile is exactly zero give p = 0."""
    counts = np.zeros(64, dtype=np.int64)
    counts[40], counts[10] = 11_900, 100
    profile = np.zeros(64)
    profile[40] = 1.0
    check = hit_histogram(counts, profile)
    assert check.p_value == 0.0


def test_histogram_needs_enough_events():
    with pytest.raises(TooFewEvents):
        hit_histogram(np.bincount(np.full(100, 3), minlength=8), np.ones(8))


def test_histogram_profile_length_checked():
    with pytest.raises(ValueError):
        hit_histogram(np.bincount(np.full(20_000, 3), minlength=8), np.ones(9))


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
