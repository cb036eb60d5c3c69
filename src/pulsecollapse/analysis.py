"""Closed-form probabilities and Monte Carlo agreement checks.

The rule-1 law makes hit totals exact: over a transfer that moves square
modulus m into ready states, P(hit) = m / s. Empirical rates are compared
against that closed form with a binomial z-score; site histograms are
compared against the expected square-modulus profile with a chi-square
test, pooling thin bins. The chi-square tail is the regularized upper
incomplete gamma function, evaluated here with the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NonpositiveS, TooFewEvents, TooFewTrials

__all__ = [
    "ProbabilityReport",
    "HistogramCheck",
    "closed_form_p_hit",
    "compare",
    "hit_histogram",
]

Z_BOUND = 3.0
MIN_EXPECTED_PER_BIN = 5.0
_EPS = 2.0**-52  # double precision: where the series and the fraction stop
_TINY = 1e-300  # keeps the Lentz recurrences away from division by zero


def closed_form_p_hit(transferred_sq: float, s: float) -> float:
    """P(hit) = (transferred square modulus) / s."""
    if not s > 0.0:
        raise NonpositiveS(f"s must be positive, got {s}")
    if transferred_sq < -1e-12 or transferred_sq > s * (1.0 + 1e-9):
        raise ValueError(f"transferred square modulus {transferred_sq} outside [0, s]")
    return min(max(transferred_sq / s, 0.0), 1.0)


@dataclass(frozen=True)
class ProbabilityReport:
    """Binomial agreement between an empirical rate and a closed form."""

    closed_form: float
    empirical: float
    n_trials: int
    std_error: float
    z_score: float
    passed: bool


def compare(
    successes: int, n_trials: int, closed_form: float, min_trials: int = 1000
) -> ProbabilityReport:
    """Three-sigma binomial check of a Monte Carlo rate.

    ``successes`` of ``n_trials`` trials succeeded. A degenerate closed form
    (0 or 1) has zero variance; the empirical rate must then match exactly.
    """
    n = int(n_trials)
    if n < min_trials:
        raise TooFewTrials(f"{n} samples < required {min_trials}")
    if not 0.0 <= closed_form <= 1.0:
        raise ValueError(f"closed form {closed_form} outside [0, 1]")
    empirical = float(successes) / n
    se = float(np.sqrt(closed_form * (1.0 - closed_form) / n))
    if se == 0.0:
        exact = empirical == closed_form
        return ProbabilityReport(
            closed_form=closed_form,
            empirical=empirical,
            n_trials=n,
            std_error=0.0,
            z_score=0.0 if exact else float("inf"),
            passed=exact,
        )
    z = (empirical - closed_form) / se
    return ProbabilityReport(
        closed_form=closed_form,
        empirical=empirical,
        n_trials=n,
        std_error=se,
        z_score=float(z),
        passed=bool(abs(z) <= Z_BOUND),
    )


@dataclass(frozen=True)
class HistogramCheck:
    """Chi-square comparison of hit sites against an expected profile."""

    chi2: float
    dof: int
    p_value: float
    n_events: int
    n_bins: int
    counts: Tuple[float, ...]
    expected: Tuple[float, ...]


def hit_histogram(counts, expected_profile, min_events: int = 10_000) -> HistogramCheck:
    """Chi-square test of observed per-site hit counts against a square-modulus profile.

    Bins with expected count below 5 are pooled into one bin; if the pool is
    still thin it is merged into the smallest retained bin. A profile with a
    single support site leaves one bin and zero degrees of freedom, reported
    as p = 1.0 when the observed counts sit exactly on it.
    """
    counts = np.asarray(counts, dtype=float)
    n_events = int(counts.sum())
    if n_events < min_events:
        raise TooFewEvents(f"{n_events} reduction events < required {min_events}")
    profile = np.asarray(expected_profile, dtype=float)
    if profile.shape != counts.shape:
        raise ValueError("expected profile length must match the site count")
    total_mass = profile.sum()
    if not total_mass > 0.0:
        raise ValueError("expected profile has no mass")

    expected = profile / total_mass * n_events

    keep = expected >= MIN_EXPECTED_PER_BIN
    kept_counts = counts[keep]
    kept_expected = expected[keep]
    pool_count = counts[~keep].sum()
    pool_expected = expected[~keep].sum()
    if pool_expected > 0.0:
        if pool_expected >= MIN_EXPECTED_PER_BIN or kept_expected.size == 0:
            kept_counts = np.append(kept_counts, pool_count)
            kept_expected = np.append(kept_expected, pool_expected)
        else:
            j = int(np.argmin(kept_expected))
            kept_counts[j] += pool_count
            kept_expected[j] += pool_expected
    elif pool_count > 0.0:
        # observed mass on zero-expectation sites: certain failure
        return HistogramCheck(
            chi2=float("inf"),
            dof=max(kept_expected.size - 1, 1),
            p_value=0.0,
            n_events=n_events,
            n_bins=kept_expected.size,
            counts=tuple(kept_counts),
            expected=tuple(kept_expected),
        )

    n_bins = kept_expected.size
    dof = n_bins - 1
    if dof == 0:
        exact = float(kept_counts[0]) == float(n_events)
        return HistogramCheck(
            chi2=0.0 if exact else float("inf"),
            dof=0,
            p_value=1.0 if exact else 0.0,
            n_events=n_events,
            n_bins=1,
            counts=tuple(kept_counts),
            expected=tuple(kept_expected),
        )
    chi2 = float(np.sum((kept_counts - kept_expected) ** 2 / kept_expected))
    p = _chi2_sf(chi2, dof)
    return HistogramCheck(
        chi2=chi2,
        dof=dof,
        p_value=p,
        n_events=n_events,
        n_bins=n_bins,
        counts=tuple(kept_counts),
        expected=tuple(kept_expected),
    )


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with ``dof`` degrees of freedom.

    This is the regularized upper incomplete gamma Q(a, y) with a = dof/2 and
    y = x/2: one minus the power series for P(a, y) when y < a + 1, else the
    modified-Lentz continued fraction for Q (Press et al., Numerical Recipes,
    section 6.2). Both converge within a few times sqrt(a) terms.
    """
    a, y = 0.5 * dof, 0.5 * x
    if y <= 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    prefactor = math.exp(a * math.log(y) - y - math.lgamma(a))
    max_terms = 100 + int(50.0 * math.sqrt(a))
    if y < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, max_terms):
            term *= y / (a + n)
            total += term
            if term < total * _EPS:
                return 1.0 - total * prefactor
    elif prefactor == 0.0:
        return 0.0  # the tail is below the smallest double
    else:
        b = y + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for n in range(1, max_terms):
            an = -n * (n - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                return prefactor * h
    raise ArithmeticError(f"chi-square tail did not converge for x={x}, dof={dof}")
