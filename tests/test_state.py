"""State-model tests.

Analytical anchors:
  - a unit-normalized Gaussian profile obeys sum |F(u)|^2 du = 1 exactly
    (renormalized after truncation), so norms are checked at 1e-12;
  - the overlap of two equal-width profiles separated by d is
    exp(-d^2 / (4 sigma^2)) up to quadrature error, checked at 1e-9;
  - beyond 6 sigma the profile is exactly zero by construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsecollapse import state as state_module
from pulsecollapse.errors import (
    CenterOutOfRange,
    GridMismatch,
    GridTooCoarse,
    NonpositiveS,
)
from pulsecollapse.state import (
    BrainGrid,
    DisengagedX,
    Pulse,
    PulseKind,
    SingleState,
    SystemState,
    Term,
    delta_pulse,
    make_gaussian_pulse,
    pulse_overlap,
    total_square_modulus,
)

GRID = BrainGrid(n_points=256, spacing=0.1, origin=0.0)


class TestBrainGrid:
    def test_sites_are_uniform(self):
        """Site coordinates are origin + k * spacing."""
        g = BrainGrid(n_points=16, spacing=0.5, origin=-2.0)
        np.testing.assert_allclose(g.sites, -2.0 + 0.5 * np.arange(16), rtol=0, atol=0)

    def test_nearest_index_rounds(self):
        assert GRID.nearest_index(1.24) == 12
        assert GRID.nearest_index(1.26) == 13

    def test_rejects_tiny_grid(self):
        with pytest.raises(Exception):
            BrainGrid(n_points=4, spacing=0.1, origin=0.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(Exception):
            BrainGrid(n_points=16, spacing=0.0, origin=0.0)


class TestGaussianPulse:
    def test_unit_norm_exact(self):
        """sum |F|^2 du = 1 to 1e-12 after truncation renormalization."""
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        assert p.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_truncated_to_exact_zero(self):
        """No tail beyond 6 sigma: disjoint supports stay exactly disjoint."""
        p = make_gaussian_pulse(GRID, 12.0, 0.5)
        far = np.abs(GRID.sites - 12.0) > 6 * 0.5
        assert np.all(p.weights[far] == 0)
        assert np.any(p.weights[~far] != 0)

    def test_center_index_at_peak(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        assert p.center_index == GRID.nearest_index(12.0)

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridTooCoarse):
            make_gaussian_pulse(GRID, 12.0, 0.15)

    def test_center_too_close_to_edge_rejected(self):
        with pytest.raises(CenterOutOfRange):
            make_gaussian_pulse(GRID, 1.0, 0.8)
        with pytest.raises(CenterOutOfRange):
            make_gaussian_pulse(GRID, 25.0, 0.8)

    def test_site_amplitudes_carry_quadrature_weight(self):
        """site_amplitude = F(u) * sqrt(du), so squares sum to the norm."""
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        amps = p.site_amplitudes()
        np.testing.assert_allclose(amps, p.weights * math.sqrt(GRID.spacing))
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_with_kind_preserves_profile(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8, PulseKind.CONSCIOUS)
        q = p.with_kind(PulseKind.READY)
        assert q.kind is PulseKind.READY
        np.testing.assert_array_equal(q.weights, p.weights)


class TestDeltaPulse:
    def test_single_site_support(self):
        p = delta_pulse(GRID, 40, PulseKind.CONSCIOUS)
        assert np.count_nonzero(p.weights) == 1
        assert p.center_index == 40

    def test_unit_norm(self):
        """|F|^2 du = 1 for the one occupied site."""
        p = delta_pulse(GRID, 40, PulseKind.CONSCIOUS)
        assert p.norm_sq() == pytest.approx(1.0, abs=1e-15)
        assert abs(p.site_amplitudes()[40]) == pytest.approx(1.0, abs=1e-15)


class TestOverlap:
    def test_matches_closed_form(self):
        """Equal widths, separation d: overlap = exp(-d^2/(4 sigma^2))."""
        sigma, d = 1.0, 2.0
        p = make_gaussian_pulse(GRID, 11.0, sigma)
        q = make_gaussian_pulse(GRID, 11.0 + d, sigma)
        want = math.exp(-d * d / (4 * sigma * sigma))
        assert pulse_overlap(p, q) == pytest.approx(want, abs=1e-9)

    def test_disjoint_is_exactly_zero(self):
        p = make_gaussian_pulse(GRID, 7.0, 0.8)
        q = make_gaussian_pulse(GRID, 18.0, 0.8)
        assert pulse_overlap(p, q) == 0.0

    def test_self_overlap_is_one(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        assert pulse_overlap(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        other = BrainGrid(n_points=128, spacing=0.1, origin=0.0)
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        q = make_gaussian_pulse(other, 6.0, 0.8)
        with pytest.raises(GridMismatch):
            pulse_overlap(p, q)

    @given(
        c1=st.floats(min_value=6.0, max_value=19.0),
        c2=st.floats(min_value=6.0, max_value=19.0),
        sigma=st.floats(min_value=0.4, max_value=1.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlap_symmetric_and_bounded(self, c1, c2, sigma):
        """0 <= overlap <= 1 + eps and symmetric in its arguments."""
        p = make_gaussian_pulse(GRID, c1, sigma)
        q = make_gaussian_pulse(GRID, c2, sigma)
        o_pq, o_qp = pulse_overlap(p, q), pulse_overlap(q, p)
        assert o_pq == o_qp
        assert 0.0 <= o_pq <= 1.0 + 1e-9


class TestFactors:
    def test_single_state_is_unit_basis(self):
        s = SingleState(kind=PulseKind.READY, index=5)
        amps = s.site_amplitudes(GRID)
        assert amps[5] == 1.0
        assert np.count_nonzero(amps) == 1
        assert s.norm_sq() == 1.0
        assert s.is_ready

    def test_conscious_single_state_not_ready(self):
        s = SingleState(kind=PulseKind.CONSCIOUS, index=5)
        assert not s.is_ready

    def test_disengaged_never_ready(self):
        w = np.zeros(GRID.n_points)
        w[10] = 1.0 / math.sqrt(GRID.spacing)
        x = DisengagedX(grid=GRID, weights=w)
        assert not x.is_ready
        assert x.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_pulse_factor_kind_passthrough(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8, PulseKind.READY)
        assert p.is_ready and not p.with_kind(PulseKind.CONSCIOUS).is_ready
        assert p.observer_id == "obs" and p.grid_of() is GRID
        assert np.array_equal(p.site_amplitudes(GRID), p.site_amplitudes())
        with pytest.raises(GridMismatch):
            p.site_amplitudes(BrainGrid(n_points=GRID.n_points, spacing=2 * GRID.spacing))


class TestSystemState:
    def test_total_square_modulus_sums_terms(self):
        p = make_gaussian_pulse(GRID, 8.0, 0.8, PulseKind.CONSCIOUS)
        q = make_gaussian_pulse(GRID, 17.0, 0.8, PulseKind.READY)
        state = SystemState(
            terms=(
                Term(apparatus_label=1, coefficient=0.6 + 0j, brain=p),
                Term(apparatus_label=2, coefficient=0.8j, brain=q),
            ),
            s=1.0,
            time=0.0,
            grid=GRID,
        )
        assert total_square_modulus(state) == pytest.approx(1.0, abs=1e-12)

    def test_s_must_be_positive(self):
        p = make_gaussian_pulse(GRID, 8.0, 0.8, PulseKind.CONSCIOUS)
        with pytest.raises(NonpositiveS):
            SystemState(
                terms=(Term(apparatus_label=1, coefficient=1 + 0j, brain=p),),
                s=0.0,
                time=0.0,
                grid=GRID,
            )

    def test_weights_are_read_only(self):
        p = make_gaussian_pulse(GRID, 12.0, 0.8)
        with pytest.raises((ValueError, RuntimeError)):
            p.weights[0] = 1.0


def _factors():
    w = make_gaussian_pulse(GRID, 12.0, 0.8).weights * (1.0 + 0.5j)
    return (
        Pulse(kind=PulseKind.READY, grid=GRID, weights=w, center_index=int(np.argmax(np.abs(w)))),
        DisengagedX(grid=GRID, weights=w),
    )


class TestCachedNorm:
    """norm_sq sums |w|^2 once per instance; the read-only, copied weights make that safe."""

    @pytest.mark.parametrize("which", [0, 1], ids=["Pulse", "DisengagedX"])
    def test_norm_is_summed_once(self, which, monkeypatch):
        factor = _factors()[which]
        want = float(np.sum(np.abs(factor.weights) ** 2) * GRID.spacing)
        sums = []
        real_sum = state_module.profile_norm_sq
        monkeypatch.setattr(state_module, "profile_norm_sq", lambda *a: sums.append(1) or real_sum(*a))
        norms = [factor.norm_sq() for _ in range(5)]
        assert len(sums) == 1
        assert norms == [want] * 5

    @pytest.mark.parametrize("which", [0, 1], ids=["Pulse", "DisengagedX"])
    def test_weights_cannot_change_under_the_cache(self, which):
        factor = _factors()[which]
        with pytest.raises(ValueError):
            factor.weights[0] = 1.0
        src = np.array(factor.weights)
        copy = type(factor)(**{**vars(factor), "weights": src})
        src[:] = 0.0
        assert copy.norm_sq() == factor.norm_sq()

