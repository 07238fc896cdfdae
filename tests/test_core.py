import math

import numpy as np
import pytest

from teardrop.core import (
    basis_states,
    make_params,
    params_from_mode_energies,
    teardrop_radius,
    teardrop_radius_sq,
    teardrop_radius_sq_deriv,
)


class TestMakeParams:
    def test_eta_values(self):
        assert make_params(1.0, 1.0, 10).eta == pytest.approx(1.0 / 6.0, abs=0)
        assert make_params(0.0, 1.0, 2).eta == pytest.approx(0.5, abs=0)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_params(1.0, 1.0, 7)

    @pytest.mark.parametrize("bad", [0, -4, 1])
    def test_invalid_n(self, bad):
        with pytest.raises(ValueError):
            make_params(1.0, 1.0, bad)

    @pytest.mark.parametrize("eps, v", [(math.nan, 1.0), (math.inf, 1.0),
                                        (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_rejected(self, eps, v):
        with pytest.raises(ValueError, match="finite"):
            make_params(eps, v, 10)

    def test_mode_energies(self):
        params = params_from_mode_energies(1.5, 0.4, 1.0, 8)
        assert params.epsilon == pytest.approx(2 * 1.5 - 0.4, abs=0)
        assert params.epsilon_a == 1.5 and params.epsilon_b == 0.4


class TestBasis:
    def test_smallest_sector(self):
        basis = basis_states(2)
        assert basis.dimension == 2
        assert np.allclose(basis.m_values, [-0.5, 0.5])
        assert list(zip(basis.atom_counts, basis.molecule_counts)) == [
            (0, 1),
            (2, 0),
        ]

    def test_dimensions(self):
        assert basis_states(8).dimension == 5
        assert basis_states(50).dimension == 26

    @pytest.mark.parametrize("n", [2, 4, 10, 40])
    def test_counts_conserve_n(self, n):
        basis = basis_states(n)
        assert basis.dimension == n // 2 + 1
        assert np.all(basis.atom_counts + 2 * basis.molecule_counts == n)
        assert np.all(basis.atom_counts >= 0)
        assert np.all(basis.molecule_counts >= 0)
        assert np.allclose(np.diff(basis.m_values), 1.0)
        assert basis.m_values[0] == pytest.approx(-n / 4)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            basis_states(7)


class TestTeardrop:
    def test_equator(self):
        assert teardrop_radius(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_vertices(self):
        assert teardrop_radius(-0.5) == 0.0
        assert teardrop_radius(0.5) == 0.0

    def test_widest_section(self):
        # r^2(1/6) = 8/27 by direct evaluation of the defining product
        assert teardrop_radius(1.0 / 6.0) == pytest.approx(
            math.sqrt(8.0 / 27.0), abs=1e-15
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            teardrop_radius(0.5 + 1e-9)
        # endpoint overshoot within rounding tolerance is clipped
        assert teardrop_radius(0.5 + 1e-13) == 0.0

    def test_radius_sq_identity(self):
        p = np.linspace(-0.5, 0.5, 1000)
        expected = 0.25 * (1 - 2 * p) * (1 + 2 * p) ** 2
        assert np.abs(teardrop_radius_sq(p) - expected).max() <= 1e-15

    def test_radius_sq_deriv(self):
        p = np.linspace(-0.45, 0.45, 101)
        h = 1e-6
        fd = (teardrop_radius_sq(p + h) - teardrop_radius_sq(p - h)) / (2 * h)
        assert np.abs(teardrop_radius_sq_deriv(p) - fd).max() < 1e-9

    def test_classical_limit_of_eta(self):
        vals = [make_params(0, 1, n).eta * (n / 4) for n in (10, 100, 1000)]
        assert vals[0] < vals[1] < vals[2] < 0.5
        assert vals[2] == pytest.approx(0.5, abs=1e-3)
