import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import (
    MeanFieldWavefunction,
    bloch_projection,
    canonical_rhs,
    integrate_wavefunction,
    nls_rhs,
    wavefunction,
    wavefunction_from_bloch,
)
from teardrop.core import make_params, teardrop_radius
from teardrop.meanfield import (
    BlochPoint,
    CanonicalPoint,
    bloch_point,
    critical_epsilon,
    energy_range,
    fixed_points,
    from_canonical,
    integrate_trajectory,
    mf_energy,
    mf_rhs,
    to_canonical,
)

R_WIDE = teardrop_radius(1.0 / 6.0)  # widest cross-section, sqrt(8/27)


class TestFlowField:
    def test_equator_point(self):
        params = make_params(0.0, 1.0, 10)
        ds = mf_rhs(BlochPoint(0.5, 0.0, 0.0), params)
        assert ds == pytest.approx((0.0, 0.25, 0.0), abs=1e-15)

    def test_vanishes_at_widest_section(self):
        params = make_params(0.0, 1.0, 10)
        ds = mf_rhs(BlochPoint(R_WIDE, 0.0, 1.0 / 6.0), params)
        assert np.abs(ds).max() <= 1e-15

    def test_vanishes_at_fixed_points(self):
        for eps, v in ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (-0.7, 1.3)):
            params = make_params(eps, v, 10)
            for fp in fixed_points(params):
                assert np.abs(mf_rhs(fp.location, params)).max() <= 1e-9

    def test_tangent_to_surface(self):
        # d/dt of the constraint vanishes identically along the flow
        rng = np.random.default_rng(11)
        params = make_params(0.8, 1.2, 10)
        for _ in range(50):
            p = rng.uniform(-0.5, 0.5)
            q = rng.uniform(0, 2 * math.pi)
            s = from_canonical(CanonicalPoint(p, q))
            dx, dy, dz = mf_rhs(s, params)
            deriv_r2 = 0.5 * (1 + 2 * s.sz) * (1 - 6 * s.sz)
            residual = 2 * s.sx * dx + 2 * s.sy * dy - deriv_r2 * dz
            assert abs(residual) <= 1e-14


class TestEnergy:
    def test_tip(self):
        for eps in (-2.0, 0.0, 1.5):
            params = make_params(eps, 1.0, 10)
            assert mf_energy(BlochPoint(0, 0, -0.5), params) == pytest.approx(
                -eps / 2, abs=0
            )

    def test_widest_section_fixed_point(self):
        params = make_params(0.0, 1.0, 10)
        val = mf_energy(BlochPoint(R_WIDE, 0.0, 1.0 / 6.0), params)
        assert val == pytest.approx(2 * math.sqrt(6) / 9, abs=1e-15)

    def test_canonical_zero(self):
        params = make_params(1.0, 1.0, 10)
        assert mf_energy(CanonicalPoint(0.0, math.pi / 2), params) == pytest.approx(
            0.0, abs=1e-16
        )

    def test_chart_agreement(self):
        params = make_params(0.7, 1.1, 10)
        rng = np.random.default_rng(3)
        for _ in range(30):
            c = CanonicalPoint(rng.uniform(-0.49, 0.49), rng.uniform(0, 2 * math.pi))
            assert abs(mf_energy(c, params) - mf_energy(from_canonical(c), params)) <= 1e-12


class TestCharts:
    def test_origin_angle(self):
        s = from_canonical(CanonicalPoint(0.0, 0.0))
        assert (s.sx, s.sy, s.sz) == pytest.approx((0.5, 0.0, 0.0))

    def test_quarter_turn(self):
        c = to_canonical(bloch_point(0.0, 0.5, 0.0))
        assert c.p == 0.0
        assert c.q == pytest.approx(math.pi / 2, abs=1e-15)

    def test_tip_rejected(self):
        with pytest.raises(ValueError, match="angle undefined"):
            to_canonical(BlochPoint(0.0, 0.0, -0.5))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = CanonicalPoint(rng.uniform(-0.49, 0.49), rng.uniform(0, 2 * math.pi))
            back = to_canonical(from_canonical(c))
            assert abs(back.p - c.p) <= 1e-12
            assert abs(back.q - c.q) % (2 * math.pi) <= 1e-12

    def test_bloch_point_validation(self):
        with pytest.raises(ValueError, match="surface"):
            bloch_point(0.4, 0.0, 0.0)
        with pytest.raises(ValueError, match="s_z"):
            bloch_point(0.0, 0.0, 0.7)


class TestFixedPoints:
    def test_symmetric_coupling(self):
        params = make_params(0.0, 1.0, 10)
        fps = fixed_points(params)
        assert len(fps) == 3
        tip = next(fp for fp in fps if fp.s_z_root == -0.5)
        assert tip.stability == "saddle"
        others = sorted(
            (fp for fp in fps if fp.s_z_root != -0.5), key=lambda f: f.location.sx
        )
        assert [fp.stability for fp in others] == ["elliptic", "elliptic"]
        assert others[0].location.sx == pytest.approx(-R_WIDE, abs=1e-12)
        assert others[1].location.sx == pytest.approx(R_WIDE, abs=1e-12)
        assert all(fp.s_z_root == pytest.approx(1 / 6, abs=1e-12) for fp in others)

    def test_supercritical(self):
        params = make_params(2.0, 1.0, 10)
        fps = fixed_points(params)
        assert len(fps) == 2
        tip = next(fp for fp in fps if fp.s_z_root == -0.5)
        assert tip.stability == "elliptic"
        other = next(fp for fp in fps if fp.s_z_root != -0.5)
        assert other.s_z_root == pytest.approx((-5 + math.sqrt(160)) / 18, abs=1e-12)
        assert other.stability == "elliptic"

    def test_count_changes_at_critical_coupling(self):
        assert len(fixed_points(make_params(1.414, 1.0, 10))) == 3
        assert len(fixed_points(make_params(1.415, 1.0, 10))) == 2

    def test_degenerate_at_exact_critical(self):
        params = make_params(math.sqrt(2.0), 1.0, 10)
        tip = next(
            fp for fp in fixed_points(params) if fp.s_z_root == -0.5
        )
        assert tip.stability == "degenerate"

    def test_polynomial_residual(self):
        for eps, v in ((0.3, 1.0), (1.0, 1.0), (2.5, 0.8), (-1.2, 1.1)):
            params = make_params(eps, v, 10)
            for fp in fixed_points(params):
                s = fp.s_z_root
                residual = (0.5 + s) ** 2 * (
                    v**2 / 4 - eps**2 - (3 * v**2 - 2 * eps**2) * s + 9 * v**2 * s**2
                )
                assert abs(residual) <= 1e-10

    def test_critical_epsilon(self):
        assert critical_epsilon(make_params(0, 2.0, 10)) == pytest.approx(
            2 * math.sqrt(2)
        )

    def test_near_symmetric_detuning_keeps_both_points(self):
        # the textbook discriminant cancels catastrophically as eps -> 0
        # and used to drop the off-tip pair entirely
        for eps in (1e-8, -1e-8, 1e-12):
            for v in (1.0, 7.0, -2.5, 0.05):
                fps = fixed_points(make_params(eps, v, 10))
                assert len(fps) == 3
                energies = sorted(fp.energy for fp in fps)
                r_wide = teardrop_radius(1.0 / 6.0)
                assert energies[0] == pytest.approx(-abs(v) * r_wide, rel=1e-4)
                assert energies[-1] == pytest.approx(abs(v) * r_wide, rel=1e-4)
                for fp in fps:
                    assert np.abs(mf_rhs(fp.location, make_params(eps, v, 10))).max() <= 1e-9

    @pytest.mark.parametrize("eps", [-8.0, -math.sqrt(2), 0.0, 1e-8, 5.0])
    @pytest.mark.parametrize("v", [-2.5, 1e-6, 0.05, 1.0])
    def test_flow_vanishes_across_parameter_corners(self, eps, v):
        params = make_params(eps, v, 10)
        for fp in fixed_points(params):
            assert np.abs(mf_rhs(fp.location, params)).max() <= 1e-9

    @pytest.mark.parametrize("eps, v", [(1e200, 1.0), (1.0, 1e200), (1e155, -1e155)])
    def test_squares_beyond_double_range_named(self, eps, v):
        named = re.escape(f"coupling v = {v} with eps = {eps}")
        with pytest.raises(ValueError, match=named):
            fixed_points(make_params(eps, v, 10))

    def test_large_parameters_scale_exactly_or_raise(self):
        # every term of the quadratic is a product of eps and v, so a power
        # of two scales it exactly: unless a term overflows, the points at
        # (eps, v) are those at (eps, v) 2^-k, with the energies times 2^k
        rng = np.random.default_rng(8)
        held = 0
        for _ in range(2000):
            big = 10.0 ** rng.uniform(150.0, 155.0)
            small = big * 10.0 ** rng.uniform(-6.0, 0.0)
            eps, v = rng.choice([-1.0, 1.0], 2) * ((big, small) if rng.random() < 0.5
                                                   else (small, big))
            eps, v = float(eps), float(v)
            try:
                points = fixed_points(make_params(eps, v, 10))
            except ValueError as err:
                assert f"coupling v = {v} with eps = {eps}" in str(err)
                continue
            k = math.frexp(big)[1]
            scaled = fixed_points(
                make_params(math.ldexp(eps, -k), math.ldexp(v, -k), 10))
            assert ([(fp.location, fp.s_z_root, fp.stability) for fp in points]
                    == [(fp.location, fp.s_z_root, fp.stability) for fp in scaled])
            assert [fp.energy for fp in points] == [math.ldexp(fp.energy, k)
                                                    for fp in scaled]
            held += 1
        assert held > 1000

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            fixed_points(make_params(0.0, 0.0, 10))


class TestTrajectories:
    def test_fixed_point_is_stationary(self):
        params = make_params(0.0, 1.0, 10)
        start = BlochPoint(R_WIDE, 0.0, 1.0 / 6.0)
        traj = integrate_trajectory(start, 10.0, params, samples=50)
        assert np.abs(traj.sx - start.sx).max() <= 1e-9
        assert np.abs(traj.sz - start.sz).max() <= 1e-9
        assert traj.energy_drift <= 1e-12

    def test_drift_bounds(self):
        params = make_params(1.0, 1.0, 10)
        start = BlochPoint(-R_WIDE, 0.0, 1.0 / 6.0)
        traj = integrate_trajectory(start, 100.0, params, tol=1e-10, samples=500)
        assert traj.energy_drift <= 1e-9
        assert traj.surface_drift <= 1e-9

    def test_separatrix_approach_to_tip(self):
        # on the s_x = 0 meridian the flow runs into the saddle at the tip
        params = make_params(0.0, 1.0, 10)
        start = BlochPoint(0.0, -0.5, 0.0)
        traj = integrate_trajectory(start, 8.0, params, samples=400)
        assert traj.sz.min() >= -0.5 - 1e-9
        tail = traj.sz[traj.times > 2.0]
        assert np.all(np.diff(tail) <= 1e-9)
        assert traj.sz[-1] == pytest.approx(-0.5, abs=1e-3)

    def test_oscillation_period_near_tip(self):
        params = make_params(2.0, 1.0, 10)
        start = from_canonical(CanonicalPoint(-0.495, math.pi))
        traj = integrate_trajectory(start, 40.0, params, samples=4001)
        crossings = []
        for i in range(1, traj.times.size):
            if traj.sy[i - 1] < 0 <= traj.sy[i]:
                t0, t1 = traj.times[i - 1], traj.times[i]
                y0, y1 = traj.sy[i - 1], traj.sy[i]
                crossings.append(t0 - y0 * (t1 - t0) / (y1 - y0))
        measured = float(np.mean(np.diff(crossings)))
        expected = math.sqrt(2) * math.pi / math.sqrt(2.0**2 / 2 - 1.0)
        assert measured == pytest.approx(expected, rel=0.01)

    def test_off_surface_start_rejected(self):
        params = make_params(1.0, 1.0, 10)
        with pytest.raises(ValueError, match="surface"):
            integrate_trajectory(BlochPoint(0.4, 0.0, 0.0), 1.0, params)

    def test_canonical_flow_equivalence(self):
        params = make_params(0.7, 1.1, 10)
        c0 = CanonicalPoint(0.2, 1.1)

        def rhs(_, y):
            dp, dq = canonical_rhs(CanonicalPoint(y[0], y[1]), params)
            return [dp, dq]

        t_eval = np.linspace(0, 10, 101)
        sol = solve_ivp(
            rhs, (0, 10), [c0.p, c0.q], method="DOP853",
            rtol=1e-11, atol=1e-13, t_eval=t_eval,
        )
        canonical_pts = np.array(
            [from_canonical(CanonicalPoint(p, q)).as_array() for p, q in sol.y.T]
        )
        traj = integrate_trajectory(
            from_canonical(c0), 10.0, params, tol=1e-11, samples=101
        )
        direct = np.stack([traj.sx, traj.sy, traj.sz], axis=1)
        assert np.abs(canonical_pts - direct).max() <= 1e-8


class TestWavefunctions:
    def test_all_atom_projection(self):
        w = wavefunction("psi", math.sqrt(2.0), 0.0)
        s = bloch_projection(w)
        assert (s.sx, s.sy, s.sz) == pytest.approx((0.0, 0.0, 0.5))

    def test_all_molecule_projection_and_stationarity(self):
        params = make_params(1.0, 1.0, 10)
        for variant in ("psi", "chi"):
            w = wavefunction(variant, 0.0, 1.0)
            s = bloch_projection(w)
            assert (s.sx, s.sy, s.sz) == pytest.approx((0.0, 0.0, -0.5))
            da, db = nls_rhs(w, params)
            # tip amplitude only rotates its phase; the Bloch point is fixed
            assert abs(da) == pytest.approx(0.0, abs=1e-15)

    def test_equal_weight_projection(self):
        w = wavefunction("psi", 1.0, 1.0 / math.sqrt(2.0))
        s = bloch_projection(w)
        assert s.sx == pytest.approx(0.5, abs=1e-14)
        assert s.sy == pytest.approx(0.0, abs=1e-14)
        assert abs(s.surface_residual()) <= 1e-12

    def test_projected_flow_matches_surface_field_at_atomic_vertex(self):
        params = make_params(0.9, 1.3, 10)
        w = wavefunction("psi", math.sqrt(2.0), 0.0)
        h = 1e-7
        da, db = nls_rhs(w, params)
        stepped = MeanFieldWavefunction(
            "psi", w.components + h * np.array([da, db])
        )
        fd = (bloch_projection(stepped).as_array()
              - bloch_projection(w).as_array()) / h
        expected = mf_rhs(BlochPoint(0.0, 0.0, 0.5), params)
        assert np.abs(fd - expected).max() <= 1e-6

    def test_normalisation_validated(self):
        with pytest.raises(ValueError, match="normalisation"):
            wavefunction("psi", 1.0, 1.0)
        with pytest.raises(ValueError, match="variant"):
            wavefunction("phi", 1.0, 0.0)

    def test_norm_conserved_along_flow(self):
        params = make_params(0.7, 1.1, 10)
        s0 = from_canonical(CanonicalPoint(0.2, 1.1))
        times = np.linspace(0, 50, 201)
        w0 = wavefunction_from_bloch(s0, "psi")
        a, b = integrate_wavefunction(w0, times, params, tol=1e-11)
        norm = np.abs(a) ** 2 + 2 * np.abs(b) ** 2
        assert np.abs(norm - 2.0).max() <= 1e-9

    def test_psi_and_chi_flows_agree_on_bloch_sphere(self):
        params = make_params(0.7, 1.1, 10)
        s0 = from_canonical(CanonicalPoint(0.2, 1.1))
        times = np.linspace(0, 20, 201)
        tracks = {}
        for variant in ("psi", "chi"):
            w0 = wavefunction_from_bloch(s0, variant)
            assert np.abs(
                bloch_projection(w0).as_array() - s0.as_array()
            ).max() <= 1e-12
            a, b = integrate_wavefunction(w0, times, params, tol=1e-11)
            tracks[variant] = np.array(
                [
                    bloch_projection(
                        MeanFieldWavefunction(variant, np.array([ai, bi]))
                    ).as_array()
                    for ai, bi in zip(a, b)
                ]
            )
        assert np.abs(tracks["psi"] - tracks["chi"]).max() <= 1e-8

    def test_wavefunction_flow_matches_surface_flow(self):
        params = make_params(0.7, 1.1, 10)
        s0 = from_canonical(CanonicalPoint(0.2, 1.1))
        times = np.linspace(0, 20, 201)
        w0 = wavefunction_from_bloch(s0, "psi")
        a, b = integrate_wavefunction(w0, times, params, tol=1e-11)
        projected = np.array(
            [
                bloch_projection(
                    MeanFieldWavefunction("psi", np.array([ai, bi]))
                ).as_array()
                for ai, bi in zip(a, b)
            ]
        )
        traj = integrate_trajectory(s0, 20.0, params, tol=1e-11, samples=201)
        direct = np.stack([traj.sx, traj.sy, traj.sz], axis=1)
        assert np.abs(projected - direct).max() <= 1e-8


class TestPoissonStructure:
    def test_brackets_close_on_surface_functions(self):
        rng = np.random.default_rng(3)

        def s_funcs(p, q):
            r = teardrop_radius(p)
            return r * math.cos(q), r * math.sin(q), p

        def bracket(fa, fb, p, q, h=1e-6):
            ap = (fa(p + h, q) - fa(p - h, q)) / (2 * h)
            aq = (fa(p, q + h) - fa(p, q - h)) / (2 * h)
            bp = (fb(p + h, q) - fb(p - h, q)) / (2 * h)
            bq = (fb(p, q + h) - fb(p, q - h)) / (2 * h)
            return ap * bq - aq * bp

        sx_f = lambda p, q: s_funcs(p, q)[0]
        sy_f = lambda p, q: s_funcs(p, q)[1]
        sz_f = lambda p, q: s_funcs(p, q)[2]

        for _ in range(100):
            p = rng.uniform(-0.45, 0.45)
            q = rng.uniform(0, 2 * math.pi)
            sx, sy, sz = s_funcs(p, q)
            assert abs(
                bracket(sx_f, sy_f, p, q) - 0.25 * (1 - 4 * sz - 12 * sz**2)
            ) <= 1e-6
            assert abs(bracket(sy_f, sz_f, p, q) + sx) <= 1e-6
            assert abs(bracket(sz_f, sx_f, p, q) + sy) <= 1e-6


def test_energy_range_matches_potential_extrema():
    params = make_params(0.0, 1.0, 10)
    emin, emax = energy_range(params)
    assert emin == pytest.approx(-2 * math.sqrt(6) / 9, abs=1e-12)
    assert emax == pytest.approx(2 * math.sqrt(6) / 9, abs=1e-12)
