import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import teardrop.cli
import teardrop.semiclassics
from teardrop.core import basis_states, make_params
from teardrop.meanfield import energy_range
from teardrop.quantum import build_hamiltonian, exact_spectrum
from teardrop.semiclassics import (
    ACTION_ABS_TOL,
    _angle,
    _decay_exponent,
    _gauss_nodes,
    _sin_substituted_integrals,
    _wkb_phase,
    action,
    density_of_states,
    elliptic_k,
    period,
    potential_curves,
    quantize,
    turning_points,
    wkb_state,
)

TWO_PI = 2.0 * math.pi


_ORACLE_NODES = np.polynomial.legendre.leggauss(2000)


def elliptic_quadrature_oracle(m):
    """Direct Gauss-Legendre evaluation of the defining integral of K."""
    x, w = _ORACLE_NODES
    theta = 0.25 * math.pi * (x + 1.0)
    integrand = 1.0 / np.sqrt(1.0 - m * np.sin(theta) ** 2)
    return 0.25 * math.pi * float(np.dot(integrand, w))


def period_quadrature_oracle(e, params, nodes=800):
    """Period as 2 int dp / sqrt((U+ - e)(e - U-)) with the radicand in
    root-product form and a sine substitution between the turning points."""
    tp = turning_points(e, params)
    x, w = _gauss_nodes(nodes)
    theta = 0.5 * math.pi * x
    mid = 0.5 * (tp.p_minus + tp.p_plus)
    half = 0.5 * (tp.p_plus - tp.p_minus)
    p = mid + half * np.sin(theta)
    val = float(np.dot(1.0 / np.sqrt(p - tp.p_zero), w)) * 0.5 * math.pi
    return 2.0 / (abs(params.v) * math.sqrt(2.0)) * val


def one_interval_rule(f, lo, hi, abs_tol=ACTION_ABS_TOL, start=64,
                      max_nodes=4096):
    """The sine-substituted Gauss-Legendre rule on a single interval, node
    count doubled until the value is stable to abs_tol: the per-interval
    loop that the batched rule replaces."""
    width = hi - lo
    if width <= 1e-14:
        return float(f(np.array([(lo + hi) / 2.0]))[0]) * max(width, 0.0)
    mid, half = 0.5 * (lo + hi), 0.5 * width
    prev = None
    n = start
    while True:
        x, w = _gauss_nodes(n)
        theta = 0.5 * math.pi * x
        p = mid + half * np.sin(theta)
        val = float(np.dot(f(p), w * (0.5 * math.pi) * half * np.cos(theta)))
        if (prev is not None and abs(val - prev) < abs_tol) or 2 * n > max_nodes:
            return val
        prev = val
        n *= 2


def wkb_quad_oracle(state, params):
    """The amplitudes of ``state`` rebuilt point by point, with every phase
    and decay integral done by adaptive scipy quadrature on the envelope's
    own energy and turning points."""
    e, tp, eta = state.energy_mf, state.turning, params.eta
    vabs, eps = abs(params.v), params.epsilon
    t_period = period(e, params)
    if math.isinf(t_period):
        t_period = 1.0

    def radius(p):
        p = min(max(p, -0.5), 0.5)
        return math.sqrt(max(0.25 * (1.0 - 2.0 * p) * (1.0 + 2.0 * p) ** 2, 0.0))

    def angle(p):
        return math.acos(min(max((e - eps * p) / (vabs * radius(p)), -1.0), 1.0))

    def decay_rate(p):
        return math.acosh(max(abs(e - eps * p) / (vabs * radius(p)), 1.0))

    amp_sq = []
    for p, inside in zip(eta * state.m_values, state.allowed):
        radicand = vabs**2 * radius(p) ** 2 - (e - eps * p) ** 2
        w_cl = 1.0 / (2.0 * t_period * math.sqrt(max(abs(radicand), 1e-300)))
        if inside:
            s_tilde = quad(angle, tp.p_minus, p, epsabs=1e-12, epsrel=1e-12,
                           limit=200)[0]
            phase = _wkb_phase(p, tp, s_tilde)
            amp_sq.append(2.0 * w_cl * math.cos(phase / eta - 0.25 * math.pi) ** 2)
        else:
            lo, hi = (p, tp.p_minus) if p <= tp.p_minus else (tp.p_plus, p)
            decay = quad(decay_rate, lo, hi, epsabs=1e-12, epsrel=1e-12,
                         limit=200)[0]
            amp_sq.append(0.5 * w_cl * math.exp(-2.0 * max(decay, 0.0) / eta))
    amplitudes = np.sqrt(amp_sq)
    return amplitudes / np.linalg.norm(amplitudes)


class TestPotentialCurves:
    def test_vertex_values(self):
        curves = potential_curves(make_params(1.0, 1.0, 10))
        assert curves.u_plus(0.5) == pytest.approx(0.5, abs=1e-15)
        assert curves.u_minus(0.5) == pytest.approx(0.5, abs=1e-15)
        assert curves.u_plus(-0.5) == pytest.approx(-0.5, abs=1e-15)
        assert curves.u_minus(-0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_symmetric_coupling_at_equator(self):
        curves = potential_curves(make_params(0.0, 1.0, 10))
        assert curves.u_plus(0.0) == pytest.approx(0.5)
        assert curves.u_minus(0.0) == pytest.approx(-0.5)

    def test_extrema_match_fixed_point_energies(self):
        for eps in (0.0, 0.7, 1.5):
            params = make_params(eps, 1.0, 10)
            curves = potential_curves(params)
            p = np.linspace(-0.5, 0.5, 200001)
            emin, emax = energy_range(params)
            assert float(curves.u_minus(p).min()) == pytest.approx(emin, abs=1e-8)
            assert float(curves.u_plus(p).max()) == pytest.approx(emax, abs=1e-8)

    def test_ordering(self):
        curves = potential_curves(make_params(0.4, 1.0, 10))
        p = np.linspace(-0.5, 0.5, 501)
        assert np.all(curves.u_plus(p) >= curves.u_minus(p) - 1e-15)


class TestTurningPoints:
    def test_separatrix_symmetric(self):
        tp = turning_points(0.0, make_params(0.0, 1.0, 10))
        assert tp.p_zero == pytest.approx(-0.5, abs=1e-9)
        assert tp.p_minus == pytest.approx(-0.5, abs=1e-9)
        assert tp.p_plus == pytest.approx(0.5, abs=1e-12)

    def test_supercritical_tip(self):
        tp = turning_points(-1.0, make_params(2.0, 1.0, 10))
        assert tp.p_zero == pytest.approx(-1.5, abs=1e-12)
        assert tp.p_minus == pytest.approx(-0.5, abs=1e-9)
        assert tp.p_plus == pytest.approx(-0.5, abs=1e-9)

    def test_double_root_at_band_top(self):
        e_top = 2 * math.sqrt(6) / 9
        tp = turning_points(e_top, make_params(0.0, 1.0, 10))
        assert tp.p_zero == pytest.approx(-5.0 / 6.0, abs=1e-9)
        assert tp.p_minus == pytest.approx(1.0 / 6.0, abs=1e-7)
        assert tp.p_plus == pytest.approx(1.0 / 6.0, abs=1e-7)
        assert tp.branch_minus == "on_U_plus"
        assert tp.branch_plus == "on_U_plus"

    def test_roots_satisfy_energy_condition(self):
        params = make_params(0.8, 1.0, 10)
        curves = potential_curves(params)
        for e in (-0.45, -0.2, 0.3, 0.55):
            tp = turning_points(e, params)
            for p, branch in (
                (tp.p_minus, tp.branch_minus),
                (tp.p_plus, tp.branch_plus),
            ):
                u = curves.u_plus(p) if branch == "on_U_plus" else curves.u_minus(p)
                assert abs(e - float(u)) <= 1e-10

    def test_energy_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            turning_points(1.0, make_params(0.0, 1.0, 10))

    def test_decoupled_rejected(self):
        with pytest.raises(ValueError):
            turning_points(0.0, make_params(1.0, 0.0, 10))


class TestAction:
    def test_decoupled_closed_form(self):
        params = make_params(1.0, 0.0, 10)
        for e in (-0.4, -0.1, 0.2, 0.45):
            assert action(e, params) == pytest.approx(TWO_PI * (e + 0.5), abs=1e-12)
        negative = make_params(-1.0, 0.0, 10)
        for e in (-0.4, 0.3):
            assert action(e, negative) == pytest.approx(TWO_PI * (0.5 + e), abs=1e-12)

    def test_quadrature_limit_matches_closed_form(self):
        # a vanishingly small coupling must go through the turning-point path
        weak = make_params(1.0, 1e-12, 10)
        exact = make_params(1.0, 0.0, 10)
        for e in (-0.3, 0.0, 0.2, 0.45):
            assert action(e, weak) == pytest.approx(action(e, exact), abs=1e-9)
        # a large detuning puts the third root at ~ -eps^2/v^2, and at
        # e = 3.999 the pair splits by ~1e-17 next to the tip
        exact = make_params(-8.0, 0.0, 10)
        for v in (1e-12, 1e-8):
            weak = make_params(-8.0, v, 10)
            for e in (-3.9, -2.0, 0.5, 2.08, 3.5, 3.999):
                assert action(e, weak) == pytest.approx(
                    action(e, exact), abs=1e-9
                )

    def test_range_endpoints(self):
        for eps in (0.0, 1.0, 2.0, -1.3):
            params = make_params(eps, 1.0, 10)
            emin, emax = energy_range(params)
            assert action(emin, params) == pytest.approx(0.0, abs=1e-8)
            assert action(emax, params) == pytest.approx(TWO_PI, abs=1e-8)
        # weak coupling puts a double root at each band edge far from the
        # third root; probes just inside the range are what a bracketing
        # level solver evaluates
        for eps in np.linspace(-3.0, 3.0, 25):
            params = make_params(float(eps), 0.05, 10)
            emin, emax = energy_range(params)
            inset = 1e-13 * (emax - emin)
            for e in (emin, emin + inset):
                assert action(e, params) == pytest.approx(0.0, abs=1e-8)
            for e in (emax, emax - inset):
                assert action(e, params) == pytest.approx(TWO_PI, abs=1e-8)

    def test_separatrix_halves_symmetric_phase_space(self):
        assert action(0.0, make_params(0.0, 1.0, 10)) == pytest.approx(
            math.pi, abs=1e-10
        )

    @pytest.mark.parametrize("eps", [-2.5, -1.0, 0.0, 0.7, 1.414, 3.0])
    def test_monotone(self, eps):
        params = make_params(eps, 1.0, 10)
        emin, emax = energy_range(params)
        values = [action(float(e), params) for e in np.linspace(emin, emax, 200)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_continuous_across_branch_changes(self):
        # boundaries where a turning point hops between the two curves
        for eps in (1.0, -1.0):
            params = make_params(eps, 1.0, 10)
            emin, emax = energy_range(params)
            for boundary in (-eps / 2, eps / 2):
                if not emin < boundary < emax:
                    continue
                d = 1e-12
                jump = abs(action(boundary + d, params) - action(boundary - d, params))
                assert jump <= 1e-8
                # S' = T diverges at most logarithmically (at the separatrix
                # e = -eps/2), so a step of 2e-9 moves S by ~1e-7
                d = 1e-9
                jump = abs(action(boundary + d, params) - action(boundary - d, params))
                assert jump <= 1e-6

    def test_all_branch_cases_reachable(self):
        seen = set()
        for eps in (1.0, -1.0):
            params = make_params(eps, 1.0, 10)
            emin, emax = energy_range(params)
            for e in np.linspace(emin + 1e-6, emax - 1e-6, 41):
                tp = turning_points(float(e), params)
                seen.add((tp.branch_minus, tp.branch_plus))
        assert seen == {
            ("on_U_minus", "on_U_minus"),
            ("on_U_minus", "on_U_plus"),
            ("on_U_plus", "on_U_minus"),
            ("on_U_plus", "on_U_plus"),
        }

    def test_derivative_is_period(self):
        params = make_params(1.0, 1.0, 10)
        for e in (-0.52, -0.3, 0.2, 0.6):
            h = 1e-6
            ds = (action(e + h, params) - action(e - h, params)) / (2 * h)
            assert ds == pytest.approx(period(e, params), rel=1e-5)


class TestBatchedQuadrature:
    @pytest.mark.parametrize("eps, frac", [
        (-1.2, 0.3), (1.2, 0.05), (1.6, 0.5), (2.0, 0.93), (-0.5, 0.7),
    ])
    def test_matches_one_interval_rule(self, eps, frac):
        """Row by row, on phase intervals (p_-, p) and the whole orbit, on
        decay intervals from each forbidden point to its turning point, and
        on width-0 intervals at both turning points; the 1500-point grid
        needs more than one block at 64 nodes."""
        params = make_params(eps, 1.0, 10)
        emin, emax = energy_range(params)
        e = emin + frac * (emax - emin)
        tp = turning_points(e, params)
        p = np.linspace(-0.5 + 1e-9, 0.5 - 1e-9, 1500)
        inside = p[(p > tp.p_minus) & (p < tp.p_plus)]
        outside = p[(p <= tp.p_minus) | (p >= tp.p_plus)]
        cases = (
            (_angle,
             np.concatenate([np.full(inside.size + 2, tp.p_minus), [tp.p_plus]]),
             np.concatenate([inside, [tp.p_plus, tp.p_minus, tp.p_plus]])),
            (_decay_exponent,
             np.concatenate([np.where(outside <= tp.p_minus, outside, tp.p_plus),
                             [tp.p_minus, tp.p_plus]]),
             np.concatenate([np.where(outside <= tp.p_minus, tp.p_minus, outside),
                             [tp.p_minus, tp.p_plus]])),
        )
        for integrand, lo, hi in cases:
            def f(x):
                return integrand(x, e, params)

            batched = _sin_substituted_integrals(f, lo, hi)
            reference = [one_interval_rule(f, a, b) for a, b in zip(lo, hi)]
            assert np.abs(batched - reference).max() <= 1e-14
            assert batched[-2:].tolist() == [0.0, 0.0]

    def test_one_row_is_action(self):
        params = make_params(0.8, 1.0, 10)
        for e in (-0.45, -0.2, 0.3, 0.55):
            tp = turning_points(e, params)

            def f(x):
                return _angle(x, e, params)

            assert _sin_substituted_integrals(
                f, np.array([tp.p_minus]), np.array([tp.p_plus])
            )[0] == pytest.approx(one_interval_rule(f, tp.p_minus, tp.p_plus),
                                  abs=1e-14)


class TestEllipticIntegral:
    def test_zero_parameter(self):
        assert abs(elliptic_k(0.0) - math.pi / 2) <= 1e-14

    def test_half_parameter(self):
        assert elliptic_k(0.5) == pytest.approx(
            elliptic_quadrature_oracle(0.5), abs=1e-13
        )
        assert elliptic_k(0.5) == pytest.approx(1.8540746773013719, abs=1e-13)

    def test_random_parameters_against_quadrature(self):
        rng = np.random.default_rng(2)
        for m in rng.uniform(0.0, 0.95, 25):
            assert elliptic_k(float(m)) == pytest.approx(
                elliptic_quadrature_oracle(float(m)), rel=1e-12
            )

    def test_high_precision_reference(self):
        # mpmath evaluates K in arbitrary precision (same parameter
        # convention), tight enough to resolve the 1e-14 budget
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = np.random.default_rng(9)
        for m in list(rng.uniform(0.0, 0.999, 20)) + [0.25, 0.5, 0.99]:
            reference = float(mpmath.ellipk(float(m)))
            assert elliptic_k(float(m)) == pytest.approx(reference, rel=1e-14)

    def test_divergence_marker(self):
        assert math.isinf(elliptic_k(1.0))
        assert math.isinf(elliptic_k(1.5))
        assert elliptic_k(1.0 - 1e-12) < 20.0  # large but finite just below

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            elliptic_k(-0.1)


class TestPeriod:
    def test_supercritical_tip_value(self):
        params = make_params(2.0, 1.0, 10)
        expected = math.sqrt(2) * math.pi / math.sqrt(2.0**2 / 2 - 1.0)
        assert abs(period(-1.0, params) - expected) <= 1e-9

    def test_separatrix_divergence(self):
        assert math.isinf(period(0.0, make_params(0.0, 1.0, 10)))
        assert math.isinf(period(-0.5, make_params(1.0, 1.0, 10)))

    def test_finite_limit_at_band_edges(self):
        params = make_params(1.0, 1.0, 10)
        emin, emax = energy_range(params)
        t_bottom = period(emin, params)
        assert math.isfinite(t_bottom)
        assert period(emin + 1e-9, params) == pytest.approx(t_bottom, rel=1e-3)
        assert math.isfinite(period(emax, params))

    def test_decoupled_rotation(self):
        assert period(0.1, make_params(2.0, 0.0, 10)) == pytest.approx(math.pi)

    def test_elliptic_formula_against_quadrature(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 60:
            v = rng.uniform(0.3, 2.0)
            eps = rng.uniform(-3.0, 3.0)
            params = make_params(eps, v, 10)
            emin, emax = energy_range(params)
            span = emax - emin
            e = rng.uniform(emin + 0.05 * span, emax - 0.05 * span)
            if abs(eps) < math.sqrt(2) * v and abs(e + eps / 2) < 0.02 * span:
                continue
            assert period(e, params) == pytest.approx(
                period_quadrature_oracle(e, params), rel=1e-8
            )
            count += 1


class TestDensityOfStates:
    def test_supercritical_tip(self):
        assert density_of_states(-1.0, make_params(2.0, 1.0, 10)) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-9
        )

    def test_separatrix_divergence(self):
        assert math.isinf(density_of_states(0.0, make_params(0.0, 1.0, 10)))

    def test_total_state_count(self):
        params = make_params(1.0, 1.0, 1000)
        emin, emax = energy_range(params)
        separatrix = -params.epsilon / 2
        x, w = _gauss_nodes(400)

        def segment(lo, hi):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            e_nodes = mid + half * x
            t_vals = np.array([period(float(e), params) for e in e_nodes])
            return half * float(np.dot(t_vals, w)) / TWO_PI

        margin = 1e-9 * (emax - emin)
        total = segment(emin + margin, separatrix - margin) + segment(
            separatrix + margin, emax - margin
        )
        total /= params.eta  # states per rescaled energy -> level count
        dim = 1000 // 2 + 1
        assert abs(total - dim) / dim <= 0.02


class TestQuantisation:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_decoupled_exact(self, n):
        spectrum = quantize(make_params(1.0, 0.0, n))
        expected = np.arange(n // 2 + 1) - n / 4
        assert np.abs(spectrum.energies_mp - expected).max() <= 1e-9

    def test_two_particle_symmetric(self):
        params = make_params(0.0, 1.0, 2)
        semi = quantize(params).energies_mp
        exact, _ = exact_spectrum(build_hamiltonian(params))
        assert semi[0] == pytest.approx(-semi[1], abs=1e-10)
        np.testing.assert_allclose(semi, exact, rtol=0.25)

    @pytest.mark.parametrize("eps", [-2.0, 0.0, 0.9, 1.414, 3.3])
    def test_level_structure(self, eps):
        params = make_params(eps, 1.0, 20)
        spectrum = quantize(params)
        assert len(spectrum.levels) == 11
        assert np.all(np.diff(spectrum.energies_mp) > 0)
        targets = TWO_PI * params.eta * (np.arange(11) + 0.5)
        assert np.abs(spectrum.actions - targets).max() <= 1e-9

    def test_matches_exact_spectrum_at_moderate_size(self):
        """Levels sit within a tenth of the mean spacing of the exact ones.

        The sweep includes eps = 1, where the separatrix-bounded well holds
        exactly one state and plain torus quantisation misses the budget;
        this checks that the uniform cone/separatrix condition holds every
        level, the one next to the tip included, to the same budget.
        """
        report = []
        for eps in (0.0, 1.0, 2.0, 4.0):
            params = make_params(eps, 1.0, 20)
            exact, _ = exact_spectrum(build_hamiltonian(params))
            semi = quantize(params).energies_mp
            mean_spacing = (exact[-1] - exact[0]) / (exact.size - 1)
            worst = np.abs(semi - exact).max() / mean_spacing
            report.append((eps, worst))
        message = "; ".join(f"eps={e}: worst {w:.4f}" for e, w in report)
        assert all(w <= 0.10 for _, w in report), message

    @pytest.mark.parametrize("eps", [-8.0, -math.sqrt(2), 0.0, 1e-8, 5.0])
    @pytest.mark.parametrize("v", [-2.5, 0.05, 1.0, 7.0])
    def test_robust_across_parameter_corners(self, eps, v):
        params = make_params(eps, v, 14)
        spectrum = quantize(params)
        exact, _ = exact_spectrum(build_hamiltonian(params))
        emin, emax = energy_range(params)
        span = emax - emin
        assert len(spectrum.levels) == 8
        assert np.all(np.diff(spectrum.energies_mp) > 0)
        assert params.eta * exact.min() >= emin - 1e-7 * max(1.0, span)
        assert params.eta * exact.max() <= emax + 1e-7 * max(1.0, span)
        dev = params.eta * np.abs(spectrum.energies_mp - exact).max()
        assert dev < 0.25 * span

    def test_error_shrinks_with_particle_number(self):
        errors = {}
        for n in (4, 20, 100):
            params = make_params(1.0, 1.0, n)
            exact, _ = exact_spectrum(build_hamiltonian(params))
            semi = quantize(params).energies_mp
            frac = np.arange(n // 2 + 1) / (n // 2)
            band = (frac >= 0.25) & (frac <= 0.75)
            errors[n] = params.eta * np.abs(semi - exact)[band].mean()
        assert errors[100] < errors[20] < errors[4]


class TestWKBStates:
    def test_normalised(self):
        params = make_params(0.5, 1.0, 40)
        state = wkb_state(5, params)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert np.all(state.amplitudes >= 0)
        assert np.all(np.isfinite(state.amplitudes))

    def test_overlap_with_exact_eigenvectors(self):
        params = make_params(0.5, 1.0, 40)
        _, vecs = exact_spectrum(build_hamiltonian(params), want_vectors=True)
        for n in range(3, 11):
            state = wkb_state(n, params)
            overlap = float(np.dot(state.amplitudes, np.abs(vecs[:, n])))
            assert overlap >= 0.9, f"level {n}: overlap {overlap}"

    def test_overlap_with_negative_detuning(self):
        # exercises the window with the lower-curve left turning point and
        # upper-curve right turning point, absent from positive detuning
        params = make_params(-0.5, 1.0, 40)
        _, vecs = exact_spectrum(build_hamiltonian(params), want_vectors=True)
        seen_mixed = False
        for n in range(5, 15):
            state = wkb_state(n, params)
            overlap = float(np.dot(state.amplitudes, np.abs(vecs[:, n])))
            assert overlap >= 0.95, f"level {n}: overlap {overlap}"
            seen_mixed |= (
                state.turning.branch_minus == "on_U_minus"
                and state.turning.branch_plus == "on_U_plus"
            )
        assert seen_mixed

    def test_overlap_on_half_integer_grid(self):
        # N/2 odd puts the lattice on half-integer m; the staggering
        # convention must survive the shift
        params = make_params(0.5, 1.0, 42)
        _, vecs = exact_spectrum(build_hamiltonian(params), want_vectors=True)
        for n in range(3, 18):
            state = wkb_state(n, params)
            overlap = float(np.dot(state.amplitudes, np.abs(vecs[:, n])))
            assert overlap >= 0.9, f"level {n}: overlap {overlap}"

    def test_forbidden_region_decays(self):
        params = make_params(0.5, 1.0, 40)
        state = wkb_state(5, params)
        p_grid = params.eta * state.m_values
        left = (p_grid < state.turning.p_minus - 2 * params.eta)
        right = (p_grid > state.turning.p_plus + 2 * params.eta)
        if left.sum() > 1:
            assert np.all(np.diff(state.amplitudes[left]) >= -1e-15)
        if right.sum() > 1:
            assert np.all(np.diff(state.amplitudes[right]) <= 1e-15)

    def test_guard_band_flags(self):
        params = make_params(0.5, 1.0, 40)
        state = wkb_state(6, params)
        p_grid = params.eta * state.m_values
        near = (np.abs(p_grid - state.turning.p_minus) < 2 * params.eta) | (
            np.abs(p_grid - state.turning.p_plus) < 2 * params.eta
        )
        assert np.array_equal(state.unreliable, near)
        assert near.any()

    @pytest.mark.parametrize("eps", [-1.6, -1.2, 1.2, 1.6])
    @pytest.mark.parametrize("n, levels", [(40, (0, 1, 10, 19, 20)),
                                           (200, (4, 50, 96))])
    def test_corners_against_pointwise_quadrature(self, n, levels, eps):
        """Both sides of eps = +-sqrt(2), levels in the bottom and top tenth
        of the sector: normalisation, flags, and the amplitudes of the
        unflagged rows against adaptive quadrature at every point."""
        params = make_params(eps, 1.0, n)
        p_grid = params.eta * basis_states(n).m_values
        for level in levels:
            state = wkb_state(level, params)
            tp = state.turning
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.isfinite(state.amplitudes))
            assert np.array_equal(state.allowed,
                                  (p_grid > tp.p_minus) & (p_grid < tp.p_plus))
            assert np.array_equal(
                state.unreliable,
                (np.abs(p_grid - tp.p_minus) < 2 * params.eta)
                | (np.abs(p_grid - tp.p_plus) < 2 * params.eta),
            )
            oracle = wkb_quad_oracle(state, params)
            kept = ~state.unreliable
            assert np.abs(state.amplitudes - oracle)[kept].max() <= 1e-10, level

    def test_level_index_validated(self):
        with pytest.raises(ValueError):
            wkb_state(21, make_params(0.5, 1.0, 40))


class TestArrayPasses:
    def test_energy_range_once_per_spectrum(self, monkeypatch, tmp_path):
        """quantize, wkb_state and the dos command take the classical range
        once, whatever the number of levels or grid points."""
        calls = []

        def counted(params):
            calls.append(params)
            return energy_range(params)

        monkeypatch.setattr(teardrop.semiclassics, "energy_range", counted)
        monkeypatch.setattr(teardrop.cli, "energy_range", counted)

        def count(run):
            calls.clear()
            run()
            return len(calls)

        for n in (20, 200):
            params = make_params(0.7123, 1.0, n)
            assert count(lambda: quantize(params)) == 1
            assert count(lambda: wkb_state(n // 4, params)) == 1
            for samples in (10, 400):
                argv = ["dos", "--n", str(n), "--epsilon", "0.7123", "--v", "1",
                        "--samples", str(samples), "--out", str(tmp_path / "d.csv")]
                assert count(lambda: teardrop.cli.main(argv)) == 1

    def test_wkb_state_memory_is_bounded(self):
        params = make_params(0.3, 1.0, 10000)
        tracemalloc.start()
        try:
            wkb_state(2500, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
