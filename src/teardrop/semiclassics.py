"""Bohr-Sommerfeld recovery of the many-particle spectrum from the
mean-field flow.

Because the Hamiltonian is tridiagonal in the m basis, its eigenvalue
equation is a three-term recurrence; a WKB ansatz in the continuous
variable p = eta*m turns it into classical motion under the potential
curves

    U+-(p) = eps p +- |v| r(p),

the max/min of H(p, q) over the angle.  An orbit of (rescaled) energy e
is confined between turning points p_-, p_+ which, together with a third
root p_0 <= -1/2, solve the cubic

    2 v^2 p^3 + (v^2 + eps^2) p^2 - (v^2/2 + 2 eps e) p - v^2/4 + e^2 = 0.

S(e), the phase-space area enclosed below the orbit (the area of
{H <= e}), rises monotonically from 0 at the lowest fixed-point energy to
2 pi at the highest.  Its derivative gives the density of states
dn/dE = T(e)/(2 pi) with the orbit period

    T(e) = 2 sqrt(2) / (|v| sqrt(p_+ - p_0)) * K((p_+ - p_-)/(p_+ - p_0)),

K being the complete elliptic integral of the first kind (parameter
convention).  T diverges on the separatrix through the saddle at the tip
(e = -eps/2, subcritical), where the spectrum accumulates.

The plain torus rule S(eta E_n) = 2 pi eta (n + 1/2) fails next to the
all-molecule tip, and its error there grows with N.  The reduced phase
space is a Z2 cone at the tip (the sector holds only the even-parity
states of the atomic mode), and the mean-field H misses an O(eta) term.
``quantize`` therefore works on the Weyl-reduced flow.  The Weyl symbol
of N = a+a + 2b+b is |alpha|^2 + 2|beta|^2 - 3/2, so with M = N + 3/2 the
reduced Weyl Hamiltonian

    h_W = eps p + v sqrt(M/N) r(p) cos q

has the mean-field form with coupling v_W = v sqrt(M/N), reduced hbar
eta_W = 2/M, and many-particle energy E = (M/2) e_W + eps/8.  Its levels
solve the uniform condition

    S_W(e_W) / eta_W = 2 pi n + F(a),   a = (-eps/2 - e_W) / (eta_W w_b),

with the barrier frequency w_b = sqrt(v_W^2/2 - eps^2/4) (a = +-inf when
the Weyl couplings are supercritical) and the even-parity barrier phase

    F(a) = 2 arctan(e^(pi a) + sqrt(1 + e^(2 pi a))) - phi(a),
    phi(a) = arg Gamma(1/2 + i a) - a ln|a| + a     (Connor 1968).

F runs from pi/2 (a -> -inf: the counted region holds the cone point,
Maslov 1/4) to pi (a -> +inf: ordinary Maslov 1/2).  The rule is exact
for v = 0, reproduces the squeezing levels next to an elliptic tip,

    E = -eps N/4 - eps/4 + Omega (2k + 1/2),   Omega = sqrt(eps^2/4 - v^2/2),

and is uniform across the separatrix.  ``action``, ``period`` and
``density_of_states`` remain the mean-field quantities.

All functions below work on the rescaled energy e = eta E; only the
quantised levels are also reported on the many-particle scale E = e/eta.
Spectra depend on v only through |v| (a staggering gauge flips its sign),
so the formulas use |v| throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import loggamma, roots_legendre

from .core import ModelParams, basis_states, teardrop_radius
from .meanfield import critical_epsilon, energy_range

ACTION_ABS_TOL = 1e-10
# rows x nodes evaluated at once by the batched quadrature: 128 kB per
# work array, whatever the number of intervals
QUADRATURE_BLOCK = 1 << 14
# Smallest |v|/|eps| (v = 0 aside) at which levels are solved.  The level
# solver's bracket sits 1e-13 of the span inside the band edges, where the
# turning-point pair next to a vertex splits by ~2e-6 |v|/|eps| in u = 1 + 2p;
# below a few ulp of u the edge actions come out wrong, and brackets failed
# from |v|/|eps| = 4.2e-10 down in a scan over eps at N = 20.
WEAK_COUPLING = 1e-8
# a nearly-double root is conditioned to ~sqrt(machine eps) in absolute
# position, so the escape diagnostic must sit well above that floor
ROOT_ESCAPE_TOL = 1e-6
ON_U_MINUS = "on_U_minus"
ON_U_PLUS = "on_U_plus"


@dataclass(frozen=True)
class PotentialCurves:
    """Envelope of the classical energy at fixed p, extremised over q."""

    params: ModelParams

    def u_plus(self, p):
        return self.params.epsilon * np.asarray(p, dtype=float) + abs(
            self.params.v
        ) * teardrop_radius(p)

    def u_minus(self, p):
        return self.params.epsilon * np.asarray(p, dtype=float) - abs(
            self.params.v
        ) * teardrop_radius(p)


def potential_curves(params: ModelParams):
    return PotentialCurves(params)


@dataclass(frozen=True)
class TurningPoints:
    """Roots of the turning-point cubic, sorted p_zero <= p_minus <= p_plus,
    with the potential branch each physical root lies on."""

    p_zero: float
    p_minus: float
    p_plus: float
    branch_minus: str
    branch_plus: str
    energy: float


def _validate_energy(e, erange, tol=1e-10):
    """e clamped into the classical range erange = (emin, emax), which the
    callers compute once per spectrum with ``energy_range``."""
    emin, emax = erange
    if e < emin - tol or e > emax + tol:
        raise ValueError(
            f"energy {e} outside the classical range [{emin}, {emax}]"
        )
    return min(max(e, emin), emax)


def _cubic_roots(e, params):
    """Three real roots u = 1 + 2p of the turning-point cubic, ascending.

    With de = e + eps/2 the cubic reads

        f(u) = (eps u - 2 de)^2 - v^2 (2 - u) u^2.

    Its coefficients carry de exactly, so the pair of roots next to the
    tip scales with de (u ~ 2 de / (eps -+ sqrt(2)|v|)) instead of being
    lost to rounding at the cusp.  The leftmost root u_0 <= 0 is bracketed
    by f(0) = 4 de^2 >= 0.  Vieta's relations then place the midpoint of
    the physical pair, where f < 0 unless the pair is double, and each
    pair root is bracketed against an end of [0, 2].  Every root is thus
    found by bracketing on f itself, whose first term resolves a pair that
    splits by only ~|v| (weak coupling).
    """
    eps, v2 = params.epsilon, params.v**2
    de = e + 0.5 * eps
    if de == 0.0:
        return sorted((0.0, 0.0, 2.0 - eps**2 / v2))

    def f(u):
        return (eps * u - 2.0 * de) ** 2 - v2 * (2.0 - u) * u * u

    def root(lo, hi):
        return brentq(f, lo, hi, xtol=1e-300, maxiter=400)

    # monic coefficients u^3 + b u^2 + c u + d; every root lies within
    # Cauchy's bound, and at twice the bound the cubic term dominates, so
    # f < 0 there survives the cancellation inside f
    b = (eps**2 - 2.0 * v2) / v2
    c = -4.0 * eps * de / v2
    d = 4.0 * de**2 / v2
    u0 = root(-2.0 * (1.0 + max(abs(b), abs(c), abs(d))), 0.0)
    # pair product and half-sum; b >= u0 exactly when the pair sum is at
    # most 2|u0|, and each branch then subtracts terms of which the result
    # keeps at least half
    prod = -d / u0
    half = 0.5 * ((c - prod) / u0 if b >= u0 else -b - u0)
    if half * half - prod < -1e-8 * half * half:
        raise RuntimeError(
            "turning-point cubic developed complex roots; the allowed-energy "
            f"assumption is violated (e={e}, eps={eps}, v={params.v})"
        )
    if f(half) < 0.0:
        pair = (root(0.0, half), root(half, 2.0))
    else:
        pair = (half, half)  # double root
    return [u0, *pair]


def turning_points(e, params: ModelParams):
    return _turning_points(e, params, energy_range(params))


def _turning_points(e, params, erange):
    if params.v == 0.0:
        raise ValueError("turning-point cubic degenerates at v = 0")
    e = _validate_energy(e, erange)
    emin, emax = erange
    roots = _cubic_roots(e, params)
    p0, pm, pp = (0.5 * (u - 1.0) for u in roots)

    if p0 > -0.5 + ROOT_ESCAPE_TOL:
        raise RuntimeError(
            f"leftmost cubic root {p0} enters the physical interval (e={e})"
        )
    if pm < -0.5 - ROOT_ESCAPE_TOL or pp > 0.5 + ROOT_ESCAPE_TOL:
        raise RuntimeError(
            f"turning points ({pm}, {pp}) escape [-1/2, 1/2] (e={e})"
        )
    pm = min(max(pm, -0.5), 0.5)
    pp = min(max(pp, -0.5), 0.5)

    def branch(u):
        # Compares 2(e - eps p) with +-2|v| r(p) in u, where a pair that
        # splits below the resolution of p near the tip stays apart.
        # At a vertex both curves meet the energy and the tag is ambiguous.
        # Where only one turning point sits there the case-table rows agree,
        # so any tag works; when the orbit degenerates onto the tip the tag
        # must reflect whether that orbit encloses nothing (tip is the
        # energy minimum) or the whole surface (tip is the maximum).
        u = min(max(u, 0.0), 2.0)
        gap = 2.0 * e + params.epsilon - params.epsilon * u
        reach = abs(params.v) * u * math.sqrt(2.0 - u)
        du = abs(gap - reach)
        dl = abs(gap + reach)
        if du + dl == 0.0 or abs(du - dl) <= 1e-6 * (du + dl):
            return ON_U_MINUS if e - emin <= emax - e else ON_U_PLUS
        return ON_U_PLUS if du < dl else ON_U_MINUS

    return TurningPoints(
        p_zero=p0,
        p_minus=pm,
        p_plus=pp,
        branch_minus=branch(roots[1]),
        branch_plus=branch(roots[2]),
        energy=e,
    )


@lru_cache(maxsize=32)
def _gauss_nodes(n):
    return roots_legendre(n)


def _radius(p):
    """r(p) on p already clipped to [-1/2, 1/2]: the expression of
    ``teardrop_radius`` without its range check, which the quadrature
    integrands below would otherwise repeat at every node."""
    return np.sqrt(np.maximum(0.25 * (1.0 - 2.0 * p) * (1.0 + 2.0 * p) ** 2, 0.0))


def _angle(p, e, params):
    """Lattice wavenumber q(p) = arccos((e - eps p)/(|v| r(p))) on [0, pi]."""
    p = np.asarray(p, dtype=float)
    r = _radius(np.clip(p, -0.5, 0.5))
    num = e - params.epsilon * p
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r > 0.0, num / (abs(params.v) * np.where(r > 0, r, 1.0)),
                         np.sign(num) * 2.0)
    return np.arccos(np.clip(ratio, -1.0, 1.0))


def _sin_substituted_integrals(f, lo, hi, abs_tol=ACTION_ABS_TOL, start=64,
                               max_nodes=4096):
    """Integrals of f over the intervals [lo_i, hi_i] (arrays, hi_i >= lo_i),
    each after the substitution p = mid + half*sin(theta).

    The substitution absorbs the square-root behaviour that f inherits at
    turning-point endpoints, so Gauss-Legendre converges rapidly.  Every
    row starts at ``start`` nodes and doubles them until its value changes
    by less than abs_tol, keeping the last value once max_nodes is passed;
    converged rows retire.  f acts elementwise on an array of p and is
    evaluated on at most QUADRATURE_BLOCK rows x nodes at a time.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    out = np.empty(mid.shape)
    rows = np.arange(mid.size)
    prev = np.full(mid.size, np.inf)
    n = start
    while rows.size:
        x, w = _gauss_nodes(n)
        theta = 0.5 * math.pi * x
        sin_theta = np.sin(theta)
        weights = w * (0.5 * math.pi) * np.cos(theta)
        step = max(1, QUADRATURE_BLOCK // n)
        val = np.empty(rows.size)
        for i in range(0, rows.size, step):
            block = slice(i, i + step)
            p = mid[block, None] + half[block, None] * sin_theta
            val[block] = (f(p) @ weights) * half[block]
        n *= 2
        done = np.abs(val - prev) < abs_tol
        if n > max_nodes:
            done[:] = True
        if done.any():
            out[rows[done]] = val[done]
            keep = ~done
            rows, mid, half, val = rows[keep], mid[keep], half[keep], val[keep]
        prev = val
    return out


def _enclosed_area(tp: TurningPoints, s_tilde):
    """Area of {H <= e} from the partial integral s_tilde = int q dp.

    The strip terms depend on which branch each turning point lies on:
    outside the oscillatory window a p-strip contributes either 2 pi (the
    energy clears the whole circle) or nothing.
    """
    two_pi = 2.0 * math.pi
    if tp.branch_minus == ON_U_MINUS and tp.branch_plus == ON_U_MINUS:
        return two_pi * (tp.p_plus - tp.p_minus) - 2.0 * s_tilde
    if tp.branch_minus == ON_U_MINUS and tp.branch_plus == ON_U_PLUS:
        return two_pi * (0.5 - tp.p_minus) - 2.0 * s_tilde
    if tp.branch_minus == ON_U_PLUS and tp.branch_plus == ON_U_MINUS:
        return two_pi * (0.5 + tp.p_plus) - 2.0 * s_tilde
    return two_pi - 2.0 * s_tilde


def action(e, params: ModelParams):
    """Enclosed phase-space area S(e); monotone from 0 to 2 pi."""
    return _action(e, params, energy_range(params))


def _action(e, params, erange):
    e = _validate_energy(e, erange)
    if params.v == 0.0:
        # horizontal orbits p = e/eps: the area below is exact
        s = 2.0 * math.pi * (0.5 + e / abs(params.epsilon))
        return min(max(s, 0.0), 2.0 * math.pi)
    tp = _turning_points(e, params, erange)
    s_tilde = float(_sin_substituted_integrals(
        lambda p: _angle(p, e, params), np.array([tp.p_minus]), np.array([tp.p_plus])
    )[0])
    s = _enclosed_area(tp, s_tilde)
    return min(max(s, 0.0), 2.0 * math.pi)


def orbit(e, params: ModelParams, samples):
    """Orbit at energy e as ``samples`` points (p, q) from p_- to p_+.

    q = arccos((e - eps p)/(|v| r(p))) on [0, pi] traces one half of the
    orbit; the other half is q -> 2 pi - q.
    """
    tp = turning_points(e, params)
    p = np.linspace(tp.p_minus, tp.p_plus, samples)
    return p, _angle(p, e, params)


@dataclass(frozen=True)
class SemiclassicalLevel:
    n: int
    energy_mp: float
    energy_mf: float
    action: float


@dataclass(eq=False)
class SemiclassicalSpectrum:
    params: ModelParams
    levels: list

    @property
    def energies_mp(self):
        return np.array([lv.energy_mp for lv in self.levels])

    @property
    def energies_mf(self):
        return np.array([lv.energy_mf for lv in self.levels])

    @property
    def actions(self):
        return np.array([lv.action for lv in self.levels])


def _connor_phase(a):
    """Connor's barrier-top phase arg Gamma(1/2 + ia) - a ln|a| + a."""
    if a == 0.0:
        return 0.0
    if abs(a) > 100.0:
        # Stirling tail; the direct difference loses ~|a ln a| ulp
        return 1.0 / (24.0 * a) + 7.0 / (2880.0 * a * a * a)
    return float(loggamma(0.5 + 1j * a).imag) - a * math.log(abs(a)) + a


def _cone_phase(a):
    """Maslov phase F(a) of the even-parity barrier at the tip,

        F(a) = 2 arctan(e^(pi a) + sqrt(1 + e^(2 pi a))) - phi(a)
             = pi/2 + arctan(e^(pi a)) - phi(a),

    rising from pi/2 (a -> -inf: the counted region holds the cone point,
    Maslov 1/4) to pi (a -> +inf: an ordinary orbit, Maslov 1/2).
    """
    if math.isinf(a):
        return math.pi if a > 0.0 else 0.5 * math.pi
    if a > 0.0:
        lift = math.pi - math.atan(math.exp(-math.pi * a))
    else:
        lift = 0.5 * math.pi + math.atan(math.exp(math.pi * a))
    return lift - _connor_phase(a)


def _check_level_coupling(params):
    if params.v != 0.0 and abs(params.v) < WEAK_COUPLING * abs(params.epsilon):
        raise ValueError(
            f"coupling v = {params.v} is too weak against eps = "
            f"{params.epsilon} to solve semiclassical levels: need "
            f"|v| >= {WEAK_COUPLING} |eps|, or v = 0"
        )


def _solve_level(phase, target, erange):
    """Energy at which the increasing function phase(e) reaches target,
    by Brent's method on the classical energy range erange."""
    emin, emax = erange
    span = emax - emin
    return brentq(
        lambda e: phase(e) - target,
        emin + 1e-13 * span,
        emax - 1e-13 * span,
        xtol=1e-13 * max(1.0, span),
    )


@lru_cache(maxsize=16)
def _quantize_cached(params: ModelParams):
    _check_level_coupling(params)
    eps = params.epsilon
    m_weyl = params.n_particles + 1.5
    weyl = replace(params, v=params.v * math.sqrt(m_weyl / params.n_particles))
    eta_w = 2.0 / m_weyl
    omega_sq = 0.5 * weyl.v**2 - 0.25 * eps**2
    barrier = eta_w * math.sqrt(omega_sq) if omega_sq > 0.0 else 0.0
    erange = energy_range(weyl)

    def phase(e):
        """S_W(e)/eta_W + pi - F(a(e)); equals 2 pi (n + 1/2) at level n."""
        gap = -0.5 * eps - e
        a = gap / barrier if barrier > 0.0 else math.copysign(math.inf, gap)
        return _action(e, weyl, erange) / eta_w + math.pi - _cone_phase(a)

    levels = []
    for n in range(params.n_particles // 2 + 1):
        e_w = _solve_level(phase, 2.0 * math.pi * (n + 0.5), erange)
        energy_mp = 0.5 * m_weyl * e_w + 0.125 * eps
        levels.append(
            SemiclassicalLevel(
                n=n,
                energy_mp=energy_mp,
                energy_mf=params.eta * energy_mp,
                action=params.eta * phase(e_w),
            )
        )
    return SemiclassicalSpectrum(params=params, levels=levels)


def quantize(params: ModelParams):
    """Semiclassical levels n = 0 .. N/2 from the uniform condition on the
    Weyl-reduced flow (see the module docstring), each solved with Brent's
    method on the full energy range."""
    return _quantize_cached(params)


def elliptic_k(m):
    """Complete elliptic integral of the first kind, parameter convention,
    by the arithmetic-geometric mean.  Returns inf for m >= 1."""
    if m < 0.0:
        raise ValueError(f"elliptic parameter must be >= 0, got {m}")
    if m >= 1.0:
        return math.inf
    a, b = 1.0, math.sqrt(1.0 - m)
    # quadratic convergence: a handful of iterations reach the 1-2 ulp
    # floor; the cap guards against ulp ping-pong at that floor
    for _ in range(60):
        if abs(a - b) <= 4.0 * np.finfo(float).eps * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def period(e, params: ModelParams):
    """Orbit period T(e); math.inf on the subcritical separatrix."""
    return _period(e, params, energy_range(params) if params.v != 0.0 else None)


def _period(e, params, erange):
    """period(e, params) on the classical energy range erange (unused at
    v = 0, where every orbit is a rotation of period 2 pi/|eps|)."""
    if params.v == 0.0:
        if params.epsilon == 0.0:
            raise ValueError("period undefined for eps = v = 0")
        return 2.0 * math.pi / abs(params.epsilon)
    e = _validate_energy(e, erange)
    emin, emax = erange
    span = max(1.0, emax - emin)
    subcritical = abs(params.epsilon) < critical_epsilon(params) - 1e-12
    if subcritical and abs(e + 0.5 * params.epsilon) <= 1e-12 * span:
        return math.inf
    tp = _turning_points(e, params, erange)
    denom = tp.p_plus - tp.p_zero
    if denom < 1e-14:
        return math.inf
    m_par = (tp.p_plus - tp.p_minus) / denom
    k = elliptic_k(min(m_par, 1.0))
    if math.isinf(k):
        return math.inf
    return 2.0 * math.sqrt(2.0) / (abs(params.v) * math.sqrt(denom)) * k


def density_of_states(e, params: ModelParams):
    """Many-particle states per unit many-particle energy at e = eta E."""
    t = period(e, params)
    return math.inf if math.isinf(t) else t / (2.0 * math.pi)


def period_curve(params: ModelParams, samples):
    """Orbit periods on ``samples`` energies spread evenly over the
    classical range, 1e-9 of its span in from either end.

    Returns the energies and the periods; T/(2 pi) is the density of
    states, infinite on the separatrix like T.
    """
    erange = energy_range(params)
    emin, emax = erange
    margin = 1e-9 * (emax - emin)
    energies = np.linspace(emin + margin, emax - margin, samples)
    return energies, np.array([_period(float(e), params, erange) for e in energies])


@dataclass(eq=False)
class WKBState:
    """Discrete semiclassical eigenvector envelope on the m grid."""

    level: int
    m_values: np.ndarray
    amplitudes: np.ndarray
    allowed: np.ndarray
    unreliable: np.ndarray
    energy_mf: float
    turning: TurningPoints


def _wkb_phase(p, tp: TurningPoints, s_tilde_p):
    """Position-dependent phase S(p) of the oscillatory WKB solution.

    The strip terms track which curve the turning points lie on; at the
    lattice points p = eta*m the offsets differ from the plain integral by
    multiples of pi after division by eta, so each case yields the correct
    discrete node structure.  A lower-curve turning point carries the
    staggered (wavenumber pi) connection, so both lower-lower and
    lower-upper windows accumulate phase from the left lower point; the
    upper-upper window reduces to the plain integral.  (Quantisation makes
    the two-sided matching consistent; validated against exact
    eigenvectors in all four cases.)
    """
    if tp.branch_minus == ON_U_MINUS:
        return math.pi * (p - tp.p_minus) - s_tilde_p
    if tp.branch_plus == ON_U_MINUS:
        return math.pi * (0.5 + p) - s_tilde_p
    return -math.pi + s_tilde_p


def _decay_exponent(p, e, params):
    p = np.asarray(p, dtype=float)
    r = _radius(np.clip(p, -0.5, 0.5))
    num = np.abs(e - params.epsilon * p)
    with np.errstate(divide="ignore"):
        ratio = np.where(r > 0.0, num / (abs(params.v) * np.where(r > 0, r, 1.0)),
                         np.inf)
    return np.arccosh(np.maximum(ratio, 1.0))


def wkb_state(n, params: ModelParams):
    """Semiclassical approximation of the n-th eigenvector.

    Inside the allowed window |psi|^2 = 2 |w_cl| cos^2(S(p)/eta - pi/4)
    with the classical residence density w_cl; outside, the single
    decaying solution |psi|^2 = |w_cl| exp(-2 Im S / eta) / 2.  Grid
    points within 2 eta of a turning point are computed but flagged:
    there the harmonic ansatz breaks down (no Airy uniformisation is
    attempted).  The discrete amplitudes are L2-normalised.

    The phase integrals int_{p_-}^{p} q dp of all allowed lattice points
    go through the batched sine-substituted Gauss-Legendre rule of
    ``action`` in one call, one row per point, and so do the decay
    integrals from each forbidden point to its nearer turning point; each
    row refines its own node count, so the cost is a few array passes
    over the lattice rather than one adaptive integral per point.

    The envelope is built at the energy of the plain torus condition
    S(e) = 2 pi eta (n + 1/2) on the mean-field flow, which its phase
    assumes; ``energy_mf`` reports that energy, not the uniform Weyl level
    of ``quantize``.
    """
    basis = basis_states(params.n_particles)
    if not 0 <= n < basis.dimension:
        raise ValueError(f"level index {n} outside 0..{basis.dimension - 1}")
    _check_level_coupling(params)
    eta = params.eta
    erange = energy_range(params)
    e = _solve_level(
        lambda x: _action(x, params, erange) / eta, 2.0 * math.pi * (n + 0.5),
        erange,
    )
    tp = _turning_points(e, params, erange)
    t_period = _period(e, params, erange)
    if math.isinf(t_period):
        t_period = 1.0  # constant prefactor; removed by normalisation

    p_grid = eta * basis.m_values
    allowed = (p_grid > tp.p_minus) & (p_grid < tp.p_plus)
    unreliable = (np.abs(p_grid - tp.p_minus) < 2.0 * eta) | (
        np.abs(p_grid - tp.p_plus) < 2.0 * eta
    )

    radicand = abs(params.v) ** 2 * _radius(np.clip(p_grid, -0.5, 0.5)) ** 2 - (
        e - params.epsilon * p_grid
    ) ** 2
    w_cl = 1.0 / (2.0 * t_period * np.sqrt(np.maximum(
        np.where(allowed, radicand, -radicand), 1e-300)))
    amp_sq = np.empty(basis.dimension)

    p_in = p_grid[allowed]
    s_tilde = _sin_substituted_integrals(
        lambda p: _angle(p, e, params), np.full(p_in.size, tp.p_minus), p_in
    )
    phase = _wkb_phase(p_in, tp, s_tilde)
    amp_sq[allowed] = 2.0 * w_cl[allowed] * np.cos(phase / eta - 0.25 * math.pi) ** 2

    p_out = p_grid[~allowed]
    left = p_out <= tp.p_minus
    decay = _sin_substituted_integrals(
        lambda p: _decay_exponent(p, e, params),
        np.where(left, p_out, tp.p_plus),
        np.where(left, tp.p_minus, p_out),
    )
    amp_sq[~allowed] = (
        0.5 * w_cl[~allowed] * np.exp(-2.0 * np.maximum(decay, 0.0) / eta)
    )

    amplitudes = np.sqrt(amp_sq)
    amplitudes /= np.linalg.norm(amplitudes)
    return WKBState(
        level=n,
        m_values=basis.m_values,
        amplitudes=amplitudes,
        allowed=allowed,
        unreliable=unreliable,
        energy_mf=e,
        turning=tp,
    )
