"""Classical limit: flow on the teardrop surface.

Replacing operator products by products of expectation values in the
Heisenberg equations and writing s_j = eta <K_j> gives

    ds_x/dt = -eps s_y
    ds_y/dt =  eps s_x + (v/4)(1 - 4 s_z - 12 s_z^2)
    ds_z/dt =  v s_y,

which conserves both H = eps s_z + v s_x and the surface constraint
s_x^2 + s_y^2 = r^2(s_z) exactly.  Away from the two vertices the chart
(p, q) with s_x = r(p) cos q, s_y = r(p) sin q, s_z = p is canonical,
H(p, q) = eps p + v r(p) cos q.

Fixed points sit at s_y = 0; their s_z values solve

    (1/2 + s_z)^2 [ v^2/4 - eps^2 - (3v^2 - 2 eps^2) s_z + 9 v^2 s_z^2 ] = 0.

The tip s_z = -1/2 is always stationary: a saddle for |eps| < sqrt(2)|v|
and elliptic above, with a transcritical exchange of stability at the
critical coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DoubleRangeError, ModelParams, teardrop_radius, teardrop_radius_sq

SURFACE_TOL = 1e-10
CRITICAL_CLASSIFICATION_TOL = 1e-9


def critical_epsilon(params: ModelParams):
    """|eps_crit| = sqrt(2) |v|, the transcritical bifurcation point."""
    return math.sqrt(2.0) * abs(params.v)


@dataclass(frozen=True)
class BlochPoint:
    """Mean-field state (s_x, s_y, s_z); build through ``bloch_point`` to
    enforce the surface constraint."""

    sx: float
    sy: float
    sz: float

    def surface_residual(self):
        return self.sx**2 + self.sy**2 - teardrop_radius_sq(self.sz)

    def as_array(self):
        return np.array([self.sx, self.sy, self.sz])


def bloch_point(sx, sy, sz, tol=SURFACE_TOL):
    """Validated constructor: the point must lie on the teardrop."""
    if not -0.5 - 1e-12 <= sz <= 0.5 + 1e-12:
        raise ValueError(f"s_z = {sz} outside [-1/2, 1/2]")
    p = BlochPoint(float(sx), float(sy), float(min(max(sz, -0.5), 0.5)))
    res = p.surface_residual()
    if abs(res) > tol:
        raise ValueError(f"point off the constraint surface (residual {res:.3e})")
    return p


@dataclass(frozen=True)
class CanonicalPoint:
    """Conjugate pair (p, q) with q wrapped to [0, 2 pi)."""

    p: float
    q: float


def to_canonical(s: BlochPoint):
    r = teardrop_radius(s.sz)
    if r <= 1e-12:
        raise ValueError("angle undefined at r=0 (vertex of the teardrop)")
    q = math.atan2(s.sy, s.sx) % (2.0 * math.pi)
    return CanonicalPoint(p=s.sz, q=q)


def from_canonical(c: CanonicalPoint):
    r = teardrop_radius(c.p)
    return BlochPoint(r * math.cos(c.q), r * math.sin(c.q), c.p)


def mf_rhs(s: BlochPoint, params: ModelParams):
    """Tangent vector of the mean-field flow at s."""
    eps, v = params.epsilon, params.v
    return (
        -eps * s.sy,
        eps * s.sx + 0.25 * v * (1.0 - 4.0 * s.sz - 12.0 * s.sz**2),
        v * s.sy,
    )


def mf_energy(point, params: ModelParams):
    """H evaluated in either chart; identical values for matching points.
    The fields of a BlochPoint may be arrays, such as a whole trajectory."""
    eps, v = params.epsilon, params.v
    if isinstance(point, CanonicalPoint):
        return eps * point.p + v * teardrop_radius(point.p) * math.cos(point.q)
    return eps * point.sz + v * point.sx


@dataclass(frozen=True)
class FixedPoint:
    location: BlochPoint
    s_z_root: float
    stability: str  # "elliptic" | "saddle" | "degenerate"
    energy: float


def _tip_stability(params):
    gap = abs(params.epsilon) - critical_epsilon(params)
    if abs(gap) <= CRITICAL_CLASSIFICATION_TOL:
        return "degenerate"
    return "saddle" if gap < 0.0 else "elliptic"


def _radius_second_deriv(p):
    # r = sqrt(g)/2 with g = (1-2p)(1+2p)^2
    g = (1.0 - 2.0 * p) * (1.0 + 2.0 * p) ** 2
    gp = (1.0 + 2.0 * p) * (2.0 - 12.0 * p)
    gpp = -8.0 - 48.0 * p
    return gpp / (4.0 * math.sqrt(g)) - gp**2 / (8.0 * g**1.5)


def _offtip_stability(p):
    # Hessian of H(p,q) at a critical point with q in {0, pi} is diagonal:
    # H_pp = v r'' cos q, H_qq = -v r cos q, so the point is elliptic
    # exactly when r''(p) < 0.
    rpp = _radius_second_deriv(p)
    if abs(rpp) <= CRITICAL_CLASSIFICATION_TOL:
        return "degenerate"
    return "elliptic" if rpp < 0.0 else "saddle"


def _quadratic_range_error(params):
    return DoubleRangeError(params, "a term of the fixed-point quadratic")


def fixed_points(params: ModelParams):
    """All stationary points of the flow, with stability tags.

    Subcritical couplings give three fixed points (saddle at the tip, two
    elliptic); at |eps| = sqrt(2)|v| one elliptic point collides with the
    tip and leaves the physical range, so supercritical couplings retain
    two elliptic points.
    """
    eps, v = params.epsilon, params.v
    if eps == 0.0 and v == 0.0:
        raise ValueError("fixed points undefined for eps = v = 0")

    points = [
        FixedPoint(
            location=BlochPoint(0.0, 0.0, -0.5),
            s_z_root=-0.5,
            stability=_tip_stability(params),
            energy=-0.5 * eps,
        )
    ]

    # quadratic factor 9 v^2 s^2 - (3 v^2 - 2 eps^2) s + v^2/4 - eps^2
    if v != 0.0:
        # products, not **: C pow may round x**2 off by an ulp, which breaks
        # the exact scaling of every term with a power of two of eps and v
        v_sq, eps_sq = v * v, eps * eps
        a = 9.0 * v_sq
        b = -(3.0 * v_sq - 2.0 * eps_sq)
        c = 0.25 * v_sq - eps_sq
        # b^2 - 4ac collapses to 4 eps^2 (eps^2 + 6 v^2): exact, never
        # negative, and immune to the cancellation that the textbook form
        # suffers near the eps = 0 double root
        sq = 2.0 * abs(eps) * math.sqrt(eps_sq + 6.0 * v_sq)
        sign_b = math.copysign(1.0, b)
        qq = -0.5 * (b + sign_b * sq)
        # 9 v^2 underflows to 0, or a term overflows to inf
        if a == 0.0 or not all(map(math.isfinite, (a, b, c, sq, qq))):
            raise _quadratic_range_error(params)
        if b == 0.0:
            roots = [(-sq / (2.0 * a), -1.0), (sq / (2.0 * a), 1.0)]
        else:
            roots = sorted([(qq / a, -sign_b), (c / qq, sign_b)])
        # the roots coincide only as eps -> 0, where both signs of s_x are
        # stationary; below the resolvable separation treat them as one
        double_root = sq / a < 1e-13
        if double_root:
            roots = roots[:1]
    else:
        # v = 0 degenerates the factor to 2 eps^2 s - eps^2: the atomic vertex
        roots = [(0.5, 1.0)]
        double_root = False

    for s_z, above_mid in roots:
        if not -0.5 + 1e-12 < s_z <= 0.5 + 1e-12:
            continue  # collided with the tip or unphysical
        s_z = min(s_z, 0.5)
        r = teardrop_radius(s_z)
        if eps != 0.0 and v != 0.0 and not double_root:
            # s_x = -(v/4 eps)(1+2s)(1-6s) with (1-6s) taken from the
            # root's closed-form offset; the direct difference cancels
            # catastrophically when the roots crowd the eps = 0 point
            sqrt_term = math.sqrt(eps_sq + 6.0 * v_sq)
            if above_mid > 0.0:
                offset = -6.0 * v_sq / (abs(eps) + sqrt_term)
            else:
                offset = abs(eps) + sqrt_term
            if not math.isfinite(offset):
                raise _quadratic_range_error(params)
            sx_vals = [
                -(1.0 + 2.0 * s_z) * math.copysign(1.0, eps) / (6.0 * v) * offset
            ]
        else:
            sx_vals = [r, -r] if r > 0.0 else [0.0]
        for sx in sx_vals:
            if r <= 1e-12:
                stability = "elliptic"  # vertex rotation centre (v = 0)
            else:
                stability = _offtip_stability(s_z)
            points.append(
                FixedPoint(
                    location=BlochPoint(float(sx), 0.0, float(s_z)),
                    s_z_root=float(s_z),
                    stability=stability,
                    energy=eps * s_z + v * sx,
                )
            )
    return points


def energy_range(params: ModelParams):
    """[min, max] of the fixed-point energies; bounds the rescaled spectrum."""
    energies = [fp.energy for fp in fixed_points(params)]
    return min(energies), max(energies)


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    energy_drift: float
    surface_drift: float


def integrate_trajectory(
    s0: BlochPoint, t_max, params: ModelParams, tol=1e-10, samples=1000
):
    """Adaptive integration of the flow; drift in H and in the constraint
    is recorded rather than projected away, as an error meter."""
    if abs(s0.surface_residual()) > SURFACE_TOL:
        raise ValueError("initial point is off the constraint surface")

    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, t_max, samples)
    sol = solve_ivp(
        lambda _, y: mf_rhs(BlochPoint(*y), params),
        (0.0, t_max),
        [s0.sx, s0.sy, s0.sz],
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=t_eval,
    )
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")

    sx, sy, sz = sol.y
    energy = mf_energy(BlochPoint(sx, sy, sz), params)
    surface = sx**2 + sy**2 - teardrop_radius_sq(np.clip(sz, -0.5, 0.5))
    return Trajectory(
        times=sol.t,
        sx=sx,
        sy=sy,
        sz=sz,
        energy_drift=float(np.max(np.abs(energy - energy[0]))),
        surface_drift=float(np.max(np.abs(surface))),
    )
