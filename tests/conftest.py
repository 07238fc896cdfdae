"""Shared test oracles.

The generator oracle builds a+ a+ b on the full two-mode Fock space from
bare single-mode ladder matrices and projects onto the N-particle sector;
it shares no code with the package's ladder construction.

The mean-field oracles write the flow of ``teardrop.meanfield.mf_rhs`` in
other coordinates, so that integrating them checks the package's
integrator.  ``canonical_rhs`` is Hamilton's equations in the (p, q)
chart.  Two nonlinear-Schroedinger forms of the same flow are provided.
The psi form uses per-particle amplitudes (|psi_a|^2 + 2|psi_b|^2 = 2);
the chi form replaces the atomic amplitude by a pair amplitude,
normalised as |chi_a| + 2|chi_b|^2 = 2.  The chi evolution matrix is not
symmetric (the couplings sqrt(2) v |chi_a| and v/(2 sqrt 2) differ)
because chi_a stands for an atom *pair*; the induced Bloch flow is
nevertheless exactly the surface flow, which is the invariant content
and is what the tests pin down.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from teardrop.core import ModelParams, teardrop_radius, teardrop_radius_sq_deriv
from teardrop.meanfield import (
    SURFACE_TOL,
    BlochPoint,
    CanonicalPoint,
    bloch_point,
    to_canonical,
)


def annihilation(dim):
    mat = np.zeros((dim, dim))
    for k in range(1, dim):
        mat[k - 1, k] = np.sqrt(k)
    return mat


def fock_sector_generators(n_particles):
    """Sector generator matrices from the full two-mode Fock space."""
    n = n_particles
    na_dim, nb_dim = n + 1, n // 2 + 1
    a = np.kron(annihilation(na_dim), np.eye(nb_dim))
    b = np.kron(np.eye(na_dim), annihilation(nb_dim))

    kplus_full = a.T @ a.T @ b / np.sqrt(n)
    kz_full = (a.T @ a - 2.0 * b.T @ b) / 4.0

    # sector basis ordered by ascending atom number (= ascending m)
    sector = [
        ia * nb_dim + ib
        for ia in range(na_dim)
        for ib in range(nb_dim)
        if ia + 2 * ib == n
    ]
    proj = np.zeros((na_dim * nb_dim, len(sector)))
    for col, idx in enumerate(sector):
        proj[idx, col] = 1.0

    kplus = proj.T @ kplus_full @ proj
    kminus = kplus.T
    return {
        "Kplus": kplus,
        "Kminus": kminus,
        "Kx": 0.5 * (kplus + kminus),
        "Ky": (kplus - kminus) / 2j,
        "Kz": proj.T @ kz_full @ proj,
    }


def canonical_rhs(c: CanonicalPoint, params: ModelParams):
    """(dp/dt, dq/dt) = (-dH/dq, dH/dp); singular at the vertices where
    r = 0."""
    eps, v = params.epsilon, params.v
    r = teardrop_radius(c.p)
    if r <= 1e-12:
        raise ValueError("canonical flow undefined at r=0")
    drdp = teardrop_radius_sq_deriv(c.p) / (2.0 * r)
    return v * r * math.sin(c.q), eps + v * drdp * math.cos(c.q)


@dataclass(frozen=True, eq=False)
class MeanFieldWavefunction:
    """Two-component mean-field amplitude, psi or chi convention."""

    variant: str  # "psi" | "chi"
    components: np.ndarray

    def norm_residual(self):
        a, b = self.components
        if self.variant == "psi":
            return abs(a) ** 2 + 2.0 * abs(b) ** 2 - 2.0
        return abs(a) + 2.0 * abs(b) ** 2 - 2.0


def wavefunction(variant, a, b, tol=1e-10):
    if variant not in ("psi", "chi"):
        raise ValueError(f"unknown variant {variant!r}")
    w = MeanFieldWavefunction(variant, np.array([a, b], dtype=complex))
    res = w.norm_residual()
    if abs(res) > tol:
        raise ValueError(f"{variant} normalisation violated (residual {res:.3e})")
    return w


def nls_rhs(w: MeanFieldWavefunction, params: ModelParams):
    """Time derivative (da/dt, db/dt) of either nonlinear-Schroedinger form."""
    eps, v = params.epsilon, params.v
    a, b = w.components
    if w.variant == "psi":
        da = -1j * (0.25 * eps * a + (v / math.sqrt(2.0)) * np.conj(a) * b)
        db = -1j * ((v / (2.0 * math.sqrt(2.0))) * a * a - 0.5 * eps * b)
    elif w.variant == "chi":
        da = -1j * (0.5 * eps * a + math.sqrt(2.0) * v * abs(a) * b)
        db = -1j * ((v / (2.0 * math.sqrt(2.0))) * a - 0.5 * eps * b)
    else:
        raise ValueError(f"unknown variant {w.variant!r}")
    return da, db


def bloch_projection(w: MeanFieldWavefunction):
    """Map a mean-field wave function to its Bloch point.

    An exactly normalised wave function lands on the surface identically;
    norm drift of the input (e.g. accumulated by an integrator) shows up
    as a proportional surface residual, so the validation tolerance is
    widened accordingly.
    """
    a, b = w.components
    if w.variant == "psi":
        cross = np.conj(a) ** 2 * b
        sz = 0.25 * (abs(a) ** 2 - 2.0 * abs(b) ** 2)
    else:
        cross = np.conj(a) * b
        sz = 0.25 * (abs(a) - 2.0 * abs(b) ** 2)
    inv_sqrt8 = 1.0 / (2.0 * math.sqrt(2.0))
    sx = 2.0 * inv_sqrt8 * cross.real
    sy = 2.0 * inv_sqrt8 * cross.imag
    tol = max(SURFACE_TOL, 10.0 * abs(w.norm_residual()))
    return bloch_point(sx, sy, sz, tol=tol)


def wavefunction_from_bloch(s: BlochPoint, variant):
    """A representative wave function projecting onto s (gauge: atomic
    amplitude real and non-negative)."""
    if variant == "psi":
        a = math.sqrt(max(1.0 + 2.0 * s.sz, 0.0))
        babs = math.sqrt(max((1.0 - 2.0 * s.sz) / 2.0, 0.0))
    elif variant == "chi":
        a = 1.0 + 2.0 * s.sz
        babs = math.sqrt(max((1.0 - 2.0 * s.sz) / 2.0, 0.0))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if teardrop_radius(s.sz) > 1e-12:
        q = to_canonical(s).q
    else:
        q = 0.0
    return wavefunction(variant, a, babs * np.exp(1j * q))


def integrate_wavefunction(
    w0: MeanFieldWavefunction, times, params: ModelParams, tol=1e-10
):
    """Integrate either NLS form; returns the complex components at the
    requested times."""
    times = np.asarray(times, dtype=float)

    def rhs(_, y):
        w = MeanFieldWavefunction(
            w0.variant, np.array([y[0] + 1j * y[1], y[2] + 1j * y[3]])
        )
        da, db = nls_rhs(w, params)
        return [da.real, da.imag, db.real, db.imag]

    a0, b0 = w0.components
    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        [a0.real, a0.imag, b0.real, b0.imag],
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=times,
    )
    if not sol.success:
        raise RuntimeError(f"NLS integration failed: {sol.message}")
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]
