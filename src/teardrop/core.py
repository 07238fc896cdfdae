"""Model parameters, basis bookkeeping, and the teardrop surface geometry.

The model couples a bosonic atomic mode (a) to a molecular mode (b); two
atoms convert into one molecule and back, so N = n_a + 2 n_b is conserved.
On a fixed-N sector the natural label is the imbalance quantum number
m = (n_a - 2 n_b)/4, which runs in unit steps from -N/4 to +N/4, giving a
Hilbert-space dimension of N/2 + 1.  The classical limit lives on the
surface s_x^2 + s_y^2 = r^2(s_z) with

    r^2(p) = (1 - 2p) (1 + 2p)^2 / 4,     p in [-1/2, 1/2],

an inverted teardrop with a cusp at s_z = -1/2 (the all-molecular state)
and a smooth vertex at s_z = +1/2 (the all-atomic state).

Conventions: hbar = 1, energies dimensionless, basis ordered by ascending
m (molecule-dominated states first) so all tridiagonal matrices have a
deterministic layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for p at the surface endpoints +-1/2; root finders may
# overshoot the interval by rounding.
ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters plus the effective semiclassical parameter.

    epsilon is the detuning 2*epsilon_a - epsilon_b after the zero-energy
    shift, v the conversion strength, and eta = (N/2 + 1)^(-1) plays the
    role of hbar in the classical limit.
    """

    epsilon: float
    v: float
    n_particles: int
    eta: float
    epsilon_a: float | None = None
    epsilon_b: float | None = None


def _check_particle_number(n_particles):
    if n_particles != int(n_particles):
        raise ValueError(f"N must be an integer, got {n_particles}")
    n = int(n_particles)
    if n < 2 or n % 2 != 0:
        raise ValueError(
            f"N must be even and >= 2 (odd particle numbers are not "
            f"supported), got {n}"
        )
    return n


def make_params(epsilon, v, n_particles):
    """Validate inputs and attach eta = 1/(N/2 + 1)."""
    n = _check_particle_number(n_particles)
    for name, value in (("epsilon", epsilon), ("v", v)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return ModelParams(
        epsilon=float(epsilon), v=float(v), n_particles=n, eta=1.0 / (n // 2 + 1)
    )


def params_from_mode_energies(epsilon_a, epsilon_b, v, n_particles):
    """Build parameters from the raw atomic/molecular mode energies."""
    n = _check_particle_number(n_particles)
    return ModelParams(
        epsilon=2.0 * epsilon_a - epsilon_b,
        v=float(v),
        n_particles=n,
        eta=1.0 / (n // 2 + 1),
        epsilon_a=float(epsilon_a),
        epsilon_b=float(epsilon_b),
    )


@dataclass(frozen=True, eq=False)
class KzBasis:
    """Fixed-N basis labelled by m, ascending from -N/4 to +N/4."""

    n_particles: int
    m_values: np.ndarray
    atom_counts: np.ndarray
    molecule_counts: np.ndarray

    @property
    def dimension(self):
        return self.m_values.size


def basis_states(n_particles):
    """Enumerate the sector basis; state m holds 2m + N/2 atoms and
    N/4 - m molecules."""
    n = _check_particle_number(n_particles)
    dim = n // 2 + 1
    m = -n / 4.0 + np.arange(dim)
    atoms = np.rint(2.0 * m + n / 2.0).astype(int)
    molecules = np.rint(n / 4.0 - m).astype(int)
    return KzBasis(
        n_particles=n, m_values=m, atom_counts=atoms, molecule_counts=molecules
    )


def _validate_p(p):
    arr = np.asarray(p, dtype=float)
    if np.any(arr < -0.5 - ENDPOINT_TOL) or np.any(arr > 0.5 + ENDPOINT_TOL):
        raise ValueError(f"p outside [-1/2, 1/2]: {p}")
    return arr


def teardrop_radius_sq(p):
    """r^2(p) = (1 - 2p)(1 + 2p)^2 / 4; clipped to 0 at the endpoints."""
    arr = _validate_p(p)
    r2 = 0.25 * (1.0 - 2.0 * arr) * (1.0 + 2.0 * arr) ** 2
    r2 = np.clip(r2, 0.0, None)
    return float(r2) if np.isscalar(p) or arr.ndim == 0 else r2


def teardrop_radius(p):
    """Transverse radius r(p) of the teardrop cross-section at height p."""
    return np.sqrt(teardrop_radius_sq(p))


def teardrop_radius_sq_deriv(p):
    """d(r^2)/dp = (1 + 2p)(1 - 6p)/2, used by tangency and stability checks."""
    arr = _validate_p(p)
    d = 0.5 * (1.0 + 2.0 * arr) * (1.0 - 6.0 * arr)
    return float(d) if np.isscalar(p) or arr.ndim == 0 else d
