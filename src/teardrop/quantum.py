"""Exact many-particle treatment on the fixed-N sector.

The sector operators

    K_x = (a+ a+ b + a a b+) / (2 sqrt(N))
    K_y = (a+ a+ b - a a b+) / (2i sqrt(N))
    K_z = (a+ a - 2 b+ b) / 4

close a deformed SU(2) algebra: [K_z, K_+-] = +-K_+- as usual, but
[K_+, K_-] = F(K_z, N) with the structure polynomial F quadratic in K_z.
In the ascending-m basis K_z is diagonal with entries m, and the ladder
action of K_+ = K_x + i K_y follows from the bosonic matrix elements:

    <m+1| K_+ |m> = sqrt((n_a + 1)(n_a + 2) n_b / N),
    n_a = 2m + N/2,  n_b = N/4 - m.

The ladder action couples only neighbouring m, so every sector operator
(H = eps*K_z + v*K_x, the generators, the Casimir and the variational
preparation Hamiltonian) has one storage: a diagonal and the sub- and
super-diagonal bands, complex allowed.  Products with a state cost
O(dim).  A Hermitian tridiagonal matrix with sub-diagonal b_k equals
D T D^dagger, with T real symmetric with off-diagonal |b_k| and the
diagonal phase gauge D_0 = 1, D_{k+1} = D_k b_k/|b_k|; every eigenproblem
is solved on T by scipy's tridiagonal eigensolver.  For real
non-negative b (K_x, and H at v >= 0) every phase is exactly 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import KzBasis, ModelParams, basis_states

HERMITICITY_TOL = 1e-12


@dataclass(eq=False)
class OperatorMatrix:
    """Tridiagonal operator on the fixed-N sector.

    ``diag[k] = <k|A|k>``, ``offdiag[k] = <k+1|A|k>`` (the sub-diagonal)
    and ``superdiag[k] = <k|A|k+1>``, over the ascending-m basis.
    """

    label: str
    diag: np.ndarray
    offdiag: np.ndarray
    superdiag: np.ndarray

    dense = None  # no dense storage; bench/tracing.py still reads the name

    @classmethod
    def hermitian(cls, label, diag, offdiag):
        offdiag = np.asarray(offdiag)
        return cls(label, np.asarray(diag), offdiag, offdiag.conj())

    @classmethod
    def from_dense(cls, label, matrix):
        """Read the three bands of a square matrix; anything off them is an error."""
        mat = np.asarray(matrix)
        if np.any(np.triu(mat, 2)) or np.any(np.tril(mat, -2)):
            raise ValueError(f"{label}: matrix has entries off the three bands")
        return cls(label, np.diag(mat).copy(), np.diag(mat, -1).copy(),
                   np.diag(mat, 1).copy())

    @property
    def dimension(self):
        return self.diag.size

    def matvec(self, vec):
        """A @ vec in O(dim)."""
        dtype = np.result_type(self.diag, self.offdiag, self.superdiag, vec)
        out = (self.diag * vec).astype(dtype, copy=False)
        out[1:] += self.offdiag * vec[:-1]
        out[:-1] += self.superdiag * vec[1:]
        return out

    def to_dense(self):
        """Dense view, for comparison against the Fock-space test oracles."""
        return (np.diag(self.diag) + np.diag(self.offdiag, -1)
                + np.diag(self.superdiag, 1))


def ladder_amplitudes(basis: KzBasis):
    """Matrix elements <m+1|K_+|m> for each coupled pair of the basis."""
    n = basis.n_particles
    na = basis.atom_counts[:-1].astype(float)
    nb = basis.molecule_counts[:-1].astype(float)
    return np.sqrt((na + 1.0) * (na + 2.0) * nb / n)


def build_generators(basis: KzBasis):
    """All five sector generators as tridiagonal operators, keyed by label."""
    dim = basis.dimension
    lam = ladder_amplitudes(basis)
    zeros = np.zeros(dim - 1)
    return {
        "Kz": OperatorMatrix.hermitian("Kz", basis.m_values, zeros),
        "Kx": OperatorMatrix.hermitian("Kx", np.zeros(dim), 0.5 * lam),
        "Ky": OperatorMatrix.hermitian("Ky", np.zeros(dim), -0.5j * lam),
        "Kplus": OperatorMatrix("Kplus", np.zeros(dim), lam, zeros),
        "Kminus": OperatorMatrix("Kminus", np.zeros(dim), zeros, lam),
    }


def structure_polynomial(kz, n_op, big_n):
    """Structure polynomial F of the deformed algebra, [K_+, K_-] = F.

    F = -n/N - (n + 4 kz)(n - 12 kz)/(4N).  Accepts scalars or square
    matrices for ``kz`` and ``n_op`` (pass n_op = N*identity on a fixed-N
    sector).
    """
    kz = np.asarray(kz) if not np.isscalar(kz) else kz
    if isinstance(kz, np.ndarray) and kz.ndim == 2:
        eye = np.eye(kz.shape[0])
        n_mat = n_op if isinstance(n_op, np.ndarray) else n_op * eye
        return -n_mat / big_n - (n_mat + 4.0 * kz) @ (n_mat - 12.0 * kz) / (
            4.0 * big_n
        )
    return -n_op / big_n - (n_op + 4.0 * kz) * (n_op - 12.0 * kz) / (4.0 * big_n)


def build_hamiltonian(params: ModelParams):
    """H = eps*K_z + v*K_x as a real symmetric tridiagonal matrix."""
    basis = basis_states(params.n_particles)
    lam = ladder_amplitudes(basis)
    return OperatorMatrix.hermitian(
        "H", params.epsilon * basis.m_values, 0.5 * params.v * lam
    )


def casimir_matrix(basis: KzBasis):
    """Conserved quantity C of the deformed algebra.

    C = K_- K_+ + (4/N) K_z^3 + ((N+6)/N) K_z^2 + ((8 - N^2)/(4N)) K_z;
    on an irreducible fixed-N sector this evaluates to a multiple of the
    identity, the quantum precursor of the teardrop constraint.
    """
    n = float(basis.n_particles)
    lam = ladder_amplitudes(basis)
    kminus_kplus = np.concatenate([lam**2, [0.0]])
    m = basis.m_values
    diag = (
        kminus_kplus
        + 4.0 / n * m**3
        + (n + 6.0) / n * m**2
        + (8.0 - n**2) / (4.0 * n) * m
    )
    return OperatorMatrix.hermitian("C", diag, np.zeros(basis.dimension - 1))


def _check_hermitian(op: OperatorMatrix):
    bands = (op.diag, op.offdiag, op.superdiag)
    scale = max(1.0, *(np.abs(band).max(initial=0.0) for band in bands))
    skew = max(2.0 * np.abs(op.diag.imag).max(initial=0.0),
               np.abs(op.offdiag - op.superdiag.conj()).max(initial=0.0))
    if skew > HERMITICITY_TOL * scale:
        raise ValueError("matrix is not Hermitian")


def _phase_gauge(offdiag):
    """Diagonal phases D with A = D T D^dagger and T real, off-diagonal |b|."""
    modulus = np.abs(offdiag)
    phase = np.ones_like(offdiag)
    coupled = modulus > 0.0
    phase[coupled] = offdiag[coupled] / modulus[coupled]
    gauge = np.cumprod(np.concatenate(([1.0], phase)))
    # real phases are exactly +-1; complex products drift off unit modulus
    return gauge / np.abs(gauge)


def exact_spectrum(op: OperatorMatrix, want_vectors=False):
    """All eigenvalues (ascending), optionally with orthonormal vectors."""
    _check_hermitian(op)
    modulus = np.abs(op.offdiag)
    if not want_vectors:
        return eigh_tridiagonal(op.diag.real, modulus, eigvals_only=True), None
    vals, vecs = eigh_tridiagonal(op.diag.real, modulus)
    return vals, _phase_gauge(op.offdiag)[:, None] * vecs


@dataclass(eq=False)
class QuantumState:
    """Normalised state vector over the ascending-m basis."""

    amplitudes: np.ndarray
    n_particles: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} differs from 1 beyond 1e-12")

    @property
    def dimension(self):
        return self.amplitudes.size


def normalized_state(amplitudes, n_particles):
    amps = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("cannot normalise the zero vector")
    return QuantumState(amps / norm, n_particles)


def basis_state(basis: KzBasis, m):
    """The basis vector |m>."""
    amps = np.zeros(basis.dimension, dtype=complex)
    idx = int(np.argmin(np.abs(basis.m_values - m)))
    if abs(basis.m_values[idx] - m) > 1e-9:
        raise ValueError(f"m = {m} is not in the basis")
    amps[idx] = 1.0
    return QuantumState(amps, basis.n_particles)


def evolve_state(hamiltonian: OperatorMatrix, psi0: QuantumState, times):
    """Evolve psi0 under a time-independent H via spectral decomposition.

    psi(t) = sum_k exp(-i E_k t) <k|psi0> |k>, exact up to the eigensolve,
    so norm and energy are conserved to machine precision.
    """
    if hamiltonian.dimension != psi0.dimension:
        raise ValueError(
            f"dimension mismatch: H is {hamiltonian.dimension}, "
            f"state is {psi0.dimension}"
        )
    vals, vecs = exact_spectrum(hamiltonian, want_vectors=True)
    coeffs = vecs.conj().T @ psi0.amplitudes
    states = []
    for t in np.asarray(times, dtype=float):
        amps = vecs @ (np.exp(-1j * vals * t) * coeffs)
        states.append(QuantumState(amps, psi0.n_particles))
    return states


@dataclass(frozen=True)
class MomentSet:
    """First moments, the conservation-law second/third moments, and energy."""

    kx: float
    ky: float
    kz: float
    kx2: float
    ky2: float
    kz2: float
    kz3: float
    energy: float | None = None


def observables(psi: QuantumState, generators, params: ModelParams | None = None):
    amps = psi.amplitudes
    x = generators["Kx"].matvec(amps)
    y = generators["Ky"].matvec(amps)
    m = generators["Kz"].diag
    prob = np.abs(amps) ** 2

    kx = float(np.real(np.vdot(amps, x)))
    ky = float(np.real(np.vdot(amps, y)))
    kz = float(np.sum(prob * m))
    energy = None
    if params is not None:
        energy = params.epsilon * kz + params.v * kx
    return MomentSet(
        kx=kx,
        ky=ky,
        kz=kz,
        kx2=float(np.real(np.vdot(x, x))),
        ky2=float(np.real(np.vdot(y, y))),
        kz2=float(np.sum(prob * m**2)),
        kz3=float(np.sum(prob * m**3)),
        energy=energy,
    )


@dataclass(frozen=True)
class VariationalSpec:
    """Coefficients of the preparation Hamiltonian K = a K_x + b K_z + c K_y."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0:
            raise ValueError("(a, b, c) must not all vanish")


def _gauge_fix(vec):
    # remove the eigensolver's arbitrary global phase: largest component
    # becomes real and positive
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


DEGENERACY_GAP = 1e-12


def variational_ground_state(spec: VariationalSpec, basis: KzBasis):
    """Ground state of a K_x + b K_z + c K_y.

    Sweeping (a, b) over the teardrop cross-section produces the family of
    coherent-like states whose (eta<K_x>, eta<K_z>) curves approach the
    surface as N grows.  A degenerate ground state (gap below 1e-12) is
    reported via a warning; the lowest-index eigenvector is returned.
    """
    # a K_x + c K_y has sub-diagonal (a - i c) lambda/2; real stays real
    coupling = complex(spec.a, -spec.c) if spec.c != 0.0 else spec.a
    prep = OperatorMatrix.hermitian(
        "K", spec.b * basis.m_values, coupling * 0.5 * ladder_amplitudes(basis)
    )
    vals, vecs = exact_spectrum(prep, want_vectors=True)
    if vals.size > 1 and vals[1] - vals[0] < DEGENERACY_GAP:
        warnings.warn(
            "degenerate ground state; returning the lowest-index eigenvector",
            RuntimeWarning,
        )
    return normalized_state(_gauge_fix(vecs[:, 0]), basis.n_particles)
