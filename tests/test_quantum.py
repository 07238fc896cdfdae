import math
import tracemalloc

import numpy as np
import pytest

from conftest import fock_sector_generators
from teardrop.core import basis_states, make_params
from teardrop.quantum import (
    MomentSet,
    OperatorMatrix,
    VariationalSpec,
    basis_state,
    build_generators,
    build_hamiltonian,
    casimir_matrix,
    evolve_state,
    exact_spectrum,
    observables,
    structure_polynomial,
    variational_ground_state,
)


def commutator(a, b):
    return a @ b - b @ a


class TestGenerators:
    def test_two_particle_matrices(self):
        gens = build_generators(basis_states(2))
        assert np.allclose(gens["Kz"].to_dense(), np.diag([-0.5, 0.5]))
        assert np.allclose(gens["Kx"].to_dense(), [[0.0, 0.5], [0.5, 0.0]])

    def test_four_particle_ladder_element(self):
        kplus = build_generators(basis_states(4))["Kplus"].to_dense()
        # coupling from the one-molecule state into the all-atom state
        assert kplus[2, 1] == pytest.approx(math.sqrt(3.0), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_fock_space_oracle(self, n):
        gens = build_generators(basis_states(n))
        oracle = fock_sector_generators(n)
        for label in ("Kx", "Ky", "Kz", "Kplus", "Kminus"):
            diff = np.abs(gens[label].to_dense() - oracle[label]).max()
            assert diff <= 1e-12, f"{label} differs from oracle by {diff}"
        # moments of random states against the oracle matrices
        kx, ky, kz = (oracle[k] for k in ("Kx", "Ky", "Kz"))
        powers = (kx, ky, kz, kx @ kx, ky @ ky, kz @ kz, kz @ kz @ kz)
        rng = np.random.default_rng(n)
        for _ in range(5):
            amps = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
            psi = amps / np.linalg.norm(amps)
            a = psi
            expected = [np.vdot(a, mat @ a).real for mat in powers]
            mom = observables(psi, gens)
            got = (mom.kx, mom.ky, mom.kz, mom.kx2, mom.ky2, mom.kz2, mom.kz3)
            assert np.abs(np.subtract(got, expected)).max() <= 1e-12

    def test_no_dense_storage(self):
        basis = basis_states(2000)
        tracemalloc.start()
        try:
            build_generators(basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("n", list(range(2, 21, 2)))
    def test_commutation_relations(self, n):
        gens = build_generators(basis_states(n))
        kx, ky, kz = (gens[k].to_dense() for k in ("Kx", "Ky", "Kz"))
        kp, km = gens["Kplus"].to_dense(), gens["Kminus"].to_dense()
        eye = np.eye(n // 2 + 1)
        f_poly = structure_polynomial(kz, n * eye, float(n))
        assert np.abs(commutator(kz, kp) - kp).max() <= 1e-10
        assert np.abs(commutator(kz, km) + km).max() <= 1e-10
        assert np.abs(commutator(kz, kx) - 1j * ky).max() <= 1e-10
        assert np.abs(commutator(ky, kz) - 1j * kx).max() <= 1e-10
        assert np.abs(commutator(kp, km) - f_poly).max() <= 1e-10
        assert np.abs(commutator(kx, ky) - 0.5j * f_poly).max() <= 1e-10

    def test_kz_entries_match_basis(self):
        basis = basis_states(14)
        gens = build_generators(basis)
        assert np.allclose(np.diag(gens["Kz"].to_dense()).real, basis.m_values)


class TestStructurePolynomial:
    def test_at_zero(self):
        for n in (2.0, 10.0, 50.0):
            assert structure_polynomial(0.0, n, n) == pytest.approx(-1 - n / 4)

    def test_at_top_state(self):
        n = 12.0
        assert structure_polynomial(n / 4, n, n) == pytest.approx(-1 + n)

    def test_matrix_argument_matches_commutator(self):
        gens = build_generators(basis_states(2))
        kp, km = gens["Kplus"].to_dense(), gens["Kminus"].to_dense()
        f_poly = structure_polynomial(
            gens["Kz"].to_dense(), 2.0 * np.eye(2), 2.0
        )
        assert np.abs(commutator(kp, km) - f_poly).max() <= 1e-12


class TestHamiltonian:
    def test_two_particle_matrix(self):
        params = make_params(0.8, 1.7, 2)
        h = build_hamiltonian(params).to_dense()
        assert np.allclose(h, [[-0.4, 0.85], [0.85, 0.4]])

    def test_decoupled_is_diagonal(self):
        params = make_params(1.3, 0.0, 12)
        h = build_hamiltonian(params)
        assert np.allclose(h.offdiag, 0.0)
        assert np.allclose(h.diag, 1.3 * basis_states(12).m_values)

    def test_matches_generator_combination(self):
        params = make_params(0.7, 1.2, 8)
        gens = build_generators(basis_states(8))
        expected = 0.7 * gens["Kz"].to_dense() + 1.2 * gens["Kx"].to_dense()
        assert np.abs(build_hamiltonian(params).to_dense() - expected).max() < 1e-14


class TestSpectrum:
    def test_two_level_closed_form(self):
        for eps in np.linspace(-3, 3, 10):
            for v in np.linspace(0.2, 3, 10):
                vals, _ = exact_spectrum(build_hamiltonian(make_params(eps, v, 2)))
                expected = 0.5 * math.hypot(eps, v)
                assert abs(vals[0] + expected) <= 1e-12
                assert abs(vals[1] - expected) <= 1e-12

    def test_decoupled_spectrum(self):
        basis = basis_states(10)
        vals, _ = exact_spectrum(build_hamiltonian(make_params(1.0, 0.0, 10)))
        assert np.allclose(vals, basis.m_values, atol=1e-14)

    def test_kx_spectrum_symmetric(self):
        vals, _ = exact_spectrum(build_generators(basis_states(50))["Kx"])
        assert abs(vals.sum()) <= 1e-9
        # levels crowd around the centre of the band
        gaps = np.diff(vals)
        assert gaps[len(gaps) // 2] < gaps[0]
        assert gaps[len(gaps) // 2] < gaps[-1]

    def test_kx_ky_isospectral(self):
        gens = build_generators(basis_states(30))
        kx_vals, _ = exact_spectrum(gens["Kx"])
        ky_vals, _ = exact_spectrum(gens["Ky"])
        assert np.abs(kx_vals - ky_vals).max() <= 1e-10

    def test_eigenvectors_orthonormal(self):
        vals, vecs = exact_spectrum(
            build_hamiltonian(make_params(0.5, 1.0, 40)), want_vectors=True
        )
        assert np.all(np.diff(vals) > 0)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(21)).max() <= 1e-10

    @pytest.mark.parametrize("coeffs", [None, (0.3, 0.1, 0.5), (-1.2, 0.7, -0.4)])
    def test_complex_eigenvectors(self, coeffs):
        # K_y itself, then a K_x + b K_z + c K_y with c != 0
        gens = build_generators(basis_states(200))
        if coeffs is None:
            op = gens["Ky"]
        else:
            op = OperatorMatrix.from_dense("K", sum(
                coef * gens[label].to_dense()
                for coef, label in zip(coeffs, ("Kx", "Kz", "Ky"))
            ))
        mat = op.to_dense()
        vals, vecs = exact_spectrum(op, want_vectors=True)
        assert np.abs(vecs.conj().T @ vecs - np.eye(101)).max() <= 1e-12
        residual = np.linalg.norm(mat @ vecs - vecs * vals, 2)
        assert residual <= 1e-12 * np.linalg.norm(mat, 2)

    def test_from_dense_rejects_entries_off_the_bands(self):
        mat = np.diag([1.0, 2.0, 3.0])
        mat[0, 2] = mat[2, 0] = 0.5
        with pytest.raises(ValueError, match="off the three bands"):
            OperatorMatrix.from_dense("custom", mat)

    def test_non_hermitian_rejected(self):
        bad = OperatorMatrix.from_dense("custom", np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            exact_spectrum(bad)

    def test_imaginary_diagonal_rejected(self):
        bad = OperatorMatrix.from_dense("custom", np.diag([1j, 0.0]))
        with pytest.raises(ValueError, match="Hermitian"):
            exact_spectrum(bad)


class TestCasimir:
    def test_commutes_with_hamiltonian_two_particles(self):
        c = casimir_matrix(basis_states(2)).to_dense()
        h = build_hamiltonian(make_params(1.0, 1.0, 2)).to_dense()
        assert np.abs(commutator(c, h)).max() <= 1e-12

    def test_commutes_with_generators(self):
        basis = basis_states(20)
        c = casimir_matrix(basis).to_dense()
        gens = build_generators(basis)
        for label in ("Kx", "Ky", "Kz"):
            assert np.abs(commutator(c, gens[label].to_dense())).max() <= 1e-10

    @pytest.mark.parametrize("n", list(range(2, 21, 2)))
    def test_multiple_of_identity(self, n):
        diag = casimir_matrix(basis_states(n)).diag
        assert diag.max() - diag.min() <= 1e-10


class TestEvolution:
    def test_decoupled_phases(self):
        params = make_params(1.1, 0.0, 8)
        basis = basis_states(8)
        h = build_hamiltonian(params)
        psi0 = basis_state(basis, 1.0)
        times = [0.0, 0.7, 2.3]
        for t, psi in zip(times, evolve_state(h, psi0, times)):
            expected = np.exp(-1j * 1.1 * 1.0 * t)
            idx = np.argmax(np.abs(psi))
            assert abs(psi[idx] - expected * psi0[idx]) < 1e-12
            probs = np.abs(psi) ** 2
            assert probs[idx] == pytest.approx(1.0, abs=1e-12)

    def test_norm_and_energy_conserved(self):
        params = make_params(1.0, 1.0, 20)
        basis = basis_states(20)
        gens = build_generators(basis)
        h = build_hamiltonian(params)
        psi0 = variational_ground_state(VariationalSpec(1.0, 0.0), basis)
        e0 = observables(psi0, gens, params).energy
        for psi in evolve_state(h, psi0, np.linspace(0.0, 100.0, 11)):
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
            assert abs(observables(psi, gens, params).energy - e0) <= 1e-10

    def test_dimension_mismatch(self):
        h = build_hamiltonian(make_params(1.0, 1.0, 10))
        psi = basis_state(basis_states(8), 0.0)
        with pytest.raises(ValueError, match="mismatch"):
            evolve_state(h, psi, [0.0])

    def test_tracks_mean_field_with_growing_n(self):
        # started from matched extremal states, eta<K_z>(t) follows the
        # classical trajectory ever more closely as N grows
        from teardrop.core import teardrop_radius
        from teardrop.meanfield import BlochPoint, integrate_trajectory

        times = np.linspace(0.0, 4.0, 81)
        classical = integrate_trajectory(
            BlochPoint(-teardrop_radius(1.0 / 6.0), 0.0, 1.0 / 6.0),
            4.0,
            make_params(1.0, 1.0, 20),
            samples=81,
        )
        deviations = []
        for n in (20, 100, 500):
            params = make_params(1.0, 1.0, n)
            basis = basis_states(n)
            gens = build_generators(basis)
            psi0 = variational_ground_state(VariationalSpec(1.0, 0.0), basis)
            states = evolve_state(build_hamiltonian(params), psi0, times)
            deviations.append(
                max(
                    abs(params.eta * observables(psi, gens).kz - sz)
                    for psi, sz in zip(states, classical.sz)
                )
            )
        assert deviations[0] > deviations[1] > deviations[2]

    def test_heisenberg_equations_second_order(self):
        params = make_params(0.7, 1.3, 12)
        basis = basis_states(12)
        gens = build_generators(basis)
        h = build_hamiltonian(params)
        psi0 = variational_ground_state(VariationalSpec(1.0, 0.4, 0.2), basis)
        n = 12.0

        def residuals(dt):
            sm, s0, sp = evolve_state(h, psi0, [1.0 - dt, 1.0, 1.0 + dt])
            mm, m0, mp = (observables(s, gens, params) for s in (sm, s0, sp))
            rx = (mp.kx - mm.kx) / (2 * dt) + params.epsilon * m0.ky
            rz = (mp.kz - mm.kz) / (2 * dt) - params.v * m0.ky
            rhs_y = (
                params.epsilon * m0.kx
                + params.v / 2
                + params.v / (8 * n) * (n**2 - 8 * n * m0.kz - 48 * m0.kz2)
            )
            ry = (mp.ky - mm.ky) / (2 * dt) - rhs_y
            return np.array([abs(rx), abs(ry), abs(rz)])

        coarse, fine = residuals(0.02), residuals(0.01)
        assert np.all(coarse / fine > 3.2)
        assert np.all(coarse / fine < 4.8)


class TestObservables:
    def test_all_atom_state(self):
        basis = basis_states(12)
        gens = build_generators(basis)
        mom = observables(basis_state(basis, 3.0), gens)
        assert mom.kz == pytest.approx(3.0, abs=1e-14)
        assert mom.kx == pytest.approx(0.0, abs=1e-14)
        assert mom.ky == pytest.approx(0.0, abs=1e-14)

    def test_all_molecule_state(self):
        basis = basis_states(12)
        gens = build_generators(basis)
        mom = observables(basis_state(basis, -3.0), gens)
        assert mom.kz == pytest.approx(-3.0, abs=1e-14)

    @pytest.mark.parametrize("n", [8, 20, 40])
    def test_conservation_law_on_random_states(self, n):
        rng = np.random.default_rng(7)
        basis = basis_states(n)
        gens = build_generators(basis)
        for _ in range(20):
            amps = rng.normal(size=basis.dimension) + 1j * rng.normal(
                size=basis.dimension
            )
            mom = observables(amps / np.linalg.norm(amps), gens)
            big_n = float(n)
            rhs = (
                -2 * mom.kz / big_n
                + mom.kz
                + big_n * mom.kz / 4
                - mom.kz2
                - 4 * mom.kz3 / big_n
                + big_n**2 / 16
                + big_n / 4
            )
            assert abs(mom.kx2 + mom.ky2 - rhs) <= 1e-9


class TestVariationalStates:
    def test_minus_kz_ground_is_all_atoms(self):
        basis = basis_states(10)
        psi = variational_ground_state(VariationalSpec(0.0, -1.0), basis)
        assert abs(psi[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_plus_kz_ground_is_all_molecules(self):
        basis = basis_states(10)
        psi = variational_ground_state(VariationalSpec(0.0, 1.0), basis)
        assert abs(psi[0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_spec_rejected(self):
        with pytest.raises(ValueError):
            VariationalSpec(0.0, 0.0, 0.0)

    def test_complex_coefficient_path(self):
        basis = basis_states(8)
        psi = variational_ground_state(VariationalSpec(0.3, 0.1, 0.5), basis)
        gens = build_generators(basis)
        mat = (
            0.3 * gens["Kx"].to_dense()
            + 0.1 * gens["Kz"].to_dense()
            + 0.5 * gens["Ky"].to_dense()
        )
        vals = np.linalg.eigvalsh(mat)
        energy = np.real(
            np.vdot(psi, mat @ psi)
        )
        assert energy == pytest.approx(vals[0], abs=1e-12)

    def test_state_norm_enforced(self):
        h = build_hamiltonian(make_params(1.0, 1.0, 2))
        gens = build_generators(basis_states(2))
        with pytest.raises(ValueError, match="norm"):
            evolve_state(h, np.array([1.0, 1.0]), [0.0])
        with pytest.raises(ValueError, match="norm"):
            observables(np.array([[1.0, 0.0], [1.0, 1.0]]), gens)


def test_moment_set_is_frozen():
    mom = MomentSet(kx=0, ky=0, kz=0, kx2=0, ky2=0, kz2=0, kz3=0)
    with pytest.raises(AttributeError):
        mom.kx = 1.0


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 1.414, 2.0, 5.0])
@pytest.mark.parametrize("n", [10, 50])
def test_rescaled_spectrum_bounded_by_classical_energies(eps, n):
    from teardrop.meanfield import energy_range

    params = make_params(eps, 1.0, n)
    vals, _ = exact_spectrum(build_hamiltonian(params))
    emin, emax = energy_range(params)
    assert params.eta * vals.min() >= emin - 1e-8
    assert params.eta * vals.max() <= emax + 1e-8
