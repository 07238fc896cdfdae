"""Property tests over the parameter corners: detuning, coupling of either
sign over thirteen decades, and even particle numbers.

Every drawn case either ends in a clean ``ValueError`` from ``quantize``
or gives a finite, strictly increasing set of levels inside the classical
energy range, where the exact spectrum lies too, with a monotone action
and a positive period across that range.

The exact dynamics, one array of states per trajectory, agrees row by row
with the per-time spectral product, conserves norm and energy, and gives
the same moments for the stack as for each row.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from teardrop.core import basis_states, make_params
from teardrop.meanfield import energy_range
from teardrop.quantum import (OperatorMatrix, build_generators, build_hamiltonian,
                              evolve_state, exact_spectrum, observables)
from teardrop.semiclassics import action, period, quantize

EDGE_TOL = 1e-12  # of the energy span
CURVE_POINTS = 41


@st.composite
def model_params(draw):
    epsilon = draw(st.floats(min_value=-100.0, max_value=100.0))
    # |v| = mantissa * 10^decade in [1e-7, 1e6], every decade equally likely
    mantissa = draw(st.floats(min_value=1.0, max_value=10.0))
    decade = draw(st.integers(min_value=-7, max_value=5))
    sign = draw(st.sampled_from((1.0, -1.0)))
    n = 2 * draw(st.integers(min_value=1, max_value=20))
    return make_params(epsilon, sign * mantissa * 10.0**decade, n)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(model_params())
def test_levels_and_curves_inside_the_energy_range(params):
    try:
        spectrum = quantize(params)
    except ValueError:
        return
    emin, emax = energy_range(params)
    slack = EDGE_TOL * (emax - emin)

    levels = np.array([level.energy_mf for level in spectrum.levels])
    assert levels.size == params.n_particles // 2 + 1
    assert np.all(np.isfinite(levels))
    assert np.all(np.diff(levels) > 0.0)
    assert levels.min() >= emin - slack and levels.max() <= emax + slack

    exact, _ = exact_spectrum(build_hamiltonian(params))
    eta_exact = params.eta * exact
    assert eta_exact.min() >= emin - slack and eta_exact.max() <= emax + slack

    energies = np.linspace(emin, emax, CURVE_POINTS)
    actions = np.array([action(float(e), params) for e in energies])
    assert abs(actions[0]) <= 1e-9
    assert abs(actions[-1] - 2.0 * math.pi) <= 1e-9
    assert np.all(np.diff(actions) >= 0.0)
    assert all(period(float(e), params) > 0.0 for e in energies)


@st.composite
def tridiagonal_dynamics(draw):
    """A Hermitian tridiagonal H with a real or complex band, a normalised
    psi0 and up to 30 times, from numpy draws under a hypothesis seed."""
    dim = draw(st.integers(min_value=2, max_value=40))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    band = rng.normal(size=dim - 1)
    if draw(st.booleans()):
        band = band + 1j * rng.normal(size=dim - 1)
    h = OperatorMatrix.hermitian("H", scale * rng.normal(size=dim), scale * band)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    times = rng.uniform(-10.0, 10.0, draw(st.integers(min_value=1, max_value=30)))
    return h, psi0 / np.linalg.norm(psi0), times


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(tridiagonal_dynamics())
def test_batched_evolution_matches_per_time_products(case):
    h, psi0, times = case
    states = evolve_state(h, psi0, times)
    assert states.shape == (times.size, h.dimension)

    vals, vecs = exact_spectrum(h, want_vectors=True)
    coeffs = vecs.conj().T @ psi0
    dense = h.to_dense()
    h_norm = np.abs(vals).max()
    e0 = np.vdot(psi0, dense @ psi0).real
    for t, row in zip(times, states):
        assert np.abs(row - vecs @ (np.exp(-1j * vals * t) * coeffs)).max() <= 1e-12
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-12
        assert abs(np.vdot(row, dense @ row).real - e0) <= 1e-10 * h_norm

    gens = build_generators(basis_states(2 * (h.dimension - 1)))
    stacked = observables(states, gens)
    for j, row in enumerate(states):
        single = observables(row, gens)
        for field in ("kx", "ky", "kz", "kx2", "ky2", "kz2", "kz3"):
            assert abs(getattr(stacked, field)[j] - getattr(single, field)) <= 1e-13
