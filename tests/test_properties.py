"""Property tests over the parameter corners: detuning, coupling of either
sign over thirteen decades, and even particle numbers.

Every drawn case either ends in a clean ``ValueError`` from ``quantize``
or gives a finite, strictly increasing set of levels inside the classical
energy range, where the exact spectrum lies too, with a monotone action
and a positive period across that range.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from teardrop.core import make_params
from teardrop.meanfield import energy_range
from teardrop.quantum import build_hamiltonian, exact_spectrum
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
