"""Library tables: one function per ``teardrop`` subcommand, plus the
figure presets.

Each builder takes the values of its command's flags as keyword
arguments, named like the flags (``--epsilon-range`` is
``epsilon_range``), and returns a :class:`TableArtifact` with the
columns, rows and metadata that the command writes::

    from teardrop import tables
    tables.compare(n=20, v=1.0, epsilon_range="-4:4:9").write_csv("compare.csv")

``figure(id=...)`` gives the data behind the paper's figures fig1 .. fig9
at the paper's parameter values; most presets stack the rows of the
subcommand builders.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__, meanfield, semiclassics
from .artifacts import TableArtifact
from .core import basis_states, make_params, teardrop_radius
from .meanfield import (BlochPoint, bloch_point, energy_range, integrate_trajectory,
                        mf_energy)
from .quantum import (
    VariationalSpec,
    build_generators,
    build_hamiltonian,
    evolve_state,
    exact_spectrum,
    observables,
    variational_ground_state,
)
from .semiclassics import density_of_states, orbit, period_curve, potential_curves

MF_TOL = 1e-10  # mean-field integrator tolerance: --tol default and figures


def _metadata(command, params=None, **extra):
    meta = {"command": command, "tool_version": __version__}
    if params is not None:
        meta.update(n=params.n_particles, epsilon=params.epsilon, v=params.v,
                     eta=params.eta)
    return meta | extra


def _rows(*columns):
    """Rows of a table from its columns; a scalar fills its whole column.
    Numpy values become Python floats, ints and bools."""
    return list(zip(*(column.tolist() for column in np.broadcast_arrays(*columns))))


def _epsilon_values(epsilon_range):
    try:
        start, stop, steps = epsilon_range.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as err:
        raise ValueError(
            f"--epsilon-range expects a:b:steps, got {epsilon_range!r}"
        ) from err
    if steps < 2:
        raise ValueError("--epsilon-range needs at least 2 steps")
    return np.linspace(start, stop, steps)


# --init names: the classical extremal point, and the preparation
# a K_x + b K_z + c K_y whose variational ground state sits there
_NAMED_INITS = {
    "ground-kx": (
        BlochPoint(-teardrop_radius(1.0 / 6.0), 0.0, 1.0 / 6.0),
        VariationalSpec(1.0, 0.0, 0.0),
    ),
    "ground-minus-kx": (
        BlochPoint(teardrop_radius(1.0 / 6.0), 0.0, 1.0 / 6.0),
        VariationalSpec(-1.0, 0.0, 0.0),
    ),
    "ground-kz": (BlochPoint(0.0, 0.0, -0.5), VariationalSpec(0.0, 1.0, 0.0)),
    "ground-minus-kz": (BlochPoint(0.0, 0.0, 0.5), VariationalSpec(0.0, -1.0, 0.0)),
}


def _initial(init):
    """Mean-field point and variational spec of an --init value."""
    if init in _NAMED_INITS:
        return _NAMED_INITS[init]
    if not init.startswith("bloch:"):
        raise ValueError(f"unknown --init {init!r}")
    try:
        x, y, z = (float(part) for part in init[len("bloch:"):].split(","))
    except ValueError as err:
        raise ValueError(f"--init bloch expects bloch:x,y,z, got {init!r}") from err
    s = bloch_point(x, y, z)
    # heuristic matching: ground state of -(s . K) leans toward s
    return s, VariationalSpec(-s.sx, -s.sz, -s.sy)


# ---------------------------------------------------------------------------
# subcommands


def spectrum(*, n, epsilon, v):
    """Exact eigenvalues of H = eps K_z + v K_x."""
    params = make_params(epsilon, v, n)
    vals, _ = exact_spectrum(build_hamiltonian(params))
    rows = _rows(np.arange(vals.size), vals, params.eta * vals)
    return TableArtifact(["index", "energy", "eta_energy"], rows,
                         _metadata("spectrum", params))


def kx_spectrum(*, n):
    """Eigenvalues of the conversion operator K_x."""
    vals, _ = exact_spectrum(build_generators(basis_states(n))["Kx"])
    return TableArtifact(["index", "eigenvalue"], _rows(np.arange(vals.size), vals),
                         _metadata("kx-spectrum", n=n))


def sweep_spectrum(*, n, v, epsilon_range):
    """``spectrum`` at every epsilon of the range, with an epsilon column."""
    rows = [
        (float(eps),) + row
        for eps in _epsilon_values(epsilon_range)
        for row in spectrum(n=n, epsilon=float(eps), v=v).rows
    ]
    meta = _metadata("sweep-spectrum", n=n, v=v, epsilon_range=epsilon_range)
    return TableArtifact(["epsilon", "index", "energy", "eta_energy"], rows, meta)


def quantize(*, n, epsilon, v):
    """Semiclassical levels of ``semiclassics.quantize``."""
    params = make_params(epsilon, v, n)
    rows = [(lv.n, float(lv.action), float(lv.energy_mf), float(lv.energy_mp))
            for lv in semiclassics.quantize(params).levels]
    return TableArtifact(["n", "action", "energy_mf", "energy_mp"], rows,
                         _metadata("quantize", params))


def dos(*, n, epsilon, v, samples):
    """Periods and the density of states dn/dE = T/2 pi over the energy range."""
    params = make_params(epsilon, v, n)
    energies, periods = period_curve(params, samples)
    rows = _rows(energies, energies / params.eta, periods, periods / (2.0 * math.pi))
    return TableArtifact(["energy_mf", "energy_mp", "period", "dn_dE"], rows,
                         _metadata("dos", params))


def period(*, n, epsilon, v, energy):
    """Orbit period at one rescaled energy."""
    params = make_params(epsilon, v, n)
    t = semiclassics.period(energy, params)
    return TableArtifact(["energy_mf", "period", "dn_dE"],
                         [(float(energy), float(t), float(t / (2.0 * math.pi)))],
                         _metadata("period", params))


def fixed_points(*, n, epsilon, v):
    """Mean-field fixed points with their stability."""
    params = make_params(epsilon, v, n)
    rows = [
        (float(fp.s_z_root), float(fp.location.sx), float(fp.location.sy),
         float(fp.location.sz), fp.stability, float(fp.energy))
        for fp in meanfield.fixed_points(params)
    ]
    return TableArtifact(["s_z_root", "s_x", "s_y", "s_z", "stability", "energy"],
                         rows, _metadata("fixed-points", params))


def mf_trajectory(*, n, epsilon, v, init, t_max, samples, tol):
    """Mean-field flow from the point named by ``init``."""
    params = make_params(epsilon, v, n)
    start, _ = _initial(init)
    traj = integrate_trajectory(start, t_max, params, tol=tol, samples=samples)
    energy = mf_energy(BlochPoint(traj.sx, traj.sy, traj.sz), params)
    meta = _metadata("mf-trajectory", params, init=init, t_max=t_max,
                     energy_drift=traj.energy_drift,
                     surface_drift=traj.surface_drift)
    return TableArtifact(["t", "s_x", "s_y", "s_z", "energy"],
                         _rows(traj.times, traj.sx, traj.sy, traj.sz, energy), meta)


def mp_trajectory(*, n, epsilon, v, init, t_max, samples):
    """Exact many-particle dynamics from the variational state named by
    ``init``: eta <K_j>, the norm and the energy."""
    params = make_params(epsilon, v, n)
    basis = basis_states(params.n_particles)
    _, spec = _initial(init)
    psi0 = variational_ground_state(spec, basis)
    times = np.linspace(0.0, t_max, samples)
    states = evolve_state(build_hamiltonian(params), psi0, times)
    mom = observables(states, build_generators(basis), params)
    rows = _rows(times, params.eta * mom.kx, params.eta * mom.ky, params.eta * mom.kz,
                 np.linalg.norm(states, axis=-1), mom.energy)
    meta = _metadata("mp-trajectory", params, init=init, t_max=t_max)
    return TableArtifact(["t", "eta_kx", "eta_ky", "eta_kz", "norm", "energy"],
                         rows, meta)


def wkb_state(*, n, epsilon, v, level):
    """Semiclassical envelope of one eigenvector on the m grid."""
    params = make_params(epsilon, v, n)
    state = semiclassics.wkb_state(level, params)
    m = state.m_values
    rows = _rows(m, params.eta * m, state.amplitudes, state.allowed, state.unreliable)
    meta = _metadata("wkb-state", params, level=level, energy_mf=state.energy_mf,
                     p_minus=state.turning.p_minus, p_plus=state.turning.p_plus)
    return TableArtifact(["m", "p", "amplitude", "allowed", "unreliable"], rows, meta)


def coherent_surface(*, n, samples):
    """(eta <K_x>, eta <K_z>) of the variational ground states of
    a K_x + b K_z, with (a, b) swept over the teardrop cross-section."""
    basis = basis_states(n)
    b = np.repeat(np.linspace(-0.5, 0.5, samples), 2)
    sign = np.tile([1, -1], samples)
    # r(b) = 0 only at b = -1/2 and 1/2, so no (a, b) pair vanishes
    states = [variational_ground_state(VariationalSpec(float(a), float(b_k)), basis)
              for a, b_k in zip(sign * teardrop_radius(b), b)]
    mom = observables(states, build_generators(basis))
    eta = 1.0 / (n // 2 + 1)
    rows = _rows(n, b, sign, eta * mom.kx, eta * mom.kz)
    return TableArtifact(["n", "b", "a_sign", "eta_kx", "eta_kz"], rows,
                         _metadata("coherent-surface", n=n, samples=samples))


def compare(*, n, v, epsilon_range):
    """Exact vs semiclassical levels across an epsilon sweep, with the mean
    level spacing and the fixed-point energy bounds."""
    rows = []
    for eps in _epsilon_values(epsilon_range):
        params = make_params(float(eps), v, n)
        exact, _ = exact_spectrum(build_hamiltonian(params))
        semi = semiclassics.quantize(params).energies_mp
        spacing = float(np.mean(np.diff(exact))) if exact.size > 1 else math.nan
        rows += _rows(eps, np.arange(exact.size), exact, semi, np.abs(exact - semi),
                      spacing, *energy_range(params))
    columns = ["epsilon", "n", "energy_exact", "energy_semiclassical", "abs_error",
               "mean_spacing", "fp_energy_min", "fp_energy_max"]
    meta = _metadata("compare", n=n, v=v, epsilon_range=epsilon_range)
    return TableArtifact(columns, rows, meta)


# ---------------------------------------------------------------------------
# figure presets: paper parameter values as defaults; every preset takes the
# flags of ``figure`` and uses the ones it needs


def _fig1(n, **_):
    return kx_spectrum(n=n or 50)


def _fig2(epsilon_range, **_):
    rows = [
        (n,) + row
        for n in (10, 50)
        for row in sweep_spectrum(n=n, v=1.0,
                                  epsilon_range=epsilon_range or "-4:4:81").rows
    ]
    return TableArtifact(["n", "epsilon", "index", "energy", "eta_energy"], rows,
                         _metadata("figure", id="fig2", v=1.0))


_FIG3_INITS = [(-0.45, 0.0), (-0.3, math.pi), (0.0, math.pi), (0.2, math.pi),
               (0.4, math.pi), (0.3, 0.0)]


def _fig3(t_max, samples, **_):
    rows = []
    for eps in (0.0, 1.0, 2.0):
        for traj_id, (p0, q0) in enumerate(_FIG3_INITS):
            radius = teardrop_radius(p0)
            # str() of a float round-trips, so the point is passed exactly
            init = f"bloch:{radius * math.cos(q0)},{radius * math.sin(q0)},{p0}"
            table = mf_trajectory(n=10, epsilon=eps, v=1.0, init=init,
                                  t_max=t_max or 20.0, samples=samples or 401,
                                  tol=MF_TOL)
            rows += [(eps, traj_id) + row[:4] for row in table.rows]
    return TableArtifact(["epsilon", "trajectory", "t", "s_x", "s_y", "s_z"], rows,
                         _metadata("figure", id="fig3", v=1.0))


def _fig4(t_max, samples, **_):
    rows = []
    for eps, init in ((1.0, "ground-kx"), (1.0, "ground-minus-kx"),
                      (0.0, "ground-minus-kz")):
        flags = dict(epsilon=eps, v=1.0, init=init, t_max=t_max or 10.0,
                     samples=samples or 201)
        series = [("mf", mf_trajectory(n=20, tol=MF_TOL, **flags))]
        series += [(f"N{n}", mp_trajectory(n=n, **flags)) for n in (20, 100, 500)]
        rows += [(eps, init, name) + row[:4]
                 for name, table in series for row in table.rows]
    return TableArtifact(["epsilon", "init", "series", "t", "x", "y", "z"], rows,
                         _metadata("figure", id="fig4", v=1.0))


def _fig5(samples, **_):
    rows = [row for n in (2, 4, 10, 100)
            for row in coherent_surface(n=n, samples=samples or 101).rows]
    return TableArtifact(["n", "b", "a_sign", "eta_kx", "eta_kz"], rows,
                         _metadata("figure", id="fig5"))


def _fig6(samples, **_):
    samples = samples or 201
    rows = []
    for eps in (0.0, 2.0):
        params = make_params(eps, 1.0, 10)
        curves = potential_curves(params)
        p_grid = np.linspace(-0.5, 0.5, samples)
        rows += _rows("potential", eps, p_grid, curves.u_minus(p_grid),
                      curves.u_plus(p_grid))
        emin, emax = energy_range(params)
        orbit_p, q = orbit(emin + 0.4 * (emax - emin), params, samples)
        rows += _rows("orbit", eps, orbit_p, q, 2.0 * math.pi - q)
    return TableArtifact(["kind", "epsilon", "p", "y1", "y2"], rows,
                         _metadata("figure", id="fig6", v=1.0))


def _fig7(epsilon_range, **_):
    rows = [
        (n,) + row[:5]
        for n in (4, 20)
        for row in compare(n=n, v=1.0, epsilon_range=epsilon_range or "-4:4:81").rows
    ]
    columns = ["n", "epsilon", "level", "energy_exact", "energy_semiclassical",
               "abs_error"]
    return TableArtifact(columns, rows, _metadata("figure", id="fig7", v=1.0))


def _fig8(n, **_):
    n = n or 10000
    rows = []
    for eps in (0.0, 1.0, 2.0, 5.0):
        params = make_params(eps, 1.0, n)
        vals, _ = exact_spectrum(build_hamiltonian(params))
        hist, edges = np.histogram(vals, bins=40, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dn_de = np.array([density_of_states(float(params.eta * c), params)
                          for c in centers])
        rows += _rows(eps, centers, hist, dn_de, dn_de / (n // 2 + 1))
    return TableArtifact(
        ["epsilon", "energy", "hist_density", "dn_dE", "dn_dE_normalised"], rows,
        _metadata("figure", id="fig8", n=n, v=1.0))


def _fig9(n, **_):
    params = make_params(0.5, 1.0, n or 40)
    _, vecs = exact_spectrum(build_hamiltonian(params), want_vectors=True)
    rows = []
    for level in (1, 3, 10):
        state = semiclassics.wkb_state(level, params)
        m = state.m_values
        rows += _rows(level, m, params.eta * m, state.amplitudes,
                      np.abs(vecs[:, level]), state.unreliable)
    return TableArtifact(
        ["level", "m", "p", "wkb_amplitude", "exact_amplitude", "unreliable"], rows,
        _metadata("figure", id="fig9", n=params.n_particles, epsilon=0.5, v=1.0))


_FIGURES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
            "fig5": _fig5, "fig6": _fig6, "fig7": _fig7, "fig8": _fig8,
            "fig9": _fig9}
FIGURE_IDS = tuple(_FIGURES)


def figure(*, id, n=None, epsilon_range=None, t_max=None, samples=None):
    """The data of one paper figure; a flag left at None takes the
    preset's value."""
    if id not in _FIGURES:
        raise ValueError(f"unknown figure id {id!r}")
    return _FIGURES[id](n=n, epsilon_range=epsilon_range, t_max=t_max,
                        samples=samples)
