"""Command-line front end: spectra, dynamics, semiclassics, figure data.

Every subcommand writes a single deterministic table (CSV by default; see
``teardrop <command> --help``).  Exit codes: 0 success, 1 numerical
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .artifacts import TableArtifact
from .core import ModelParams, basis_states, make_params, teardrop_radius
from .meanfield import (
    BlochPoint,
    bloch_point,
    fixed_points,
    integrate_trajectory,
    energy_range,
)
from .quantum import (
    VariationalSpec,
    build_generators,
    build_hamiltonian,
    evolve_state,
    exact_spectrum,
    observables,
    variational_ground_state,
)
from .semiclassics import (
    density_of_states,
    orbit,
    period,
    period_curve,
    potential_curves,
    quantize,
    wkb_state,
)

FIGURE_IDS = tuple(f"fig{i}" for i in range(1, 10))
MF_TOL = 1e-10  # mean-field integrator tolerance: --tol default and figures


def _metadata(command, params: ModelParams | None = None, **extra):
    meta = {"command": command, "tool_version": __version__}
    if params is not None:
        meta.update(
            n=params.n_particles,
            epsilon=params.epsilon,
            v=params.v,
            eta=params.eta,
        )
    meta.update(extra)
    return meta


def _parse_epsilon_range(text):
    try:
        start, stop, steps = text.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as err:
        raise ValueError(
            f"--epsilon-range expects a:b:steps, got {text!r}"
        ) from err
    if steps < 2:
        raise ValueError("--epsilon-range needs at least 2 steps")
    return np.linspace(start, stop, steps)


_NAMED_MF_INITS = {
    # classical extremal points matching the variational preparations
    "ground-kx": lambda: BlochPoint(-teardrop_radius(1.0 / 6.0), 0.0, 1.0 / 6.0),
    "ground-minus-kx": lambda: BlochPoint(
        teardrop_radius(1.0 / 6.0), 0.0, 1.0 / 6.0
    ),
    "ground-kz": lambda: BlochPoint(0.0, 0.0, -0.5),
    "ground-minus-kz": lambda: BlochPoint(0.0, 0.0, 0.5),
}

_NAMED_MP_SPECS = {
    "ground-kx": VariationalSpec(1.0, 0.0, 0.0),
    "ground-minus-kx": VariationalSpec(-1.0, 0.0, 0.0),
    "ground-kz": VariationalSpec(0.0, 1.0, 0.0),
    "ground-minus-kz": VariationalSpec(0.0, -1.0, 0.0),
}


def _parse_bloch(text):
    try:
        x, y, z = (float(part) for part in text.split(":", 1)[1].split(","))
    except (IndexError, ValueError) as err:
        raise ValueError(f"--init bloch expects bloch:x,y,z, got {text!r}") from err
    return bloch_point(x, y, z)


def _mf_initial(text):
    if text in _NAMED_MF_INITS:
        return _NAMED_MF_INITS[text]()
    if text.startswith("bloch:"):
        return _parse_bloch(text)
    raise ValueError(f"unknown --init {text!r}")


def _mp_initial(text, basis):
    if text in _NAMED_MP_SPECS:
        return variational_ground_state(_NAMED_MP_SPECS[text], basis)
    if text.startswith("bloch:"):
        s = _parse_bloch(text)
        # heuristic matching: ground state of -(s . K) leans toward s
        spec = VariationalSpec(-s.sx, -s.sz, -s.sy)
        return variational_ground_state(spec, basis)
    raise ValueError(f"unknown --init {text!r}")


def _params(args):
    return make_params(args.epsilon, args.v, args.n)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args):
    params = _params(args)
    vals, _ = exact_spectrum(build_hamiltonian(params))
    rows = [(i, float(val), float(params.eta * val)) for i, val in enumerate(vals)]
    return TableArtifact(
        ["index", "energy", "eta_energy"], rows, _metadata("spectrum", params)
    )


def cmd_kx_spectrum(args):
    basis = basis_states(args.n)
    vals, _ = exact_spectrum(build_generators(basis)["Kx"])
    rows = [(i, float(val)) for i, val in enumerate(vals)]
    return TableArtifact(
        ["index", "eigenvalue"],
        rows,
        _metadata("kx-spectrum", n=args.n),
    )


def _sweep_rows(n, v, eps_values):
    """Rows (epsilon, index, energy, eta*energy) of the exact spectra."""
    rows = []
    for eps in eps_values:
        params = make_params(float(eps), v, n)
        vals, _ = exact_spectrum(build_hamiltonian(params))
        rows.extend(
            (float(eps), i, float(val), float(params.eta * val))
            for i, val in enumerate(vals)
        )
    return rows


def cmd_sweep_spectrum(args):
    rows = _sweep_rows(args.n, args.v, _parse_epsilon_range(args.epsilon_range))
    meta = _metadata("sweep-spectrum", n=args.n, v=args.v,
                     epsilon_range=args.epsilon_range)
    return TableArtifact(["epsilon", "index", "energy", "eta_energy"], rows, meta)


def cmd_quantize(args):
    params = _params(args)
    spectrum = quantize(params)
    rows = [
        (lv.n, float(lv.action), float(lv.energy_mf), float(lv.energy_mp))
        for lv in spectrum.levels
    ]
    return TableArtifact(
        ["n", "action", "energy_mf", "energy_mp"],
        rows,
        _metadata("quantize", params),
    )


def cmd_dos(args):
    params = _params(args)
    energies, periods = period_curve(params, args.samples)
    rows = [
        (float(e), float(e / params.eta), float(t), float(t / (2.0 * math.pi)))
        for e, t in zip(energies, periods)
    ]
    return TableArtifact(
        ["energy_mf", "energy_mp", "period", "dn_dE"],
        rows,
        _metadata("dos", params),
    )


def cmd_period(args):
    params = _params(args)
    t = period(args.energy, params)
    rows = [(float(args.energy), float(t), float(t / (2.0 * math.pi)))]
    return TableArtifact(
        ["energy_mf", "period", "dn_dE"],
        rows,
        _metadata("period", params),
    )


def cmd_fixed_points(args):
    params = _params(args)
    rows = [
        (
            float(fp.s_z_root),
            float(fp.location.sx),
            float(fp.location.sy),
            float(fp.location.sz),
            fp.stability,
            float(fp.energy),
        )
        for fp in fixed_points(params)
    ]
    return TableArtifact(
        ["s_z_root", "s_x", "s_y", "s_z", "stability", "energy"],
        rows,
        _metadata("fixed-points", params),
    )


def _mf_series(params, s0, t_max, samples, tol=MF_TOL):
    """The mean-field trajectory from s0 and its rows (t, s_x, s_y, s_z, energy)."""
    traj = integrate_trajectory(s0, t_max, params, tol=tol, samples=samples)
    energy = params.epsilon * traj.sz + params.v * traj.sx
    rows = [
        (float(t), float(x), float(y), float(z), float(h))
        for t, x, y, z, h in zip(traj.times, traj.sx, traj.sy, traj.sz, energy)
    ]
    return traj, rows


def cmd_mf_trajectory(args):
    params = _params(args)
    traj, rows = _mf_series(
        params, _mf_initial(args.init), args.t_max, args.samples, args.tol
    )
    meta = _metadata(
        "mf-trajectory",
        params,
        init=args.init,
        t_max=args.t_max,
        energy_drift=traj.energy_drift,
        surface_drift=traj.surface_drift,
    )
    return TableArtifact(["t", "s_x", "s_y", "s_z", "energy"], rows, meta)


def _mp_series(params, init, t_max, samples):
    """Rows (t, eta<K_x>, eta<K_y>, eta<K_z>, norm, energy) of the exact
    dynamics from the initial state named by ``init``."""
    basis = basis_states(params.n_particles)
    psi0 = _mp_initial(init, basis)
    generators = build_generators(basis)
    times = np.linspace(0.0, t_max, samples)
    rows = []
    for t, psi in zip(times, evolve_state(build_hamiltonian(params), psi0, times)):
        mom = observables(psi, generators, params)
        rows.append(
            (
                float(t),
                float(params.eta * mom.kx),
                float(params.eta * mom.ky),
                float(params.eta * mom.kz),
                float(np.linalg.norm(psi.amplitudes)),
                float(mom.energy),
            )
        )
    return rows


def cmd_mp_trajectory(args):
    params = _params(args)
    rows = _mp_series(params, args.init, args.t_max, args.samples)
    meta = _metadata("mp-trajectory", params, init=args.init, t_max=args.t_max)
    return TableArtifact(
        ["t", "eta_kx", "eta_ky", "eta_kz", "norm", "energy"], rows, meta
    )


def cmd_wkb_state(args):
    params = _params(args)
    state = wkb_state(args.level, params)
    rows = [
        (
            float(m),
            float(params.eta * m),
            float(a),
            bool(al),
            bool(un),
        )
        for m, a, al, un in zip(
            state.m_values, state.amplitudes, state.allowed, state.unreliable
        )
    ]
    meta = _metadata(
        "wkb-state",
        params,
        level=args.level,
        energy_mf=state.energy_mf,
        p_minus=state.turning.p_minus,
        p_plus=state.turning.p_plus,
    )
    return TableArtifact(["m", "p", "amplitude", "allowed", "unreliable"], rows, meta)


def _coherent_surface_rows(n, b_count):
    basis = basis_states(n)
    generators = build_generators(basis)
    eta = 1.0 / (n // 2 + 1)
    rows = []
    for b in np.linspace(-0.5, 0.5, b_count):
        radius = teardrop_radius(float(b))
        for sign in (1.0, -1.0):
            a = sign * radius
            if a == 0.0 and b == 0.0:
                continue
            spec = VariationalSpec(float(a), float(b), 0.0)
            psi = variational_ground_state(spec, basis)
            mom = observables(psi, generators)
            rows.append(
                (n, float(b), int(sign), float(eta * mom.kx), float(eta * mom.kz))
            )
    return rows


def cmd_coherent_surface(args):
    rows = _coherent_surface_rows(args.n, args.samples)
    return TableArtifact(
        ["n", "b", "a_sign", "eta_kx", "eta_kz"],
        rows,
        _metadata("coherent-surface", n=args.n, samples=args.samples),
    )


def compare_spectra(n, v, eps_values):
    """Exact vs semiclassical levels across an epsilon sweep, with the
    fixed-point energy bounds."""
    rows = []
    for eps in eps_values:
        params = make_params(float(eps), v, n)
        exact, _ = exact_spectrum(build_hamiltonian(params))
        semi = quantize(params).energies_mp
        spacing = float(np.mean(np.diff(exact))) if exact.size > 1 else math.nan
        emin, emax = energy_range(params)
        for k in range(exact.size):
            rows.append(
                (
                    float(eps),
                    k,
                    float(exact[k]),
                    float(semi[k]),
                    float(abs(exact[k] - semi[k])),
                    spacing,
                    emin,
                    emax,
                )
            )
    return rows


def cmd_compare(args):
    eps_values = _parse_epsilon_range(args.epsilon_range)
    rows = compare_spectra(args.n, args.v, eps_values)
    meta = _metadata(
        "compare", n=args.n, v=args.v, epsilon_range=args.epsilon_range
    )
    return TableArtifact(
        [
            "epsilon",
            "n",
            "energy_exact",
            "energy_semiclassical",
            "abs_error",
            "mean_spacing",
            "fp_energy_min",
            "fp_energy_max",
        ],
        rows,
        meta,
    )


# ---------------------------------------------------------------------------
# figure presets (paper parameter values as defaults)


def _fig1(args):
    ns = argparse.Namespace(n=args.n or 50)
    return cmd_kx_spectrum(ns)


def _fig2(args):
    eps_values = _parse_epsilon_range(args.epsilon_range or "-4:4:81")
    rows = [(n,) + row for n in (10, 50) for row in _sweep_rows(n, 1.0, eps_values)]
    return TableArtifact(
        ["n", "epsilon", "index", "energy", "eta_energy"],
        rows,
        _metadata("figure", id="fig2", v=1.0),
    )


_FIG3_INITS = [(-0.45, 0.0), (-0.3, math.pi), (0.0, math.pi), (0.2, math.pi),
               (0.4, math.pi), (0.3, 0.0)]


def _fig3(args):
    t_max = args.t_max or 20.0
    samples = args.samples or 401
    rows = []
    for eps in (0.0, 1.0, 2.0):
        params = make_params(eps, 1.0, 10)
        for traj_id, (p0, q0) in enumerate(_FIG3_INITS):
            radius = teardrop_radius(p0)
            s0 = bloch_point(radius * math.cos(q0), radius * math.sin(q0), p0)
            _, series = _mf_series(params, s0, t_max, samples)
            rows.extend((float(eps), traj_id) + row[:4] for row in series)
    return TableArtifact(
        ["epsilon", "trajectory", "t", "s_x", "s_y", "s_z"],
        rows,
        _metadata("figure", id="fig3", v=1.0),
    )


def _fig4_series(eps, init, n_values, t_max, samples):
    params = make_params(eps, 1.0, n_values[0])
    _, series = _mf_series(params, _mf_initial(init), t_max, samples)
    rows = [(float(eps), init, "mf") + row[:4] for row in series]
    for n in n_values:
        series = _mp_series(make_params(eps, 1.0, n), init, t_max, samples)
        rows.extend((float(eps), init, f"N{n}") + row[:4] for row in series)
    return rows


def _fig4(args):
    t_max = args.t_max or 10.0
    samples = args.samples or 201
    n_values = (20, 100, 500)
    rows = []
    for init in ("ground-kx", "ground-minus-kx"):
        rows.extend(_fig4_series(1.0, init, n_values, t_max, samples))
    rows.extend(_fig4_series(0.0, "ground-minus-kz", n_values, t_max, samples))
    return TableArtifact(
        ["epsilon", "init", "series", "t", "x", "y", "z"],
        rows,
        _metadata("figure", id="fig4", v=1.0),
    )


def _fig5(args):
    samples = args.samples or 101
    rows = []
    for n in (2, 4, 10, 100):
        rows.extend(_coherent_surface_rows(n, samples))
    return TableArtifact(
        ["n", "b", "a_sign", "eta_kx", "eta_kz"],
        rows,
        _metadata("figure", id="fig5"),
    )


def _fig6(args):
    samples = args.samples or 201
    rows = []
    for eps in (0.0, 2.0):
        params = make_params(eps, 1.0, 10)
        curves = potential_curves(params)
        p_grid = np.linspace(-0.5, 0.5, samples)
        u_minus = curves.u_minus(p_grid)
        u_plus = curves.u_plus(p_grid)
        rows.extend(
            ("potential", float(eps), float(p), float(um), float(up))
            for p, um, up in zip(p_grid, u_minus, u_plus)
        )
        emin, emax = energy_range(params)
        orbit_p, q = orbit(emin + 0.4 * (emax - emin), params, samples)
        rows.extend(
            ("orbit", float(eps), float(p), float(qq), float(2.0 * math.pi - qq))
            for p, qq in zip(orbit_p, q)
        )
    return TableArtifact(
        ["kind", "epsilon", "p", "y1", "y2"],
        rows,
        _metadata("figure", id="fig6", v=1.0),
    )


def _fig7(args):
    eps_values = _parse_epsilon_range(args.epsilon_range or "-4:4:81")
    rows = []
    for n in (4, 20):
        for row in compare_spectra(n, 1.0, eps_values):
            rows.append((n,) + row[:5])
    return TableArtifact(
        ["n", "epsilon", "level", "energy_exact", "energy_semiclassical",
         "abs_error"],
        rows,
        _metadata("figure", id="fig7", v=1.0),
    )


def _fig8(args):
    n = args.n or 10000
    bins = 40
    rows = []
    for eps in (0.0, 1.0, 2.0, 5.0):
        params = make_params(eps, 1.0, n)
        vals, _ = exact_spectrum(build_hamiltonian(params))
        hist, edges = np.histogram(vals, bins=bins, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dim = n // 2 + 1
        for center, h in zip(centers, hist):
            dos = density_of_states(float(params.eta * center), params)
            rows.append(
                (
                    float(eps),
                    float(center),
                    float(h),
                    float(dos),
                    float(dos / dim),
                )
            )
    return TableArtifact(
        ["epsilon", "energy", "hist_density", "dn_dE", "dn_dE_normalised"],
        rows,
        _metadata("figure", id="fig8", n=n, v=1.0),
    )


def _fig9(args):
    n_part = args.n or 40
    params = make_params(0.5, 1.0, n_part)
    vals, vecs = exact_spectrum(build_hamiltonian(params), want_vectors=True)
    rows = []
    for level in (1, 3, 10):
        state = wkb_state(level, params)
        exact = np.abs(vecs[:, level])
        rows.extend(
            (
                level,
                float(m),
                float(params.eta * m),
                float(a),
                float(x),
                bool(un),
            )
            for m, a, x, un in zip(
                state.m_values, state.amplitudes, exact, state.unreliable
            )
        )
    return TableArtifact(
        ["level", "m", "p", "wkb_amplitude", "exact_amplitude", "unreliable"],
        rows,
        _metadata("figure", id="fig9", n=n_part, epsilon=0.5, v=1.0),
    )


_FIGURES = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
}


def cmd_figure(args):
    if args.id not in _FIGURES:
        raise ValueError(f"unknown figure id {args.id!r}")
    return _FIGURES[args.id](args)


# ---------------------------------------------------------------------------
# argument parsing; the type names appear in argparse's "invalid <type> value"


def finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_model_flags(parser, n_default=None):
    parser.add_argument("--n", type=int, default=n_default, required=n_default is None,
                        help="particle number N (even)")
    parser.add_argument("--epsilon", type=finite, default=0.0)
    parser.add_argument("--v", type=finite, default=1.0)


def _add_output_flags(parser):
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--format", choices=("csv", "json", "svg"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="teardrop",
        description="Atom-molecule conversion: exact spectra, teardrop "
        "mean-field dynamics, and semiclassical quantisation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of H = eps K_z + v K_x")
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("kx-spectrum", help="eigenvalues of K_x")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_kx_spectrum)

    p = sub.add_parser("sweep-spectrum", help="spectrum over an epsilon sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", type=finite, default=1.0)
    p.add_argument("--epsilon-range", required=True, metavar="a:b:steps")
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep_spectrum)

    p = sub.add_parser("quantize", help="semiclassical levels")
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("dos", help="analytic density of states")
    _add_model_flags(p)
    p.add_argument("--samples", type=count, default=200)
    _add_output_flags(p)
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("period", help="orbit period at one energy")
    _add_model_flags(p)
    p.add_argument("--energy", type=finite, required=True,
                   help="rescaled (mean-field) energy")
    _add_output_flags(p)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("fixed-points", help="mean-field fixed points")
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("mf-trajectory", help="integrate the mean-field flow")
    _add_model_flags(p)
    p.add_argument("--init", default="bloch:0.5,0,0")
    p.add_argument("--t-max", type=finite, default=20.0)
    p.add_argument("--samples", type=count, default=500)
    p.add_argument("--tol", type=finite, default=MF_TOL)
    _add_output_flags(p)
    p.set_defaults(func=cmd_mf_trajectory)

    p = sub.add_parser("mp-trajectory", help="exact many-particle dynamics")
    _add_model_flags(p)
    p.add_argument("--init", default="ground-kx")
    p.add_argument("--t-max", type=finite, default=10.0)
    p.add_argument("--samples", type=count, default=201)
    _add_output_flags(p)
    p.set_defaults(func=cmd_mp_trajectory)

    p = sub.add_parser("wkb-state", help="semiclassical eigenvector envelope")
    _add_model_flags(p)
    p.add_argument("--level", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_wkb_state)

    p = sub.add_parser("coherent-surface",
                       help="variational ground-state sweep (teardrop approach)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=count, default=101)
    _add_output_flags(p)
    p.set_defaults(func=cmd_coherent_surface)

    p = sub.add_parser("compare", help="exact vs semiclassical spectra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", type=finite, default=1.0)
    p.add_argument("--epsilon-range", required=True, metavar="a:b:steps")
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure", help="reproduce a figure's underlying data")
    p.add_argument("--id", required=True, choices=FIGURE_IDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon-range", default=None, metavar="a:b:steps")
    p.add_argument("--t-max", type=finite, default=None)
    p.add_argument("--samples", type=count, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        artifact = args.func(args)
        name = args.id if getattr(args, "id", None) else args.command
        out = args.out or f"{name}.{args.format}"
        artifact.write(out, args.format)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
