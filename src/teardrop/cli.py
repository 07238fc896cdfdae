"""Command-line front end: spectra, dynamics, semiclassics, figure data.

Every subcommand is one function of ``teardrop.tables``; this module
parses the flags, calls that function with their values as keyword
arguments and writes the table it returns (CSV by default; see
``teardrop <command> --help``).  Exit codes: 0 success, 1 numerical
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import tables

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


def _add_model_flags(parser):
    parser.add_argument("--n", type=int, required=True,
                        help="particle number N (even)")
    parser.add_argument("--epsilon", type=finite, default=0.0)
    parser.add_argument("--v", type=finite, default=1.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="teardrop",
        description="Atom-molecule conversion: exact spectra, teardrop "
        "mean-field dynamics, and semiclassical quantisation.",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output path")
    output.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, build, summary):
        p = sub.add_parser(name, parents=[output], help=summary)
        p.set_defaults(func=build)
        return p

    p = command("spectrum", tables.spectrum, "eigenvalues of H = eps K_z + v K_x")
    _add_model_flags(p)

    p = command("kx-spectrum", tables.kx_spectrum, "eigenvalues of K_x")
    p.add_argument("--n", type=int, required=True)

    p = command("sweep-spectrum", tables.sweep_spectrum,
                "spectrum over an epsilon sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", type=finite, default=1.0)
    p.add_argument("--epsilon-range", required=True, metavar="a:b:steps")

    p = command("quantize", tables.quantize, "semiclassical levels")
    _add_model_flags(p)

    p = command("dos", tables.dos, "analytic density of states")
    _add_model_flags(p)
    p.add_argument("--samples", type=count, default=200)

    p = command("period", tables.period, "orbit period at one energy")
    _add_model_flags(p)
    p.add_argument("--energy", type=finite, required=True,
                   help="rescaled (mean-field) energy")

    p = command("fixed-points", tables.fixed_points, "mean-field fixed points")
    _add_model_flags(p)

    p = command("mf-trajectory", tables.mf_trajectory,
                "integrate the mean-field flow")
    _add_model_flags(p)
    p.add_argument("--init", default="bloch:0.5,0,0")
    p.add_argument("--t-max", type=finite, default=20.0)
    p.add_argument("--samples", type=count, default=500)
    p.add_argument("--tol", type=finite, default=tables.MF_TOL)

    p = command("mp-trajectory", tables.mp_trajectory,
                "exact many-particle dynamics")
    _add_model_flags(p)
    p.add_argument("--init", default="ground-kx")
    p.add_argument("--t-max", type=finite, default=10.0)
    p.add_argument("--samples", type=count, default=201)

    p = command("wkb-state", tables.wkb_state, "semiclassical eigenvector envelope")
    _add_model_flags(p)
    p.add_argument("--level", type=int, required=True)

    p = command("coherent-surface", tables.coherent_surface,
                "variational ground-state sweep (teardrop approach)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=count, default=101)

    p = command("compare", tables.compare, "exact vs semiclassical spectra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", type=finite, default=1.0)
    p.add_argument("--epsilon-range", required=True, metavar="a:b:steps")

    p = command("figure", tables.figure, "reproduce a figure's underlying data")
    p.add_argument("--id", required=True, choices=tables.FIGURE_IDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon-range", default=None, metavar="a:b:steps")
    p.add_argument("--t-max", type=finite, default=None)
    p.add_argument("--samples", type=count, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    flags = vars(args)
    command, build, out, fmt = (
        flags.pop(key) for key in ("command", "func", "out", "format")
    )
    try:
        artifact = build(**flags)
        artifact.write(out or f"{flags.get('id') or command}.{fmt}", fmt)
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
