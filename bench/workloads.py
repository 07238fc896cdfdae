"""Operation mixes for the three workloads.

An operation is a short list of CLI argument vectors that run in one
process through ``teardrop.cli.main``, plus a check of the tables they
write.  A run is made of whole rounds.  Every round holds one operation
per size stratum, smallest first, so each round has the same make-up.
Three strata sit close together in the middle of each mix, so the
median operation time is taken over three operations per round rather
than one.

The continuous parameters of stratum j in round r follow the additive
recurrence frac(c_j + r*alpha + shift): a low-discrepancy sequence that
covers its range evenly within a few rounds and never repeats.  The seed
sets the shift, up to 1/64 of the range, and a jitter of a few particles
on each size.  So every seed runs the same design, moved slightly, and
differences between seeds come from the machine, not from the mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Roberts' R2 increments (the plastic-number recurrence for two
# coordinates) step the rounds; the golden ratio spreads the strata.
ALPHA_1 = 0.7548776662466927
ALPHA_2 = 0.5698402909980532
GOLDEN = 0.6180339887498949
SHIFT_MAX = 1.0 / 64.0

INITS = ("ground-kx", "ground-minus-kx", "ground-kz", "ground-minus-kz")


@dataclass
class Operation:
    """CLI calls timed together, then checked together."""

    label: str
    n: int
    calls: list
    check: Callable[[], None]


def _fmt(x):
    return repr(float(x))


class Workload:
    name = ""
    strata = ()
    jitter = ()  # (lowest, highest) particle offset, in steps of 2

    def __init__(self, seed, out_dir):
        self.seed = int(seed)
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, self.ident])
        self.shift = SHIFT_MAX * rng.random(2)

    @property
    def ident(self):
        return sum(self.name.encode())

    def _u(self, j, r):
        """Two low-discrepancy coordinates in [0, 1) for stratum j, round r."""
        c = j * GOLDEN
        u1 = math.fmod(c + r * ALPHA_1 + self.shift[0], 1.0)
        u2 = math.fmod(c + r * ALPHA_2 + self.shift[1], 1.0)
        return u1, u2

    def _n(self, j, r):
        rng = np.random.default_rng([self.seed, self.ident, r, j])
        lo, hi = self.jitter
        return int(self.strata[j] + 2 * rng.integers(lo, hi + 1))

    def round(self, r):
        return [self.operation(self._n(j, r), *self._u(j, r), j + r)
                for j in range(len(self.strata))]

    def warmup(self):
        raise NotImplementedError

    def operation(self, n, u1, u2, turn):
        raise NotImplementedError

    def path(self, stem):
        return str(self.out / f"{stem}.csv")


class SemiclassicalSweep(Workload):
    """One ``compare`` table per operation: exact and Bohr-Sommerfeld
    levels on a 2-point eps grid a:a+8 inside [-6, 6], v = 1.  Every grid
    starts below -2 and ends at or above 2, so it crosses both
    transcritical points +-sqrt(2)."""

    name = "semiclassical-sweep"
    strata = (24, 48, 88, 96, 104, 192, 384)
    jitter = (-2, 2)
    steps = 2
    spacing = 8.0

    def _compare(self, n, start, steps, spacing, label):
        stop = start + (steps - 1) * spacing
        path = self.path("compare")
        argv = ["compare", "--n", str(n), "--v", "1.0",
                f"--epsilon-range={_fmt(start)}:{_fmt(stop)}:{steps}",
                "--out", path]
        eps = np.linspace(float(_fmt(start)), float(_fmt(stop)), steps)
        return Operation(label, n, [argv],
                         lambda: ref.check_compare(path, n, 1.0, eps))

    def warmup(self):
        return [self._compare(10, -2.0, 2, 4.0, "warmup")]

    def operation(self, n, u1, u2, turn):
        return self._compare(n, -6.0 + 4.0 * u1, self.steps, self.spacing,
                             "compare")


class LargeNSpectrum(Workload):
    """``spectrum``, ``dos`` and ``wkb-state`` at one large N per
    operation, eps in [-6, 6], v = 1, and a bulk level between 10 % and
    90 % of the sector."""

    name = "large-n-spectrum"
    strata = (2000, 4400, 4600, 4800, 10000)
    jitter = (-5, 0)
    dos_samples = 200

    def _triple(self, n, eps, level, label):
        sector = ref.Sector(n, eps, 1.0)
        model = ["--n", str(n), "--epsilon", _fmt(eps), "--v", "1.0"]
        paths = {k: self.path(k) for k in ("spectrum", "dos", "wkb")}
        calls = [
            ["spectrum", *model, "--out", paths["spectrum"]],
            ["dos", *model, "--samples", str(self.dos_samples),
             "--out", paths["dos"]],
            ["wkb-state", *model, "--level", str(level), "--out", paths["wkb"]],
        ]

        def check():
            ref.check_spectrum(paths["spectrum"], sector)
            ref.check_dos(paths["dos"], sector, self.dos_samples)
            ref.check_wkb(paths["wkb"], sector, level)

        return Operation(label, n, calls, check)

    def warmup(self):
        return [self._triple(200, 0.7, 50, "warmup")]

    def operation(self, n, u1, u2, turn):
        dim = n // 2 + 1
        level = int(dim * (0.1 + 0.8 * u2))
        return self._triple(n, -6.0 + 12.0 * u1, level, "spectrum-dos-wkb")


class ManyBodyDynamics(Workload):
    """``mp-trajectory`` then ``mf-trajectory`` on the same (N, eps, init)
    per operation: eps in [-2, 2], v = 1, t in [0, 3] at 101 samples, the
    four named initial states in rotation."""

    name = "many-body-dynamics"
    strata = (500, 800, 1100, 1200, 1300, 1600, 2000)
    jitter = (-4, 0)
    t_max = 3.0
    samples = 101

    def _pair(self, n, eps, init, label):
        model = ["--n", str(n), "--epsilon", _fmt(eps), "--v", "1.0",
                 "--init", init, "--t-max", _fmt(self.t_max),
                 "--samples", str(self.samples)]
        mp, mf = self.path("mp"), self.path("mf")
        calls = [["mp-trajectory", *model, "--out", mp],
                 ["mf-trajectory", *model, "--out", mf]]

        def check():
            sector = ref.Sector(n, eps, 1.0)
            ref.check_mp_trajectory(mp, sector, init, self.t_max, self.samples)
            ref.check_mf_trajectory(mf, eps, 1.0, init, self.t_max, self.samples)
            ref.check_correspondence(mp, mf)

        return Operation(label, n, calls, check)

    def warmup(self):
        return [self._pair(100, 0.5, "ground-kx", "warmup")]

    def operation(self, n, u1, u2, turn):
        init = INITS[turn % len(INITS)]
        return self._pair(n, -2.0 + 4.0 * u1, init, "mp-mf-trajectory")


WORKLOADS = {
    cls.name: cls for cls in (SemiclassicalSweep, LargeNSpectrum, ManyBodyDynamics)
}
