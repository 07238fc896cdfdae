"""Reference checks for the CLI tables the benchmark produces.

Nothing here imports ``teardrop``.  The fixed-N sector Hamiltonian is
rebuilt from the bosonic matrix elements

    <m+1| K_+ |m> = sqrt((n_a + 1)(n_a + 2) n_b / N),
    n_a = 2m + N/2,  n_b = N/4 - m,  m = -N/4 .. N/4,

so H = eps*K_z + v*K_x is tridiagonal with diagonal eps*m and
off-diagonal (v/2)*lambda.  Spectra come from scipy's tridiagonal
eigensolvers, dynamics from ``scipy.sparse.linalg.expm_multiply``, and the
mean-field energy range from a bounded scalar minimisation over the
teardrop profile r(p)^2 = (1 - 2p)(1 + 2p)^2 / 4.

Every check raises ``CheckError`` on its first violation.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import expm_multiply

# Semiclassical levels must sit within this many local spacings of the
# exact ones.  At N = 388, the largest size of the sweep, the worst error
# is 0.022 at eps = +-sqrt(2) exactly (the level at the tip), where it
# grows with N; 0.02 away it is 0.012-0.017, and at eps = 1, 1.2, 1.6 and
# 2 it is at most 0.002.
LEVEL_BOUND_SPACINGS = 0.05
# Bulk WKB envelopes overlap the exact |eigenvector| by at least this on
# the rows the method does not flag as unreliable.
WKB_OVERLAP_MIN = 0.95
# The integral of dn/dE over an interior window must match the number of
# exact levels in it to this share, plus one level for the window ends.
DOS_COUNT_REL = 0.01
# Distance of the mean-field start from the many-particle moments at t = 0.
# The variational states differ from the classical extremal points by
# O(1/N): 0.0125 at N = 100, 0.0026 at N = 500 and 0.0006 at N = 2000.
CORRESPONDENCE_TOL = 0.02
# Bound on the mean-field integrator's recorded drift in H and in the
# surface constraint at tol = 1e-10.
MF_DRIFT_MAX = 1e-7


class CheckError(AssertionError):
    """A table disagrees with the reference computation."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# reading tables


class Table:
    """A CLI CSV table: '# key = value' metadata, a header, then rows."""

    def __init__(self, path):
        self.meta = {}
        body = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    self.meta[key.strip()] = value.strip()
                else:
                    body.append(line)
        reader = csv.reader(body)
        self.columns = next(reader)
        self.rows = [row for row in reader if row]

    def __len__(self):
        return len(self.rows)

    def col(self, name):
        k = self.columns.index(name)
        return np.array([float(row[k]) for row in self.rows])

    def meta_float(self, key):
        return float(self.meta[key])


# ---------------------------------------------------------------------------
# the sector, built from the bosonic matrix elements


class Sector:
    """H = eps K_z + v K_x on the fixed-N sector, with lazily computed
    eigenvalues."""

    def __init__(self, n, epsilon, v):
        self.n, self.epsilon, self.v = int(n), float(epsilon), float(v)
        self.dim = self.n // 2 + 1
        self.eta = 1.0 / self.dim
        self.m = -self.n / 4.0 + np.arange(self.dim)
        n_a = 2.0 * self.m[:-1] + self.n / 2.0
        n_b = self.n / 4.0 - self.m[:-1]
        self.ladder = np.sqrt((n_a + 1.0) * (n_a + 2.0) * n_b / self.n)
        self.diag = self.epsilon * self.m
        self.offdiag = 0.5 * self.v * self.ladder
        self._values = None

    @property
    def values(self):
        if self._values is None:
            self._values = eigvalsh_tridiagonal(self.diag, self.offdiag)
        return self._values

    def vector(self, k):
        _, vec = eigh_tridiagonal(
            self.diag, self.offdiag, select="i", select_range=(k, k)
        )
        return vec[:, 0]

    @property
    def scale(self):
        """Upper bound on |H|: |eps| N/4 + |v| max(lambda)."""
        top = self.ladder.max() if self.ladder.size else 0.0
        return abs(self.epsilon) * self.n / 4.0 + abs(self.v) * top

    def sparse(self):
        return sp.diags(
            [self.offdiag, self.diag, self.offdiag], [-1, 0, 1], format="csr"
        )

    def moments(self, psi):
        """(<K_x>, <K_y>, <K_z>) for rows of psi."""
        z = np.conj(psi[..., :-1]) * psi[..., 1:]
        kx = (self.ladder * z.real).sum(axis=-1)
        ky = -(self.ladder * z.imag).sum(axis=-1)
        kz = (self.m * np.abs(psi) ** 2).sum(axis=-1)
        return kx, ky, kz


def teardrop_radius(p):
    p = np.clip(np.asarray(p, dtype=float), -0.5, 0.5)
    return np.sqrt(np.maximum(0.25 * (1.0 - 2.0 * p) * (1.0 + 2.0 * p) ** 2, 0.0))


def mean_field_range(epsilon, v):
    """[min, max] of eps*p + v*r(p)*cos(q) over the teardrop surface."""
    grid = np.linspace(-0.5, 0.5, 4001)
    step = grid[1] - grid[0]

    def lowest(f):
        # coarse grid, then a bounded refinement; the ends are candidates
        # because the minimum may sit at the cusp
        k = int(np.argmin(f(grid)))
        lo, hi = max(-0.5, grid[k] - step), min(0.5, grid[k] + step)
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-13})
        return min(float(res.fun), float(f(-0.5)), float(f(0.5)))

    emin = lowest(lambda p: epsilon * p - abs(v) * teardrop_radius(p))
    emax = -lowest(lambda p: -(epsilon * p + abs(v) * teardrop_radius(p)))
    return emin, emax


# ---------------------------------------------------------------------------
# checks, one per CLI table


def _close(a, b, tol, what):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0
    expect(np.shape(a) == np.shape(b), f"{what}: shape {np.shape(a)} vs {np.shape(b)}")
    expect(err <= tol, f"{what}: deviation {err:.3e} above {tol:.1e}")


def check_compare(path, n, v, eps_values, level_bound=LEVEL_BOUND_SPACINGS):
    """``compare``: exact levels, semiclassical levels within ``level_bound``
    local spacings, the error and spacing columns, and the fixed-point
    energy range."""
    table = Table(path)
    dim = n // 2 + 1
    expect(len(table) == dim * len(eps_values),
           f"compare: {len(table)} rows for {len(eps_values)} x {dim} levels")
    eps_col = table.col("epsilon").reshape(len(eps_values), dim)
    level = table.col("n").reshape(len(eps_values), dim)
    exact = table.col("energy_exact").reshape(len(eps_values), dim)
    semi = table.col("energy_semiclassical").reshape(len(eps_values), dim)
    abs_err = table.col("abs_error").reshape(len(eps_values), dim)
    spacing = table.col("mean_spacing").reshape(len(eps_values), dim)
    fp_min = table.col("fp_energy_min").reshape(len(eps_values), dim)
    fp_max = table.col("fp_energy_max").reshape(len(eps_values), dim)
    for i, eps in enumerate(eps_values):
        ref = Sector(n, eps, v)
        tol = 1e-10 * (1.0 + ref.scale)
        _close(eps_col[i], np.full(dim, eps), 1e-12 * (1.0 + abs(eps)), "compare epsilon")
        _close(level[i], np.arange(dim), 0.0, "compare level index")
        _close(exact[i], ref.values, tol, f"compare exact levels at eps={eps}")
        local = np.gradient(ref.values)
        worst = float(np.max(np.abs(semi[i] - ref.values) / local))
        expect(worst <= level_bound,
               f"compare: semiclassical level off by {worst:.4f} local "
               f"spacings at N={n}, eps={eps} (bound {level_bound})")
        _close(abs_err[i], np.abs(exact[i] - semi[i]), tol, "compare abs_error")
        _close(spacing[i], np.full(dim, np.mean(np.diff(ref.values))), tol,
               "compare mean_spacing")
        emin, emax = mean_field_range(eps, v)
        _close(fp_min[i], np.full(dim, emin), 1e-9, "compare fp_energy_min")
        _close(fp_max[i], np.full(dim, emax), 1e-9, "compare fp_energy_max")


def check_spectrum(path, ref: Sector):
    """``spectrum``: eigenvalues of the reference H, the eta column, and
    the trace identities sum E = eps sum m and
    sum E^2 = eps^2 sum m^2 + 2 sum offdiag^2."""
    table = Table(path)
    energy = table.col("energy")
    expect(len(table) == ref.dim, f"spectrum: {len(table)} rows, expected {ref.dim}")
    _close(table.col("index"), np.arange(ref.dim), 0.0, "spectrum index")
    _close(energy, ref.values, 1e-10 * (1.0 + ref.scale), "spectrum eigenvalues")
    _close(table.col("eta_energy"), ref.eta * energy, 1e-14 * (1.0 + ref.scale),
           "spectrum eta_energy")
    trace1 = ref.epsilon * ref.m.sum()
    trace2 = ref.epsilon**2 * (ref.m**2).sum() + 2.0 * (ref.offdiag**2).sum()
    scale1 = ref.dim * (1.0 + ref.scale)
    _close(energy.sum(), trace1, 1e-11 * scale1, "spectrum trace identity sum E")
    _close((energy**2).sum(), trace2, 1e-11 * (1.0 + trace2),
           "spectrum trace identity sum E^2")


def check_dos(path, ref: Sector, samples):
    """``dos``: the grid spans the mean-field range, dn/dE = T/(2 pi), and
    on interior windows away from the band edges and the separatrix the
    integral of dn/dE matches the count of reference eigenvalues."""
    table = Table(path)
    expect(len(table) == samples, f"dos: {len(table)} rows, expected {samples}")
    e_mf = table.col("energy_mf")
    e_mp = table.col("energy_mp")
    period = table.col("period")
    dn_de = table.col("dn_dE")
    emin, emax = mean_field_range(ref.epsilon, ref.v)
    span = emax - emin
    _close(e_mf[[0, -1]], [emin, emax], 1e-8 * span, "dos grid ends")
    expect(np.all(np.diff(e_mf) > 0.0), "dos: energy grid not ascending")
    _close(e_mp, e_mf / ref.eta, 1e-12 * (1.0 + np.abs(e_mp).max()), "dos energy_mp")
    expect(np.all(np.isfinite(period) & (period > 0.0)), "dos: non-positive period")
    _close(dn_de, period / (2.0 * math.pi), 1e-12 * dn_de.max(), "dos dn_dE = T/2pi")

    interior = (e_mf > emin + 0.1 * span) & (e_mf < emax - 0.1 * span)
    if abs(ref.epsilon) < math.sqrt(2.0) * abs(ref.v):
        interior &= np.abs(e_mf + 0.5 * ref.epsilon) > 0.1 * span
    windows = np.split(np.flatnonzero(interior),
                       np.flatnonzero(np.diff(np.flatnonzero(interior)) > 1) + 1)
    checked = 0
    for idx in windows:
        if idx.size < 5:
            continue
        lo, hi = e_mp[idx[0]], e_mp[idx[-1]]
        predicted = float(np.trapezoid(dn_de[idx], e_mp[idx]))
        counted = int(np.count_nonzero((ref.values >= lo) & (ref.values <= hi)))
        expect(abs(predicted - counted) <= DOS_COUNT_REL * counted + 1.0,
               f"dos: integral {predicted:.2f} vs {counted} exact levels on "
               f"[{lo:.6g}, {hi:.6g}] at N={ref.n}, eps={ref.epsilon}")
        checked += 1
    expect(checked > 0, "dos: no interior window to count")


def check_wkb(path, ref: Sector, level, overlap_min=WKB_OVERLAP_MIN):
    """``wkb-state``: normalised envelope on the reference m grid, allowed
    flags from the reported turning points, and overlap with the reference
    eigenvector."""
    table = Table(path)
    expect(len(table) == ref.dim, f"wkb-state: {len(table)} rows, expected {ref.dim}")
    _close(table.col("m"), ref.m, 0.0, "wkb-state m grid")
    p = table.col("p")
    _close(p, ref.eta * ref.m, 1e-15, "wkb-state p grid")
    amp = table.col("amplitude")
    expect(np.all(amp >= 0.0), "wkb-state: negative amplitude")
    _close(np.linalg.norm(amp), 1.0, 1e-12, "wkb-state norm")
    p_lo, p_hi = table.meta_float("p_minus"), table.meta_float("p_plus")
    _close(table.col("allowed"), ((p > p_lo) & (p < p_hi)).astype(float), 0.0,
           "wkb-state allowed flags")
    # rows next to a turning point are flagged unreliable by the method
    # itself; the overlap is taken over the rest, both sides renormalised
    reliable = table.col("unreliable") == 0.0
    wkb = amp[reliable] / np.linalg.norm(amp[reliable])
    exact = np.abs(ref.vector(level))[reliable]
    overlap = float(wkb @ exact / np.linalg.norm(exact))
    expect(overlap >= overlap_min,
           f"wkb-state: overlap {overlap:.4f} with the exact eigenvector "
           f"below {overlap_min} at N={ref.n}, eps={ref.epsilon}, level={level}")


# The named initial states: ground states of the preparation operators and
# the classical points they correspond to.
_R_SIXTH = float(teardrop_radius(1.0 / 6.0))
MF_INITS = {
    "ground-kx": (-_R_SIXTH, 0.0, 1.0 / 6.0),
    "ground-minus-kx": (_R_SIXTH, 0.0, 1.0 / 6.0),
    "ground-kz": (0.0, 0.0, -0.5),
    "ground-minus-kz": (0.0, 0.0, 0.5),
}


def initial_state(ref: Sector, init):
    """Ground state of +-K_x or +-K_z, the preparation named by ``init``."""
    sign = -1.0 if "minus" in init else 1.0
    if init.endswith("kx"):
        _, vec = eigh_tridiagonal(np.zeros(ref.dim), sign * 0.5 * ref.ladder,
                                  select="i", select_range=(0, 0))
        return vec[:, 0].astype(complex)
    psi = np.zeros(ref.dim, dtype=complex)
    psi[0 if sign > 0 else -1] = 1.0
    return psi


def check_mp_trajectory(path, ref: Sector, init, t_max, samples):
    """``mp-trajectory``: unit norm, conserved <H>, and the moments of an
    ``expm_multiply`` propagation of the reference initial state."""
    table = Table(path)
    expect(len(table) == samples, f"mp-trajectory: {len(table)} rows, expected {samples}")
    times = np.linspace(0.0, t_max, samples)
    _close(table.col("t"), times, 1e-13 * (1.0 + t_max), "mp-trajectory times")
    _close(table.col("norm"), np.ones(samples), 1e-10, "mp-trajectory norm")
    energy = table.col("energy")
    _close(energy, np.full(samples, energy[0]), 1e-10 * (1.0 + ref.scale),
           "mp-trajectory <H> conservation")
    psi = expm_multiply(-1j * ref.sparse(), initial_state(ref, init), start=0.0,
                        stop=t_max, num=samples, endpoint=True)
    kx, ky, kz = ref.moments(psi)
    _close(energy, ref.epsilon * kz + ref.v * kx, 1e-8 * (1.0 + ref.scale),
           "mp-trajectory energy vs reference")
    for name, moment in (("eta_kx", kx), ("eta_ky", ky), ("eta_kz", kz)):
        _close(table.col(name), ref.eta * moment, 1e-8, f"mp-trajectory {name}")


def check_mf_trajectory(path, epsilon, v, init, t_max, samples):
    """``mf-trajectory``: the named start, the energy column, and the drift
    metadata, recomputed from the table and bounded."""
    table = Table(path)
    expect(len(table) == samples, f"mf-trajectory: {len(table)} rows, expected {samples}")
    _close(table.col("t"), np.linspace(0.0, t_max, samples), 1e-13 * (1.0 + t_max),
           "mf-trajectory times")
    sx, sy, sz = table.col("s_x"), table.col("s_y"), table.col("s_z")
    _close([sx[0], sy[0], sz[0]], MF_INITS[init], 1e-15, "mf-trajectory start")
    energy = epsilon * sz + v * sx
    _close(table.col("energy"), energy, 1e-15 * (1.0 + abs(epsilon) + abs(v)),
           "mf-trajectory energy column")
    drift_e = float(np.max(np.abs(energy - energy[0])))
    p = np.clip(sz, -0.5, 0.5)
    radius_sq = np.maximum(0.25 * (1.0 - 2.0 * p) * (1.0 + 2.0 * p) ** 2, 0.0)
    drift_s = float(np.max(np.abs(sx**2 + sy**2 - radius_sq)))
    meta_e = table.meta_float("energy_drift")
    meta_s = table.meta_float("surface_drift")
    _close(meta_e, drift_e, 1e-6 * drift_e + 1e-17, "mf-trajectory energy_drift metadata")
    _close(meta_s, drift_s, 1e-6 * drift_s + 1e-17, "mf-trajectory surface_drift metadata")
    expect(max(meta_e, meta_s) <= MF_DRIFT_MAX,
           f"mf-trajectory: drift {max(meta_e, meta_s):.2e} above {MF_DRIFT_MAX}")


def check_correspondence(mp_path, mf_path, tol=CORRESPONDENCE_TOL):
    """Many-particle moments and the mean-field point agree at t = 0."""
    mp, mf = Table(mp_path), Table(mf_path)
    quantum = np.array([mp.col(c)[0] for c in ("eta_kx", "eta_ky", "eta_kz")])
    classical = np.array([mf.col(c)[0] for c in ("s_x", "s_y", "s_z")])
    err = float(np.max(np.abs(quantum - classical)))
    expect(err <= tol, f"start of mp vs mf trajectory differs by {err:.3e} (tol {tol})")
