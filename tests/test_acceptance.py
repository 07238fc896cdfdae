"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import math
import time

import numpy as np
import pytest

from conftest import fock_sector_generators
from teardrop.core import basis_states, make_params, teardrop_radius
from teardrop.meanfield import (
    BlochPoint,
    energy_range,
    fixed_points,
    integrate_trajectory,
)
from teardrop.quantum import (
    VariationalSpec,
    build_generators,
    build_hamiltonian,
    casimir_matrix,
    evolve_state,
    exact_spectrum,
    observables,
    structure_polynomial,
    variational_ground_state,
)
from teardrop.semiclassics import (
    _gauss_nodes,
    elliptic_k,
    period,
    quantize,
    turning_points,
    wkb_state,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    return ok


def commutator(a, b):
    return a @ b - b @ a


def test_01_algebra_oracle():
    start = time.perf_counter()
    worst_entry = 0.0
    worst_comm = 0.0
    for n in (2, 4, 8, 12):
        gens = build_generators(basis_states(n))
        oracle = fock_sector_generators(n)
        for label in ("Kx", "Ky", "Kz", "Kplus", "Kminus"):
            worst_entry = max(
                worst_entry,
                float(np.abs(gens[label].to_dense() - oracle[label]).max()),
            )
        kx, ky, kz = (gens[k].to_dense() for k in ("Kx", "Ky", "Kz"))
        kp, km = gens["Kplus"].to_dense(), gens["Kminus"].to_dense()
        f_poly = structure_polynomial(kz, float(n) * np.eye(n // 2 + 1), float(n))
        for resid in (
            commutator(kz, kp) - kp,
            commutator(kz, km) + km,
            commutator(kz, kx) - 1j * ky,
            commutator(ky, kz) - 1j * kx,
            commutator(kp, km) - f_poly,
            commutator(kx, ky) - 0.5j * f_poly,
        ):
            worst_comm = max(worst_comm, float(np.abs(resid).max()))
    elapsed = time.perf_counter() - start
    ok = worst_entry <= 1e-12 and worst_comm <= 1e-10 and elapsed < 1.0
    assert report(
        1,
        "generator algebra vs Fock oracle",
        ok,
        f"entry {worst_entry:.2e}, commutator {worst_comm:.2e}, {elapsed:.2f}s",
    )


def test_02_decoupled_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 100, 1000):
        semi = quantize(make_params(1.0, 0.0, n)).energies_mp
        expected = np.arange(n // 2 + 1) - n / 4.0
        worst = max(worst, float(np.abs(semi - expected).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(
        2, "v=0 levels exact", ok, f"worst {worst:.2e}, {elapsed:.2f}s"
    )


def test_03_two_particle_closed_form():
    worst = 0.0
    for eps in np.linspace(-3.0, 3.0, 10):
        for v in np.linspace(0.2, 3.0, 10):
            vals, _ = exact_spectrum(build_hamiltonian(make_params(eps, v, 2)))
            expected = 0.5 * math.hypot(eps, v)
            worst = max(worst, abs(vals[0] + expected), abs(vals[1] - expected))
    ok = worst <= 1e-12
    assert report(3, "N=2 closed-form spectrum", ok, f"worst {worst:.2e}")


def test_04_spectral_correspondence_sweep():
    start = time.perf_counter()
    eps_grid = np.linspace(-4.0, 4.0, 81)
    worst_ratio = 0.0
    worst_at = (0.0, 0)
    mid_errors = {4: [], 20: []}
    for n in (4, 20):
        for eps in eps_grid:
            params = make_params(float(eps), 1.0, n)
            exact, _ = exact_spectrum(build_hamiltonian(params))
            semi = quantize(params).energies_mp
            err = np.abs(semi - exact)
            frac = np.arange(n // 2 + 1) / (n // 2)
            band = (frac >= 0.25) & (frac <= 0.75)
            mid_errors[n].append(params.eta * err[band].mean())
            if n == 20:
                local = np.gradient(exact)
                ratios = err / local
                if ratios.max() > worst_ratio:
                    worst_ratio = float(ratios.max())
                    worst_at = (float(eps), int(np.argmax(ratios)))
    elapsed = time.perf_counter() - start
    mid_ok = np.mean(mid_errors[20]) < np.mean(mid_errors[4])
    level_ok = worst_ratio <= 0.10
    ok = level_ok and mid_ok and elapsed < 30.0
    assert report(
        4,
        "spectral correspondence across the sweep",
        ok,
        f"worst |semi-exact|/local spacing {worst_ratio:.3f} at eps="
        f"{worst_at[0]:+.2f} level {worst_at[1]}; mid-band mean error "
        f"N=20 {np.mean(mid_errors[20]):.2e} vs N=4 "
        f"{np.mean(mid_errors[4]):.2e}; {elapsed:.1f}s",
    )


def test_05_density_of_states_histogram():
    start = time.perf_counter()
    n = 10000
    dim = n // 2 + 1
    bins = 40
    worst = 0.0
    for eps in (0.0, 1.0, 2.0, 5.0):
        params = make_params(eps, 1.0, n)
        vals, _ = exact_spectrum(build_hamiltonian(params))
        hist, edges = np.histogram(vals, bins=bins, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        curve = np.array(
            [period(float(params.eta * c), params) for c in centers]
        ) / (2.0 * math.pi * dim)
        excluded = {0, 1, bins - 2, bins - 1}
        if abs(eps) < math.sqrt(2.0):
            separatrix = -eps / 2.0 / params.eta
            order = np.argsort(np.abs(centers - separatrix))
            excluded |= {int(order[0]), int(order[1])}
        keep = np.array([i not in excluded for i in range(bins)])
        worst = max(worst, float((np.abs(hist - curve)[keep] / curve[keep]).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 300.0
    assert report(
        5,
        "large-N histogram vs analytic density of states",
        ok,
        f"worst kept-bin deviation {worst:.4f}, {elapsed:.1f}s",
    )


def test_06_bifurcation():
    below = fixed_points(make_params(1.414, 1.0, 10))
    above = fixed_points(make_params(1.415, 1.0, 10))
    tip_below = next(fp for fp in below if fp.s_z_root == -0.5)
    tip_above = next(fp for fp in above if fp.s_z_root == -0.5)
    ok = (
        len(below) == 3
        and len(above) == 2
        and tip_below.stability == "saddle"
        and tip_above.stability == "elliptic"
    )
    assert report(
        6,
        "transcritical bifurcation at sqrt(2)",
        ok,
        f"counts {len(below)}/{len(above)}, tip {tip_below.stability}/"
        f"{tip_above.stability}",
    )


def test_07_period_identities():
    params = make_params(2.0, 1.0, 10)
    closed_form = abs(period(-1.0, params) - math.sqrt(2.0) * math.pi)

    rng = np.random.default_rng(42)
    x, w = _gauss_nodes(800)
    worst_rel = 0.0
    count = 0
    while count < 200:
        v = rng.uniform(0.3, 2.0)
        eps = rng.uniform(-3.0, 3.0)
        sample = make_params(eps, v, 10)
        emin, emax = energy_range(sample)
        span = emax - emin
        e = rng.uniform(emin + 0.05 * span, emax - 0.05 * span)
        if abs(eps) < math.sqrt(2.0) * v and abs(e + eps / 2.0) < 0.02 * span:
            continue
        tp = turning_points(e, sample)
        mid = 0.5 * (tp.p_minus + tp.p_plus)
        half = 0.5 * (tp.p_plus - tp.p_minus)
        p = mid + half * np.sin(0.5 * math.pi * x)
        quad = (
            float(np.dot(1.0 / np.sqrt(p - tp.p_zero), w))
            * 0.5
            * math.pi
            * 2.0
            / (abs(v) * math.sqrt(2.0))
        )
        worst_rel = max(worst_rel, abs(period(e, sample) - quad) / quad)
        count += 1

    k_err = abs(elliptic_k(0.0) - math.pi / 2.0)
    ok = closed_form <= 1e-9 and worst_rel <= 1e-8 and k_err <= 1e-14
    assert report(
        7,
        "period closed form / quadrature / K(0)",
        ok,
        f"closed {closed_form:.2e}, quad rel {worst_rel:.2e}, K {k_err:.2e}",
    )


def test_08_conservation_drift():
    worst_surface = 0.0
    worst_energy = 0.0
    starts = [
        (0.0, BlochPoint(-teardrop_radius(0.2), 0.0, 0.2)),
        (1.0, BlochPoint(teardrop_radius(-0.1), 0.0, -0.1)),
        (2.0, BlochPoint(0.0, teardrop_radius(0.3), 0.3)),
    ]
    for eps, s0 in starts:
        params = make_params(eps, 1.0, 10)
        traj = integrate_trajectory(s0, 100.0, params, tol=1e-10, samples=1001)
        worst_surface = max(worst_surface, traj.surface_drift)
        worst_energy = max(worst_energy, traj.energy_drift)

    params = make_params(1.0, 1.0, 20)
    basis = basis_states(20)
    gens = build_generators(basis)
    psi0 = variational_ground_state(VariationalSpec(1.0, 0.0), basis)
    e0 = observables(psi0, gens, params).energy
    worst_norm = 0.0
    worst_qenergy = 0.0
    for psi in evolve_state(
        build_hamiltonian(params), psi0, np.linspace(0.0, 100.0, 26)
    ):
        worst_norm = max(worst_norm, abs(np.linalg.norm(psi) - 1.0))
        worst_qenergy = max(
            worst_qenergy, abs(observables(psi, gens, params).energy - e0)
        )
    ok = (
        worst_surface <= 1e-8
        and worst_energy <= 1e-8
        and worst_norm <= 1e-10
        and worst_qenergy <= 1e-10
    )
    assert report(
        8,
        "conservation drift bounds",
        ok,
        f"surface {worst_surface:.2e}, energy {worst_energy:.2e}, "
        f"norm {worst_norm:.2e}, <H> {worst_qenergy:.2e}",
    )


def test_09_casimir():
    worst_comm = 0.0
    worst_spread = 0.0
    for n in range(2, 41, 2):
        basis = basis_states(n)
        c = casimir_matrix(basis)
        h = build_hamiltonian(make_params(1.0, 1.0, n))
        comm = commutator(c.to_dense(), h.to_dense())
        worst_comm = max(
            worst_comm,
            float(np.linalg.norm(comm) / np.linalg.norm(h.to_dense())),
        )
        worst_spread = max(worst_spread, float(c.diag.max() - c.diag.min()))
    ok = worst_comm <= 1e-10 and worst_spread <= 1e-10
    assert report(
        9,
        "Casimir commutes and is constant",
        ok,
        f"|[C,H]|/|H| {worst_comm:.2e}, spread {worst_spread:.2e}",
    )


def test_10_wkb_eigenvector_envelopes():
    params = make_params(0.5, 1.0, 40)
    _, vecs = exact_spectrum(build_hamiltonian(params), want_vectors=True)
    worst = 1.0
    for n in range(3, 11):
        state = wkb_state(n, params)
        overlap = float(np.dot(state.amplitudes, np.abs(vecs[:, n])))
        worst = min(worst, overlap)
    ok = worst >= 0.9
    assert report(
        10, "WKB envelopes overlap exact eigenvectors", ok, f"min {worst:.4f}"
    )


def test_11_variational_surface_convergence():
    p_dense = np.linspace(-0.5, 0.5, 4001)
    r_dense = teardrop_radius(p_dense)

    def distance(x, z):
        return float(
            np.sqrt((abs(x) - r_dense) ** 2 + (z - p_dense) ** 2).min()
        )

    max_dist = {}
    for n in (2, 4, 10, 100):
        basis = basis_states(n)
        gens = build_generators(basis)
        eta = 1.0 / (n // 2 + 1)
        worst = 0.0
        for b in np.linspace(-0.5, 0.5, 51):
            for sign in (1.0, -1.0):
                a = sign * teardrop_radius(float(b))
                if a == 0.0 and b == 0.0:
                    continue
                psi = variational_ground_state(
                    VariationalSpec(float(a), float(b)), basis
                )
                mom = observables(psi, gens)
                worst = max(worst, distance(eta * mom.kx, eta * mom.kz))
        max_dist[n] = worst
    ok = max_dist[2] > max_dist[4] > max_dist[10] > max_dist[100]
    assert report(
        11,
        "variational states approach the teardrop",
        ok,
        ", ".join(f"N={n}: {d:.4f}" for n, d in max_dist.items()),
    )


def test_12_heisenberg_consistency():
    params = make_params(1.0, 1.0, 20)
    basis = basis_states(20)
    gens = build_generators(basis)
    h = build_hamiltonian(params)
    psi0 = variational_ground_state(VariationalSpec(1.0, 0.4, 0.2), basis)

    def residuals(dt):
        sm, s0, sp = evolve_state(h, psi0, [1.0 - dt, 1.0, 1.0 + dt])
        mm, m0, mp = (observables(s, gens, params) for s in (sm, s0, sp))
        rx = (mp.kx - mm.kx) / (2 * dt) + params.epsilon * m0.ky
        rz = (mp.kz - mm.kz) / (2 * dt) - params.v * m0.ky
        return abs(rx), abs(rz)

    coarse = residuals(0.02)
    fine = residuals(0.01)
    ratios = [c / f for c, f in zip(coarse, fine)]
    ok = all(0.8 * 4.0 <= r <= 1.2 * 4.0 for r in ratios)
    assert report(
        12,
        "Heisenberg equations, second-order differences",
        ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )
