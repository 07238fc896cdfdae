"""Each reference check accepts the CLI's table and rejects a perturbed one.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
from teardrop import cli  # noqa: E402


def make(tmp_path, name, argv):
    path = str(tmp_path / f"{name}.csv")
    assert cli.main([*argv, "--out", path]) == 0
    return path


def perturb(path, column, row, change, meta=None):
    """Rewrite one cell (or one metadata value) of a CSV table."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    if meta is not None:
        for i, line in enumerate(lines):
            if line.startswith(f"# {meta} = "):
                value = float(line.split("=", 1)[1])
                lines[i] = f"# {meta} = {change(value)!r}"
    else:
        header = lines[body[0]].split(",")
        k = header.index(column)
        cells = lines[body[1 + row]].split(",")
        cells[k] = repr(change(float(cells[k])))
        lines[body[1 + row]] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def rejects(check, *args):
    with pytest.raises(ref.CheckError):
        check(*args)


EPS = np.linspace(-3.0, 3.0, 3)


@pytest.fixture
def compare_table(tmp_path):
    path = make(tmp_path, "compare",
                ["compare", "--n", "40", "--v", "1.0", "--epsilon-range=-3:3:3"])
    ref.check_compare(path, 40, 1.0, EPS)
    return path


def test_compare_rejects_wrong_exact_level(compare_table):
    perturb(compare_table, "energy_exact", 5, lambda x: x + 1e-6)
    rejects(ref.check_compare, compare_table, 40, 1.0, EPS)


def test_compare_rejects_semiclassical_level_off_by_a_tenth_spacing(compare_table):
    spacing = float(np.gradient(ref.Sector(40, -3.0, 1.0).values)[7])
    perturb(compare_table, "energy_semiclassical", 7, lambda x: x + 0.1 * spacing)
    rejects(ref.check_compare, compare_table, 40, 1.0, EPS)


def test_compare_rejects_wrong_energy_range(compare_table):
    perturb(compare_table, "fp_energy_max", 30, lambda x: x + 1e-6)
    rejects(ref.check_compare, compare_table, 40, 1.0, EPS)


@pytest.fixture
def large_n(tmp_path):
    sector = ref.Sector(400, 0.8, 1.0)
    model = ["--n", "400", "--epsilon", "0.8", "--v", "1.0"]
    paths = {
        "spectrum": make(tmp_path, "spectrum", ["spectrum", *model]),
        "dos": make(tmp_path, "dos", ["dos", *model, "--samples", "200"]),
        "wkb": make(tmp_path, "wkb", ["wkb-state", *model, "--level", "90"]),
    }
    ref.check_spectrum(paths["spectrum"], sector)
    ref.check_dos(paths["dos"], sector, 200)
    ref.check_wkb(paths["wkb"], sector, 90)
    return sector, paths


def test_spectrum_rejects_shifted_eigenvalue(large_n):
    sector, paths = large_n
    perturb(paths["spectrum"], "energy", 100, lambda x: x + 1e-7)
    rejects(ref.check_spectrum, paths["spectrum"], sector)


def test_spectrum_trace_identity_rejects_a_wrong_coupling(large_n):
    sector, paths = large_n
    # eigenvalues of a Hamiltonian with v 1e-6 larger: the trace of H^2 moves
    rejects(ref.check_spectrum, paths["spectrum"], ref.Sector(400, 0.8, 1.0 + 1e-6))


def test_dos_rejects_density_scaled_by_three_percent(large_n):
    sector, paths = large_n
    for row in range(200):
        perturb(paths["dos"], "period", row, lambda x: 1.03 * x)
        perturb(paths["dos"], "dn_dE", row, lambda x: 1.03 * x)
    rejects(ref.check_dos, paths["dos"], sector, 200)


def test_dos_rejects_density_that_is_not_period_over_two_pi(large_n):
    sector, paths = large_n
    perturb(paths["dos"], "dn_dE", 0, lambda x: x * (1.0 + 1e-9))
    rejects(ref.check_dos, paths["dos"], sector, 200)


def test_wkb_rejects_envelope_of_another_level(tmp_path, large_n):
    sector, _ = large_n
    other = make(tmp_path, "wkb120", ["wkb-state", "--n", "400", "--epsilon", "0.8",
                                      "--v", "1.0", "--level", "120"])
    rejects(ref.check_wkb, other, sector, 90)


def test_wkb_rejects_unnormalised_envelope(large_n):
    sector, paths = large_n
    perturb(paths["wkb"], "amplitude", 100, lambda x: x + 1e-3)
    rejects(ref.check_wkb, paths["wkb"], sector, 90)


TRAJ = ["--n", "200", "--epsilon", "0.7", "--v", "1.0", "--init", "ground-kx",
        "--t-max", "5.0", "--samples", "101"]


@pytest.fixture
def dynamics(tmp_path):
    sector = ref.Sector(200, 0.7, 1.0)
    mp = make(tmp_path, "mp", ["mp-trajectory", *TRAJ])
    mf = make(tmp_path, "mf", ["mf-trajectory", *TRAJ])
    ref.check_mp_trajectory(mp, sector, "ground-kx", 5.0, 101)
    ref.check_mf_trajectory(mf, 0.7, 1.0, "ground-kx", 5.0, 101)
    ref.check_correspondence(mp, mf)
    return sector, mp, mf


@pytest.mark.parametrize("column", ["eta_kx", "eta_ky", "eta_kz"])
def test_mp_trajectory_rejects_wrong_moment(dynamics, column):
    sector, mp, _ = dynamics
    perturb(mp, column, 60, lambda x: x + 1e-6)
    rejects(ref.check_mp_trajectory, mp, sector, "ground-kx", 5.0, 101)


def test_mp_trajectory_rejects_norm_loss(dynamics):
    sector, mp, _ = dynamics
    perturb(mp, "norm", 30, lambda x: x - 1e-8)
    rejects(ref.check_mp_trajectory, mp, sector, "ground-kx", 5.0, 101)


def test_mp_trajectory_rejects_energy_drift(dynamics):
    sector, mp, _ = dynamics
    perturb(mp, "energy", 100, lambda x: x + 1e-6)
    rejects(ref.check_mp_trajectory, mp, sector, "ground-kx", 5.0, 101)


def test_mp_trajectory_rejects_another_initial_state(dynamics):
    sector, mp, _ = dynamics
    rejects(ref.check_mp_trajectory, mp, sector, "ground-minus-kx", 5.0, 101)


def test_mf_trajectory_rejects_understated_drift(dynamics):
    _, _, mf = dynamics
    perturb(mf, None, None, lambda x: 0.5 * x, meta="energy_drift")
    rejects(ref.check_mf_trajectory, mf, 0.7, 1.0, "ground-kx", 5.0, 101)


def test_mf_trajectory_rejects_point_off_the_surface(dynamics):
    _, _, mf = dynamics
    perturb(mf, "s_y", 50, lambda x: x + 1e-6)
    rejects(ref.check_mf_trajectory, mf, 0.7, 1.0, "ground-kx", 5.0, 101)


def test_mf_trajectory_rejects_large_drift(tmp_path):
    # a loose integrator tolerance leaves drift above the bound
    mf = make(tmp_path, "mf_loose", ["mf-trajectory", *TRAJ, "--tol", "1e-3"])
    rejects(ref.check_mf_trajectory, mf, 0.7, 1.0, "ground-kx", 5.0, 101)


def test_correspondence_rejects_mismatched_start(tmp_path, dynamics):
    _, mp, _ = dynamics
    kz = make(tmp_path, "mf_kz", ["mf-trajectory", *TRAJ[:-6], "--init", "ground-kz",
                                  "--t-max", "5.0", "--samples", "101"])
    rejects(ref.check_correspondence, mp, kz)


def test_mean_field_range_matches_closed_forms():
    # v = 0: the range is [-|eps|/2, |eps|/2]; eps = 0: the extremes are
    # -+|v| max r(p), attained at p = 1/6
    assert ref.mean_field_range(2.0, 0.0) == pytest.approx((-1.0, 1.0), abs=1e-12)
    r_max = math.sqrt((1 - 1 / 3) * (1 + 1 / 3) ** 2 / 4)
    assert ref.mean_field_range(0.0, 1.0) == pytest.approx((-r_max, r_max), abs=1e-12)
