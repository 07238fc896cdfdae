import json
import math

import numpy as np
import pytest

from teardrop import tables
from teardrop.cli import main


def run(tmp_path, *argv):
    return main(list(argv))


def read_csv(path):
    header = None
    rows = []
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestBasicCommands:
    def test_kx_band_has_26_levels(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "50", "--epsilon", "0", "--v", "1",
                     "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["index", "energy", "eta_energy"]
        assert len(rows) == 26
        assert meta["command"] == "spectrum"

    def test_decoupled_spectrum_values(self, tmp_path):
        out = tmp_path / "dec.csv"
        assert main(["spectrum", "--n", "10", "--epsilon", "1", "--v", "0",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        energies = [float(r[1]) for r in rows]
        assert energies == pytest.approx([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])

    def test_odd_n_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["quantize", "--n", "7", "--epsilon", "1", "--v", "1",
                     "--out", str(out)]) == 2
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["mp-trajectory", "--t-max", "nan"], "--t-max"),
        (["mf-trajectory", "--t-max", "nan"], "--t-max"),
        (["mf-trajectory", "--t-max", "inf"], "--t-max"),
        (["mf-trajectory", "--tol", "nan"], "--tol"),
        (["mf-trajectory", "--samples", "0"], "--samples"),
        (["dos", "--samples", "0"], "--samples"),
        (["mp-trajectory", "--samples", "0"], "--samples"),
        (["coherent-surface", "--samples", "0"], "--samples"),
        (["quantize", "--epsilon", "nan"], "--epsilon"),
        (["spectrum", "--v=-inf"], "--v"),
        (["period", "--energy", "nan"], "--energy"),
        (["figure", "--id", "fig4", "--t-max", "inf"], "--t-max"),
    ])
    def test_bad_number_is_usage_error(self, tmp_path, capsys, argv, flag):
        if argv[0] != "figure":
            argv = argv + ["--n", "10"]
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        *(pytest.param(["quantize", "--n", "20", "--epsilon", "1", "--v", v], id=v)
          for v in ("1e-300", "1e-154", "1e-100", "1e-13")),
        *(pytest.param([*cmd, "--v", v], id=f"{cmd[0]}-{v}")
          for cmd in (["dos", "--n", "20", "--epsilon", "1", "--samples", "5"],
                      ["period", "--n", "20", "--epsilon", "1", "--energy", "0.1"])
          for v in ("1e-300", "1e-100", "1e-154")),
        pytest.param(["fixed-points", "--n", "20", "--epsilon", "1", "--v", "1e-300"],
                     id="fixed-points-1e-300"),
    ])
    def test_weak_coupling_is_usage_error(self, tmp_path, capsys, argv):
        # v^2 underflows, the cubic's coefficients overflow, or the
        # turning points at the band edges are not resolved
        out = tmp_path / "q.csv"
        assert main(argv + ["--out", str(out)]) == 2
        v = float(argv[argv.index("--v") + 1])
        assert f"coupling v = {v}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("v", ["1e-100", "1e-154"])
    def test_weak_coupling_fixed_points(self, tmp_path, v):
        # 9 v^2 is still a normal or subnormal double
        out = tmp_path / "fp.csv"
        assert main(["fixed-points", "--n", "20", "--epsilon", "1", "--v", v,
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 2

    @pytest.mark.parametrize("argv", [
        ["quantize", "--n", "20", "--epsilon", "1", "--v", "1e200"],
        ["dos", "--n", "20", "--epsilon", "1", "--v", "1e200", "--samples", "5"],
        ["period", "--n", "20", "--epsilon", "1e200", "--v", "1", "--energy", "0"],
        ["fixed-points", "--n", "20", "--epsilon", "1e200", "--v", "1"],
        ["wkb-state", "--n", "20", "--epsilon", "1", "--v", "1e200", "--level", "2"],
        ["quantize", "--n", "20", "--epsilon", "1e153", "--v", "1e153"],
        # 9 v^2, or b + sqrt(discriminant), overflows although v^2 and eps^2 do not
        ["fixed-points", "--n", "20", "--epsilon", "1", "--v", "5e153"],
        ["fixed-points", "--n", "20", "--epsilon", "1", "--v", "1e154"],
        ["fixed-points", "--n", "20", "--epsilon", "7e153", "--v", "1"],
        ["fixed-points", "--n", "20", "--epsilon", "5e153", "--v", "5e153"],
        ["quantize", "--n", "20", "--epsilon", "1", "--v", "5e153"],
        ["dos", "--n", "20", "--epsilon", "1", "--v", "5e153", "--samples", "5"],
        ["period", "--n", "20", "--epsilon", "1", "--v", "5e153", "--energy", "0"],
        ["period", "--n", "20", "--epsilon", "1", "--v", "1e154", "--energy", "0"],
        ["wkb-state", "--n", "20", "--epsilon", "1", "--v", "5e153", "--level", "2"],
    ], ids=lambda argv: f"{argv[0]}-{argv[4]}-{argv[6]}")
    def test_large_parameters_are_usage_error(self, tmp_path, capsys, argv):
        # a square of eps or v, or a term of the turning-point cubic,
        # leaves the double range
        out = tmp_path / "large.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"eps = {float(argv[4])}" in err
        assert "coupling v = " in err and "double range" in err
        assert not out.exists()

    @pytest.mark.parametrize("v", ["1e200", "5e153"])
    def test_quantize_names_the_coupling_given(self, tmp_path, capsys, v):
        # not the Weyl-reduced coupling v sqrt((N + 3/2)/N) that it solves with
        argv = ["quantize", "--n", "20", "--epsilon", "1", "--v", v]
        assert main(argv + ["--out", str(tmp_path / "q.csv")]) == 2
        assert f"coupling v = {float(v)} with eps = 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mp-trajectory", "--n", "1000000"],
        ["coherent-surface", "--n", "1000000", "--samples", "3"],
        ["figure", "--id", "fig9", "--n", "1000000"],
    ], ids=lambda argv: argv[0])
    def test_eigenvectors_beyond_memory_are_usage_error(self, tmp_path, capsys, argv):
        # 8 dim^2 bytes = 1863 GiB at dim = 500001: refused before allocating
        out = tmp_path / "big.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dimension 500001 need 1863 GiB" in err and "physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["quantize", "--n", "20", "--epsilon", "1", "--v", "1e150"],
        ["fixed-points", "--n", "20", "--epsilon", "1e150", "--v", "1"],
        ["spectrum", "--n", "20", "--epsilon", "1e300", "--v", "1e300"],
        ["quantize", "--n", "20", "--epsilon", "1e200", "--v", "0"],  # no square
    ], ids=lambda argv: f"{argv[0]}-{argv[4]}-{argv[6]}")
    def test_large_parameters_in_range_run(self, tmp_path, argv):
        out = tmp_path / "large.csv"
        assert main(argv + ["--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows
        assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_bad_epsilon_range(self, tmp_path, capsys):
        assert main(["compare", "--n", "4", "--epsilon-range", "oops",
                     "--out", str(tmp_path / "c.csv")]) == 2

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        assert main(["kx-spectrum", "--n", "8", "--out", str(target)]) == 2

    def test_period_closed_form(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["period", "--n", "10", "--epsilon", "2", "--v", "1",
                     "--energy", "-1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(math.sqrt(2) * math.pi, abs=1e-9)
        assert float(rows[0][2]) == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    def test_fixed_points_table(self, tmp_path):
        out = tmp_path / "fp.csv"
        assert main(["fixed-points", "--n", "10", "--epsilon", "0", "--v", "1",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 3
        stabilities = {r[header.index("stability")] for r in rows}
        assert stabilities == {"saddle", "elliptic"}

    def test_quantize_decoupled(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quantize", "--n", "10", "--epsilon", "1", "--v", "0",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        energies = [float(r[3]) for r in rows]
        assert energies == pytest.approx([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5],
                                         abs=1e-9)

    def test_trajectory_outputs(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["mf-trajectory", "--n", "10", "--epsilon", "1", "--v", "1",
                     "--init", "ground-kx", "--t-max", "3", "--samples", "7",
                     "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert len(rows) == 7
        assert float(meta["surface_drift"]) < 1e-9

    def test_trajectory_off_surface_init(self, tmp_path):
        assert main(["mf-trajectory", "--n", "10", "--init", "bloch:0.4,0,0",
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_mp_trajectory_norm_column(self, tmp_path):
        out = tmp_path / "mp.csv"
        assert main(["mp-trajectory", "--n", "10", "--epsilon", "1", "--v", "1",
                     "--init", "ground-kx", "--t-max", "2", "--samples", "5",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        norms = [float(r[header.index("norm")]) for r in rows]
        assert norms == pytest.approx([1.0] * 5, abs=1e-12)

    def test_wkb_state_flags(self, tmp_path):
        out = tmp_path / "wkb.csv"
        assert main(["wkb-state", "--n", "40", "--epsilon", "0.5", "--v", "1",
                     "--level", "3", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 21
        amps = np.array([float(r[header.index("amplitude")]) for r in rows])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)


class TestFormats:
    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--n", "8", "--epsilon", "0.3", "--v", "1",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["index", "energy", "eta_energy"]
        assert len(payload["rows"]) == 5
        assert payload["metadata"]["n"] == 8

    def test_svg_renders(self, tmp_path):
        out = tmp_path / "spec.svg"
        assert main(["kx-spectrum", "--n", "20", "--format", "svg",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_csv_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["quantize", "--n", "12", "--epsilon", "0.7", "--v", "1.3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_17_digit_round_trip(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--n", "6", "--epsilon", "0.1", "--v", "0.9",
              "--out", str(out)])
        _, _, rows = read_csv(out)
        from teardrop import build_hamiltonian, exact_spectrum, make_params

        vals, _ = exact_spectrum(build_hamiltonian(make_params(0.1, 0.9, 6)))
        for row, val in zip(rows, vals):
            assert float(row[1]) == val  # bit-exact round trip


class TestCompare:
    def test_decoupled_rows_are_exact(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n", "6", "--v", "0",
                     "--epsilon-range", "0.5:2:4", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        errors = [float(r[header.index("abs_error")]) for r in rows]
        assert max(errors) <= 1e-9

    def test_columns_present(self, tmp_path):
        out = tmp_path / "cmp.csv"
        # a range starting with a minus needs the --flag=value form
        assert main(["compare", "--n", "4", "--v", "1",
                     "--epsilon-range=-1:1:3", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == [
            "epsilon", "n", "energy_exact", "energy_semiclassical",
            "abs_error", "mean_spacing", "fp_energy_min", "fp_energy_max",
        ]
        assert len(rows) == 3 * 3


class TestFigures:
    def test_fig1_band(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "--id", "fig1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 26

    def test_fig5_shrinks_to_surface(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["figure", "--id", "fig5", "--samples", "21",
                     "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        ns = {int(r[0]) for r in rows}
        assert ns == {2, 4, 10, 100}

    def test_fig6_sections(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["figure", "--id", "fig6", "--samples", "41",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        kinds = {r[0] for r in rows}
        assert kinds == {"potential", "orbit"}

    def test_fig8_with_reduced_size(self, tmp_path):
        out = tmp_path / "fig8.csv"
        assert main(["figure", "--id", "fig8", "--n", "200",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        eps_values = {float(r[0]) for r in rows}
        assert eps_values == {0.0, 1.0, 2.0, 5.0}
        assert len(rows) == 4 * 40

    def test_fig9_levels(self, tmp_path):
        out = tmp_path / "fig9.csv"
        assert main(["figure", "--id", "fig9", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        levels = {int(r[0]) for r in rows}
        assert levels == {1, 3, 10}
        assert len(rows) == 3 * 21

    def test_fig2_levels_per_size(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--id", "fig2", "--epsilon-range=-2:2:5",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 5 * (6 + 26)

    def test_fig3_trajectory_sets(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "--id", "fig3", "--t-max", "2",
                     "--samples", "9", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert {float(r[0]) for r in rows} == {0.0, 1.0, 2.0}
        assert len(rows) == 3 * 6 * 9

    def test_fig4_series(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "--id", "fig4", "--t-max", "1",
                     "--samples", "5", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        series = {r[header.index("series")] for r in rows}
        assert series == {"mf", "N20", "N100", "N500"}

    def test_fig7_compares_both_sizes(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["figure", "--id", "fig7", "--epsilon-range=-1:1:3",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert {int(r[0]) for r in rows} == {4, 20}
        assert len(rows) == 3 * (3 + 11)

    def test_unknown_figure(self, tmp_path):
        assert main(["figure", "--id", "fig99"]) == 2

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["kx-spectrum", "--n", "8"]) == 0
        assert (tmp_path / "kx-spectrum.csv").exists()


class TestTables:
    """Every subcommand is the ``teardrop.tables`` function of the same name,
    called with the flag values as keyword arguments."""

    @pytest.mark.parametrize("builder, flags", [
        ("spectrum", dict(n=10, epsilon=0.5, v=1.0)),
        ("kx_spectrum", dict(n=8)),
        ("sweep_spectrum", dict(n=6, v=1.0, epsilon_range="-2:2:3")),
        ("quantize", dict(n=10, epsilon=1.0, v=1.0)),
        ("dos", dict(n=20, epsilon=1.0, v=1.0, samples=7)),
        ("period", dict(n=10, epsilon=2.0, v=1.0, energy=-0.5)),
        ("fixed_points", dict(n=10, epsilon=1.2, v=1.0)),
        ("mf_trajectory", dict(n=10, epsilon=1.0, v=1.0, init="ground-kx",
                               t_max=2.0, samples=5, tol=1e-10)),
        ("mp_trajectory", dict(n=10, epsilon=1.0, v=1.0, init="bloch:0.5,0,0",
                               t_max=1.0, samples=3)),
        ("wkb_state", dict(n=20, epsilon=0.5, v=1.0, level=2)),
        ("coherent_surface", dict(n=4, samples=5)),
        ("compare", dict(n=4, v=1.0, epsilon_range="-1:1:3")),
        ("figure", dict(id="fig1", n=8)),
        ("figure", dict(id="fig2", epsilon_range="-1:1:2")),
        ("figure", dict(id="fig5", samples=3)),
        ("figure", dict(id="fig7", epsilon_range="-1:1:2")),
    ])
    def test_builder_writes_the_command_table(self, tmp_path, builder, flags):
        lib, cli = tmp_path / "lib.csv", tmp_path / "cli.csv"
        getattr(tables, builder)(**flags).write_csv(lib)
        argv = [builder.replace("_", "-")]
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        assert main(argv + ["--out", str(cli)]) == 0
        assert lib.read_bytes() == cli.read_bytes()
