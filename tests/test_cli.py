"""End-to-end tests of the command-line driver (tables, manifests, exit codes)."""

import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from noonring import cli, lattice
from noonring.cli import KINDS, NON_NEGATIVE, POSITIVE, SCHEMA, UNIT_NOTE, main
from noonring.lattice import QuadratureError, TrapParameters, derive, solve_integrability
from noonring.protocols import ProtocolConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def read_table(path: Path) -> tuple[str, str, list[str]]:
    lines = path.read_text().splitlines()
    return lines[0], lines[1], lines[2:]


def read_manifest(path: Path) -> dict:
    return json.loads(path.read_text())


def run_cli(args) -> int:
    return main([str(a) for a in args])


class TestPresets:
    def test_text_listing(self, capsys):
        assert run_cli(["presets"]) == 0
        output = capsys.readouterr().out
        assert "set1" in output and "set2" in output
        assert "t_m" in output

    def test_machine_listing(self, capsys):
        assert run_cli(["presets", "--machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"set1", "set2"}
        assert payload["set1"]["t_m"] == pytest.approx(36.950076, rel=1e-5)
        assert payload["set1"]["beta"] == 1

    def test_machine_listing_is_the_protocol_config(self, capsys):
        """Each derived value is ProtocolConfig's, bit for bit, at P theta = pi."""
        assert run_cli(["presets", "--machine"]) == 0
        for values in json.loads(capsys.readouterr().out).values():
            pc = ProtocolConfig(values["m"], values["p"], u=values["u"], j=values["j"],
                                mu=values["mu"], nu=values["nu"])
            assert (values["omega"], values["t_m"], values["t_nu"],
                    values["t_mu_at_p_theta_pi"], values["beta"]) == (
                pc.omega, pc.t_m, pc.t_nu, pc.t_mu(math.pi / values["p"]), pc.beta)


# Help texts at 80 columns (argparse wraps to $COLUMNS).
HELP = {
    "": """\
usage: noonring [-h]
                {presets,run,protocol1,protocol2,readout,spectrum,evolve,physical,robustness}
                ...

Four-site dipolar Bose-Hubbard ring: NOON-state protocol simulator

positional arguments:
  {presets,run,protocol1,protocol2,readout,spectrum,evolve,physical,robustness}
    presets             list built-in parameter sets
    run                 run the experiment named in a config file
    protocol1           run the protocol1 experiment
    protocol2           run the protocol2 experiment
    readout             run the readout experiment
    spectrum            run the spectrum experiment
    evolve              run the evolve experiment
    physical            run the physical experiment
    robustness          run the robustness experiment

options:
  -h, --help            show this help message and exit
""",
    "protocol1": """\
usage: noonring protocol1 [-h] [--config CONFIG] [--preset {set1,set2}]
                          [--grid GRID] [--out OUT] [--format {csv,tsv}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       INI config file
  --preset {set1,set2}  parameter set
  --grid GRID           sweep points
  --out OUT             output directory (default: results)
  --format {csv,tsv}    table format
""",
    "run": """\
usage: noonring run [-h] [--config CONFIG] [--preset {set1,set2}]
                    [--grid GRID] [--out OUT] [--format {csv,tsv}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       INI config file
  --preset {set1,set2}  parameter set
  --grid GRID           sweep points
  --out OUT             output directory (default: results)
  --format {csv,tsv}    table format
""",
}


class TestHelp:
    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "--help"] if command else ["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == HELP[command]


class TestTables:
    def test_protocol1_table_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli(["protocol1", "--grid", 3, "--out", out]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out / "protocol1.csv"),
                           str(out / "protocol1_manifest.json")]
        note, header, rows = read_table(out / "protocol1.csv")
        assert note == UNIT_NOTE
        assert header == "set,m,p,p_theta,r,probability,fidelity,selected,elapsed_s"
        assert len(rows) >= 3
        assert all(row.startswith("set1,4,11,") for row in rows)
        manifest = read_manifest(out / "protocol1_manifest.json")
        assert manifest["kind"] == "protocol1"
        assert manifest["preset"] == "set1"
        assert manifest["model"]["u"] == pytest.approx(75.876)
        assert manifest["derived"]["t_m"] == pytest.approx(36.950076, rel=1e-5)
        assert manifest["output_table"] == "protocol1.csv"

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["protocol1", "--grid", 3]
        assert run_cli(args + ["--out", tmp_path / "a"]) == 0
        assert run_cli(args + ["--out", tmp_path / "b"]) == 0
        table_a = (tmp_path / "a" / "protocol1.csv").read_bytes()
        table_b = (tmp_path / "b" / "protocol1.csv").read_bytes()
        assert table_a == table_b
        manifests = [
            read_manifest(tmp_path / d / "protocol1_manifest.json") for d in "ab"
        ]
        for manifest in manifests:
            manifest.pop("created_utc")
        assert manifests[0] == manifests[1]

    def test_protocol2_tsv(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli(["protocol2", "--preset", "set2", "--grid", 2,
                        "--out", out, "--format", "tsv"])
        assert code == 0
        note, header, rows = read_table(out / "protocol2.tsv")
        assert note == UNIT_NOTE
        assert header == "set\tm\tp\tp_theta\tfidelity\telapsed_s"
        assert len(rows) == 2

    def test_readout_manifest_fits(self, tmp_path):
        out = tmp_path / "res"
        assert run_cli(["readout", "--grid", 5, "--out", out]) == 0
        _, header, rows = read_table(out / "readout.csv")
        assert header == ("set,p_theta,r,readout_r,joint_probability,"
                          "law_half_cos2,law_half_sin2")
        manifest = read_manifest(out / "readout_manifest.json")
        assert manifest["readout_protocol"] == 1
        assert 0.0 < manifest["fits"]["c00"] <= 1.001
        assert 0.0 < manifest["fits"]["cMM"] <= 1.001

    def test_readout_protocol2_laws(self, tmp_path):
        out = tmp_path / "res"
        config = tmp_path / "readout2.ini"
        config.write_text("[protocol]\nreadout_protocol = 2\n")
        code = run_cli(["readout", "--grid", 4, "--out", out, "--config", config])
        assert code == 0
        _, header, _ = read_table(out / "readout.csv")
        assert header == ("set,p_theta,r,readout_r,probability,"
                          "law_shifted_sin2,law_shifted_cos2")
        manifest = read_manifest(out / "readout_manifest.json")
        assert set(manifest["fits"]) == {"c0", "cM"}


def write_reference_table(path: Path, header, rows, delimiter: str) -> None:
    """A table as csv.writer writes it row by row, floats with 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(UNIT_NOTE + "\n")
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row])


class TestTableWriter:
    @pytest.mark.parametrize("fmt, delimiter", [("csv", ","), ("tsv", "\t")])
    def test_matches_csv_writer_row_by_row(self, tmp_path, fmt, delimiter):
        rng = np.random.default_rng(12)
        n = cli.CHUNK_ROWS + 321                    # two chunks
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:9] = [0.0, -0.0, 0.1, 1 / 3, 1e16, 123456789012345.0, 5e-324,
                      -1.7976931348623157e308, 25.0]
        ints = rng.integers(-10**12, 10**12, n)
        text = [f"set{i % 3}+custom" for i in range(n)]
        text[cli.CHUNK_ROWS + 5] = 'a,"b"\tc\nd\re'   # must be quoted, in the second chunk
        labels = np.array(["", "4", "11"])[rng.integers(0, 3, n)]
        # Repeated values, as the spectrum's u_over_j and paired e_over_j columns hold:
        # 0.0 and -0.0 in one chunk, and a run that crosses the chunk boundary.
        repeated = np.repeat([0.0, -0.0, 0.1, 0.0, -0.0, 1 / 3, 25.0], 200)[:n]
        repeated[cli.CHUNK_ROWS - 40:cli.CHUNK_ROWS + 40] = -2.5e-7
        # Each column holds one kind of value, as an experiment's columns do; "blank" is
        # the empty Protocol II probability (robustness) or branch (readout) column.
        columns = [floats, ints, np.array([""] * n), np.array(text), labels, repeated]
        header = ["float", "int", "blank", "text", "label", "repeated"]
        assert {len(column) for column in columns} == {n}
        cli._write_table(tmp_path / "table", header, columns, fmt)
        rows = zip(*(c.tolist() for c in columns))
        write_reference_table(tmp_path / "reference", header, rows, delimiter)
        assert (tmp_path / "table").read_bytes() == (tmp_path / "reference").read_bytes()


class TestConfigDriven:
    def test_run_spectrum(self, tmp_path):
        config = tmp_path / "spectrum.ini"
        config.write_text(
            "[experiment]\n"
            "kind = spectrum\n"
            "[spectrum]\n"
            "n_total = 3\n"
            "u_over_j_min = 5\n"
            "u_over_j_max = 30\n"
            "points = 4\n"
        )
        out = tmp_path / "res"
        assert run_cli(["run", "--config", config, "--out", out]) == 0
        _, header, rows = read_table(out / "spectrum.csv")
        assert header == "u_over_j,index,e_over_j,band_m,band_p"
        assert len(rows) == 4 * 20  # four ratios x dim of the N=3 sector
        manifest = read_manifest(out / "spectrum_manifest.json")
        assert manifest["n_total"] == 3
        assert manifest["resolved_points"] >= 1

    def test_run_evolve(self, tmp_path):
        config = tmp_path / "evolve.ini"
        config.write_text(
            "[experiment]\n"
            "kind = evolve\n"
            "[evolve]\n"
            "t_max = 1.0\n"
            "points = 5\n"
        )
        out = tmp_path / "res"
        assert run_cli(["run", "--config", config, "--out", out]) == 0
        _, header, rows = read_table(out / "evolve.csv")
        assert header == ("t_s,p_MP00,p_0PM0,p_M00P,p_00MP,"
                          "uber_noon_population,effective_overlap")
        assert len(rows) == 5
        first = rows[0].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind, t_mu", [("evolve", False), ("protocol2", True)])
    def test_derived_block_has_t_mu_only_for_a_p_theta_grid(self, tmp_path, kind, t_mu):
        """evolve has no P theta grid and no mu pulse, so it derives no t_mu."""
        config = tmp_path / "small.ini"
        config.write_text("[evolve]\npoints = 2\n")
        assert run_cli([kind, "--grid", 2, "--config", config, "--out", tmp_path]) == 0
        derived = read_manifest(tmp_path / f"{kind}_manifest.json")["derived"]
        assert set(derived) == {"omega", "t_m", "t_nu", "beta"} | (
            {"t_mu_at_p_theta_max"} if t_mu else set())

    def test_run_robustness(self, tmp_path):
        config = tmp_path / "robust.ini"
        config.write_text(
            "[experiment]\n"
            "kind = robustness\n"
            "[robustness]\n"
            "xi_over_j_max = 0.004\n"
            "points = 2\n"
            "n_dt = 5\n"
        )
        out = tmp_path / "res"
        assert run_cli(["run", "--config", config, "--out", out]) == 0
        _, header, rows = read_table(out / "robustness.csv")
        assert header == "mode,source,n_dt,xi,xi_over_j,fidelity,probability"
        assert len(rows) == 2
        assert rows[0].startswith("pulsed,direct,5,0,")
        manifest = read_manifest(out / "robustness_manifest.json")
        assert manifest["n_dt"] == 5
        assert manifest["protocol"] == 1

    @pytest.mark.parametrize("source, convention", [
        ("direct", "U13 - U0 = +xi"), ("physical", "U0 - U13 = +xi")])
    def test_robustness_manifest_names_the_sign_of_xi(self, tmp_path, source, convention):
        config = tmp_path / "robust.ini"
        config.write_text(f"[robustness]\nsource = {source}\nxi_over_j_max = 0.004\n"
                          "points = 2\nn_dt = 2\n")
        out = tmp_path / "res"
        assert run_cli(["robustness", "--config", config, "--out", out]) == 0
        assert read_manifest(out / "robustness_manifest.json")["xi_sign_convention"] == convention

    @pytest.mark.parametrize("model, threshold", [("", 0.004), ("t_m_override = 20\n", None)])
    def test_robustness_manifest_threshold(self, tmp_path, model, threshold):
        """The largest xi/J up to which every point has fidelity above 0.9, or null when
        the smallest fails (a band interval far from t_m fails at every xi)."""
        config = tmp_path / "robust.ini"
        config.write_text(f"[model]\n{model}[robustness]\nxi_over_j_max = 0.004\npoints = 2\n")
        out = tmp_path / "res"
        assert run_cli(["robustness", "--config", config, "--out", out]) == 0
        fidelities = [float(row.split(",")[5]) for row in read_table(out / "robustness.csv")[2]]
        assert (threshold is None) == all(f <= 0.9 for f in fidelities)
        manifest = read_manifest(out / "robustness_manifest.json")
        assert manifest["threshold_xi_over_j"] == (
            None if threshold is None else pytest.approx(threshold, rel=1e-12))

    def test_run_physical(self, tmp_path):
        config = tmp_path / "physical.ini"
        config.write_text(
            "[experiment]\n"
            "kind = physical\n"
            "[lattice]\n"
            "omega_min_khz = 30\n"
            "omega_max_khz = 45\n"
            "points = 2\n"
        )
        out = tmp_path / "res"
        assert run_cli(["run", "--config", config, "--out", out]) == 0
        _, header, rows = read_table(out / "physical.csv")
        assert header == "omega_r_over_2pi_khz,u0,u12,u13,residual"
        assert len(rows) == 2
        manifest = read_manifest(out / "physical_manifest.json")
        root = manifest["root"]
        assert root["omega_r_over_2pi_khz"] == pytest.approx(37.078, abs=0.05)
        assert manifest["derived_at_root"]["mu"] == pytest.approx(20.87, abs=0.15)
        assert manifest["model_parameters"]["u0"] == pytest.approx(root["u0"])

    def test_physical_root_is_derive_at_the_root(self, tmp_path):
        """The manifest's root block is the returned omega_r and `derive` there, bit for bit."""
        config = tmp_path / "physical.ini"
        config.write_text("[lattice]\nomega_min_khz = 30\nomega_max_khz = 45\npoints = 2\n")
        assert run_cli(["physical", "--config", config, "--out", tmp_path]) == 0
        root = read_manifest(tmp_path / "physical_manifest.json")["root"]
        omega_star = solve_integrability(
            TrapParameters(), bracket=(2.0 * math.pi * 30e3, 2.0 * math.pi * 45e3))
        at_root = derive(TrapParameters(), omega_star)
        assert root == {
            "omega_r_rad_s": omega_star,
            "omega_r_over_2pi_khz": omega_star / (2.0 * math.pi * 1e3),
            "u0": at_root.u0, "u13": at_root.u13, "u12": at_root.u12,
            "residual": at_root.u0 - at_root.u13,
        }

    def test_physical_source_finds_the_root_in_the_lattice_range(self, tmp_path, monkeypatch):
        """At a = -19.8 a0 the root lies at 17.4 kHz, below the default 20 kHz: robustness
        finds it in the [lattice] range, at the physical manifest's omega_r bit for bit."""
        config = tmp_path / "low.ini"
        config.write_text("[robustness]\nsource = physical\npoints = 2\n"
                          "[lattice]\nscattering_length_a0 = -19.8\nomega_min_khz = 5\n")
        assert run_cli(["physical", "--config", config, "--out", tmp_path]) == 0
        root = read_manifest(tmp_path / "physical_manifest.json")["root"]["omega_r_rad_s"]
        roots, solve = [], lattice.solve_integrability

        def recording_solve(*args, **kwargs):
            roots.append(solve(*args, **kwargs))
            return roots[-1]

        # the physical-source helpers import the lattice's names when they run
        monkeypatch.setattr(lattice, "solve_integrability", recording_solve)
        assert run_cli(["robustness", "--config", config, "--out", tmp_path]) == 0
        assert roots == [root]

    def test_custom_model_marks_preset(self, tmp_path):
        config = tmp_path / "custom.ini"
        config.write_text(
            "[experiment]\n"
            "kind = protocol1\n"
            "grid = 2\n"
            "[model]\n"
            "u = 80.0\n"
        )
        out = tmp_path / "res"
        assert run_cli(["run", "--config", config, "--out", out]) == 0
        manifest = read_manifest(out / "protocol1_manifest.json")
        assert manifest["preset"] == "set1+custom"
        assert manifest["model"]["u"] == pytest.approx(80.0)


def bad_values():
    """(section, key, value) cases every schema check must reject."""
    for section, keys in SCHEMA.items():
        for key, spec in keys.items():
            if spec.type is float:
                yield section, key, "nan"
                yield section, key, "inf"
            if spec.allowed == POSITIVE:
                yield section, key, "0" if spec.type is int else "-1"
            elif spec.allowed == NON_NEGATIVE:
                yield section, key, "-1"
            elif spec.allowed:
                yield section, key, max(spec.allowed) + 1 if spec.type is int else "bogus"
    yield "spectrum", "points", "abc"


class TestErrorPaths:
    @pytest.mark.parametrize("section, key, value", bad_values())
    def test_schema_rejects_bad_value(self, tmp_path, capsys, section, key, value):
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "r"
        assert run_cli(["protocol1", "--grid", 2, "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"[{section}] {key}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, section, key", [
        ("evolve", "evolve", "t_max"), ("protocol2", "protocol", "p_theta_max")])
    def test_non_negative_key_named_below_zero_and_runs_at_zero(
            self, tmp_path, capsys, kind, section, key):
        """The schema, not the library's duration or theta check, reports -5."""
        config = tmp_path / "range.ini"
        config.write_text(f"[{section}]\n{key} = -5\n")
        assert run_cli([kind, "--grid", 2, "--config", config, "--out", tmp_path / "bad"]) == 1
        assert capsys.readouterr().err == f"error: [{section}] {key} must be >= 0, got -5.0\n"
        config.write_text(f"[{section}]\n{key} = 0\n")
        assert run_cli([kind, "--grid", 2, "--config", config, "--out", tmp_path / "zero"]) == 0

    def test_unused_model_value_checked_for_spectrum(self, tmp_path, capsys):
        """spectrum reads no [model] mu, but a file value is checked all the same."""
        config = tmp_path / "mu.ini"
        config.write_text("[model]\nmu = -1\n")
        assert run_cli(["spectrum", "--config", config, "--out", tmp_path / "r"]) == 1
        assert capsys.readouterr().err == "error: [model] mu must be > 0, got -1.0\n"

    def test_grid_flag_zero_rejected(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run_cli(["protocol1", "--grid", 0, "--out", out]) == 1
        assert "--grid must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, section", [
        ("protocol2", "[model]\nj = 1e-200\n"),       # Omega = 0, t_m = inf
        ("protocol1", "[model]\nu = 1e300\n"),        # phases overflow
        # an overflowing field or U/J: sweep_spectrum raises before diagonalizing
        ("spectrum", "[spectrum]\nn_total = 3\npoints = 2\nmu_over_j = 1e308\n"),
        ("spectrum", "[spectrum]\nn_total = 3\npoints = 2\nu_over_j_max = 1e308\n"),
        # the robustness mu pulse's sparse H has an infinite entry
        ("robustness", "[model]\nmu = 1e308\n[robustness]\npoints = 2\nn_dt = 2\n"),
    ], ids=["j=1e-200", "u=1e300", "mu_over_j=1e308", "u_over_j_max=1e308", "pulse mu=1e308"])
    def test_finite_input_with_non_finite_result_exits_2(
            self, tmp_path, capsys, kind, section):
        config = tmp_path / "extreme.ini"
        config.write_text(section)
        out = tmp_path / "r"
        assert run_cli([kind, "--grid", 2, "--config", config, "--out", out]) == 2
        assert "numerical failure:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("columns, bad", [
        ([np.array([0.5, 1.5, np.nan, 2.5]), np.array(["", "1", "x", "2"])], "row 2: a = nan"),
        # a text column beside a float one
        ([np.array(["", "1", "x", "2"]), np.array([0.0, 1.0, math.nan, 2.0])], "row 2: b = nan"),
        # the first bad cell in row-major order
        ([np.array([0.5, np.inf, np.nan]), np.array([-math.inf, 1.0, math.nan])],
         "row 0: b = -inf"),
        ([np.array([0.5, np.inf, np.nan]), np.array([0.0, math.nan, 0.5])], "row 1: a = inf"),
    ], ids=["float-array", "mixed-list", "earlier-row", "left-column"])
    def test_non_finite_table_cell_exits_2(self, tmp_path, capsys, monkeypatch, columns, bad):
        monkeypatch.setitem(cli._EXPERIMENTS, "physical",
                            lambda cfg: (["a", "b"], columns, {}))
        out = tmp_path / "r"
        assert run_cli(["physical", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"numerical failure: physical table {bad}; no table written\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, quantity", [
        ("omega_max_khz", "1e300", "V0"),          # omega_r**2 overflows
        ("scattering_length_a0", "1e308", "U0"),   # the contact term overflows
        ("kappa_sq", "1e300", "U0"),               # f(kappa) overflows
    ])
    def test_extreme_lattice_input_names_the_overflowing_quantity(
            self, tmp_path, capsys, key, value, quantity):
        config = tmp_path / "extreme.ini"
        config.write_text(f"[lattice]\n{key} = {value}\n")
        out = tmp_path / "r"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["physical", "--grid", 3, "--config", config, "--out", out]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {quantity} = inf at omega_r = ")
        assert not out.exists()

    def test_physical_detuning_out_of_reach(self, tmp_path, capsys):
        config = tmp_path / "far.ini"
        config.write_text("[robustness]\nsource = physical\nxi_over_j_max = 5\n"
                          "points = 2\nn_dt = 1\n")
        out = tmp_path / "r"
        assert run_cli(["robustness", "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: physical source: xi = ") and "(xi/J = 5)" in err
        assert not out.exists()

    def test_physical_root_outside_the_lattice_range(self, tmp_path, capsys):
        config = tmp_path / "range.ini"
        config.write_text("[robustness]\nsource = physical\npoints = 2\n"
                          "[lattice]\nomega_min_khz = 100\nomega_max_khz = 200\n")
        out = tmp_path / "r"
        assert run_cli(["robustness", "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: physical source, [lattice] omega_min_khz to omega_max_khz: "
                              "no integrable point in bracket")
        assert not out.exists()

    @pytest.mark.parametrize("low, high", [(100, 200), (70, 60)], ids=["above", "reversed"])
    def test_physical_range_without_a_root_names_the_lattice_keys(self, tmp_path, capsys,
                                                                  low, high):
        config = tmp_path / "range.ini"
        config.write_text(f"[lattice]\nomega_min_khz = {low}\nomega_max_khz = {high}\n")
        out = tmp_path / "r"
        assert run_cli(["physical", "--config", config, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(
            "error: [lattice] omega_min_khz to omega_max_khz: no integrable point in bracket")
        assert not out.exists()

    def test_run_requires_config(self, capsys):
        assert run_cli(["run"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["protocol1", "--config", tmp_path / "absent.ini"]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[bogus]\nx = 1\n")
        assert run_cli(["protocol1", "--config", config]) == 1
        assert "unknown config section" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[model]\nquux = 1\n")
        assert run_cli(["protocol1", "--config", config]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_model_u0_is_an_unknown_key(self, tmp_path, capsys):
        """At U13 = U0, U0 adds only a global phase: no config selects it."""
        config = tmp_path / "u0.ini"
        config.write_text("[model]\nu0 = 50\n")
        out = tmp_path / "r"
        assert run_cli(["protocol1", "--config", config, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: unknown keys in [model]: ['u0']; ")
        assert not out.exists()

    def test_unknown_preset_in_config(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nkind = protocol1\npreset = set9\n")
        assert run_cli(["run", "--config", config]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_kind_in_config(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nkind = teleport\n")
        assert run_cli(["run", "--config", config]) == 1
        assert "unknown experiment kind" in capsys.readouterr().err

    def test_invalid_model_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(
            "[experiment]\nkind = protocol1\ngrid = 2\n"
            "[model]\nm = 4\np = 4\n"
        )
        assert run_cli(["run", "--config", config, "--out", tmp_path / "r"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["protocol1", "protocol2", "readout", "evolve",
                                      "robustness"])
    @pytest.mark.parametrize("key", ["m", "p"])
    def test_empty_subsystem_is_invalid_input(self, tmp_path, capsys, kind, key):
        """M = 0 or P = 0 is rejected before t_nu = pi/(4 M nu) or P theta / P divides."""
        config = tmp_path / "empty.ini"
        config.write_text(f"[model]\n{key} = 0\n")
        out = tmp_path / "r"
        assert run_cli([kind, "--grid", 3, "--config", config, "--out", out]) == 1
        assert "M and P must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m, p, reason", [
        (0, 11, "occupations M and P must be >= 1"),
        (4, 4, "N = M + P must be odd"),
        (7, 8, "need |M - P| >= 2"),
    ])
    def test_invalid_occupations_name_the_model_keys(self, tmp_path, capsys, m, p, reason):
        config = tmp_path / "occupations.ini"
        config.write_text(f"[model]\nm = {m}\np = {p}\n")
        assert run_cli(["protocol2", "--grid", 2, "--config", config, "--out", tmp_path / "r"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [model] m = {m}, [model] p = {p}: ") and reason in err

    @pytest.mark.parametrize("kind", ["protocol1", "protocol2", "readout"])
    def test_t_mu_past_t_m_names_the_protocol_key(self, tmp_path, capsys, kind):
        config = tmp_path / "phase.ini"
        config.write_text("[protocol]\np_theta_max = 1e5\n")
        out = tmp_path / "r"
        assert run_cli([kind, "--config", config, "--out", out]) == 1
        assert capsys.readouterr().err == ("error: [protocol] p_theta_max = 100000: "
                                           "t_mu = 217.798 s must be below t_m = 36.9501 s\n")
        assert not out.exists()

    def test_spectrum_runs_with_an_empty_subsystem(self, tmp_path):
        config = tmp_path / "empty.ini"
        config.write_text("[model]\nm = 0\n[spectrum]\npoints = 2\n")
        assert run_cli(["spectrum", "--config", config, "--out", tmp_path / "r"]) == 0

    @pytest.mark.parametrize("grid, p_theta_max", [(2, 3.0), (64, 0.0)])
    def test_readout_needs_three_phases_before_the_sweep(
            self, tmp_path, capsys, monkeypatch, grid, p_theta_max):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep_readout", no_sweep)
        config = tmp_path / "phases.ini"
        config.write_text(f"[protocol]\np_theta_max = {p_theta_max}\n")
        out = tmp_path / "r"
        assert run_cli(["readout", "--grid", grid, "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[experiment] grid" in err
        assert "[protocol] p_theta_max" in err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureError("synthetic quadrature failure")

        monkeypatch.setattr("noonring.lattice.derive", explode)
        assert run_cli(["physical", "--out", tmp_path / "r"]) == 2
        assert "numerical failure:" in capsys.readouterr().err


def test_readme_table_matches_schema():
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| (\w+) \| (.+?) \| (.+?) \|$",
                      README.read_text(), re.M)
    assert [row[:2] for row in rows] == [(s, k) for s, keys in SCHEMA.items() for k in keys]
    for section, key, type_name, default, allowed in rows:
        spec = SCHEMA[section][key]
        assert type_name == spec.type.__name__
        if spec.default is None:
            assert default == "preset" or default.startswith("none")
        else:
            assert spec.type(default.split("`")[1]) == spec.default
        if spec.allowed in (POSITIVE, NON_NEGATIVE):
            assert allowed == spec.allowed
        elif spec.allowed:
            assert re.findall(r"`([^`]+)`", allowed) == [str(v) for v in spec.allowed]
    assert re.findall(r"`([^`]+)`", rows[0][4]) == list(KINDS)
