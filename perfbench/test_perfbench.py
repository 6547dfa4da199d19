"""Tests of the benchmark itself: seeded plans, output checks, tracing.

    python3 -m pytest perfbench -q      (from the repository root)
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_value  # noqa: E402
from noonring import cli  # noqa: E402

LATTICE = {"lattice": {"omega_min_khz": "20.0", "omega_max_khz": "60.0", "points": "5"}}


def _physical(check=workloads.check_physical, config=LATTICE):
    return workloads.Experiment("physical", "set1", config, check)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plans_are_seeded_and_keep_their_point_counts(name):
    def shape(plan):
        return [(e.kind, e.preset, {s: sorted(v) for s, v in e.config.items()}) for e in plan]

    first, again, other = (workloads.plan(name, 7), workloads.plan(name, 7),
                           workloads.plan(name, 8))
    assert [e.config for e in first] == [e.config for e in again]
    assert [e.config for e in first] != [e.config for e in other]
    assert shape(first) == shape(other)
    for a, b in zip(first, other):
        for section in a.config:
            for key in ("points", "n_total", "n_dt", "readout_protocol"):
                assert a.config[section].get(key) == b.config[section].get(key)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.plan("no-such-workload", 0)


def test_correct_run_passes_and_corrupted_outputs_fail(tmp_path):
    experiment = _physical()
    experiment.write_config(tmp_path)
    assert cli.main(experiment.argv(tmp_path)) == 0
    assert experiment.check(tmp_path) == []

    table = tmp_path / "physical.csv"
    good = table.read_text()
    lines = good.splitlines()
    lines[2] = ",".join(["nan"] + lines[2].split(",")[1:])
    table.write_text("\n".join(lines) + "\n")
    assert any("nan" in problem for problem in experiment.check(tmp_path))
    table.write_text(good)

    manifest_path = tmp_path / "physical_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["root"]["omega_r_over_2pi_khz"] = 40.0
    manifest_path.write_text(json.dumps(manifest))
    assert any("integrable root" in problem for problem in experiment.check(tmp_path))


def test_readout_check_requires_every_fit_and_the_row_count(tmp_path):
    experiment = workloads.plan("phase-sweep", 3)[2]
    assert (experiment.kind, experiment.label) == ("readout", "protocol I")
    experiment.write_config(tmp_path)
    assert cli.main(experiment.argv(tmp_path)) == 0
    assert experiment.check(tmp_path) == []

    manifest_path = tmp_path / "readout_manifest.json"
    good = manifest_path.read_text()
    manifest = json.loads(good)
    del manifest["fits"]["cMM"]
    manifest_path.write_text(json.dumps(manifest))
    assert experiment.check(tmp_path) == ["fit cMM missing from the manifest"]
    manifest["fits"] = {"c0": 0.954, "cM": 0.909}   # Protocol II fits on a Protocol I run
    manifest_path.write_text(json.dumps(manifest))
    assert len(experiment.check(tmp_path)) == 2
    manifest_path.write_text(good)

    table = tmp_path / "readout.csv"
    table.write_text("\n".join(table.read_text().splitlines()[:-4]) + "\n")
    assert experiment.check(tmp_path) == [f"{4 * workloads.GRID - 4} readout rows, "
                                          f"expected {4 * workloads.GRID}"]


def test_spectrum_row_count_is_checked(tmp_path):
    (tmp_path / "spectrum.csv").write_text(
        "# units\nu_over_j,index,e_over_j,band_m,band_p\n0,0,1.0,,\n")
    assert workloads.spectrum_check(1, 1)(tmp_path) != []   # dim 4 x 1 point
    assert workloads.spectrum_check(0, 1)(tmp_path) == []   # dim 1 x 1 point


def test_failed_check_and_failed_exit_count_as_failed_runs(tmp_path):
    def corrupting_check(directory):
        path = directory / "physical_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["root"]["omega_r_over_2pi_khz"] *= 1.05
        path.write_text(json.dumps(manifest))
        return workloads.check_physical(directory)

    experiments = [
        _physical(),
        _physical(check=corrupting_check),
        _physical(config={"lattice": {"points": "not-a-number"}}),
    ]
    for i, experiment in enumerate(experiments):
        experiment.write_config(tmp_path / str(i))
    wall, failed = worker.run_pass(cli, experiments, tmp_path)
    assert wall > 0.0
    assert len(failed) == 2
    assert "integrable root" in failed[0]
    assert "exit code 1" in failed[1]


def test_tracer_self_time_excludes_children_and_nesting_counts_once():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def outer(depth):
        traced_leaf()
        return traced_outer(depth - 1) if depth else 0

    traced_outer = tracer.wrap("m.outer", outer)
    traced_outer(2)
    layers = tracer.summary()["layers"]
    assert layers["m.outer"]["calls"] == 3 and layers["m.leaf"]["calls"] == 3
    outermost = [span for span in tracer.spans if span[0] == "m.outer" and span[4]]
    assert len(outermost) == 1
    assert layers["m.outer"]["s"] == pytest.approx(outermost[0][2] - outermost[0][1])
    total_self = layers["m.outer"]["self_s"] + layers["m.leaf"]["self_s"]
    assert total_self == pytest.approx(layers["m.outer"]["s"], rel=1e-9)
    summary = tracer.summary()
    assert layer_value("m.leaf.calls", summary, 1.0, 1.0) == 3
    assert layer_value("m.absent.s", summary, 1.0, 1.0) == 0
    assert layer_value("trace.overhead_s", summary, 1.5, 1.0) == pytest.approx(0.5)


def test_install_wraps_every_binding_and_counts_cache_misses(tmp_path):
    # Installing rewrites module globals, so it runs in a process of its own.
    script = textwrap.dedent(f"""
        import io, contextlib, json, sys
        sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]
        from noonring import cli, model, protocols, robustness, spectrum
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        assert protocols.build_full_hamiltonian is model.build_full_hamiltonian
        assert robustness.build_full_hamiltonian is model.build_full_hamiltonian
        assert spectrum.build_full_hamiltonian is model.build_full_hamiltonian
        assert hasattr(model.build_full_hamiltonian, "__wrapped__")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["protocol1", "--grid", "4", "--out", {str(tmp_path)!r}])
        print(json.dumps({{"code": code, "summary": tracer.summary()}}))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, cwd=ROOT)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0
    summary = result["summary"]
    value = lambda name: layer_value(name, summary, 1.0, 1.0)  # noqa: E731
    # Two Hamiltonians (free and mu on) are built once and diagonalized once.
    assert value("model.build_full_hamiltonian.calls") == 2
    assert value("model.eigensystem.computed") == 2
    assert value("model.eigensystem.dim3_sum") == 2 * 816 ** 3
    assert value("dynamics.evolve.calls") == 4 * 2
    # The P*theta = 0 point has a zero-length mu pulse, which needs no eigensystem.
    assert value("model.eigensystem.calls") == 4 * 2 - 1
    # Each other evolve reads a float64 eigensystem: 816 eigenvalues, 816 x 816 vectors.
    assert value("dynamics.evolve.bytes_computed") == (4 * 2 - 1) * (816 + 816 ** 2) * 8
    assert value("protocols.selected_ratio") == pytest.approx(2 / 16)
    assert value("cli.run_experiment.protocol1.s") == value("cli.run_experiment.s")
    assert value("lattice.solve_integrability.calls") == 0
