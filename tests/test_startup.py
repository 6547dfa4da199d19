"""Start-up: no kind imports scipy, and only physical and robustness import the lattice."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noonring
from noonring.cli import SCHEMA
from noonring.lattice import TrapParameters
from noonring.robustness import RobustnessConfig

ROOT = Path(__file__).resolve().parents[1]
MODEL_KINDS = ("protocol1", "protocol2", "readout", "evolve", "spectrum")
# An expression, for the scripts below: the scipy modules the interpreter has loaded.
SCIPY_LOADED = "sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')"


def fresh_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports noonring from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env, cwd=ROOT, **kwargs)


def loaded_after(script: str):
    """The JSON value that a fresh interpreter running `script` prints last."""
    result = fresh_python("-c", script, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy_subpackage():
    loaded = loaded_after(f"import json, sys\nimport noonring.cli\nprint(json.dumps({SCIPY_LOADED}))")
    assert loaded == []


def test_model_kinds_run_with_scipy_subpackages_blocked(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text("[spectrum]\npoints = 3\n[evolve]\npoints = 4\n")
    for kind in MODEL_KINDS:
        result = fresh_python(ROOT / "tests" / "without_scipy.py", kind, "--grid", 3,
                              "--config", config, "--out", tmp_path / kind)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / kind / f"{kind}.csv").exists()


@pytest.mark.parametrize("kind, config", [
    ("physical", ""),
    ("robustness", "[robustness]\npoints = 2\nn_dt = 2\n"),
    ("robustness", "[robustness]\npoints = 2\nn_dt = 2\nsource = physical\n"),
], ids=["physical", "robustness-direct", "robustness-physical"])
def test_lattice_and_robustness_kinds_run_with_scipy_blocked(tmp_path, kind, config):
    (tmp_path / "run.ini").write_text(config)
    result = fresh_python(ROOT / "tests" / "without_scipy.py", kind, "--config",
                          tmp_path / "run.ini", "--out", tmp_path / kind)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / kind / f"{kind}.csv").exists()


def test_the_blocked_interpreter_refuses_scipy():
    """The checks above would pass vacuously if the finder blocked nothing."""
    result = fresh_python("-c", "import sys\nsys.path.insert(0, 'tests')\n"
                          "from without_scipy import BlockScipy\n"
                          "sys.meta_path.insert(0, BlockScipy())\nimport scipy.special")
    assert result.returncode != 0
    assert "scipy is blocked" in result.stderr


def test_resolving_a_kind_imports_only_the_modules_it_needs():
    """The lattice for physical, the lattice (source = physical) and robustness for
    robustness; the model kinds neither.  Modules accumulate over the kinds."""
    loaded = loaded_after(
        "import json, sys\nfrom noonring import cli\n"
        "seen = {}\n"
        f"for kind in {(*MODEL_KINDS, 'physical', 'robustness')!r}:\n"
        "    cli.resolve_config(cli.build_parser().parse_args([kind]))\n"
        "    seen[kind] = [name for name in ('noonring.lattice', 'noonring.robustness') "
        f"if name in sys.modules] + {SCIPY_LOADED}\n"
        "print(json.dumps(seen))")
    assert loaded == {
        **{kind: [] for kind in MODEL_KINDS},
        "physical": ["noonring.lattice"],
        "robustness": ["noonring.lattice", "noonring.robustness"],
    }


def test_physical_runs_load_neither_scipy_optimize_nor_integrate(tmp_path):
    """A full `physical` run and a physical-source `robustness` run load no scipy module:
    the lattice's constants, special functions, quadrature and roots are numpy code."""
    config = tmp_path / "physical.ini"
    config.write_text("[robustness]\nsource = physical\npoints = 2\nn_dt = 2\n")
    loaded = loaded_after(
        "import json, sys\nfrom noonring import cli\n"
        "for kind in ('physical', 'robustness'):\n"
        f"    assert cli.main([kind, '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        f"print(json.dumps({SCIPY_LOADED} + [name for name in ('noonring.lattice', "
        "'noonring.robustness') if name in sys.modules]))")
    assert loaded == ["noonring.lattice", "noonring.robustness"]


def test_a_direct_source_robustness_run_loads_no_scipy_and_no_lattice(tmp_path):
    """Its pulses are numpy code; only the physical source needs the lattice, which
    resolving such a run imports."""
    direct, physical = tmp_path / "direct.ini", tmp_path / "physical.ini"
    direct.write_text("[robustness]\npoints = 2\nn_dt = 2\n")
    physical.write_text("[robustness]\nsource = physical\n")
    loaded = loaded_after(
        "import json, sys\nfrom noonring import cli\n"
        f"assert cli.main(['robustness', '--config', {str(direct)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        f"run = {SCIPY_LOADED}\n"
        "lattice = 'noonring.lattice' in sys.modules\n"
        f"cli.resolve_config(cli.build_parser().parse_args(['robustness', '--config', "
        f"{str(physical)!r}]))\n"
        "print(json.dumps([run, lattice, 'noonring.lattice' in sys.modules]))")
    assert loaded == [[], False, True]


def test_robustness_runs_load_no_numpy_ma(tmp_path):
    """np.unique without index outputs imports numpy.ma (to check for a masked array), 10-17 ms
    of a fresh process; a run's pulse durations are ordered without it."""
    direct, physical = tmp_path / "direct.ini", tmp_path / "physical.ini"
    direct.write_text("[robustness]\npoints = 2\nn_dt = 2\n")
    physical.write_text("[robustness]\npoints = 2\nn_dt = 2\nsource = physical\n")
    loaded = loaded_after(
        "import json, sys\nfrom noonring import cli\n"
        f"for config in ({str(direct)!r}, {str(physical)!r}):\n"
        "    assert cli.main(['robustness', '--config', config, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(json.dumps('numpy.ma' in sys.modules))")
    assert loaded is False


def test_every_public_name_resolves():
    for name in noonring.__all__:
        assert getattr(noonring, name) is not None, name
    namespace = {}
    exec("from noonring import *", namespace)
    assert set(noonring.__all__) <= set(namespace)
    assert noonring.TrapParameters is TrapParameters
    with pytest.raises(AttributeError):
        noonring.calibrate_moment


@pytest.mark.parametrize("section, library_class, keys", [
    ("robustness", RobustnessConfig, ("n_dt", "mode", "protocol", "start_sign")),
    ("lattice", TrapParameters, ("scattering_length_a0", "magnetic_moment_mub", "kappa_sq")),
    # the physical source's frequency range: kHz here, rad/s as RobustnessConfig.bracket
    ("lattice", RobustnessConfig, ("omega_min_khz", "omega_max_khz")),
])
def test_schema_defaults_equal_the_library_defaults(section, library_class, keys):
    defaults = {field.name: field.default for field in dataclasses.fields(library_class)}
    schema = {key: SCHEMA[section][key].default for key in keys}
    if keys == ("omega_min_khz", "omega_max_khz"):
        schema = {"bracket": pytest.approx(
            tuple(2.0 * math.pi * schema[key] * 1e3 for key in keys), rel=1e-15)}
    assert schema == {key: defaults[key] for key in schema}
