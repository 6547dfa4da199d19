"""Command-line driver: run experiments, emit deterministic tables + manifests.

Experiment kinds
    protocol1   measurement statistics and NOON fidelities vs P*theta
    protocol2   deterministic-protocol fidelity vs P*theta
    readout     site-3 interference after a further t_m, with law fits
    spectrum    eigenvalue sweep over U/J with band assignment
    evolve      populations and effective-Hamiltonian overlap vs time
    physical    lattice calculator: couplings vs omega_r, integrable root
    robustness  fidelity vs detuning |U0 - U13| = xi, static or pulsed

The protocol kinds run one protocol config over a P theta grid ([experiment]
grid points from 0 to [protocol] p_theta_max).  Each run writes one delimited
table (csv/tsv; header row plus a unit comment) and a JSON manifest echoing
the fully resolved configuration and derived scales.  Identical inputs
produce byte-identical tables at a fixed BLAS thread count (the manifest
records it under `environment`); the manifest carries the only timestamp.

Config files are INI-style; `SCHEMA` gives every section and key its type,
default and allowed values.  Values are layered defaults < preset < config
file < flags, and each is parsed and checked before any computation.
Exit codes: 0 success, 1 invalid input (the message names the key),
2 numerical failure, including a non-finite table cell (no table written).

Every kind runs on numpy alone; no module of the package imports scipy.
Importing this module does not import `noonring.robustness` or
`noonring.lattice` (~6 ms to import, 2.6 ms of it its quadrature rules):
`resolve_config` imports the ones a run needs, after checking the values and
before any computation.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import sys
from configparser import ConfigParser
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .fock import enumerate_basis
from .protocols import (
    READOUT_LAWS,
    FullDynamics,
    IdealDynamics,
    ProtocolConfig,
    _check_occupations,
    _check_thetas,
    band_trace,
    fit_readout_amplitudes,
    sweep_protocol1,
    sweep_protocol2,
    sweep_readout,
)
from .spectrum import BandsUnresolvedError, assign_bands, predicted_band_sizes, sweep_spectrum

UNIT_NOTE = "# units: couplings and fields are angular frequencies (X/hbar, rad/s); times in s"

PRESETS = {
    "set1": {"m": 4, "p": 11, "u": 75.876, "j": 24.886, "mu": 20.870, "nu": 20.870},
    "set2": {"m": 4, "p": 11, "u": 76.519, "j": 73.219, "mu": 15.168, "nu": 15.168},
}

_DELIMITERS = {"csv": ",", "tsv": "\t"}
_DYNAMICS = {"full": FullDynamics, "ideal": IdealDynamics}   # [protocol] mode

POSITIVE = "> 0"
NON_NEGATIVE = ">= 0"


class Key(NamedTuple):
    """A config key: its type, its default (None: from the preset, or derived
    by the experiment) and its allowed values: a tuple of choices, POSITIVE,
    NON_NEGATIVE, or None for any.  Floats must also be finite."""

    type: type
    default: object = None
    allowed: tuple | str | None = None


SCHEMA: dict[str, dict[str, Key]] = {
    "experiment": {
        "kind": Key(str),              # one of KINDS; a subcommand overrides it
        "preset": Key(str, "set1", tuple(PRESETS)),
        "out": Key(Path, Path("results")),
        "format": Key(str, "csv", tuple(_DELIMITERS)),
        "grid": Key(int, 64, POSITIVE),
    },
    "model": {                         # m, p, u, j, mu, nu default to the preset
        "m": Key(int), "p": Key(int), "u": Key(float, None, POSITIVE),
        "j": Key(float, None, POSITIVE), "mu": Key(float, None, POSITIVE),
        "nu": Key(float, None, POSITIVE),
        "t_m_override": Key(float, None, POSITIVE),   # None: t_m = pi / (2 Omega)
    },
    "protocol": {
        "p_theta_max": Key(float, math.pi, NON_NEGATIVE),
        "mode": Key(str, "full", tuple(_DYNAMICS)),
        "readout_protocol": Key(int, 1, (1, 2)),
    },
    "spectrum": {
        "n_total": Key(int, None, NON_NEGATIVE),   # None: M + P
        "u_over_j_min": Key(float, 0.0),
        "u_over_j_max": Key(float, 25.0),
        "points": Key(int, 40, POSITIVE),
        "mu_over_j": Key(float, 0.0),
    },
    "evolve": {
        "t_max": Key(float, None, NON_NEGATIVE),   # None: t_m
        "points": Key(int, 160, POSITIVE),
    },
    "robustness": {
        "xi_over_j_max": Key(float, 0.02),
        "points": Key(int, 20, POSITIVE),
        # n_dt, mode, protocol, start_sign: the RobustnessConfig defaults (a test pins
        # them equal); source = physical hands it the [lattice] trap
        "n_dt": Key(int, 100, POSITIVE),
        "mode": Key(str, "pulsed", ("pulsed", "static")),
        "source": Key(str, "direct", ("direct", "physical")),
        "protocol": Key(int, 1, (1, 2)),
        "start_sign": Key(int, 1, (1, -1)),
    },
    "lattice": {
        # The first three: the TrapParameters defaults (a test pins them equal)
        "scattering_length_a0": Key(float, -21.0),
        "magnetic_moment_mub": Key(float, 9.978541109384, POSITIVE),
        "kappa_sq": Key(float, 1.489, POSITIVE),
        "dx": Key(float, 0.2e-6),
        "dy": Key(float, -0.2e-6),
        "omega_min_khz": Key(float, 20.0, POSITIVE),
        "omega_max_khz": Key(float, 60.0, POSITIVE),
        "points": Key(int, 40, POSITIVE),
    },
}

def _parse(section: str, key: str, raw, where: str | None = None):
    """`raw` converted to the key's type and checked against its range."""
    spec = SCHEMA[section][key]
    where = where or f"[{section}] {key}"
    try:
        value = spec.type(raw)
    except ValueError:
        raise ValueError(f"{where}: cannot parse {raw!r} as {spec.type.__name__}") from None
    if spec.type is float and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {raw!r}")
    if (spec.allowed == POSITIVE and not value > 0
            or spec.allowed == NON_NEGATIVE and not value >= 0):
        raise ValueError(f"{where} must be {spec.allowed}, got {value!r}")
    if isinstance(spec.allowed, tuple) and value not in spec.allowed:
        raise ValueError(f"{where}: unknown {key} {value!r}; known: {list(spec.allowed)}")
    return value


class ExperimentConfig(SimpleNamespace):
    """Resolved configuration: a namespace of checked values per schema section
    (`cfg.model.j`), plus `label`, the preset name ("+custom" if [model] is set)."""

    @property
    def kind(self) -> str:
        return self.experiment.kind

    def base_protocol(self) -> ProtocolConfig:
        m = self.model
        try:   # the library's message names M and P, not the keys
            _check_occupations(m.m, m.p)
        except ValueError as exc:
            raise ValueError(f"[model] m = {m.m}, [model] p = {m.p}: {exc}") from None
        try:   # the schema leaves one check, which names t_nu and t_m, not the keys
            return ProtocolConfig(m.m, m.p, u=m.u, j=m.j, mu=m.mu, nu=m.nu,
                                  t_m_override=m.t_m_override)
        except ValueError as exc:
            raise ValueError(f"[model] nu = {m.nu:g}, [model] t_m_override = "
                             f"{m.t_m_override}: {exc}") from None


def _read_config_file(path: Path) -> dict[str, dict[str, object]]:
    """Typed, checked values of every key the file sets."""
    parser = ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    data = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ValueError(
                f"unknown config section [{section}]; known: {sorted(SCHEMA)}")
        keys = dict(parser.items(section))
        unknown = set(keys) - set(SCHEMA[section])
        if unknown:
            raise ValueError(
                f"unknown keys in [{section}]: {sorted(unknown)}; "
                f"known: {sorted(SCHEMA[section])}")
        data[section] = {key: _parse(section, key, raw) for key, raw in keys.items()}
    return data


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Layer schema defaults < preset < config file < command-line flags.

    The robustness module, and the lattice for a run that needs it, are imported
    here, once every value is checked, so that import counts as set-up.
    """
    given = _read_config_file(Path(args.config)) if args.config else {}
    experiment = given.setdefault("experiment", {})
    kind = getattr(args, "kind", None) or experiment.get("kind")
    if kind is None:
        raise ValueError("no experiment kind given (subcommand or [experiment] kind)")
    if kind not in KINDS:
        raise ValueError(f"[experiment] kind: unknown experiment kind {kind!r}; known: {list(KINDS)}")
    for flag in ("preset", "grid", "out", "format"):
        if getattr(args, flag) is not None:
            experiment[flag] = _parse("experiment", flag, getattr(args, flag), f"--{flag}")
    experiment["kind"] = kind
    preset = experiment.get("preset", SCHEMA["experiment"]["preset"].default)
    custom = bool(given.get("model"))
    given["model"] = {**PRESETS[preset], **given.get("model", {})}
    cfg = ExperimentConfig(
        label=f"{preset}+custom" if custom else preset,
        **{section: SimpleNamespace(**{
            key: given.get(section, {}).get(key, spec.default) for key, spec in keys.items()})
           for section, keys in SCHEMA.items()},
    )
    if kind == "robustness":
        importlib.import_module(".robustness", __package__)
    if kind == "physical" or (kind == "robustness" and cfg.robustness.source == "physical"):
        importlib.import_module(".lattice", __package__)
    return cfg


# --- table / manifest output ----------------------------------------------


CHUNK_ROWS = 1024   # table rows formatted and written at a time


def _cells(column: np.ndarray) -> list[str]:
    """The text of a column of numbers or text, floats with 12 significant digits; each
    distinct value (floats by their bits: 0.0 and -0.0 print "0" and "-0") formatted once."""
    floats = column.dtype.kind == "f"
    _, first, inverse = np.unique(column.view(np.int64) if floats else column,
                                  return_index=True, return_inverse=True)
    texts = map("{:.12g}".format if floats else str, column[first].tolist())
    return np.array(list(texts), dtype=object)[inverse].tolist()


def _write_table(path: Path, header: list[str], columns: list, fmt: str) -> None:
    """Write equal-length array `columns` as rows under `header`, CHUNK_ROWS rows at a time,
    which bounds the memory the text takes; `_cells` formats a chunk's distinct values.
    The csv module writes a chunk with a cell to quote; the others are joined."""
    delimiter = _DELIMITERS[fmt]
    with open(path, "w", newline="") as fh:
        fh.write(UNIT_NOTE + "\n")
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            cells = [_cells(column[start:start + CHUNK_ROWS]) for column in columns]
            text = "\n".join(map(delimiter.join, zip(*cells)))
            # Only the joins add delimiters and line breaks if no cell holds one.
            if (text.count(delimiter) + text.count("\n") == len(cells) * len(cells[0]) - 1
                    and '"' not in text and "\r" not in text):
                fh.write(text + "\n")
            else:
                writer.writerows(zip(*cells))


def _write_manifest(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _environment() -> dict:
    """Versions and thread settings: table digits can depend on the BLAS thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "threads": {name: value for name, value in sorted(os.environ.items())
                        if name.endswith("_NUM_THREADS")}}


def _manifest_base(cfg: ExperimentConfig, extras: dict) -> dict:
    return {
        "kind": cfg.kind,
        "preset": cfg.label,
        "model": vars(cfg.model),
        "grid": cfg.experiment.grid,
        "format": cfg.experiment.format,
        "units": "couplings/fields: rad/s (X/hbar); times: s",
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "environment": _environment(),
        **extras,
    }


def _derived_block(pc: ProtocolConfig, p_theta: float | None = None) -> dict:
    """The band scales of `pc`, and t_mu at theta = `p_theta` / P if a kind encodes one."""
    block = {"omega": pc.omega, "t_m": pc.t_m, "t_nu": pc.t_nu, "beta": pc.beta}
    if p_theta is not None:
        block["t_mu_at_p_theta_max"] = pc.t_mu(p_theta / pc.p_occ)
    return block


def _check_finite(kind: str, header: list[str], columns: list) -> None:
    """Raise ArithmeticError at the first NaN or infinite float cell, in row-major order."""
    first_bad = []   # (row, column) of each float column's first bad cell
    for j, column in enumerate(columns):
        if column.dtype.kind == "f":   # an int or text column holds no float cell
            first_bad += [(i, j) for i in np.flatnonzero(~np.isfinite(column))[:1].tolist()]
    if first_bad:
        i, j = min(first_bad)
        raise ArithmeticError(
            f"{kind} table row {i}: {header[j]} = {columns[j][i]}; no table written")


# --- experiments ------------------------------------------------------------


def _protocol_sweep(cfg: ExperimentConfig) -> tuple[ProtocolConfig, list[float], np.ndarray]:
    """The protocol config, the P theta grid and its theta = P theta / P, checked."""
    pc = cfg.base_protocol()
    grid = np.linspace(0.0, cfg.protocol.p_theta_max, cfg.experiment.grid)
    try:   # the library's message names t_mu and t_m, not the key
        thetas = _check_thetas(pc, grid / pc.p_occ)
    except ValueError as exc:
        raise ValueError(f"[protocol] p_theta_max = {cfg.protocol.p_theta_max:g}: {exc}") from None
    return pc, grid.tolist(), thetas


def _dynamics(cfg: ExperimentConfig) -> FullDynamics | IdealDynamics:
    return _DYNAMICS[cfg.protocol.mode](enumerate_basis(cfg.model.m + cfg.model.p))


def _protocol_extras(cfg: ExperimentConfig, pc: ProtocolConfig) -> dict:
    return {"derived": _derived_block(pc, cfg.protocol.p_theta_max), "mode": cfg.protocol.mode}


def _run_protocol1_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    m, (pc, grid, thetas) = cfg.model, _protocol_sweep(cfg)
    t_m, sweep = pc.t_m, sweep_protocol1(pc, thetas, _dynamics(cfg))
    rows = [(cfg.label, m.m, m.p, p_theta, report.outcome, report.probability,
             report.fidelity, int(report.selected), t_m)
            for p_theta, reports in zip(grid, sweep) for report in reports]
    header = ["set", "m", "p", "p_theta", "r", "probability", "fidelity",
              "selected", "elapsed_s"]
    return header, list(map(np.array, zip(*rows))), _protocol_extras(cfg, pc)


def _run_protocol2_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    m, (pc, grid, thetas) = cfg.model, _protocol_sweep(cfg)
    sweep = sweep_protocol2(pc, thetas, _dynamics(cfg))
    rows = [(cfg.label, m.m, m.p, p_theta, report.fidelity, 2.0 * pc.t_m)
            for p_theta, report in zip(grid, sweep)]
    header = ["set", "m", "p", "p_theta", "fidelity", "elapsed_s"]
    return header, list(map(np.array, zip(*rows))), _protocol_extras(cfg, pc)


# Per readout protocol: the READOUT_LAWS of readouts 0 and M, the scale of the law
# columns, the fits' names, and the last three columns.  Protocol I tabulates the
# joint probability of its branch r and the readout.
_READOUTS = {
    1: (("cos2", "sin2"), 0.5, ("c00", "cMM"),
        ["joint_probability", "law_half_cos2", "law_half_sin2"]),
    2: (("shifted_sin2", "shifted_cos2"), 1.0, ("c0", "cM"),
        ["probability", "law_shifted_sin2", "law_shifted_cos2"]),
}


def _run_readout_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    m_occ, (pc, grid, thetas) = cfg.model.m, _protocol_sweep(cfg)
    if len(set(grid)) < 3:
        raise ValueError(
            f"readout fits need at least 3 distinct P theta values; [experiment] grid = "
            f"{cfg.experiment.grid} and [protocol] p_theta_max = {cfg.protocol.p_theta_max:g} "
            f"give {len(set(grid))}")
    protocol = cfg.protocol.readout_protocol
    laws, scale, fit_names, columns = _READOUTS[protocol]
    rows, samples = [], ([], [])   # (p_theta, probability) of readouts 0 and M
    sweep = sweep_readout(pc, thetas, _dynamics(cfg), protocol)
    for p_theta, theta, pairs in zip(grid, thetas.tolist(), sweep):
        law_values = [scale * READOUT_LAWS[law](pc.p_occ * theta) for law in laws]
        for report, distribution in pairs:
            branch, weight = (report.outcome, report.probability) if protocol == 1 else ("", 1.0)
            for outcome, outcome_samples in zip((0, m_occ), samples):
                probability = weight * float(distribution[outcome])
                rows.append((cfg.label, p_theta, branch, outcome, probability, *law_values))
                outcome_samples.append((p_theta, probability))
    fits = {name: fit_readout_amplitudes(outcome_samples, law) / scale
            for name, outcome_samples, law in zip(fit_names, samples, laws)}
    return ["set", "p_theta", "r", "readout_r", *columns], list(map(np.array, zip(*rows))), {
        **_protocol_extras(cfg, pc), "readout_protocol": protocol, "fits": fits,
    }


def _run_spectrum_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    s = cfg.spectrum
    n_total = s.n_total if s.n_total is not None else cfg.model.m + cfg.model.p
    basis = enumerate_basis(n_total)
    grid = np.linspace(s.u_over_j_min, s.u_over_j_max, s.points)
    eigenvalues = sweep_spectrum(basis, grid, mu=s.mu_over_j)
    resolved = np.zeros(s.points, dtype=bool)   # whether a point's levels form the bands
    for point, values in enumerate(eigenvalues):
        try:
            assign_bands(values, n_total)
        except BandsUnresolvedError:
            continue
        resolved[point] = True
    labels, sizes = zip(*predicted_band_sizes(n_total))
    # band_m and band_p of every level; blank at an unresolved point
    bands = [np.where(resolved[:, None], np.repeat(np.array(label, dtype=str), sizes), "").ravel()
             for label in zip(*labels)]
    header = ["u_over_j", "index", "e_over_j", "band_m", "band_p"]
    columns = [np.repeat(grid, basis.size), np.tile(np.arange(basis.size), s.points),
               eigenvalues.ravel(), *bands]
    return header, columns, {
        "n_total": n_total, "mu_over_j": s.mu_over_j,
        "resolved_points": int(resolved.sum()), "total_points": s.points,
    }


def _run_evolve_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    pc = cfg.base_protocol()
    t_max = cfg.evolve.t_max if cfg.evolve.t_max is not None else pc.t_m
    times = np.linspace(0.0, t_max, cfg.evolve.points)
    header = ["t_s", "p_MP00", "p_0PM0", "p_M00P", "p_00MP",
              "uber_noon_population", "effective_overlap"]
    trace = band_trace(pc, enumerate_basis(cfg.model.m + cfg.model.p), times)
    return header, [times, *trace], {"derived": _derived_block(pc), "t_max": t_max}


def _trap(cfg: ExperimentConfig):
    """The TrapParameters of the [lattice] keys."""
    from .lattice import TrapParameters

    names = ("scattering_length_a0", "magnetic_moment_mub", "kappa_sq")
    return TrapParameters(**{name: getattr(cfg.lattice, name) for name in names})


def _omega_bracket(cfg: ExperimentConfig) -> tuple[float, float]:
    """The [lattice] omega_min_khz to omega_max_khz range, in rad/s."""
    return (2.0 * math.pi * cfg.lattice.omega_min_khz * 1e3,
            2.0 * math.pi * cfg.lattice.omega_max_khz * 1e3)


def _run_physical_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    from .lattice import (HBAR, derive, model_parameters_from_lattice, recoil_energy,
                          solve_integrability)

    lattice = cfg.lattice
    trap = _trap(cfg)
    rows = []
    for freq_khz in np.linspace(lattice.omega_min_khz, lattice.omega_max_khz, lattice.points):
        omega = 2.0 * math.pi * freq_khz * 1e3
        d = derive(trap, omega)
        rows.append((float(freq_khz), d.u0, d.u12, d.u13, d.u0 - d.u13))
    header = ["omega_r_over_2pi_khz", "u0", "u12", "u13", "residual"]
    try:   # the library's message names the bracket in rad/s, not the keys
        omega_star = solve_integrability(trap, bracket=_omega_bracket(cfg))
    except ValueError as exc:
        raise ValueError(f"[lattice] omega_min_khz to omega_max_khz: {exc}") from None
    try:   # the library's message names the displacements, not the keys
        at_root = derive(trap, omega_star, dx=lattice.dx, dy=lattice.dy)
    except ValueError as exc:
        raise ValueError(
            f"[lattice] dx = {lattice.dx:g}, [lattice] dy = {lattice.dy:g}: {exc}") from None
    recoil = recoil_energy(trap)
    params = model_parameters_from_lattice(at_root, j=cfg.model.j)
    extras = {
        "trap": {
            "scattering_length_a0": trap.scattering_length_a0,
            "magnetic_moment_mub": trap.magnetic_moment_mub,
            "kappa_sq": trap.kappa_sq,
            "wavelength_m": trap.wavelength,
            "w1_m": trap.w1, "w_b_m": trap.w_b,
            "delta": trap.delta,
        },
        "root": {
            "omega_r_rad_s": omega_star,
            "omega_r_over_2pi_khz": omega_star / (2.0 * math.pi * 1e3),
            "u0": at_root.u0, "u13": at_root.u13, "u12": at_root.u12,
            "residual": at_root.u0 - at_root.u13,
        },
        "derived_at_root": {
            "recoil_rad_s": recoil,
            "recoil_over_2pi_khz": recoil / (2.0 * math.pi * 1e3),
            "v0_over_recoil": at_root.v0 / (HBAR * recoil),
            "coupling_u": (at_root.u12 - at_root.u0) / 4.0,
            "mu": at_root.mu, "nu": at_root.nu,
            "omega_z_rad_s": trap.kappa_sq * omega_star,
            "omega_z_check_rad_s": at_root.omega_z_check,
        },
        "model_parameters": params.to_dict(),
        "displacement_m": {"dx": lattice.dx, "dy": lattice.dy},
    }
    return header, list(map(np.array, zip(*rows))), extras


def _run_robustness_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    from .robustness import P_THETA, RobustnessConfig, run_robustness, threshold_xi

    r = cfg.robustness
    basis = enumerate_basis(cfg.model.m + cfg.model.p)
    xi_max = r.xi_over_j_max * cfg.model.j
    base = cfg.base_protocol()
    rcfg = RobustnessConfig(
        base=base, xi_values=tuple(np.linspace(0.0, xi_max, r.points)),
        n_dt=r.n_dt, mode=r.mode, protocol=r.protocol, start_sign=r.start_sign,
        trap=_trap(cfg) if r.source == "physical" else None, bracket=_omega_bracket(cfg),
    )
    results = run_robustness(rcfg, basis)
    rows = [
        (r.mode, r.source, r.n_dt, point.xi, point.xi / cfg.model.j, point.fidelity,
         point.probability if point.probability is not None else "")
        for point in results
    ]
    header = ["mode", "source", "n_dt", "xi", "xi_over_j", "fidelity", "probability"]
    threshold = threshold_xi(results)
    return header, list(map(np.array, zip(*rows))), {
        "derived": _derived_block(base, P_THETA), "protocol": r.protocol,
        "n_dt": r.n_dt, "mode": r.mode, "source": r.source, "start_sign": r.start_sign,
        # What "+xi" detunes: the two sources realize opposite signs.
        "xi_sign_convention": "U13 - U0 = +xi" if r.source == "direct" else "U0 - U13 = +xi",
        "p_theta": P_THETA,
        # The largest |xi/J| up to which the whole grid has fidelity above 0.9; None (null)
        # if the smallest |xi/J| fails.
        "threshold_xi_over_j": None if threshold is None else threshold / cfg.model.j,
    }


_EXPERIMENTS = {
    "protocol1": _run_protocol1_experiment,
    "protocol2": _run_protocol2_experiment,
    "readout": _run_readout_experiment,
    "spectrum": _run_spectrum_experiment,
    "evolve": _run_evolve_experiment,
    "physical": _run_physical_experiment,
    "robustness": _run_robustness_experiment,
}
KINDS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute one experiment; returns the written file paths.

    Raises ArithmeticError, and writes nothing, when a table cell is not finite.
    """
    header, columns, extras = _EXPERIMENTS[cfg.kind](cfg)
    _check_finite(cfg.kind, header, columns)
    out, fmt = cfg.experiment.out, cfg.experiment.format
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / f"{cfg.kind}.{fmt}"
    manifest_path = out / f"{cfg.kind}_manifest.json"
    _write_table(table_path, header, columns, fmt)
    _write_manifest(manifest_path, _manifest_base(cfg, {**extras, "output_table": table_path.name}))
    return [table_path, manifest_path]


def list_presets(machine: bool = False) -> str:
    """Text (or JSON) listing of the built-in parameter sets."""
    payload = {}
    for name, values in PRESETS.items():
        pc = ProtocolConfig(values["m"], values["p"], u=values["u"],
                            j=values["j"], mu=values["mu"], nu=values["nu"])
        payload[name] = {**values, **_derived_block(pc),
                         "t_mu_at_p_theta_pi": pc.t_mu(math.pi / pc.p_occ)}
    if machine:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    for name, values in payload.items():
        lines.append(f"{name}: four-site ring, M={values['m']}, P={values['p']}")
        lines.append(
            f"  couplings (rad/s): U={values['u']:g}  J={values['j']:g}  "
            f"mu={values['mu']:g}  nu={values['nu']:g}")
        lines.append(
            f"  derived: Omega={values['omega']:.6g} rad/s  t_m={values['t_m']:.6g} s  "
            f"t_nu={values['t_nu']:.6g} s  t_mu(P*theta=pi)={values['t_mu_at_p_theta_pi']:.6g} s  "
            f"beta={values['beta']}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noonring",
                     description="Four-site dipolar Bose-Hubbard ring: NOON-state "
                                 "protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    presets = sub.add_parser("presets", help="list built-in parameter sets")
    presets.add_argument("--machine", action="store_true", help="emit JSON")

    common = argparse.ArgumentParser(add_help=False)   # the options of run and every kind
    common.add_argument("--config", help="INI config file")
    common.add_argument("--preset", choices=tuple(PRESETS), help="parameter set")
    common.add_argument("--grid", type=int, help="sweep points")
    common.add_argument("--out", help="output directory (default: "
                        f"{SCHEMA['experiment']['out'].default})")
    common.add_argument("--format", choices=tuple(_DELIMITERS), help="table format")

    sub.add_parser("run", parents=[common], help="run the experiment named in a config file")
    for kind in KINDS:
        kind_parser = sub.add_parser(kind, parents=[common], help=f"run the {kind} experiment")
        kind_parser.set_defaults(kind=kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            print(list_presets(machine=args.machine))
            return 0
        if args.command == "run" and not args.config:
            raise ValueError("'run' requires --config")
        for path in run_experiment(resolve_config(args)):
            print(path)
        return 0
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
