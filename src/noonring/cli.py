"""Command-line driver: run experiments, emit deterministic tables + manifests.

Experiment kinds
    protocol1   measurement statistics and NOON fidelities vs P*theta
    protocol2   deterministic-protocol fidelity vs P*theta
    readout     site-3 interference after a further t_m, with law fits
    spectrum    eigenvalue sweep over U/J with band assignment
    evolve      populations and effective-Hamiltonian overlap vs time
    physical    lattice calculator: couplings vs omega_r, integrable root
    robustness  fidelity vs detuning xi = U0 - U13, static or pulsed

Each run writes one delimited table (csv/tsv; header row plus a unit
comment) and a JSON manifest echoing the fully resolved configuration
and derived scales.  Identical inputs produce byte-identical tables;
the manifest carries the only timestamp.

Config files are INI-style; `SCHEMA` gives every section and key its type,
default and allowed values.  Values are layered defaults < preset < config
file < flags, and each is parsed and checked before any computation.
Exit codes: 0 success, 1 invalid input (the message names the key),
2 numerical failure, including a non-finite table cell (no table written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from configparser import ConfigParser
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .dynamics import evolve
from .fock import QuantumState, enumerate_basis
from .lattice import (
    QuadratureError,
    TrapParameters,
    derive,
    model_parameters_from_lattice,
    solve_integrability,
)
from .model import build_effective_hamiltonian_charges, build_full_hamiltonian
from .protocols import (
    FullDynamics,
    IdealDynamics,
    ProtocolConfig,
    fit_readout_amplitudes,
    ideal_uber_noon,
    protocol_config,
    run_protocol1,
    run_protocol2,
    run_readout,
)
from .robustness import RobustnessConfig, run_robustness
from .spectrum import BandsUnresolvedError, assign_bands, sweep_spectrum

UNIT_NOTE = "# units: couplings and fields are angular frequencies (X/hbar, rad/s); times in s"

PRESETS = {
    "set1": {"m": 4, "p": 11, "u": 75.876, "j": 24.886, "mu": 20.870, "nu": 20.870},
    "set2": {"m": 4, "p": 11, "u": 76.519, "j": 73.219, "mu": 15.168, "nu": 15.168},
}

_DELIMITERS = {"csv": ",", "tsv": "\t"}
_DYNAMICS = {"full": FullDynamics, "ideal": IdealDynamics}   # [protocol] mode

POSITIVE = "> 0"


class Key(NamedTuple):
    """A config key: its type, its default (None: from the preset, or derived
    by the experiment) and its allowed values: a tuple of choices, POSITIVE,
    or None for any.  Floats must also be finite."""

    type: type
    default: object = None
    allowed: tuple | str | None = None


# Defaults that the library dataclasses define are taken from them.
_LIB = {f.name: f.default for cls in (TrapParameters, RobustnessConfig) for f in fields(cls)}

SCHEMA: dict[str, dict[str, Key]] = {
    "experiment": {
        "kind": Key(str),              # one of KINDS; a subcommand overrides it
        "preset": Key(str, "set1", tuple(PRESETS)),
        "out": Key(Path, Path("results")),
        "format": Key(str, "csv", tuple(_DELIMITERS)),
        "grid": Key(int, 64, POSITIVE),
    },
    "model": {                         # m, p, u, j, mu, nu default to the preset
        "m": Key(int), "p": Key(int), "u": Key(float), "j": Key(float, None, POSITIVE),
        "mu": Key(float), "nu": Key(float), "u0": Key(float, 0.0),
        "t_m_override": Key(float),    # None: t_m from the derived scales
    },
    "protocol": {
        "p_theta_max": Key(float, math.pi),
        "mode": Key(str, "full", tuple(_DYNAMICS)),
        "readout_protocol": Key(int, 1, (1, 2)),
    },
    "spectrum": {
        "n_total": Key(int),           # None: M + P
        "u_over_j_min": Key(float, 0.0),
        "u_over_j_max": Key(float, 25.0),
        "points": Key(int, 40, POSITIVE),
        "mu_over_j": Key(float, 0.0),
    },
    "evolve": {
        "t_max": Key(float),           # None: t_m
        "points": Key(int, 160, POSITIVE),
    },
    "robustness": {
        "xi_over_j_max": Key(float, 0.02),
        "points": Key(int, 20, POSITIVE),
        "n_dt": Key(int, _LIB["n_dt"], POSITIVE),
        "mode": Key(str, _LIB["mode"], ("pulsed", "static")),
        "source": Key(str, _LIB["source"], ("direct", "physical")),
        "protocol": Key(int, _LIB["protocol"], (1, 2)),
        "start_sign": Key(int, _LIB["start_sign"], (1, -1)),
    },
    "lattice": {
        "scattering_length_a0": Key(float, _LIB["scattering_length_a0"]),
        "magnetic_moment_mub": Key(float, _LIB["magnetic_moment_mub"], POSITIVE),
        "kappa_sq": Key(float, _LIB["kappa_sq"]),
        "dx": Key(float, 0.2e-6),
        "dy": Key(float, -0.2e-6),
        "omega_min_khz": Key(float, 20.0, POSITIVE),
        "omega_max_khz": Key(float, 60.0, POSITIVE),
        "points": Key(int, 40, POSITIVE),
        "j": Key(float, None, POSITIVE),  # None: [model] j
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
    if spec.allowed == POSITIVE and not value > 0:
        raise ValueError(f"{where} must be {POSITIVE}, got {value!r}")
    if isinstance(spec.allowed, tuple) and value not in spec.allowed:
        raise ValueError(f"{where}: unknown {key} {value!r}; known: {list(spec.allowed)}")
    return value


class ExperimentConfig(SimpleNamespace):
    """Resolved configuration: a namespace of checked values per schema section
    (`cfg.model.j`), plus `label`, the preset name ("+custom" if [model] is set)."""

    @property
    def kind(self) -> str:
        return self.experiment.kind

    def base_protocol(self, p_theta: float = 0.0) -> ProtocolConfig:
        m = self.model
        return protocol_config(
            m.m, m.p, u=m.u, j=m.j, mu=m.mu, nu=m.nu,
            p_theta=p_theta, u0=m.u0, t_m_override=m.t_m_override,
        )


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
    """Layer schema defaults < preset < config file < command-line flags."""
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
    return ExperimentConfig(
        label=f"{preset}+custom" if custom else preset,
        **{section: SimpleNamespace(**{
            key: given.get(section, {}).get(key, spec.default) for key, spec in keys.items()})
           for section, keys in SCHEMA.items()},
    )


# --- table / manifest output ----------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(path: Path, header: list[str], rows: list[tuple], fmt: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(UNIT_NOTE + "\n")
        writer = csv.writer(fh, delimiter=_DELIMITERS[fmt], lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _manifest_base(cfg: ExperimentConfig, extras: dict) -> dict:
    return {
        "kind": cfg.kind,
        "preset": cfg.label,
        "model": vars(cfg.model),
        "grid": cfg.experiment.grid,
        "format": cfg.experiment.format,
        "units": "couplings/fields: rad/s (X/hbar); times: s",
        "created_utc": datetime.now(timezone.utc).isoformat(),
        **extras,
    }


def _derived_block(pc: ProtocolConfig) -> dict:
    return {
        "omega": pc.derived.omega,
        "t_m": pc.t_m,
        "t_nu": pc.t_nu,
        "t_mu_at_p_theta_max": pc.t_mu,
        "beta": pc.beta,
    }


def _check_finite(kind: str, header: list[str], rows: list[tuple]) -> None:
    """Raise ArithmeticError at the first NaN or infinite float cell."""
    for i, row in enumerate(rows):
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ArithmeticError(
                    f"{kind} table row {i}: {name} = {value}; no table written")


# --- experiments ------------------------------------------------------------


def _p_theta_grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.protocol.p_theta_max, cfg.experiment.grid)


def _dynamics(cfg: ExperimentConfig) -> FullDynamics | IdealDynamics:
    return _DYNAMICS[cfg.protocol.mode](enumerate_basis(cfg.model.m + cfg.model.p))


def _protocol_extras(cfg: ExperimentConfig) -> dict:
    pc_max = cfg.base_protocol(cfg.protocol.p_theta_max)
    return {"derived": _derived_block(pc_max), "mode": cfg.protocol.mode}


def _run_protocol1_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    m, dynamics = cfg.model, _dynamics(cfg)
    rows = []
    for p_theta in _p_theta_grid(cfg):
        pc = cfg.base_protocol(p_theta)
        for report in run_protocol1(pc, dynamics):
            rows.append((
                cfg.label, m.m, m.p, float(p_theta),
                report.measurement.outcome, report.measurement.probability,
                report.fidelity, int(report.selected), report.elapsed_model_time,
            ))
    header = ["set", "m", "p", "p_theta", "r", "probability", "fidelity",
              "selected", "elapsed_s"]
    return rows, header, _protocol_extras(cfg)


def _run_protocol2_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    m, dynamics = cfg.model, _dynamics(cfg)
    rows = []
    for p_theta in _p_theta_grid(cfg):
        report = run_protocol2(cfg.base_protocol(p_theta), dynamics)
        rows.append((cfg.label, m.m, m.p, float(p_theta),
                     report.fidelity, report.elapsed_model_time))
    header = ["set", "m", "p", "p_theta", "fidelity", "elapsed_s"]
    return rows, header, _protocol_extras(cfg)


def _run_readout_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    m_occ, dynamics = cfg.model.m, _dynamics(cfg)
    rows = []
    zero_samples, m_samples = [], []
    two_sided = cfg.protocol.readout_protocol == 1
    laws = ("P_I(.,0)", "P_I(.,M)") if two_sided else ("P_II(0)", "P_II(M)")
    for p_theta in _p_theta_grid(cfg):
        pc = cfg.base_protocol(p_theta)
        if two_sided:
            reports = [r for r in run_protocol1(pc, dynamics) if r.selected]
        else:
            reports = [run_protocol2(pc, dynamics)]
        for report in reports:
            result = run_readout(report, pc, dynamics)
            probabilities = dict(result.joint if two_sided else result.outcomes)
            for outcome in (0, m_occ):
                rows.append((
                    cfg.label, float(p_theta),
                    report.measurement.outcome if two_sided else "", outcome,
                    probabilities.get(outcome, 0.0), *(result.laws[law] for law in laws),
                ))
            zero_samples.append((float(p_theta), probabilities.get(0, 0.0)))
            m_samples.append((float(p_theta), probabilities.get(m_occ, 0.0)))
    if two_sided:
        header = ["set", "p_theta", "r", "readout_r", "joint_probability",
                  "law_half_cos2", "law_half_sin2"]
        fits = {
            "c00": 2.0 * fit_readout_amplitudes(zero_samples, "cos2"),
            "cMM": 2.0 * fit_readout_amplitudes(m_samples, "sin2"),
        }
    else:
        header = ["set", "p_theta", "r", "readout_r", "probability",
                  "law_shifted_sin2", "law_shifted_cos2"]
        fits = {
            "c0": fit_readout_amplitudes(zero_samples, "shifted_sin2"),
            "cM": fit_readout_amplitudes(m_samples, "shifted_cos2"),
        }
    return rows, header, {
        **_protocol_extras(cfg),
        "readout_protocol": cfg.protocol.readout_protocol, "fits": fits,
    }


def _run_spectrum_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    s = cfg.spectrum
    n_total = s.n_total if s.n_total is not None else cfg.model.m + cfg.model.p
    basis = enumerate_basis(n_total)
    grid = np.linspace(s.u_over_j_min, s.u_over_j_max, s.points)
    sweep = sweep_spectrum(basis, grid, mu=s.mu_over_j)
    rows = []
    resolved_points = 0
    for i, ratio in enumerate(sweep.u_over_j):
        try:
            assignment = assign_bands(sweep.eigenvalues[i], n_total)
            resolved_points += 1
            labels = [label for label, size in zip(assignment.labels, assignment.sizes)
                      for _ in range(size)]
        except BandsUnresolvedError:
            labels = [("", "")] * basis.size
        for k in range(basis.size):
            rows.append((float(ratio), k, float(sweep.eigenvalues[i][k]),
                         labels[k][0], labels[k][1]))
    header = ["u_over_j", "index", "e_over_j", "band_m", "band_p"]
    return rows, header, {
        "n_total": n_total, "mu_over_j": s.mu_over_j,
        "resolved_points": resolved_points, "total_points": s.points,
    }


def _run_evolve_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    m, p = cfg.model.m, cfg.model.p
    basis = enumerate_basis(m + p)
    pc = cfg.base_protocol(0.0)
    t_max = cfg.evolve.t_max if cfg.evolve.t_max is not None else pc.t_m
    h_full = build_full_hamiltonian(pc.params, basis)
    h_eff = build_effective_hamiltonian_charges(basis, pc.n_total, pc.derived)
    initial = QuantumState.from_fock(basis, (m, p, 0, 0))
    uber = ideal_uber_noon(pc, basis, stage="pre_field")
    corners = [basis.index_of(occ) for occ in
               ((m, p, 0, 0), (0, p, m, 0), (m, 0, 0, p), (0, 0, m, p))]
    rows = []
    for t in np.linspace(0.0, t_max, cfg.evolve.points):
        full_state = evolve(initial, h_full, float(t))
        eff_state = evolve(initial, h_eff, float(t))
        weights = np.abs(full_state.amplitudes[corners]) ** 2
        rows.append((
            float(t), *map(float, weights),
            abs(full_state.overlap(uber)) ** 2,
            abs(full_state.overlap(eff_state)),
        ))
    header = ["t_s", "p_MP00", "p_0PM0", "p_M00P", "p_00MP",
              "uber_noon_population", "effective_overlap"]
    return rows, header, {"derived": _derived_block(pc), "t_max": t_max}


def _trap(cfg: ExperimentConfig) -> TrapParameters:
    names = ("scattering_length_a0", "magnetic_moment_mub", "kappa_sq")
    return TrapParameters(**{name: getattr(cfg.lattice, name) for name in names})


def _run_physical_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    lattice = cfg.lattice
    trap = _trap(cfg)
    rows = []
    for freq_khz in np.linspace(lattice.omega_min_khz, lattice.omega_max_khz, lattice.points):
        omega = 2.0 * math.pi * freq_khz * 1e3
        d = derive(trap, omega)
        rows.append((float(freq_khz), d.u0, d.u12, d.u13, d.u0 - d.u13))
    header = ["omega_r_over_2pi_khz", "u0", "u12", "u13", "residual"]
    root = solve_integrability(trap, bracket=(2.0 * math.pi * lattice.omega_min_khz * 1e3,
                                              2.0 * math.pi * lattice.omega_max_khz * 1e3))
    at_root = derive(trap, root.omega_r, dx=lattice.dx, dy=lattice.dy)
    j = lattice.j if lattice.j is not None else cfg.model.j
    params = model_parameters_from_lattice(at_root, j=j)
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
            "omega_r_rad_s": root.omega_r,
            "omega_r_over_2pi_khz": root.omega_r / (2.0 * math.pi * 1e3),
            "u0": root.u0, "u13": root.u13, "u12": root.u12,
            "residual": root.residual,
        },
        "derived_at_root": {
            "recoil_rad_s": at_root.recoil,
            "recoil_over_2pi_khz": at_root.recoil / (2.0 * math.pi * 1e3),
            "v0_over_recoil": at_root.v0_over_recoil,
            "coupling_u": at_root.coupling_u,
            "mu": at_root.mu, "nu": at_root.nu,
            "omega_z_rad_s": at_root.omega_z,
            "omega_z_check_rad_s": at_root.omega_z_check,
        },
        "model_parameters": params.to_dict(),
        "displacement_m": {"dx": lattice.dx, "dy": lattice.dy},
    }
    return rows, header, extras


def _run_robustness_experiment(cfg: ExperimentConfig) -> tuple[list, list, dict]:
    r = cfg.robustness
    basis = enumerate_basis(cfg.model.m + cfg.model.p)
    xi_max = r.xi_over_j_max * cfg.model.j
    base = cfg.base_protocol(p_theta=math.pi / 2.0)
    rcfg = RobustnessConfig(
        base=base, xi_values=tuple(np.linspace(0.0, xi_max, r.points)),
        n_dt=r.n_dt, mode=r.mode, source=r.source, protocol=r.protocol,
        start_sign=r.start_sign,
        trap=_trap(cfg) if r.source == "physical" else None,
    )
    results = run_robustness(rcfg, basis)
    rows = [
        (r.mode, r.source, r.n_dt, point.xi, point.xi_over_j, point.fidelity,
         point.probability if point.probability is not None else "")
        for point in results
    ]
    header = ["mode", "source", "n_dt", "xi", "xi_over_j", "fidelity", "probability"]
    return rows, header, {
        "derived": _derived_block(base), "protocol": r.protocol,
        "n_dt": r.n_dt, "mode": r.mode, "source": r.source, "start_sign": r.start_sign,
        "p_theta": math.pi / 2.0,
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
    rows, header, extras = _EXPERIMENTS[cfg.kind](cfg)
    _check_finite(cfg.kind, header, rows)
    out, fmt = cfg.experiment.out, cfg.experiment.format
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / f"{cfg.kind}.{fmt}"
    manifest_path = out / f"{cfg.kind}_manifest.json"
    _write_table(table_path, header, rows, fmt)
    _write_manifest(manifest_path, _manifest_base(cfg, {**extras, "output_table": table_path.name}))
    return [table_path, manifest_path]


def list_presets(machine: bool = False) -> str:
    """Text (or JSON) listing of the built-in parameter sets."""
    payload = {}
    for name, values in PRESETS.items():
        pc = protocol_config(values["m"], values["p"], u=values["u"],
                             j=values["j"], mu=values["mu"], nu=values["nu"],
                             p_theta=math.pi)
        payload[name] = {
            **values,
            "omega": pc.derived.omega,
            "t_m": pc.t_m,
            "t_nu": pc.t_nu,
            "t_mu_at_p_theta_pi": pc.t_mu,
            "beta": pc.beta,
        }
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

    def add_common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", choices=tuple(PRESETS), help="parameter set")
        p.add_argument("--grid", type=int, help="sweep points")
        p.add_argument("--out", help="output directory (default: "
                       f"{SCHEMA['experiment']['out'].default})")
        p.add_argument("--format", choices=tuple(_DELIMITERS), help="table format")

    add_common(sub.add_parser("run", help="run the experiment named in a config file"))

    for kind in KINDS:
        kind_parser = sub.add_parser(kind, help=f"run the {kind} experiment")
        add_common(kind_parser)
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
    except (QuadratureError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
