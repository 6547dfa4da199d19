"""Workload plans and output checks for the noonring benchmark.

A workload is an ordered list of `noonring` experiment runs. `plan(name,
seed)` draws each run's sweep end-points from the seed inside bounds that
keep every point count fixed, so the amount of work is the same for every
seed while the inputs differ. Each run carries a check of its written
table and manifest; a run whose check finds a problem counts as failed.

The check thresholds are the ones the acceptance battery pins
(tests/test_acceptance.py and the README's benchmark values). This module
uses only the standard library, so the parent process of the benchmark
never imports numpy.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

M_OCC = 4
N_WORKING = 15                 # M + P of both presets: dim 816
GRID = 64                      # CLI default sweep length for the protocols

# Protocol I success probability and NOON fidelity per post-selected
# branch at set1 (criterion 2), absolute tolerance 0.003.
PROTOCOL1_SET1 = {0: (0.5009, 0.9977), M_OCC: (0.4956, 0.9996)}
PROTOCOL1_TOL = 0.003
PROTOCOL2_FLOOR = 0.9          # criterion 3, every grid point
READOUT_FITS = {"c00": 0.938, "cMM": 0.893, "c0": 0.954, "cM": 0.909}
READOUT_TOL = 0.02             # criterion 4
ROOT_KHZ = 37.078              # criterion 7, relative tolerance 1 %
ROOT_REL_TOL = 0.01
PULSED_FLOOR = 0.9             # criterion 8, pulsed fidelity at xi = 0

Check = Callable[[Path], "list[str]"]


@dataclass(frozen=True)
class Experiment:
    """One `noonring <kind>` run and the check of what it writes."""

    kind: str
    preset: str
    config: dict[str, dict[str, str]]
    check: Check
    n_total: int = N_WORKING
    label: str = ""

    def argv(self, directory: Path) -> list[str]:
        """CLI arguments writing into `directory` (config file included)."""
        args = [self.kind, "--preset", self.preset, "--out", str(directory)]
        if self.config:
            args += ["--config", str(directory / "config.ini")]
        return args

    def write_config(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        if not self.config:
            return
        lines = []
        for section, values in self.config.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
        (directory / "config.ini").write_text("\n".join(lines) + "\n")


# --- reading outputs --------------------------------------------------------


def read_table(directory: Path, kind: str) -> list[dict[str, str]]:
    """Rows of `<kind>.csv` (the unit comment line skipped)."""
    with open(directory / f"{kind}.csv", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_manifest(directory: Path, kind: str) -> dict:
    with open(directory / f"{kind}_manifest.json") as fh:
        return json.load(fh)


def nan_cells(rows: list[dict[str, str]]) -> list[str]:
    """Problems for every cell that reads as NaN (or is missing)."""
    problems = []
    for i, row in enumerate(rows):
        for key, value in row.items():
            if value is None or value.strip().lower() in ("nan", "-nan", "+nan"):
                problems.append(f"row {i} column {key}: {value!r}")
    return problems


def _near(value: float, target: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= tol


# --- checks -----------------------------------------------------------------


def check_protocol1_set1(directory: Path) -> list[str]:
    rows = read_table(directory, "protocol1")
    problems = nan_cells(rows)
    selected = [row for row in rows if row["selected"] == "1"]
    if len(selected) != 2 * GRID:
        problems.append(f"{len(selected)} post-selected rows, expected {2 * GRID}")
    for row in selected:
        target_p, target_f = PROTOCOL1_SET1.get(int(row["r"]), (math.nan, math.nan))
        p, f = float(row["probability"]), float(row["fidelity"])
        if not (_near(p, target_p, PROTOCOL1_TOL) and _near(f, target_f, PROTOCOL1_TOL)):
            problems.append(
                f"p_theta={row['p_theta']} r={row['r']}: P={p:.4f} F={f:.4f}, "
                f"expected {target_p}/{target_f} +-{PROTOCOL1_TOL}")
    return problems


def check_protocol2(directory: Path) -> list[str]:
    rows = read_table(directory, "protocol2")
    problems = nan_cells(rows)
    if len(rows) != GRID:
        problems.append(f"{len(rows)} rows, expected {GRID}")
    for row in rows:
        if not float(row["fidelity"]) > PROTOCOL2_FLOOR:
            problems.append(f"p_theta={row['p_theta']}: F={row['fidelity']} <= {PROTOCOL2_FLOOR}")
    return problems


def readout_check(protocol: int) -> Check:
    """Check of a set2 readout run of Protocol I (c00/cMM) or II (c0/cM).

    Protocol I writes one row per post-selected branch (2) and readout
    outcome (0 or M) at each grid point; Protocol II one row per outcome.
    """
    keys, rows_per_point = ({"c00", "cMM"}, 4) if protocol == 1 else ({"c0", "cM"}, 2)

    def check(directory: Path) -> list[str]:
        rows = read_table(directory, "readout")
        problems = nan_cells(rows)
        if len(rows) != rows_per_point * GRID:
            problems.append(f"{len(rows)} readout rows, expected {rows_per_point * GRID}")
        fits = read_manifest(directory, "readout").get("fits", {})
        for key in sorted(keys):
            if key not in fits:
                problems.append(f"fit {key} missing from the manifest")
            elif not _near(float(fits[key]), READOUT_FITS[key], READOUT_TOL):
                problems.append(f"fit {key}={float(fits[key]):.4f}, "
                                f"expected {READOUT_FITS[key]} +-{READOUT_TOL}")
        return problems
    return check


def check_evolve(directory: Path) -> list[str]:
    return nan_cells(read_table(directory, "evolve"))


def spectrum_check(n_total: int, points: int) -> Check:
    def check(directory: Path) -> list[str]:
        rows = read_table(directory, "spectrum")
        problems = nan_cells(rows)
        expected = comb(n_total + 3, 3) * points
        if len(rows) != expected:
            problems.append(f"{len(rows)} spectrum rows, expected dim x points = {expected}")
        return problems
    return check


def check_robustness_pulsed(directory: Path) -> list[str]:
    rows = read_table(directory, "robustness")
    problems = nan_cells(rows)
    at_zero = [row for row in rows if float(row["xi"]) == 0.0]
    if not at_zero:
        problems.append("no row at xi = 0")
    for row in at_zero:
        if not float(row["fidelity"]) > PULSED_FLOOR:
            problems.append(f"pulsed fidelity {row['fidelity']} <= {PULSED_FLOOR} at xi = 0")
    return problems


def check_robustness_static(directory: Path) -> list[str]:
    return nan_cells(read_table(directory, "robustness"))


def check_physical(directory: Path) -> list[str]:
    problems = nan_cells(read_table(directory, "physical"))
    root = float(read_manifest(directory, "physical")["root"]["omega_r_over_2pi_khz"])
    if not _near(root, ROOT_KHZ, ROOT_REL_TOL * ROOT_KHZ):
        problems.append(f"integrable root at {root:.4f} kHz, expected {ROOT_KHZ} +-1 %")
    return problems


# --- workloads --------------------------------------------------------------


def _phase_sweep(rng: random.Random) -> list[Experiment]:
    def p_theta_max() -> dict[str, str]:
        return {"p_theta_max": repr(rng.uniform(0.95, 1.0) * math.pi)}

    return [
        Experiment("protocol1", "set1", {"protocol": p_theta_max()}, check_protocol1_set1),
        Experiment("protocol2", "set1", {"protocol": p_theta_max()}, check_protocol2),
        Experiment("readout", "set2", {"protocol": p_theta_max()}, readout_check(1),
                   label="protocol I"),
        Experiment("readout", "set2", {"protocol": {**p_theta_max(), "readout_protocol": "2"}},
                   readout_check(2), label="protocol II"),
        # t_m is 36.95 s at set1; the trace covers most of one band interval.
        Experiment("evolve", "set1", {"evolve": {"t_max": repr(rng.uniform(33.0, 37.0))}},
                   check_evolve),
    ]


def _band_spectrum(rng: random.Random) -> list[Experiment]:
    runs = []
    for n_total, points in ((N_WORKING, 40), (21, 3)):
        section = {"n_total": str(n_total), "points": str(points),
                   "u_over_j_max": repr(rng.uniform(24.0, 26.0))}
        runs.append(Experiment("spectrum", "set1", {"spectrum": section},
                               spectrum_check(n_total, points), n_total=n_total,
                               label=f"N={n_total}"))
    return runs


def _detuning_sweep(rng: random.Random) -> list[Experiment]:
    pulsed = {"mode": "pulsed", "source": "direct", "protocol": "1", "n_dt": "100",
              "points": "4", "xi_over_j_max": repr(rng.uniform(0.010, 0.012))}
    static = {"mode": "static", "source": "physical", "protocol": "1",
              "points": "3", "xi_over_j_max": repr(rng.uniform(0.0005, 0.001))}
    lattice = {"omega_min_khz": repr(rng.uniform(18.0, 22.0)),
               "omega_max_khz": repr(rng.uniform(55.0, 60.0))}
    return [
        Experiment("robustness", "set1", {"robustness": pulsed}, check_robustness_pulsed,
                   label="pulsed/direct"),
        Experiment("robustness", "set1", {"robustness": static}, check_robustness_static,
                   label="static/physical"),
        Experiment("physical", "set1", {"lattice": lattice}, check_physical),
    ]


WORKLOADS = {
    "phase-sweep": _phase_sweep,
    "band-spectrum": _band_spectrum,
    "detuning-sweep": _detuning_sweep,
}


def plan(name: str, seed: int) -> list[Experiment]:
    """The experiment list of workload `name`, its end-points drawn from `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))
