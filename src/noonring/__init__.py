"""Exact simulator of NOON-state generation on a four-site dipolar Bose-Hubbard ring.

The model is an extended Bose-Hubbard Hamiltonian on a 2x2 plaquette
whose cross couplings can be tuned to an integrable point with two
conserved exchange charges.  Resonant second-order tunneling then drives
|M,P,0,0> into NOON superpositions; two protocols (one probabilistic
with a single site measurement, one deterministic) prepare them, and an
interferometric readout converts an encoded phase into site populations.
A companion calculator maps the couplings onto a dipolar-atom optical
lattice, and a robustness module quantifies detuning errors and their
pulsed mitigation.

The package needs numpy alone.  The names of those two modules are served
on first access (PEP 562): importing them after `noonring.cli` takes ~8 ms
(the lattice ~6 ms, 2.6 ms of it its quadrature rules; the robustness
module ~1.7 ms), which the other kinds never pay.
"""

import importlib

from .dynamics import evolve, site_probabilities
from .fock import FockBasis, QuantumState, enumerate_basis
from .model import HermitianOperator, ModelParameters
from .protocols import (
    FullDynamics,
    IdealDynamics,
    ProtocolConfig,
    ProtocolReport,
    band_trace,
    fidelity,
    fit_readout_amplitudes,
    ideal_protocol1_output,
    ideal_protocol2_output,
    ideal_uber_noon,
    run_protocol1,
    run_protocol2,
    sweep_protocol1,
    sweep_protocol2,
    sweep_readout,
)
from .spectrum import (
    BandsUnresolvedError,
    assign_bands,
    band_splits,
    predicted_band_sizes,
    sweep_spectrum,
)

__version__ = "0.1.0"

# The names of the modules imported when one of them is first read.
_LAZY = {
    "lattice": (
        "LatticeDerived", "QuadratureError", "TrapParameters", "anisotropy_f", "derive",
        "dipolar_coupling", "field_strengths", "model_parameters_from_lattice",
        "offsite_coupling", "onsite_coupling", "recoil_energy", "solve_integrability",
        "v0_from_omega_r",
    ),
    "robustness": ("RobustnessConfig", "RobustnessPoint", "run_robustness", "threshold_xi"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BandsUnresolvedError", "FockBasis", "FullDynamics", "HermitianOperator",
    "IdealDynamics", "LatticeDerived", "ModelParameters", "ProtocolConfig",
    "ProtocolReport", "QuadratureError", "QuantumState", "RobustnessConfig",
    "RobustnessPoint", "TrapParameters", "anisotropy_f", "assign_bands",
    "band_splits", "band_trace", "derive", "dipolar_coupling", "enumerate_basis",
    "evolve", "fidelity", "field_strengths", "fit_readout_amplitudes",
    "ideal_protocol1_output", "ideal_protocol2_output", "ideal_uber_noon",
    "model_parameters_from_lattice", "offsite_coupling", "onsite_coupling",
    "predicted_band_sizes", "recoil_energy", "run_protocol1", "run_protocol2",
    "run_robustness", "site_probabilities", "solve_integrability", "sweep_protocol1",
    "sweep_protocol2", "sweep_readout", "sweep_spectrum", "threshold_xi",
    "v0_from_omega_r",
]
