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
"""

from .dynamics import MeasurementRecord, evolve, measure_distribution, project
from .fock import FockBasis, QuantumState, enumerate_basis
from .lattice import (
    IntegrabilityRoot,
    LatticeDerived,
    QuadratureError,
    TrapParameters,
    anisotropy_f,
    calibrate_moment,
    derive,
    dipolar_coupling,
    field_strengths,
    model_parameters_from_lattice,
    offsite_coupling,
    onsite_coupling,
    recoil_energy,
    solve_integrability,
    v0_from_omega_r,
)
from .model import (
    DerivedScales,
    HermitianOperator,
    ModelParameters,
    derived_scales,
    diagonal_band_energy,
)
from .protocols import (
    FullDynamics,
    IdealDynamics,
    ProtocolConfig,
    ProtocolReport,
    ReadoutResult,
    fidelity,
    fit_readout_amplitudes,
    ideal_protocol1_output,
    ideal_protocol2_output,
    ideal_uber_noon,
    protocol_config,
    run_protocol1,
    run_protocol2,
    run_readout,
)
from .robustness import (
    RobustnessConfig,
    RobustnessPoint,
    pulsed_propagator,
    run_robustness,
    threshold_xi,
)
from .spectrum import (
    BandAssignment,
    BandsUnresolvedError,
    SpectrumSweep,
    assign_bands,
    band_splits,
    compare_effective,
    effective_deficits,
    predicted_band_sizes,
    sweep_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BandAssignment", "BandsUnresolvedError", "DerivedScales", "FockBasis",
    "FullDynamics", "HermitianOperator", "IdealDynamics", "IntegrabilityRoot",
    "LatticeDerived", "MeasurementRecord", "ModelParameters", "ProtocolConfig",
    "ProtocolReport", "QuadratureError", "QuantumState", "ReadoutResult",
    "RobustnessConfig", "RobustnessPoint", "SpectrumSweep", "TrapParameters",
    "anisotropy_f", "assign_bands", "band_splits", "calibrate_moment",
    "compare_effective", "derive", "derived_scales", "diagonal_band_energy",
    "dipolar_coupling", "effective_deficits", "enumerate_basis", "evolve",
    "fidelity", "field_strengths", "fit_readout_amplitudes",
    "ideal_protocol1_output", "ideal_protocol2_output", "ideal_uber_noon",
    "measure_distribution", "model_parameters_from_lattice", "offsite_coupling",
    "onsite_coupling", "predicted_band_sizes", "project", "protocol_config",
    "pulsed_propagator", "recoil_energy", "run_protocol1", "run_protocol2",
    "run_readout", "run_robustness", "solve_integrability", "sweep_spectrum",
    "threshold_xi", "v0_from_omega_r",
]
