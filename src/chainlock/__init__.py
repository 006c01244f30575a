"""chainlock: n-locality inequalities on linear-chain networks, numerically.

A chain of n independent sources connects Alice, n-1 central parties, and
Charlie.  The package builds the 2^(n-1)-term inequality family for edge
parties with n inputs, computes its classical bound three independent ways,
evaluates quantum models with dense and chain-contraction evaluators,
maximizes the functional by seesaw, and measures sum-of-squares certificates
against the dimension-independent ceiling 2^(n-1) sqrt(n).
"""
from __future__ import annotations

from .errors import (CapacityError, ChainlockError, ConstructionFailedError,
                     DegenerateCertificateError, NumericalConsistencyError, ShapeError,
                     UnsupportedStateError)
from .scenario import TermTable, build_bob_input_map, build_encoding, scenario_to_json_dict
from .nlocal import (Behavior, BoundReport, DeterministicStrategy, alpha_bruteforce,
                     alpha_closed_form, behavior_from_strategy, beta_of_behavior,
                     bound_report, lhv_exhaustive_max)
from .qcore import (BellChainState, ChainLayout, NetworkState, Observable, QuantumModel,
                    anticommutator_report, bell_chain_state, beta_quantum,
                    correlator_contracted, correlator_dense, jordan_wigner_set,
                    make_model, model_from_json_dict, model_to_json_dict)
from .constructions import fit_bob_observables, optimal_model
from .seesaw import SeesawConfig, SeesawReport, random_model, seesaw_optimize
from .soscert import CertificateReport, certify, omega_values, tsirelson_ceiling

__all__ = [
    "CapacityError", "ChainlockError", "ConstructionFailedError",
    "DegenerateCertificateError", "NumericalConsistencyError", "ShapeError",
    "UnsupportedStateError",
    "TermTable", "build_bob_input_map", "build_encoding", "scenario_to_json_dict",
    "Behavior", "BoundReport", "DeterministicStrategy", "alpha_bruteforce",
    "alpha_closed_form", "behavior_from_strategy", "beta_of_behavior",
    "bound_report", "lhv_exhaustive_max",
    "BellChainState", "ChainLayout", "NetworkState", "Observable", "QuantumModel",
    "anticommutator_report", "bell_chain_state", "beta_quantum",
    "correlator_contracted", "correlator_dense", "jordan_wigner_set",
    "make_model", "model_from_json_dict", "model_to_json_dict",
    "fit_bob_observables", "optimal_model",
    "SeesawConfig", "SeesawReport", "random_model", "seesaw_optimize",
    "CertificateReport", "certify", "omega_values", "tsirelson_ceiling",
]

__version__ = "0.1.0"
