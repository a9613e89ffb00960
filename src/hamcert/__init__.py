"""Intolerant certification of local Hamiltonians from forward dynamics.

Decide whether an unknown k-local traceless Hamiltonian equals a known
reference or deviates from it by at least epsilon in normalized Frobenius
norm, using only forward real-time evolution and a strict ledger of the
total evolution time spent.
"""

from .bell import (
    bell_distribution,
    bell_measure_choi,
    identity_prob_spectral,
    identity_prob_trace,
    sample_identity_shots,
)
from .certifier import (
    CertificationConfig,
    CertificationReport,
    ConfigError,
    certify,
    run_round,
    sweep_epsilon,
)
from .dense import eigenvalues, evolve, hoffman_wielandt_gap, to_dense
from .gaps import (
    GapStatConfig,
    find_drop_time,
    lambda_stat,
    stability_bound,
    verify_stability,
)
from .moments import verify_gap_bound, walsh_eigenvalues
from .oracle import (
    AccessModelError,
    EvolutionLedger,
    EvolutionOracle,
    OracleMode,
)
from .pauli import (
    HamiltonianFormatError,
    PauliSum,
    commutes,
    conjugate,
    frobenius_norm,
    is_k_local,
    parse_hamiltonian,
    subtract,
    weight,
)
from .trotter import TrotterPlan, trotter_error, trotter_evolve
from .twirl import (
    DiagonalSubspace,
    TwirlTranscript,
    project_effective,
    run_twirl,
    sample_subspace,
)

__version__ = "0.1.0"

__all__ = [
    "AccessModelError",
    "CertificationConfig",
    "CertificationReport",
    "ConfigError",
    "DiagonalSubspace",
    "EvolutionLedger",
    "EvolutionOracle",
    "GapStatConfig",
    "HamiltonianFormatError",
    "OracleMode",
    "PauliSum",
    "TrotterPlan",
    "TwirlTranscript",
    "bell_distribution",
    "bell_measure_choi",
    "certify",
    "commutes",
    "conjugate",
    "eigenvalues",
    "evolve",
    "find_drop_time",
    "frobenius_norm",
    "hoffman_wielandt_gap",
    "identity_prob_spectral",
    "identity_prob_trace",
    "is_k_local",
    "lambda_stat",
    "parse_hamiltonian",
    "project_effective",
    "run_round",
    "run_twirl",
    "sample_identity_shots",
    "sample_subspace",
    "stability_bound",
    "subtract",
    "sweep_epsilon",
    "to_dense",
    "trotter_error",
    "trotter_evolve",
    "verify_gap_bound",
    "verify_stability",
    "walsh_eigenvalues",
    "weight",
]
