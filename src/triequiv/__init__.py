"""Local-unitary equivalence of pure tripartite quantum states.

The package computes spectral invariants of single-cut reductions, settles
pairs by searching local unitaries between each state's eigenbases of its
one-party reductions, and combines both into a sound decision procedure with
verifiable certificates.  The paper's SVD certificates and realignment test
for Kronecker products are kept as library functions.
"""

from .equivalence import (
    BipartiteCertificate,
    CertificateError,
    PhaseObstruction,
    SpectrumWitness,
    TripartiteDecision,
    Verdict,
    bipartite_equivalent,
    check_di,
    decide_equivalence,
    gauge_search,
)
from .fileio import (
    StateFormatError,
    load_matrix,
    load_state,
    parse_matrix,
    parse_state,
    serialize_matrix,
    serialize_state,
)
from .invariants import (
    InvariantVector,
    invariants_equal,
    nested_invariant,
    power_sum_invariants,
    singular_spectrum,
)
from .realign import (
    KronFactorization,
    is_unitarily_decomposable,
    kron_factorize,
    numerical_rank,
    realign,
    unvec,
    vec,
)
from .states import (
    Cut,
    TripartiteState,
    apply_local_unitaries,
    matricize,
    random_state,
    random_unitary,
    reduced_density,
    unitarity_defect,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"

__all__ = [
    "BipartiteCertificate",
    "CertificateError",
    "Cut",
    "DEFAULT_TOLERANCES",
    "InvariantVector",
    "KronFactorization",
    "PhaseObstruction",
    "SpectrumWitness",
    "StateFormatError",
    "Tolerances",
    "TripartiteDecision",
    "TripartiteState",
    "Verdict",
    "apply_local_unitaries",
    "bipartite_equivalent",
    "check_di",
    "decide_equivalence",
    "gauge_search",
    "invariants_equal",
    "is_unitarily_decomposable",
    "kron_factorize",
    "load_matrix",
    "load_state",
    "matricize",
    "nested_invariant",
    "numerical_rank",
    "parse_matrix",
    "parse_state",
    "power_sum_invariants",
    "random_state",
    "random_unitary",
    "realign",
    "reduced_density",
    "serialize_matrix",
    "serialize_state",
    "singular_spectrum",
    "unitarity_defect",
    "unvec",
    "vec",
]
