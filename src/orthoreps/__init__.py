"""orthoreps: exact classification of small orthogonal and symplectic
irreducibles of the simple Lie types, with the companion arithmetic
(bound computation, prime-pair search, explicit induced local model)."""

from .arith import (
    BoundInputs,
    PairSearchResult,
    PrimePair,
    compute_M,
    find_prime_pairs,
    is_prime,
    multiplicative_order,
)
from .induced import (
    MonomialRep,
    TameParameters,
    build_induced_rep,
    commutant_dimension,
    projective_order,
    verify_orthogonality,
)
from .irreps import (
    ExceptionRecord,
    IrrepCandidate,
    candidates_of_dimension,
    default_scan_types,
    enumerate_restricted,
    load_exceptions,
)
from .root_data import LieType, RootDatum, build_root_datum
from .steinberg import (
    MODE_ALL,
    MODE_ORBIT,
    THEOREM1_PRIMES,
    ClassificationReport,
    TensorCandidate,
    Theorem1Evidence,
    classify_orthogonal,
    factorizations,
    steinberg_products,
    theorem1_sweep,
    verify_theorem1,
)
from .weights import fs_indicator, is_self_dual, minus_w0, weyl_dimension

__version__ = "0.1.0"
