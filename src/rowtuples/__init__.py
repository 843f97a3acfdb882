"""Finite-dimensional commuting row contractions.

Annihilator ideals and their quotient algebras, truncated Drury-Arveson
model spaces, cyclic and separating vectors, invariant-subspace rigidity
checks, and decomposition/splitting constructions — all as dense
numerical linear algebra over numpy/scipy.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    HypothesisError,
    NotCommutingError,
    NotCyclicError,
    NotHermitianError,
    NotNilpotentError,
    NotRowContractionError,
    PolynomialParseError,
    RowTuplesError,
    ShapeError,
    ToleranceError,
    WitnessSearchError,
)
from .fixtures import build, fixture_catalog, fromgriff, jordan, maxcount, model, rectangle
from .fock import (
    TruncatedDA,
    TruncatedFock,
    creation_matrix,
    da_kernel,
    da_monomial_norm,
    multiplication_matrix,
    symmetrization_map,
    truncated_multiplier_norm,
    truncated_multiplier_norms,
)
from .ideals import (
    AnnihilatorBasis,
    ModelSpace,
    QuotientAlgebra,
    annihilator,
    annihilators_equal,
    model_space,
    model_tuple,
    monomial_annihilator,
    omega_e,
    quotient_algebra,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, norm_at_most, operator_norm
from .polynomials import Polynomial, graded_indices, parse_polynomial
from .subspaces import (
    DecompositionReport,
    IntertwinerSpace,
    RigidityReport,
    SubspaceBasis,
    Verdict,
    compress,
    decomposition_exists,
    decomposition_find,
    generated_invariant,
    intertwiner_space,
    is_invariant,
    restrict,
    rigidity_coinvariant_check,
    rigidity_invariant_check,
    splitting_construct,
)
from .tuples import (
    RowTuple,
    TupleReport,
    nilpotency_index,
    poly_eval,
    purity,
    validate,
    word_eval,
)
from .vectors import (
    GramReport,
    fock_intertwiner,
    gram_operator,
    is_cyclic,
    is_separating,
    krylov,
    multiplicity,
    quasiaffine_witness,
    separating_greedy,
    separating_witness,
)

__version__ = "0.1.0"
