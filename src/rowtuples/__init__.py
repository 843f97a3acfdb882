"""Finite-dimensional commuting row contractions.

Annihilator ideals and their quotient algebras, truncated Drury-Arveson
model spaces, cyclic and separating vectors, invariant-subspace rigidity
checks, and decomposition/splitting constructions — all as dense
numerical linear algebra over numpy.  scipy is imported on demand, by the
truncated multiplier norms above 600 coordinates and large Lanczos norms
only, and orjson on the first input document read.
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
    da_kernel,
    da_monomial_norm,
    multiplication_matrix,
    truncated_multiplier_norm,
    truncated_multiplier_norms,
)
from .ideals import (
    AnnihilatorBasis,
    ModelSpace,
    QuotientAlgebra,
    annihilator,
    annihilator_normal_form,
    annihilators_equal,
    model_of,
    model_space,
    model_tuple,
    monomial_annihilator,
    nakayama_generators,
    omega_e,
    orbit_matrix,
    quotient_algebra,
    quotient_of,
    staircase_model,
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
