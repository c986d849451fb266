"""Exact Genocchi numbers and f-vector identities of simplicial balls.

The package computes the Genocchi numbers by four independent exact
algorithms, builds simplicial balls with their boundary and interior
f-vectors, and verifies -- with zero-residual rational arithmetic -- the
identities relating interior and boundary face counts.
"""

from .complexes import (
    BallCheckReport,
    Census,
    Complex,
    ComplexError,
    DuplicateVertexError,
    EmptyInputError,
    Face,
    FVector,
    NoBoundaryError,
    NonPureError,
    RidgeOverflowError,
    from_facets,
)
from .corpus import DEFAULT_GRID, CorpusGrid, corpus_balls, grid_from_json
from .fileio import FileFormatError, load_complex, save_complex
from .generators import (
    SphereScreenError,
    barycentric_subdivision,
    boundary_sphere,
    cone_over_boundary,
    simplex_ball,
    sphere_minus_facet,
    stacked_ball,
)
from .genocchi import (
    BernoulliTable,
    GenocchiTable,
    InsufficientTableError,
    SelfCheckError,
    bernoulli,
    binomial,
    dumont_count,
    genocchi_by_bernoulli,
    genocchi_by_recursion_even,
    genocchi_by_recursion_odd,
    genocchi_by_series,
    ratio_identity_residual,
    reciprocal_identity_residual,
)
from .verify import (
    BallCheckError,
    IdentityCheck,
    ParityError,
    PreconditionError,
    VerificationReport,
    dehn_sommerville_residual,
    format_residual,
    genocchi_identity_residual,
    max_interior_free_dimension,
    no_interior_faces_residual,
    required_table_size,
    verify_ball,
)

__version__ = "0.1.0"
