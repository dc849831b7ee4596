"""Exact tensor calculus for invariant symplectic connections on Lie frames.

The package works entirely over exact scalars (rationals, or polynomials
in one formal parameter), so every geometric identity it checks is an
exact equality, never a numerical tolerance.
"""

from .analysis import (
    AutomorphismReport,
    Geometry,
    Subspace,
    apply_endo,
    commutes_with_holonomy,
    compose,
    endo_power,
    endo_trace,
    infinitesimal_holonomy,
    is_isotropic,
    is_lagrangian,
    musical_endomorphism,
    nilpotency_index,
    null_filtration,
    parallel_endomorphisms,
    top_image,
    trace_power,
    verify_automorphism,
)
from .catalog import CheckResult, NamedModel, darboux_flat, example_identity_checks, kodaira_thurston
from .connections import (
    Connection,
    connection_from_entries,
    covariant_derivative,
    covariant_derivative_vector,
    curvature,
    divergence,
    is_torsion_free,
    lie_derivative_connection,
    lower_lie_derivative,
    preserves_form,
    torsion,
    zero_connection,
)
from .errors import (
    AlgebraError,
    ConventionFault,
    FormError,
    FrameCalcError,
    InconsistencyError,
    ParameterError,
    PreconditionError,
    ScalarParseError,
    ShapeError,
    SpecSemanticError,
    SpecSyntaxError,
    StabilizationError,
)
from .frames import (
    FrameAlgebra,
    SymplecticForm,
    abelian_algebra,
    bracket,
    ce_differential,
    interior_product,
    lie_derivative_form,
    lower_index,
    musical_flat,
    omega_power,
    raise_index,
    structure_constants,
    symplectic_form,
    validate_algebra,
    wedge,
)
from .moduli import (
    AffineSolutionSpace,
    NonSymplecticReport,
    automorphism_space,
    find_non_symplectic_automorphisms,
    is_flat_family,
    symplectic_connection_space,
    symplectic_field_space,
)
from .scalars import Scalar, parse_scalar, substitute
from .specfile import (
    LoadedModel,
    ModelSpecDocument,
    document_from_model,
    load_model,
    load_spec_file,
    parse_spec,
    serialize_spec,
)
from .tensors import (
    DOWN,
    UP,
    Tensor,
    antisymmetrize,
    basis_covector,
    basis_vector,
    identity_endomorphism,
    is_antisymmetric,
    vector,
)

__version__ = "0.1.0"
