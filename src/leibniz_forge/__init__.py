"""Exact computer algebra for Leibniz products and the structures they induce.

The package follows one chain of constructions: a Leibniz algebra embeds in an
enveloping Lie algebra through a one-parameter family of sections, the
projected bracket recovers the skew product at s = 1/2, the same data induces
a Lie-Yamaguti structure, a homogeneous left loop, and a flat-torsion
connection; the Courant bracket on polynomial sections of the double tangent
bundle is the running infinite-dimensional example, handled symbolically.
All arithmetic is rational and exact except for an explicit float mode in the
loop module.
"""

from .algebra import (
    NotAnIdealError,
    StructureAlgebra,
    Subspace,
    direct_sum,
    is_ideal,
    kernel_of_lambda,
    matrix_lie_algebra,
    quotient_algebra,
    squares_ideal,
)
from .courant import (
    Bivector,
    OneForm,
    Section,
    TwoForm,
    VectorField,
    axiom_suite,
    courant_bracket,
    courant_ternary,
    d_function,
    d_one_form,
    d_section,
    dorfman_checks,
    dorfman_product,
    double_bracket,
    double_equal,
    double_recovery_check,
    form_class,
    graph_closure_check,
    graph_section_poisson,
    graph_section_twoform,
    h_act,
    h_bracket,
    homotopy_quotient,
    interior_one_form,
    interior_two_form,
    lie_derivative_one_form,
    pairing,
    sigma_double,
    t_function,
    vf_bracket,
)
from .envelope import (
    DEFAULT_S_VALUES,
    EnvelopeError,
    EnvelopeTriple,
    canonical_envelope,
    lambda_envelope,
    projected_bracket_delta,
    recovery_check,
    scaling_check,
    section_sigma,
    sigma_one_embed_check,
    validate_envelope,
)
from .linalg import (
    FloatMatrix,
    Matrix,
    NotNilpotentError,
    Q,
    commutator,
    inverse,
    is_nilpotent,
    kernel_basis,
    mat_exp_exact,
    mat_exp_float,
    parse_rational,
    rref,
    solve_linear,
)
from .loops import (
    LoopContext,
    connection_eval,
    constant_field,
    curvature_field,
    hemi_loop_closed_form,
    left_divide,
    left_inner_mapping,
    left_inverse,
    loop_context,
    loop_gate,
    loop_product,
    loop_property_check,
    torsion_field,
)
from .poly import Poly
from .products import (
    InvalidActionError,
    ModuleAction,
    circle_product,
    demisemidirect,
    gl_action,
    gl_algebra,
    graph_criterion,
    hemisemidirect,
    omni_algebras,
    semidirect_lie,
)
from .sampling import (
    Pcg32,
    courant_samples,
    cyclic_nilpotent_leibniz,
    random_algebra,
    random_nilpotent_leibniz,
    random_one_form,
    random_poly,
    random_section,
    random_unimodular,
    random_vector,
    random_vector_field,
)
from .yamaguti import (
    LieYamaguti,
    delta_matrix,
    inner_derivations,
    ly_envelope,
    ly_from_decomposition,
    ly_from_leibniz,
    torsion_curvature,
    validate_ly,
)

__version__ = "0.1.0"
