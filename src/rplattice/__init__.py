"""Reflection positivity on finite theta-symmetric lattices.

Builds reflection-invariant Gaussian measures, decides their reflection
positivity exactly through the cross-block spectrum, decides whether
polynomial densities split across the reflection plane, and verifies by
direct and factorized Monte Carlo that splitting densities applied to
reflection-positive Gaussians stay reflection positive.
"""

from .density import (
    Potential,
    SplitResult,
    Term,
    Violation,
    ZERO_POTENTIAL,
    canonicalize,
    eval_potential,
    eval_potential_batch,
    eval_potential_exact,
    is_even,
    phi4,
    potential_from_obj,
    potential_to_obj,
    reflect_potential,
    split_check,
)
from .gaussian import (
    Covariance,
    FieldSample,
    PQPair,
    char_fn,
    check_gaussian_rp,
    check_theta_invariance,
    cross_block,
    decompose_pq,
    free_field_covariance,
    sample,
    theta_inner,
    verify_convolution_identity,
)
from .lattice import (
    Lattice,
    build_lattice,
    embed_plus,
    positive_support,
    reflect,
    restrict_plus,
)
from .rp_verify import (
    FAIL,
    GramReport,
    INCONCLUSIVE,
    IllConditionedWeightsError,
    McParams,
    PASS,
    gram_exact_gaussian,
    gram_mc_direct,
    gram_mc_factorized,
    psd_check,
    random_test_functions,
    schur_product,
    small_lambda_probe,
)

__version__ = "0.1.0"

__all__ = [
    "Covariance",
    "FAIL",
    "FieldSample",
    "GramReport",
    "INCONCLUSIVE",
    "IllConditionedWeightsError",
    "Lattice",
    "McParams",
    "PASS",
    "PQPair",
    "Potential",
    "SplitResult",
    "Term",
    "Violation",
    "ZERO_POTENTIAL",
    "build_lattice",
    "canonicalize",
    "char_fn",
    "check_gaussian_rp",
    "check_theta_invariance",
    "cross_block",
    "decompose_pq",
    "embed_plus",
    "eval_potential",
    "eval_potential_batch",
    "eval_potential_exact",
    "free_field_covariance",
    "gram_exact_gaussian",
    "gram_mc_direct",
    "gram_mc_factorized",
    "is_even",
    "phi4",
    "positive_support",
    "potential_from_obj",
    "potential_to_obj",
    "psd_check",
    "random_test_functions",
    "reflect",
    "reflect_potential",
    "restrict_plus",
    "sample",
    "schur_product",
    "small_lambda_probe",
    "split_check",
    "theta_inner",
    "verify_convolution_identity",
]
