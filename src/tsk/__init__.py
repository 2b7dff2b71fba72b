"""Two-stage kernel classification of sample bags.

Distributions observed only through finite sample bags are embedded into an
RKHS by kernel mean embeddings, classified by a hinge-loss SVM with a
second-level kernel on the embedding space, and accompanied by a numerical
harness for the associated concentration bounds, oracle inequality,
learning-rate schedules, and Gaussian-measure feature-space identities.
"""

from ._backend import active_backend
from .base_kernels import BaseKernel, sup_norm
from .errors import InputError, NumericalConsistencyError, UnsupportedError
from .hilbert_kernel import HilbertKernel, HolderModulus, hk_eval, lipschitz_modulus
from .kme import (
    EmpiricalBatch,
    ExactBatch,
    SampleSet,
    concentration_bound,
    embed,
    embed_bags,
    exact_gaussian_embedding,
    inner,
)
from .svm import (
    GramMatrix,
    SvmModel,
    build_gram,
    clip,
    decision_value,
    hinge,
    train,
    zero_one,
)
from .synth import MetaDistribution, bayes_risk, sample_first_stage, sample_second_stage
from .whitenoise import (
    CovarianceOperator,
    characteristic_identity_check,
    feature_inner_mc,
    fit_noise_exponent,
    geometric_noise_integrals,
    white_noise_isometry_check,
)
from .bounds import approx_error_estimate, consistency_check, fit_approx_exponent, make_schedule, oracle_rhs
from .experiments import ExperimentConfig, run_kme_coverage, run_rate_experiment

__version__ = "0.1.0"
