"""Joint subspace estimation for concept removal in embeddings.

Estimates a spurious-concept subspace and a main-task subspace jointly, with
statistical stopping tests, removes the spurious one, and benchmarks the
result against INLP, RLACE, ERM and group-weighted ERM on a synthetic task.
"""

from .algorithm import JseConfig, SubspaceResult, jse_fit
from .baselines import (
    InlpConfig,
    RlaceConfig,
    RlaceResult,
    erm_fit,
    gw_erm_fit,
    inlp_fit,
    rlace_fit,
)
from .data import (
    LabeledEmbeddings,
    SubspaceBasis,
    orthonormal_check,
    project_onto,
    project_out,
)
from .evaluate import (
    Artifact,
    EvalSummary,
    ExperimentConfig,
    RunRecord,
    SweepResult,
    fit_and_evaluate,
    fit_method,
    run_single,
    run_sweep,
)
from .pca import pca_apply, pca_fit
from .sgd import (
    LinearModel,
    OptimizerConfig,
    bce,
    fit_1d_logreg,
    fit_intercept_only,
    fit_joint_orthogonal,
    fit_logreg,
    predict_1d,
)
from .stats import TestReport, delta_heuristic, t_relative, t_vs_random, weighted_diff
from .toy import ToyConfig, gen_toy, gen_toy_test

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
