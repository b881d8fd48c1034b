"""Joint subspace estimation for concept removal in embeddings.

Estimates a spurious-concept subspace and a main-task subspace jointly, with
statistical stopping tests, removes the spurious one, and benchmarks the
result against INLP, RLACE, ERM and group-weighted ERM on a synthetic task.

The package exports the quick-start names below; everything else is reached
through its module, e.g. ``jse.baselines.rlace_fit`` or ``jse.stats.t_relative``.
"""

from .evaluate import ExperimentConfig, fit_method, run_single
from .toy import ToyConfig, gen_toy, gen_toy_test

__all__ = ["ExperimentConfig", "ToyConfig", "__version__", "fit_method", "gen_toy",
           "gen_toy_test", "run_single"]
__version__ = "0.1.0"
