"""Infinite-latent-feature factor models with variance-routed layers.

A toolkit for a layered Gaussian latent-factor model whose weight
matrices carry spike-and-slab entries under an Indian-buffet-process
mask prior, with the number of factors per layer inferred by a
trans-dimensional Markov chain.  Modules:

- ``ibp``: binary mask laws and samplers
- ``model``: generative core, closed-form marginals, log-joint
- ``inference``: the per-layer sampler and the stacked greedy driver
- ``oracle``: quadrature/enumeration cross-checks of every closed form
- ``experiment``: the factor-count recovery study
- ``dataio``: CSV/JSON artifacts with atomic writes
- ``cli``: the ``deepibp`` command
"""

from .ibp import (
    harmonic_number,
    left_order_form,
    logprob_mask_ibp,
    logprob_mask_marginal,
    sample_ibp_sequential,
)
from .model import (
    HyperParams,
    JointTerms,
    LayerHyper,
    LayerTarget,
    draw_routed,
    draw_stack,
    log_joint,
)
from .inference import (
    ChainState,
    ChainTrace,
    InferenceConfig,
    MoveStats,
    gibbs_sweep,
    log_ratio_add,
    log_ratio_delete,
    run_layerwise,
    run_mh_layer,
)
from .experiment import (
    ExperimentConfig,
    SummaryStats,
    TrialResult,
    emit_report,
    run_experiment,
    summarize,
)
from .oracle import ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "ChainState",
    "ChainTrace",
    "ExperimentConfig",
    "HyperParams",
    "InferenceConfig",
    "JointTerms",
    "LayerHyper",
    "LayerTarget",
    "MoveStats",
    "SummaryStats",
    "TrialResult",
    "ValidationReport",
    "__version__",
    "draw_routed",
    "draw_stack",
    "emit_report",
    "gibbs_sweep",
    "harmonic_number",
    "left_order_form",
    "log_joint",
    "log_ratio_add",
    "log_ratio_delete",
    "logprob_mask_ibp",
    "logprob_mask_marginal",
    "run_experiment",
    "run_layerwise",
    "run_mh_layer",
    "run_validation",
    "sample_ibp_sequential",
    "summarize",
]
