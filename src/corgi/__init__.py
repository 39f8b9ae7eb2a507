"""Block-wise interval caching lab for a toy multi-modal diffusion transformer.

A deterministic desk-scale testbed for contribution-guided block caching:
a seeded toy DiT, similarity-based contribution scores, warm-up + interval
cache scheduling with salient-token protection, ablation baselines, and an
analytic MAC cost model.
"""

from .analysis import (
    adjacent_step_cka,
    analyze_model,
    block_ablation,
    divergence,
)
from .contribution import cka, contribution_scores, rank_ascending
from .cost import flops_block
from .model import (
    BlockOutputs,
    ModelConfig,
    block_forward,
    build_model,
    build_schedule,
    denoise_step_mean,
    run_reference,
)
from .numerics import SeededRng, derive_seed, frobenius_norm, softmax_rows
from .policy import (
    CorgiConfig,
    PolicyKind,
    baseline_directives,
    cached_count,
    plan_steps,
    select_cached,
)
from .runtime import (
    Trace,
    cost_report,
    execute_block_cached,
    execute_block_corgi_plus,
    masked_merge,
    partial_attention,
    run_with_policy,
)
from .saliency import (
    SalientTokenSet,
    build_mask,
    identify_salient,
    kmeans_1d_two,
    saliency_scores,
    top_c_text,
)

__version__ = "0.1.0"
