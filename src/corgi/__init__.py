"""Block-wise interval caching lab for a toy multi-modal diffusion transformer.

A deterministic desk-scale testbed for contribution-guided block caching:
a seeded toy DiT, similarity-based contribution scores, warm-up + interval
cache scheduling with salient-token protection, ablation baselines, and an
analytic MAC cost model.

The package exports the entry points and the types they take and return.
Kernels and helpers are imported from their modules (``corgi.numerics``,
``corgi.model`` and so on). They do not re-check their inputs, because
:func:`run_with_policy` and :func:`run_reference` check a run's config and
arrays once and :func:`build_model` checks the model's dimensions; each
helper's docstring states what its callers guarantee. The checks that still
run inside a run are listed in :mod:`corgi.numerics`.
"""

from .analysis import (
    adjacent_step_cka,
    analyze_model,
    block_ablation,
    divergence,
)
from .contribution import cka
from .model import ModelConfig, block_forward, build_model, run_reference
from .numerics import SeededRng, derive_seed
from .policy import CorgiConfig, PolicyKind, cached_count, plan_steps
from .runtime import (
    Trace,
    masked_merge,
    partial_attention,
    run_with_policy,
)
from .saliency import SalientTokenSet, identify_salient, kmeans_1d_two

__version__ = "0.1.0"
