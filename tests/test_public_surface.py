"""Drift guard for the names `import corgi` exports.

Adding or removing an export has to change this list, so the public surface
only grows or shrinks through a visible test diff.
"""

import inspect

import corgi

EXPORTS = {
    "BlockOutputs", "CorgiConfig", "ModelConfig", "PolicyKind", "SalientTokenSet",
    "SeededRng", "Trace",
    "adjacent_step_cka", "analyze_model", "baseline_directives", "block_ablation",
    "block_forward", "build_mask", "build_model", "build_schedule", "cached_count",
    "cka", "contribution_scores", "cost_report", "denoise_step_mean", "derive_seed",
    "divergence", "execute_block_cached", "execute_block_corgi_plus", "flops_block",
    "frobenius_norm", "identify_salient", "kmeans_1d_two", "masked_merge",
    "partial_attention", "plan_steps", "rank_ascending", "run_reference",
    "run_with_policy", "saliency_scores", "select_cached", "softmax_rows", "top_c_text",
}


def test_corgi_exports_exactly_the_pinned_names():
    public = {
        name
        for name in dir(corgi)
        if not name.startswith("_") and not inspect.ismodule(getattr(corgi, name))
    }
    assert public == EXPORTS
