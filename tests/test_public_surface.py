"""Drift guard for the names `import corgi` exports.

Adding or removing an export has to change this list, so the public surface
only grows or shrinks through a visible test diff.
"""

import inspect

import corgi

EXPORTS = {
    "CorgiConfig", "ModelConfig", "PolicyKind", "SalientTokenSet", "SeededRng", "Trace",
    "adjacent_step_cka", "analyze_model", "block_ablation", "block_forward", "build_model",
    "cached_count", "cka",
    "derive_seed", "divergence", "identify_salient", "kmeans_1d_two", "masked_merge",
    "partial_attention", "plan_steps", "run_reference", "run_with_policy",
}


def test_corgi_exports_exactly_the_pinned_names():
    public = {
        name
        for name in dir(corgi)
        if not name.startswith("_") and not inspect.ismodule(getattr(corgi, name))
    }
    assert public == EXPORTS
