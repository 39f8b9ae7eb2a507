"""Shared test setup: seeded toy models matching the CLI's derivation."""

import numpy as np
from hypothesis import strategies as st

from corgi import ModelConfig, SeededRng, build_model, derive_seed


def toy_setup(seed=0, **overrides):
    """Model plus initial noise, derived from one user seed like the CLI."""
    cfg = ModelConfig(**overrides)
    model = build_model(cfg, derive_seed(seed, "model"))
    noise = SeededRng(derive_seed(seed, "init-noise"))
    return model, noise.standard_normal(cfg.image_tokens, cfg.hidden_dim)


@st.composite
def tiny_setups(draw):
    """A toy model and its initial noise at random tiny dimensions."""
    hidden_dim = draw(st.sampled_from([4, 8]))
    model, x = toy_setup(
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
        num_blocks=draw(st.integers(1, 4)),
        total_steps=draw(st.integers(1, 6)),
        hidden_dim=hidden_dim,
        ffn_dim=draw(st.sampled_from([4, 8])),
        num_heads=draw(st.sampled_from([h for h in (1, 2, 4, 8) if hidden_dim % h == 0])),
        text_tokens=draw(st.integers(1, 4)),
        image_tokens=draw(st.integers(1, 4)),
    )
    return model, x


def bit_identical_to_reference(trace, reference):
    """Exact equality of the numeric payload shared by trace and reference."""
    return all(
        np.array_equal(a, b)
        for a, b in zip(trace.noise_preds, reference.noise_preds)
    ) and np.array_equal(trace.final_output, reference.final_output)
