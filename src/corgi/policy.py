"""Cache scheduling: warm-up + interval planning and the ablation baselines.

A run of T steps splits into a warm-up prefix (full computation everywhere),
then repeating intervals of D steps. Each interval opens with a full-compute
boundary step; the j-th step after a boundary caches the
min(gamma + (j-1)*delta, B) lowest-contribution blocks, ranked at the
boundary. Baselines (per-step naive / parity / random) skip the interval
machinery and cache a fixed-size set at every post-warm-up step.

Every policy is a schedule object (see :func:`make_schedule`) that the
runtime engine drives one step at a time; the engine itself knows no policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .contribution import contribution_scores, rank_ascending
from .model import BlockOutputs, ModelConfig
from .numerics import Matrix, SeededRng, derive_seed
from .saliency import SalientTokenSet, build_mask, identify_salient

WARMUP = "warmup"
BOUNDARY = "boundary"
INTRA = "intra"

RESIDUAL_CHOICES = ("compute", "reuse")
PARITY_CHOICES = ("even", "odd")


class PolicyKind(str, Enum):
    NONE = "none"
    CORGI = "corgi"
    CORGI_PLUS = "corgi_plus"
    PER_STEP_NAIVE = "per_step_naive"
    PARITY = "parity"
    RANDOM = "random"


@dataclass(frozen=True)
class StepRole:
    """Role of one step: warmup, boundary, or intra with offset j >= 1."""

    kind: str
    offset: int = 0

    def label(self) -> str:
        return f"{INTRA}:{self.offset}" if self.kind == INTRA else self.kind


@dataclass(frozen=True)
class CorgiConfig:
    """Scheduling knobs; None fields resolve against the model at run time.

    warmup defaults to round(0.2 * total_steps), gamma to num_blocks // 2 and
    top_c to max(1, round(0.1 * text_tokens)).
    """

    policy: PolicyKind = PolicyKind.CORGI
    warmup: int | None = None
    interval: int = 5
    gamma: int | None = None
    delta: int = 1
    top_c: int | None = None
    seed: int = 0
    residual: str = "compute"  # one of RESIDUAL_CHOICES
    refresh_saliency: bool = False
    parity: str = "even"  # one of PARITY_CHOICES

    def resolved(self, total_steps: int, num_blocks: int, text_tokens: int) -> "CorgiConfig":
        """Fill defaults and validate against the model dimensions."""
        cfg = replace(
            self,
            policy=PolicyKind(self.policy),
            warmup=round(0.2 * total_steps) if self.warmup is None else self.warmup,
            gamma=num_blocks // 2 if self.gamma is None else self.gamma,
            top_c=max(1, round(0.1 * text_tokens)) if self.top_c is None else self.top_c,
        )
        if not 0 <= cfg.warmup <= total_steps:
            raise ValueError(f"warmup must be in 0..{total_steps}, got {cfg.warmup}")
        if cfg.interval < 1:
            raise ValueError("interval must be >= 1")
        if not 0 <= cfg.gamma <= num_blocks:
            raise ValueError(f"gamma must be in 0..{num_blocks}, got {cfg.gamma}")
        if cfg.delta < 0:
            raise ValueError("delta must be >= 0")
        if cfg.top_c < 1:
            raise ValueError("top_c must be >= 1")
        if cfg.residual not in RESIDUAL_CHOICES:
            raise ValueError(f"residual must be one of {RESIDUAL_CHOICES}, got {cfg.residual!r}")
        if cfg.parity not in PARITY_CHOICES:
            raise ValueError(f"parity must be one of {PARITY_CHOICES}, got {cfg.parity!r}")
        return cfg


def plan_steps(total_steps: int, warmup: int, interval: int) -> list[StepRole]:
    """Roles for every step; a trailing partial interval keeps the pattern."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= warmup <= total_steps:
        raise ValueError(f"warmup must be in 0..{total_steps}")
    if interval < 1:
        raise ValueError("interval must be >= 1")
    roles = [StepRole(WARMUP)] * warmup
    for step in range(warmup, total_steps):
        offset = (step - warmup) % interval
        roles.append(StepRole(BOUNDARY) if offset == 0 else StepRole(INTRA, offset))
    return roles


def cached_count(offset: int, gamma: int, delta: int, num_blocks: int) -> int:
    """Cached-block count at intra offset j: min(gamma + (j-1)*delta, B)."""
    if offset < 1:
        raise ValueError("intra offset must be >= 1")
    return min(gamma + (offset - 1) * delta, num_blocks)


def select_cached(ranking: list[int], count: int) -> set[int]:
    """First `count` blocks of the ascending-contribution ranking.

    Prefixes nest: the gamma blocks stay cached as delta additions accrue.
    """
    if count > len(ranking):
        raise ValueError(f"count {count} exceeds {len(ranking)} ranked blocks")
    return set(ranking[:count])


def baseline_directives(
    kind: PolicyKind,
    step: int,
    warmup: int,
    num_blocks: int,
    ranking: list[int] | None = None,
    parity: str = "even",
    rng: SeededRng | None = None,
) -> set[int]:
    """Cached set for one step under a baseline policy.

    per_step_naive caches the floor(B/2) lowest-contribution blocks of the
    caller-supplied per-step ranking; parity caches one index parity; random
    draws a fresh seeded floor(B/2)-subset each step. Warm-up steps never
    cache.
    """
    kind = PolicyKind(kind)
    if parity not in PARITY_CHOICES:
        raise ValueError(f"parity must be one of {PARITY_CHOICES}, got {parity!r}")
    if kind == PolicyKind.NONE or step < warmup:
        return set()
    half = num_blocks // 2
    if kind == PolicyKind.PARITY:
        rem = PARITY_CHOICES.index(parity)
        return {b for b in range(num_blocks) if b % 2 == rem}
    if kind == PolicyKind.RANDOM:
        if rng is None:
            raise ValueError("random baseline needs a SeededRng")
        keys = rng.standard_normal(1, num_blocks)[0]
        order = sorted(range(num_blocks), key=lambda b: (keys[b], b))
        return set(order[:half])
    if kind == PolicyKind.PER_STEP_NAIVE:
        if ranking is None:
            raise ValueError("per_step_naive needs a contribution ranking")
        return set(ranking[:half])
    raise ValueError(f"{kind} is not a baseline policy")


class IntervalSchedule:
    """corgi and corgi_plus: warm-up, then D-step intervals.

    Each boundary re-ranks the blocks by contribution against the previous
    boundary's block outputs (bootstrap: the last warm-up step's; with no
    warm-up at all, the first boundary compares against itself and the
    ranking falls back to index order). corgi_plus also picks per-block
    salient sets at the first boundary (at every boundary with
    refresh_saliency) into ``refresh`` for the engine; each pick appends one
    ``saliency`` entry per block, tagged with its step.
    """

    def __init__(self, rcfg: CorgiConfig, mc: ModelConfig):
        self.rcfg = rcfg
        self.mc = mc
        self.roles = plan_steps(mc.total_steps, rcfg.warmup, rcfg.interval)
        self.ranking = list(range(mc.num_blocks))
        self.snapshot: list[Matrix] | None = None
        self.contributions: list[dict] = []
        self.saliency: list[dict] | None = None
        self.refresh: list[tuple[SalientTokenSet, np.ndarray]] | None = None

    def label(self, step: int) -> str:
        return self.roles[step].label()

    def directive(self, step: int) -> set[int]:
        role = self.roles[step]
        if role.kind != INTRA:
            return set()
        rcfg = self.rcfg
        count = cached_count(role.offset, rcfg.gamma, rcfg.delta, self.mc.num_blocks)
        return select_cached(self.ranking, count)

    def observe(self, step: int, outputs: list[BlockOutputs]) -> None:
        rcfg = self.rcfg
        if self.roles[step].kind == BOUNDARY:
            block_outs = [o.block_out for o in outputs]
            reference = self.snapshot if self.snapshot is not None else block_outs
            scores = contribution_scores(reference, block_outs)
            self.ranking = rank_ascending(scores)
            self.contributions.append({"step": step, "scores": [float(v) for v in scores]})
            self.snapshot = block_outs
            if rcfg.policy == PolicyKind.CORGI_PLUS and (
                self.refresh is None or rcfg.refresh_saliency
            ):
                mc = self.mc
                picks = [identify_salient(o.cross_map, rcfg.top_c) for o in outputs]
                self.refresh = [
                    (ss, build_mask(ss, mc.text_tokens, mc.image_tokens)) for ss in picks
                ]
                self.saliency = (self.saliency or []) + [
                    {"step": step, "block": b, "text": list(ss.text_indices),
                     "image": list(ss.image_indices)}
                    for b, ss in enumerate(picks)
                ]
        elif step == rcfg.warmup - 1:
            self.snapshot = [o.block_out for o in outputs]  # bootstrap reference


class BaselineSchedule:
    """none, per_step_naive, parity and random: one rule at every step.

    per_step_naive ranks the blocks at each post-warm-up step by the
    contribution between the two previous steps' block outputs (index order
    until two steps exist); random draws from its own seeded stream.
    """

    def __init__(self, rcfg: CorgiConfig, mc: ModelConfig):
        self.rcfg = rcfg
        self.num_blocks = mc.num_blocks
        self.rng = SeededRng(derive_seed(rcfg.seed, "policy-random"))
        self.previous: tuple[list[Matrix] | None, list[Matrix] | None] = (None, None)
        self.contributions: list[dict] = []
        self.saliency: list[dict] | None = None
        self.refresh: list[tuple[SalientTokenSet, np.ndarray]] | None = None

    def label(self, step: int) -> str:
        rcfg = self.rcfg
        return WARMUP if step < rcfg.warmup and rcfg.policy != PolicyKind.NONE else "step"

    def directive(self, step: int) -> set[int]:
        rcfg = self.rcfg
        ranking = None
        if rcfg.policy == PolicyKind.PER_STEP_NAIVE and step >= rcfg.warmup:
            older, newer = self.previous
            if older is None:
                ranking = list(range(self.num_blocks))
            else:
                ranking = rank_ascending(contribution_scores(older, newer))
        return baseline_directives(
            rcfg.policy, step, rcfg.warmup, self.num_blocks,
            ranking=ranking, parity=rcfg.parity, rng=self.rng,
        )

    def observe(self, step: int, outputs: list[BlockOutputs]) -> None:
        self.previous = (self.previous[1], [o.block_out for o in outputs])


def make_schedule(rcfg: CorgiConfig, mc: ModelConfig) -> IntervalSchedule | BaselineSchedule:
    """The schedule object of a resolved config's policy.

    A schedule answers ``directive(step)`` (blocks to serve from the cache),
    ``label(step)`` (the step's role) and ``observe(step, outputs)`` (the
    step's per-block outputs, after it ran), and carries ``contributions``
    (per-boundary scores), ``saliency`` (one entry per block and salient-set
    pick, or None when no set was picked) and ``refresh``: per block, the
    salient set in force and its row mask, or None when cached blocks replay
    whole.
    """
    if rcfg.policy in (PolicyKind.CORGI, PolicyKind.CORGI_PLUS):
        return IntervalSchedule(rcfg, mc)
    return BaselineSchedule(rcfg, mc)
