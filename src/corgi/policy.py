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

from .contribution import FeatureSnapshot, contribution_scores, rank_ascending
from .model import BlockOutputs, ModelConfig
from .numerics import SeededRng, check_int, derive_seed
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


@dataclass(frozen=True)
class CorgiConfig:
    """Scheduling knobs; None fields resolve against the model at run time.

    warmup defaults to round(0.2 * total_steps), gamma to num_blocks // 2 and
    top_c to max(1, round(0.1 * text_tokens)). :meth:`resolved` requires the
    integer fields and seed to be Python ints (see
    :func:`corgi.numerics.check_int`) and refresh_saliency a bool.
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

    @property
    def serves_cache(self) -> bool:
        """Whether a run of this policy can serve a block from the cache:
        every policy but none, whose schedule never does and never reads a
        step's block outputs."""
        return self.policy != PolicyKind.NONE

    def resolved(self, total_steps: int, num_blocks: int, text_tokens: int) -> "CorgiConfig":
        """Fill defaults and validate against the model dimensions."""
        cfg = replace(
            self,
            policy=PolicyKind(self.policy),
            warmup=round(0.2 * total_steps) if self.warmup is None else self.warmup,
            gamma=num_blocks // 2 if self.gamma is None else self.gamma,
            top_c=max(1, round(0.1 * text_tokens)) if self.top_c is None else self.top_c,
        )
        for name in ("warmup", "interval", "gamma", "delta", "top_c", "seed"):
            check_int(getattr(cfg, name), name)
        if type(cfg.refresh_saliency) is not bool:
            raise ValueError(f"refresh_saliency must be a bool, got {cfg.refresh_saliency!r}")
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


def pick_steps(policy: str, refresh_saliency: bool, roles: list[StepRole]) -> list[int]:
    """The steps at which a run picks salient sets: corgi_plus's first
    boundary, or every boundary with refresh_saliency; none under any other
    policy."""
    if PolicyKind(policy) != PolicyKind.CORGI_PLUS:
        return []
    boundaries = [s for s, role in enumerate(roles) if role.kind == BOUNDARY]
    return boundaries if refresh_saliency else boundaries[:1]


def cached_count(offset: int, gamma: int, delta: int, num_blocks: int) -> int:
    """Cached-block count at intra offset j: min(gamma + (j-1)*delta, B)."""
    if offset < 1:
        raise ValueError("intra offset must be >= 1")
    return min(gamma + (offset - 1) * delta, num_blocks)


def select_cached(ranking: list[int], count: int) -> set[int]:
    """First `count` blocks of the ascending-contribution ranking.

    Prefixes nest: the gamma blocks stay cached as delta additions accrue.
    Unchecked: count is at most len(ranking), because :func:`cached_count`
    caps it at num_blocks and the ranking holds every block.
    """
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

    Unchecked: :class:`BaselineSchedule` is the one caller. It passes a
    baseline ``PolicyKind`` and a parity that :meth:`CorgiConfig.resolved`
    checked, always passes its rng, and ranks the blocks before every
    post-warm-up per_step_naive step.
    """
    if kind == PolicyKind.NONE or step < warmup:
        return set()
    half = num_blocks // 2
    if kind == PolicyKind.PARITY:
        rem = PARITY_CHOICES.index(parity)
        return {b for b in range(num_blocks) if b % 2 == rem}
    if kind == PolicyKind.RANDOM:
        keys = rng.standard_normal(1, num_blocks)[0]
        order = sorted(range(num_blocks), key=lambda b: (keys[b], b))
        return set(order[:half])
    return set(ranking[:half])  # per_step_naive


class IntervalSchedule:
    """corgi and corgi_plus: warm-up, then D-step intervals.

    Each boundary re-ranks the blocks by contribution against the previous
    boundary's block outputs (bootstrap: the last warm-up step's; with no
    warm-up at all, the first boundary compares against itself and the
    ranking falls back to index order). corgi_plus also picks per-block
    salient sets at the steps :func:`pick_steps` names, which later plans
    hand the engine as their refresh. Each boundary appends its list of B
    scores to ``contributions``, and each pick one ``saliency`` entry per
    block, in block order.
    """

    def __init__(self, rcfg: CorgiConfig, mc: ModelConfig):
        self.rcfg = rcfg
        self.mc = mc
        self.roles = plan_steps(mc.total_steps, rcfg.warmup, rcfg.interval)
        self.ranking = list(range(mc.num_blocks))
        self.snapshot: FeatureSnapshot | None = None
        self.contributions: list[list[float]] = []
        self.saliency: list[dict] | None = None
        self.refresh: list[tuple[SalientTokenSet, np.ndarray]] | None = None
        self.pick_steps = set(pick_steps(rcfg.policy, rcfg.refresh_saliency, self.roles))

    def plan(self, step: int) -> tuple[set[int], list | None, bool]:
        rcfg = self.rcfg
        role = self.roles[step]
        cached = set()
        if role.kind == INTRA:
            count = cached_count(role.offset, rcfg.gamma, rcfg.delta, self.mc.num_blocks)
            cached = select_cached(self.ranking, count)
        return cached, self.refresh, step in self.pick_steps

    def observe(self, step: int, outputs: list[BlockOutputs]) -> None:
        rcfg = self.rcfg
        if self.roles[step].kind == BOUNDARY:
            block_outs = FeatureSnapshot(o.block_out for o in outputs)
            reference = self.snapshot if self.snapshot is not None else block_outs
            scores = contribution_scores(reference, block_outs)
            self.ranking = rank_ascending(scores)
            self.contributions.append([float(v) for v in scores])
            self.snapshot = block_outs
            if step in self.pick_steps:
                mc = self.mc
                picks = [identify_salient(o.cross_map, rcfg.top_c) for o in outputs]
                self.refresh = [
                    (ss, build_mask(ss, mc.text_tokens, mc.image_tokens)) for ss in picks
                ]
                self.saliency = (self.saliency or []) + [
                    {"text": list(ss.text_indices), "image": list(ss.image_indices)}
                    for ss in picks
                ]
        elif step == rcfg.warmup - 1:
            self.snapshot = FeatureSnapshot(o.block_out for o in outputs)  # bootstrap reference


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
        self.previous: tuple[FeatureSnapshot | None, FeatureSnapshot | None] = (None, None)
        self.contributions: list[list[float]] = []
        self.saliency: list[dict] | None = None

    def plan(self, step: int) -> tuple[set[int], None, bool]:
        rcfg = self.rcfg
        ranking = None
        if rcfg.policy == PolicyKind.PER_STEP_NAIVE and step >= rcfg.warmup:
            older, newer = self.previous
            if older is None:
                ranking = list(range(self.num_blocks))
            else:
                ranking = rank_ascending(contribution_scores(older, newer))
        cached = baseline_directives(
            rcfg.policy, step, rcfg.warmup, self.num_blocks,
            ranking=ranking, parity=rcfg.parity, rng=self.rng,
        )
        return cached, None, False

    def observe(self, step: int, outputs: list[BlockOutputs]) -> None:
        if self.rcfg.policy == PolicyKind.PER_STEP_NAIVE:  # the only baseline that reads them
            self.previous = (self.previous[1], FeatureSnapshot(o.block_out for o in outputs))


def make_schedule(rcfg: CorgiConfig, mc: ModelConfig) -> IntervalSchedule | BaselineSchedule:
    """The schedule object of a resolved config's policy.

    The engine asks a schedule one question before each step and tells it
    one thing after: ``plan(step)`` returns ``(cached, refresh,
    reads_cross_maps)``, that is, the blocks to serve from the cache, per
    block the salient set in force and its row mask (None when cached blocks
    replay whole), and whether observing the step picks salient sets, which
    read its full blocks' cross maps (at the steps :func:`pick_steps`
    names); ``observe(step, outputs)`` hands it the step's per-block outputs
    once the step ran. After the last step the engine reads
    ``contributions`` (B scores per boundary, in step order) and
    ``saliency`` (one ``{"text", "image"}`` entry per block and salient-set
    pick, block by block within each picking step, or None when no set was
    picked).
    """
    if rcfg.policy in (PolicyKind.CORGI, PolicyKind.CORGI_PLUS):
        return IntervalSchedule(rcfg, mc)
    return BaselineSchedule(rcfg, mc)
