"""Command-line front end.

Subcommands:

    run      execute one configuration and write its trace JSON
    compare  run several policies against the reference (the none run,
             computed once) and report divergence plus analytic cost
    ablate   block-ablation cosine maps and the adjacent-step similarity series

Flags mirror JSON config-file keys (underscored); explicit flags override the
file, the file overrides built-in defaults. Model keys map onto ModelConfig
fields through MODEL_KEYS, policy keys are CorgiConfig's field names, and
both take their defaults from those dataclasses; `policies` and `out` are
the only CLI-only keys. A config file may set only the keys its subcommand
has flags for, and each key's JSON type and choices come from its flag. A
config-file value of the wrong type, or outside its flag's choices, is a
usage error. Exit codes: 0 ok, 1 runtime failure, 2 usage error. Setting
COLOR=0 disables ANSI output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from .analysis import analyze_model, divergence
from .model import ModelConfig, build_model
from .numerics import SeededRng, derive_seed
from .policy import PARITY_CHOICES, RESIDUAL_CHOICES, CorgiConfig, PolicyKind
from .runtime import run_with_policy

# CLI/config key -> ModelConfig field
MODEL_KEYS = {
    "steps": "total_steps",
    "blocks": "num_blocks",
    "dim": "hidden_dim",
    "ffn_dim": "ffn_dim",
    "heads": "num_heads",
    "text_tokens": "text_tokens",
    "image_tokens": "image_tokens",
}

_MODEL_DEFAULTS = asdict(ModelConfig())
DEFAULTS = {
    **{key: _MODEL_DEFAULTS[field] for key, field in MODEL_KEYS.items()},
    **asdict(CorgiConfig()),
    "policy": CorgiConfig.policy.value,
    "policies": "none,corgi,corgi_plus",
    "out": None,
}


def _check_values(parser: argparse.ArgumentParser, loaded: dict) -> None:
    """Usage error for a config-file key the subcommand has no flag for, or a
    value outside its flag's choices or type: the flag's ``type`` (a bool is
    no int), bool for a ``BooleanOptionalAction``, else str; null only where
    the key's default is null."""
    flags = {a.dest: a for a in parser._actions if a.dest in DEFAULTS}
    unknown = set(loaded) - set(flags)
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    for key, value in loaded.items():
        flag = flags[key]
        kind = bool if isinstance(flag, argparse.BooleanOptionalAction) else flag.type or str
        types = (kind, type(None)) if DEFAULTS[key] is None else (kind,)
        if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            parser.error(f"config key {key!r} takes {names}, got {value!r}")
        if value is not None and flag.choices is not None and value not in flag.choices:
            parser.error(f"config key {key!r} takes one of {list(flag.choices)}, got {value!r}")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, help="denoising steps")
    p.add_argument("--blocks", type=int, help="transformer blocks")
    p.add_argument("--dim", type=int, help="hidden width")
    p.add_argument("--ffn-dim", type=int, help="FFN width")
    p.add_argument("--heads", type=int, help="attention heads")
    p.add_argument("--text-tokens", type=int, help="text tokens")
    p.add_argument("--image-tokens", type=int, help="image tokens")
    p.add_argument("--seed", type=int, help="seed for weights, noise and policy")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("-o", "--out", help="output path (default: stdout)")


def _add_policy_flags(p: argparse.ArgumentParser, with_policy: bool = True) -> None:
    if with_policy:
        p.add_argument("--policy", choices=[k.value for k in PolicyKind])
    p.add_argument("--warmup", type=int, help="full-compute warm-up steps")
    p.add_argument("--interval", type=int, help="caching interval length")
    p.add_argument("--gamma", type=int, help="blocks cached at the first intra step")
    p.add_argument("--delta", type=int, help="extra cached blocks per intra step")
    p.add_argument("--top-c", type=int, help="salient text tokens per block")
    p.add_argument("--residual", choices=RESIDUAL_CHOICES)
    p.add_argument(
        "--refresh-saliency",
        action=argparse.BooleanOptionalAction,
        help="recompute salient sets at every boundary",
    )
    p.add_argument("--parity", choices=PARITY_CHOICES, help="parity-baseline choice")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corgi",
        description="Block-wise interval caching lab for a toy diffusion transformer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one policy run and emit its trace")
    _add_model_flags(run_p)
    _add_policy_flags(run_p)
    run_p.set_defaults(func=cmd_run, parser=run_p)

    cmp_p = sub.add_parser("compare", help="run several policies against the reference")
    _add_model_flags(cmp_p)
    _add_policy_flags(cmp_p, with_policy=False)
    cmp_p.add_argument("--policies", help="comma-separated policy list")
    cmp_p.set_defaults(func=cmd_compare, parser=cmp_p)

    abl_p = sub.add_parser("ablate", help="block ablation and adjacent-step similarity")
    _add_model_flags(abl_p)
    abl_p.set_defaults(func=cmd_ablate, parser=abl_p)

    return parser


def merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; parser is the subcommand's."""
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            parser.error(f"cannot read config file: {e}")
        if not isinstance(loaded, dict):
            parser.error("config file must hold a JSON object")
        _check_values(parser, loaded)
        cfg.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def setup(cfg: dict):
    """The model and its initial noise from a merged flag dict."""
    mc = ModelConfig(**{field: cfg[key] for key, field in MODEL_KEYS.items()})
    seed = cfg["seed"]
    model = build_model(mc, derive_seed(seed, "model"))
    noise_rng = SeededRng(derive_seed(seed, "init-noise"))
    x_init = noise_rng.standard_normal(mc.image_tokens, mc.hidden_dim)
    return model, x_init


def policy_config(cfg: dict, policy: str | None = None) -> CorgiConfig:
    values = {f.name: cfg[f.name] for f in fields(CorgiConfig)}
    values["policy"] = PolicyKind(policy if policy is not None else cfg["policy"])
    return CorgiConfig(**values)


def _emit(cfg: dict, text: str) -> None:
    if cfg["out"]:
        with open(cfg["out"], "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _color(s: str, code: str) -> str:
    if os.environ.get("COLOR") == "0" or not sys.stderr.isatty():
        return s
    return f"\x1b[{code}m{s}\x1b[0m"


def cmd_run(parser: argparse.ArgumentParser, cfg: dict) -> int:
    model, x_init = setup(cfg)
    trace = run_with_policy(model, x_init, None, policy_config(cfg))
    _emit(cfg, trace.to_json())
    cost = trace.cost
    print(
        f"run: policy={trace.config['policy']} speedup={cost.speedup:.3f} "
        f"blocks={cost.blocks_computed}/{cost.blocks_total} "
        f"equivalent_to_reference={trace.equivalent_to_reference}",
        file=sys.stderr,
    )
    return 0


def cmd_compare(parser: argparse.ArgumentParser, cfg: dict) -> int:
    policies = [p.strip() for p in cfg["policies"].split(",") if p.strip()]
    if not policies:
        parser.error("--policies names no policy")
    known = {k.value for k in PolicyKind}
    for p in policies:
        if p not in known:
            parser.error(f"unknown policy {p!r} in --policies")
    model, x_init = setup(cfg)
    reference = run_with_policy(model, x_init, None, policy_config(cfg, "none"))

    rows = []
    for p in policies:  # sequential, report assembled in list order
        trace = reference if p == "none" else run_with_policy(model, x_init, None, policy_config(cfg, p))
        div = divergence(trace, reference)
        rows.append({"policy": p, **asdict(trace.cost), **asdict(div)})

    header = f"{'policy':<16} {'speedup':>8} {'blocks':>9} {'final_mse':>12} {'final_cos':>10}"
    lines = [header, "-" * len(header)]
    best = max(r["speedup"] for r in rows)
    for r in rows:
        speed = f"{r['speedup']:>8.3f}"
        if r["speedup"] == best and len(rows) > 1:
            speed = _color(speed, "32")
        blocks = f"{r['blocks_computed']}/{r['blocks_total']}"
        lines.append(f"{r['policy']:<16} {speed} {blocks:>9} "
                     f"{r['final_mse']:>12.4e} {r['final_cosine']:>10.6f}")
    print("\n".join(lines), file=sys.stderr)
    _emit(cfg, json.dumps({"schema": "corgi-compare/1", "runs": rows}, indent=2) + "\n")
    return 0


def cmd_ablate(parser: argparse.ArgumentParser, cfg: dict) -> int:
    model, x_init = setup(cfg)
    report = analyze_model(model, x_init)
    mean = report.mean_cosine
    for b in range(mean.shape[0]):
        print(f"block {b}: mean ablation cosine {mean[b].mean():.6f}", file=sys.stderr)
    _emit(cfg, json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args.parser, args)
        return args.func(args.parser, cfg)
    except (ValueError, OSError, FloatingPointError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
