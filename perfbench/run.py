"""Wall-clock benchmark of the corgi library.

Run from the repository root:

    python3 perfbench/run.py --workload compare_wide --seed 0 --seconds 40 --trace 0

Each invocation runs one workload in its own process (so ``peak_rss_mb`` is
that workload's alone), repeats passes of its job list while another pass
still fits in ``--seconds``, checks every run's output and prints medians. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced passes and reports the per-layer
metrics of the traced passes, plus the tracing overhead. A full report with
every sample goes to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Timed in a fresh interpreter: ``import corgi`` plus ``cli.setup``.
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from corgi import cli
cli.setup(json.loads(sys.argv[2]))
print(time.perf_counter() - start)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy's wheel bundles, if it can be asked."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and returns nothing
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def calibrate() -> dict:
    """Fixed work timed before and after a workload to expose host drift.

    One part is a shape-stable einsum (the kernel the library uses), the other
    a plain Python loop (the per-call overhead). Diagnostic only, not gated.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    start = perf_counter()
    for _ in range(1000):
        np.einsum("ij,jk->ik", a, a, optimize=False)
    kernel = perf_counter() - start
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return {"kernel_s": kernel, "python_s": perf_counter() - start}


def pin_to_quickest_cpu(cpus: list[int]) -> None:
    """Pin this process to the allowed CPU that runs a short probe fastest.

    On a shared host one virtual CPU can run half as fast as another for
    seconds at a time. Choosing before every operation and set-up sample keeps
    some of that out of the timings; the benchmark is single-threaded, so one
    CPU is enough.
    """
    if len(cpus) < 2:
        return

    def probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            acc = 0
            for i in range(50_000):
                acc += i * i
            best = min(best, perf_counter() - start)
        return best

    os.sched_setaffinity(0, {min(cpus, key=probe)})


def setup_time(cfg: dict) -> float:
    """Seconds of ``import corgi`` + ``cli.setup`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(cfg)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(workloads, tracer, bench, traced_aggs, traced_segs, plain) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes.

    Kernel shares divide traced self time by the traced job's wall time, so
    both sides carry the tracing overhead. Measured speed-ups and the
    overhead itself use untraced times.
    """
    per_pass = []
    for agg, seg in zip(traced_aggs, traced_segs):
        values: dict[str, float] = {}
        for (span, _job), stats in agg.items():
            for stat, value in stats.items():
                key = f"{span}.{stat}"
                values[key] = values.get(key, 0) + value
        for span in tracer.names:
            self_s = values.get(f"{span}.self_s", 0.0)
            macs = values.get(f"{span}.macs", 0)
            values[f"{span}.gmacs_per_s"] = macs / self_s / 1e9 if self_s else 0.0

        def job_sum(job: str, spans, stat: str) -> float:
            return sum(agg.get((s, job), {}).get(stat, 0) for s in spans)

        for p in workloads.ALL_POLICIES:
            flops = bench.facts.get(f"flops_actual.{p}")
            macs = job_sum(f"run:{p}", ("numerics.matmul", "numerics.matmul_nt"), "macs")
            values[f"cost.executed_macs_ratio.{p}"] = macs / flops if flops else 0.0
        for share, spans in (("kernel_share", workloads.KERNEL_SPANS), ("matmul_share", workloads.KERNEL_SPANS[:2])):
            for name, job in (("none", "run:none"), ("reference", "reference")):
                wall = sum(seg.get(job, []))
                values[f"split.{share}.{name}"] = job_sum(job, spans, "self_s") / wall if wall else 0.0
        per_pass.append(values)

    keys = set().union(*per_pass)
    out = {k: median([v.get(k, 0) for v in per_pass]) for k in keys}
    run_none = median([x["run_s.none"] for x in plain if "run_s.none" in x])
    out["model.run_reference.retained_mb"] = bench.facts.get("retained_mb", 0.0)
    for p in workloads.ALL_POLICIES:
        out[f"cost.flop_speedup.{p}"] = bench.facts.get(f"flop_speedup.{p}", 0.0)
        run_p = median([x[f"run_s.{p}"] for x in plain if f"run_s.{p}" in x])
        out[f"cost.measured_speedup.{p}"] = run_none / run_p if run_p else 0.0
    out["runtime.cache_reuse_ratio"] = bench.facts.get("cache_reuse_ratio", 0.0)
    traced_pass = median([sum(map(sum, seg.values())) for seg in traced_segs])
    out["perfbench.trace_overhead"] = traced_pass / median([p["pass_s"] for p in plain])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corgi" / "__init__.py").is_file():
        print(f"perfbench: no corgi package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corgi

    if Path(corgi.__file__).resolve().parent != SRC / "corgi":
        print(f"perfbench: imported corgi from {corgi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    env = environment()
    calib_before = calibrate()

    bench = workloads.Bench(workload, args.seed, workloads.load_goldens())
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    bench.before_op = lambda: pin_to_quickest_cpu(cpus)
    setups = []

    tracer = Tracer() if args.trace else None
    plain, plain_refs, traced, traced_aggs = [], [], [], []
    started = perf_counter()
    while True:
        # set-up is sampled once per pass, so it sees the same host as the passes
        pin_to_quickest_cpu(cpus)
        setups.append(setup_time(bench.cfg))
        use_tracer = tracer is not None and len(plain) > len(traced)
        if use_tracer:
            tracer.install()
            try:
                seg = bench.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_aggs.append(tracer.end_pass())
            traced.append(seg)
        else:
            seg = bench.run_pass()
            plain.append(workloads.job_totals(seg))
            plain_refs.extend(workloads.reference_calls(seg))
        elapsed = perf_counter() - started
        if (tracer is None or traced) and elapsed * (1 + 1 / (len(plain) + len(traced))) > args.seconds:
            break  # one more pass of average length would overrun --seconds
    calib_after = calibrate()

    keys = sorted(set().union(*plain))  # a run that raised leaves its key out of that pass
    samples = {key: [p[key] for p in plain if key in p] for key in keys}
    samples["reference_s"] = plain_refs  # every call, not one value per pass
    summary = {key: median(vals) for key, vals in samples.items()}
    summary["setup_s"] = median(setups)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        for i, agg in enumerate(traced_aggs):
            fired = {span for span, _job in agg}
            silent = [s for s in workload.expected_spans if s not in fired]
            bench.check(f"trace:{i}", [f"expected spans never fired: {silent}"] if silent else [])
        layers = layer_metrics(workloads, tracer, bench, traced_aggs, traced, plain)
        tracer.write(OUT / f"spans-{stem}.npz")
        unknown = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in layers and m["name"].rpartition(".")[0] not in tracer.names]
        if unknown:
            print(f"perfbench: BENCHMARK.json names metrics no span gives: {unknown}", file=sys.stderr)
            return 2
        # a span the workload does not exercise reads 0
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        # a metric missing because its run raised reads 0; the run is already counted as failed
        metrics = {m["name"]: {"value": summary.get(m["name"], 0), "unit": m["unit"]} for m in spec["end_to_end"]}

    report = {
        "workload": workload.name, "seed": args.seed, "input_seed": bench.input_seed,
        "trace": args.trace, "environment": env,
        "calibration": {"before": calib_before, "after": calib_after},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples": setups, "samples": samples, "medians": summary,
        "traced_samples": traced, "metrics": metrics, "errors": bench.errors,
    }
    with open(OUT / f"report-{stem}.json", "w") as f:
        json.dump(report, f, indent=1)

    print(f"perfbench {workload.name} seed={args.seed} (input seed {bench.input_seed}) "
          f"trace={args.trace}: {len(plain)} untraced + {len(traced)} traced passes, "
          f"{len(setups)} set-ups")
    print("environment " + json.dumps(env))
    print("calibration " + json.dumps(report["calibration"]))
    for key in sorted(summary):
        n = {"setup_s": len(setups), "peak_rss_mb": 1, "reference_s": len(plain_refs)}.get(key, len(plain))
        unit = "MB" if key == "peak_rss_mb" else "s"
        print(f"  {key:<22} {summary[key]:>12.6f} {unit:<3} (median of {n})")
    if tracer is not None:
        for name in sorted(metrics):
            print(f"  {name:<44} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    for err in bench.errors:
        print(f"FAILED {err}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
