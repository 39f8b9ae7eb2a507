"""Exit-code sweep of the CLI over a grid of valid and invalid flag values.

Every configuration must end in a documented way: exit 0 with output that
parses, exit 1 with a JSON ``{"error": ...}`` as the last stderr line, or
exit 2 (usage error). A traceback, or a numpy warning (an error under the
suite's ``filterwarnings``), fails the sweep. Marked ``slow`` and deselected
by default; run it with ``pytest -m slow``.
"""

import io
import itertools
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest

from corgi.cli import main
from corgi.runtime import Trace

# a tiny valid shape; the grids below vary flags around it
TINY = {"steps": "6", "blocks": "3", "dim": "4", "ffn-dim": "4", "heads": "2",
        "text-tokens": "2", "image-tokens": "3"}
MODEL_GRID = {
    "steps": ["0", "1", "4", "x"],
    "blocks": ["0", "1", "3"],
    "dim": ["0", "3", "4"],
    "ffn-dim": ["0", "4"],
    "heads": ["0", "2"],
    "text-tokens": ["0", "1", "2"],
    "image-tokens": ["0", "1", "3"],
}
# every combination of valid schedule values runs ...
SCHEDULE_GRID = {
    "warmup": ["0", "1", "2", "6"],
    "interval": ["1", "2", "3", "7"],
    "gamma": ["0", "1", "3"],
    "delta": ["0", "1", "2"],
    "top-c": ["1", "2", "3"],
}
# ... and each invalid value is tried alone in an otherwise valid run
INVALID = [("warmup", "-1"), ("warmup", "7"), ("warmup", "x"), ("interval", "0"),
           ("interval", "-1"), ("gamma", "-1"), ("gamma", "4"), ("delta", "-1"),
           ("top-c", "0"), ("top-c", "-2"), ("residual", "bogus"), ("parity", "bogus")]
POLICIES = ["none", "corgi", "corgi_plus", "per_step_naive", "parity", "random"]
POLICY_LISTS = [",".join(POLICIES), "corgi", "none,corgi_plus", "", ",", "corgi,bogus"]


def _flags(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key}", value)]


def _grid(grid: dict):
    for combo in itertools.product(*grid.values()):
        yield dict(zip(grid, combo))


def _configurations():
    tiny = _flags(TINY)
    for command in ("run", "compare", "ablate"):
        for values in _grid(MODEL_GRID):
            yield [command, *_flags(values)]
        for seed in ("-1", "0", "3", str(2**64 + 5), "x"):
            yield [command, *tiny, "--seed", seed]
    schedules = list(_grid(SCHEDULE_GRID))
    refresh = ("--refresh-saliency", "--no-refresh-saliency")
    for policy, flag, values in itertools.product(POLICIES, refresh, schedules):
        yield ["run", *tiny, "--policy", policy, flag, *_flags(values)]
    for policy, residual, parity in itertools.product(POLICIES, ("compute", "reuse"), ("even", "odd")):
        yield ["run", *tiny, "--policy", policy, "--residual", residual, "--parity", parity]
    for policy, flag, (key, value) in itertools.product(POLICIES + ["bogus"], refresh, INVALID):
        yield ["run", *tiny, "--policy", policy, flag, f"--{key}", value]
    for policies, values in itertools.product(POLICY_LISTS, schedules):
        yield ["compare", *tiny, "--policies", policies, *_flags(values)]
    for key, value in INVALID:
        yield ["compare", *tiny, f"--{key}", value]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _parse_output(command: str, out: str) -> None:
    if command == "run":
        Trace.from_json(out)
    elif command == "compare":  # the table, then the JSON report
        assert "runs" in json.loads(out[out.index("{"):])
    else:
        json.loads(out)


@pytest.mark.slow
def test_every_cli_configuration_ends_with_a_documented_exit():
    failures, codes = [], {0: 0, 1: 0, 2: 0}
    for argv in _configurations():
        try:
            code, out, err = _run(argv)
            assert code in codes, f"exit code {code!r}"
            if code == 1:
                assert "error" in json.loads(err.splitlines()[-1])
            elif code == 0:
                _parse_output(argv[0], out)
            codes[code] += 1
        except Exception:  # an exception or a warning escaped main
            failures.append((" ".join(argv), traceback.format_exc()))
    assert not failures, (
        f"{len(failures)} failing configurations, first:\n{failures[0][1]}\n"
        + "\n".join(argv for argv, _ in failures[:20])
    )
    assert all(codes.values()), codes  # the grid reaches every exit code
