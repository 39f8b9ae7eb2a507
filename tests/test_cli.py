import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corgi
from corgi.cli import DEFAULTS, build_parser, main
from corgi.runtime import Trace

SMALL = ["--steps", "6", "--blocks", "4", "--dim", "16", "--ffn-dim", "16",
         "--heads", "2", "--text-tokens", "3", "--image-tokens", "5"]


def _strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if '"created_at"' not in l)


def test_run_writes_deterministic_trace(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", *SMALL, "--policy", "none", "--seed", "1"]
    assert main([*args, "-o", str(out1)]) == 0
    assert main([*args, "-o", str(out2)]) == 0
    assert _strip_timestamp(out1.read_text()) == _strip_timestamp(out2.read_text())


def test_run_interval_one_is_flagged_equivalent(tmp_path):
    out = tmp_path / "t.json"
    assert main(["run", *SMALL, "--policy", "corgi", "--interval", "1", "-o", str(out)]) == 0
    trace = Trace.from_json(out.read_text())
    assert trace.equivalent_to_reference
    assert trace.schema == "corgi-trace/3"


def test_run_trace_round_trips(tmp_path):
    out = tmp_path / "t.json"
    assert main(["run", *SMALL, "--policy", "corgi_plus", "--top-c", "2",
                 "--interval", "3", "-o", str(out)]) == 0
    text = out.read_text()
    trace = Trace.from_json(text)
    assert trace.to_json() == text
    assert trace.config["policy"] == "corgi_plus"
    assert len(trace.steps) == 6


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "steps": 5, "blocks": 4, "dim": 16, "ffn_dim": 16, "heads": 2,
        "text_tokens": 3, "image_tokens": 5, "policy": "parity", "seed": 3,
    }))
    out = tmp_path / "t.json"
    assert main(["run", "--config", str(cfg), "--steps", "7", "-o", str(out)]) == 0
    trace = Trace.from_json(out.read_text())
    assert trace.config["model"]["total_steps"] == 7  # flag wins
    assert trace.config["policy"] == "parity"  # file applies
    assert trace.config["seed"] == 3


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 5}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, loaded",
    [
        # "false" is a non-empty string: a truthiness cast would turn refresh on
        ("run", {"refresh_saliency": "false", "policy": "corgi_plus"}),
        ("run", {"blocks": "8"}),
        ("run", {"interval": 2.5}),
        ("run", {"seed": "x"}),
        ("run", {"gamma": True}),
        ("compare", {"policies": 3}),
        # values outside the flag's choices
        ("run", {"residual": "sideways"}),
        ("run", {"policy": "telepathy"}),
        ("run", {"parity": "prime"}),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, loaded):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(loaded))
    with pytest.raises(SystemExit) as exc:
        main([command, *SMALL, "--config", str(cfg)])
    assert exc.value.code == 2
    assert repr(next(iter(loaded))) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("ablate", {"interval": 3}),
        ("ablate", {"policy": "parity"}),
        ("compare", {"policy": "parity"}),
        ("run", {"policies": "none"}),
    ],
)
def test_config_key_without_a_flag_in_the_subcommand_is_usage_error(
    tmp_path, capsys, command, loaded
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(loaded))
    with pytest.raises(SystemExit) as exc:
        main([command, *SMALL, "--config", str(cfg), "-o", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_null_takes_the_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warmup": None, "out": None, "policy": "none"}))
    assert main(["run", *SMALL, "--config", str(cfg), "-o", str(tmp_path / "t.json")]) == 0


def _accepted_keys():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, a.dest)
        for name in ("run", "compare", "ablate")
        for a in sub.choices[name]._actions
        if a.dest in DEFAULTS
    ]


@pytest.mark.parametrize("command, key", _accepted_keys())
def test_config_key_type_follows_its_flag(tmp_path, capsys, command, key):
    # every key refuses a list, and takes null exactly when its default is null
    cfg = tmp_path / "cfg.json"
    argv = [command, *SMALL, "--config", str(cfg), "-o", str(tmp_path / "out.json")]
    for value, accepted in (([1], False), (None, DEFAULTS[key] is None)):
        cfg.write_text(json.dumps({key: value}))
        if accepted:
            assert main(argv) == 0
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert repr(key) in capsys.readouterr().err


def test_defaults_match_the_flags():
    # a config key without a flag (or a flag without a default) fails here
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {
        a.dest
        for name in ("run", "compare")
        for a in sub.choices[name]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    assert dests == set(DEFAULTS)


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--warp-speed", "9"])
    assert exc.value.code == 2


def test_removed_salient_writeback_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", *SMALL, "--policy", "corgi_plus", "--salient-writeback"])
    assert exc.value.code == 2


def test_invalid_policy_value_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "telepathy"])
    assert exc.value.code == 2


def test_runtime_failure_returns_one_with_json_error(capsys):
    rc = main(["run", *SMALL, "--gamma", "99"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert "gamma" in json.loads(err)["error"]


def test_non_finite_noise_returns_one_with_json_error(monkeypatch, capsys):
    monkeypatch.setattr(
        "corgi.runtime.predict_noise", lambda model, h: np.full((5, 16), np.inf)
    )
    rc = main(["run", *SMALL, "--policy", "none"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert "non-finite noise prediction" in json.loads(err)["error"]


def test_compare_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["compare", *SMALL, "--policies", "none,corgi,corgi_plus",
               "--interval", "3", "--top-c", "2", "--seed", "5", "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "corgi-compare/1"
    assert [r["policy"] for r in report["runs"]] == ["none", "corgi", "corgi_plus"]
    none_run = report["runs"][0]
    assert none_run["speedup"] == 1.0
    assert none_run["final_mse"] == 0.0
    assert report["runs"][1]["speedup"] > 1.0
    captured = capsys.readouterr()
    assert "corgi_plus" in captured.err  # the table
    assert captured.out == ""  # the report went to -o


def test_compare_row_keys_follow_the_record_fields(capsys):
    # without -o the JSON report is all of stdout and the table goes to
    # stderr; a row is the policy, then CostReport's fields, then
    # DivergenceReport's
    assert main(["compare", *SMALL, "--policies", "parity", "--seed", "2"]) == 0
    captured = capsys.readouterr()
    assert "parity" in captured.err
    (row,) = json.loads(captured.out)["runs"]
    assert list(row) == [
        "policy", "flops_full", "flops_actual", "speedup", "blocks_total", "blocks_computed",
        "block_speedup", "per_step_mse", "per_step_cosine", "final_mse", "final_cosine",
    ]


def test_compare_table_right_aligns_each_blocks_cell_under_its_header(capsys):
    assert main(["compare", *SMALL, "--policies", "none,corgi,parity", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    header, rule, *rows = [line for line in captured.err.splitlines() if line.strip()]
    assert set(rule) == {"-"}
    end = header.index("blocks") + len("blocks")
    for row, run in zip(rows, json.loads(captured.out)["runs"], strict=True):
        cell = f"{run['blocks_computed']}/{run['blocks_total']}"
        assert row[end - len(cell) - 1 : end] == " " + cell, row


def test_compare_rejects_unknown_policy():
    with pytest.raises(SystemExit) as exc:
        main(["compare", *SMALL, "--policies", "none,quantum"])
    assert exc.value.code == 2


@pytest.mark.parametrize("policies", ["", ","])
def test_compare_rejects_empty_policy_list(capsys, policies):
    with pytest.raises(SystemExit) as exc:
        main(["compare", *SMALL, "--policies", policies])
    assert exc.value.code == 2
    assert "--policies names no policy" in capsys.readouterr().err


def test_one_step_ablate_returns_one_with_json_error(capsys):
    rc = main(["ablate", *SMALL, "--steps", "1"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err) == {"error": "need at least 2 steps"}


def test_ablate_report(tmp_path):
    out = tmp_path / "ablate.json"
    rc = main(["ablate", *SMALL, "--seed", "2", "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "corgi-ablation/1"
    token = np.array(report["token_cosine"])
    assert token.shape == (4, 6, 5)  # blocks x steps x image tokens
    assert len(report["adjacent_cka"]) == 5
    assert all(0.0 <= v <= 1.0 for v in report["adjacent_cka"])


def test_run_defaults_to_stdout(capsys):
    rc = main(["run", *SMALL, "--policy", "none"])
    assert rc == 0
    out = capsys.readouterr().out
    trace = Trace.from_json(out)
    assert trace.equivalent_to_reference


def test_trace_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # BLAS gemm sits on the output path; its thread count must not reach the
    # bits. Each FFN tile (8 x 128 x 1024) is big enough that OpenBLAS splits
    # it across two threads. Higher counts need more cores than CI has.
    src = str(Path(corgi.__file__).resolve().parents[1])
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run(
            [sys.executable, "-m", "corgi.cli", "run", "--policy", "corgi_plus",
             "--steps", "6", "--blocks", "4", "--dim", "128", "--ffn-dim", "1024",
             "--image-tokens", "28", "-o", str(out)],
            env=env, check=True,
        )
        traces.append(_strip_timestamp(out.read_text()))
    assert traces[0] == traces[1]
