"""Tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import inspect
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import psprimes  # noqa: E402
import psprimes.cli  # noqa: E402
from layertrace import LAYER_UNITS, LIBRARY, Tracer, layer_metrics, merge  # noqa: E402
from ops import WORKLOADS, check_cli, make_ops  # noqa: E402
from run import Pass, cli_op, end_to_end  # noqa: E402
from session import run_op  # noqa: E402

SPACES = [sys.modules[f"psprimes.{m}"] for m in LIBRARY] + [psprimes, psprimes.cli]


def _bindings() -> dict:
    out = {(ns.__name__, attr): val for ns in SPACES for attr, val in vars(ns).items()
           if inspect.isfunction(val)}
    out["SieveTable.primes"] = psprimes.SieveTable.primes
    out["math.fsum"] = math.fsum
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert psprimes.cli.ps_prime_count is not before[("psprimes.cli", "ps_prime_count")]
        assert math.fsum is not before["math.fsum"]
        assert psprimes.ps_prime_count(10 ** 4, 1.1).count > 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans["pspseq.ps_member_array"][0] == 1


CLI_OPS = [
    (["ps", "count", "--x", "100000", "--c", "1.1", "--format", "csv"], False),
    (["ps", "ap", "--x", "100000", "--c", "1.3", "--q", "7", "--a", "3", "--format", "json"], True),
    (["ps", "beatty", "--x", "100000", "--c", "1.1", "--alpha", "sqrt2", "--beta", "0.3",
      "--format", "json"], False),
    (["expsum", "theorem", "--x", "4096", "--c", "1.1", "--alpha", "sqrt2", "--H", "4",
      "--format", "csv"], True),
    (["hb", "verify", "--x", "2000", "--J", "2", "--format", "csv"], False),
    (["bf", "scan", "--N", "4096", "--c", "1.1", "--grid-size", "20", "--format", "csv"], False),
    (["exppair", "search", "--max-word-len", "4", "--format", "csv"], False),
]


def test_traced_cli_output_is_byte_identical(tmp_path):
    stats = []
    for i, (argv, to_file) in enumerate(CLI_OPS):
        op = {"cmd": " ".join(argv[:2]), "argv": argv, "file": to_file, "expect": {}}
        _, rc, _, plain, _ = cli_op(op, i, tmp_path, None)
        path = tmp_path / "trace.json"
        _, rc_t, _, traced, _ = cli_op(op, i, tmp_path, path)
        assert (rc, rc_t) == (0, 0)
        assert check_cli(op, rc, plain.decode()) is None
        assert traced == plain, argv
        stats.append(json.loads(path.read_text()))
    metrics = layer_metrics(merge(stats), 0.0)
    assert metrics.keys() == LAYER_UNITS.keys()
    assert metrics["sieve.build_table.calls"] >= len(CLI_OPS) - 1
    assert metrics["fsum.calls"] > 0 and metrics["cli.import_s"] > 0


def test_traced_session_output_is_identical():
    ops = [{"fn": "ps_prime_count", "args": [10 ** 5, 1.1]},
           {"fn": "ps_prime_count_ap", "args": [10 ** 5, 1.2, 7, 3]},
           {"fn": "goldbach3_count", "args": [10001, 1.05, 1.06, 1.07]},
           {"fn": "singular_series", "args": [101, 1000]}]
    plain = [run_op(psprimes, op) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(psprimes, op) for op in ops]
    finally:
        tracer.uninstall()
    assert all(err is None for _, err in plain)
    assert traced == plain
    assert tracer.spans["pspseq.pair_sum_counts"][0] == 1


def test_benchmark_json_names_match_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    p = Pass(12)
    p.walls, p.times, p.setups = [1.0], [[float(i) for i in range(12)]], [0.5]
    metrics, label = end_to_end(p)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert abs(metrics["op_p50_s"]["value"] - 5.5) < 1e-9
    assert 0.5 < metrics["op_tail_s"]["value"] < 2.0 and label.startswith("p17 of 12")
