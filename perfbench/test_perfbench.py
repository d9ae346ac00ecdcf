"""Smoke test of the benchmark: every workload at toy size, both modes,
plus the tracer's self-time arithmetic.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each workload runs in a subprocess, as the benchmark is meant to be run,
so its Spark settings do not mix with any session of the test process.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
# The benchmark derives its own Spark settings; drop any a test session set.
ENV = {k: v for k, v in os.environ.items()
       if k not in ("SPARK_DRIVER_MEM", "PYSPARK_SUBMIT_ARGS")}

from spans import Tracer  # noqa: E402

E2E = {"setup_s", "compress_pass_ref", "query_p50_ref", "stored_pct_of_raw", "peak_rss_mb",
       "correct_frac"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["kernel", "spark"])
def test_workload_at_toy_size(workload, trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=HERE.parent, env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.coverage_pct"]["value"] > 90
    else:
        assert set(result["metrics"]) == E2E
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _work(seconds):
    time.sleep(seconds)


def test_self_time_is_span_minus_direct_children():
    mod = types.ModuleType("repro_fake_layer")

    def leaf():
        _work(0.02)

    def middle():
        _work(0.01)
        mod.leaf()
        mod.leaf()

    def outer():
        mod.middle()
        _work(0.01)

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer([(mod.__name__, n, n, None) for n in ("outer", "middle", "leaf")])
        tracer.install()
        mod.outer()
        tracer.uninstall()
    finally:
        del sys.modules[mod.__name__]
    assert mod.outer is outer  # uninstall restores the originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (o,), (m,), leaves = by_name["outer"], by_name["middle"], by_name["leaf"]
    assert m.parent == o.id and all(s.parent == m.id for s in leaves)
    self_t = tracer.self_times()
    assert self_t[m.id] == pytest.approx(m.duration - sum(s.duration for s in leaves))
    assert self_t[o.id] == pytest.approx(o.duration - m.duration)
    assert sum(self_t.values()) == pytest.approx(o.duration)
    assert self_t[o.id] >= 0.01 and self_t[m.id] >= 0.01


def test_missing_target_is_dropped_with_a_warning():
    with pytest.warns(UserWarning, match="not found"):
        tracer = Tracer([("repro.core.provrc", "no_such_function", "provrc.gone", None)])
    assert tracer.missing == ["provrc.gone"]
