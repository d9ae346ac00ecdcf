"""DSLog benchmark: one workload, one closed-loop client, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics (see README.md). Every answer is checked outside
the timed region; the last line of stdout is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up runs this many times; each repetition is followed by one chunk
# of the timed phase, so the timed samples are spread over the whole run
# rather than bunched into one stretch of the host's varying speed.
SETUP_REPEATS = 3


def _reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        print("perfbench: cannot reset VmHWM; peak_rss_mb includes set-up", file=sys.stderr)


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kib / 1024


def _steal_s() -> float:
    """CPU time the hypervisor took from this machine's vCPUs (all of them)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


# Iterations of the reference loop: about 10 ms on a 4-vCPU Xeon VM.
REF_LOOP = 150_000


def reference_s() -> float:
    """Time a fixed pure-Python loop, which no program change can touch.

    On a shared host the speed of interpreter-bound code switches between
    levels about 1.5x apart and holds each for tens of seconds, so a run
    often sees only one level. The kernel's op times follow this loop
    within about 6%; dividing by its median over the same run removes the
    level from the time metrics.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i * i
    return time.perf_counter() - t0


def _run_op(thunk, tracer, op_id):
    """Time one operation; a raised exception is recorded, not fatal."""
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    t0 = time.perf_counter()
    try:
        out, err = thunk(), None
    except Exception as exc:
        out, err = None, exc
    secs = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return secs, out, err


def timed_phase(wl, state, seconds: float, tracer, first_cycle: int, first_op: int):
    """Whole cycles, numbered from ``first_cycle``, until ``seconds`` have
    passed; at least one.

    With a tracer each operation runs twice back to back, untraced and
    traced (alternating which goes first), so the pair gives the tracing
    overhead. After each operation the reference loop is timed once.
    Returns the records ``(kind, key, seconds, output, traced, error)``,
    the reference times and the next cycle number.
    """
    records, refs = [], []
    start = time.perf_counter()
    i = first_cycle
    while True:
        for kind, key, thunk in wl.cycle(state, i):
            modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in modes:
                secs, out, err = _run_op(thunk, tracer if traced else None,
                                         first_op + len(records))
                records.append((kind, key, secs, out, traced, err))
            refs.append(reference_s())
        i += 1
        if time.perf_counter() - start >= seconds:
            return records, refs, i


def check_records(wl, state, records) -> int:
    """Check every answer against ``state``; returns the number that failed."""
    failed = 0
    for kind, key, _, out, _, err in records:
        if err is None:
            try:
                if wl.check(state, kind, key, out):
                    continue
                err = "a wrong answer"
            except Exception as exc:
                err = exc
        print(f"perfbench: {kind} {key} failed: {err!r}", file=sys.stderr)
        failed += 1
    return failed


# per-layer metric -> (unit, span names, what is summed over those spans:
# "self" time, "calls", a span attribute, or a workload "counter")
LAYER_METRICS = {
    "provrc.compress_self_s": ("s", ["provrc.compress"], "self"),
    "provrc.finalize_s": ("s", ["provrc.finalize"], "self"),
    "provrc.rows_in": ("count", ["provrc.compress"], "rows_in"),
    "provrc.rows_out": ("count", ["provrc.compress"], "rows_out"),
    "provrc.compress_calls": ("count", ["provrc.compress"], "calls"),
    "provrc.encode_query_s": ("s", ["provrc.encode_query"], "self"),
    "storage.serialize_s": ("s", ["storage.serialize"], "self"),
    "storage.write_self_s": ("s", ["storage.write"], "self"),
    "storage.bytes_written": ("count", ["storage.write"], "bytes"),
    "storage.read_self_s": ("s", ["storage.read"], "self"),
    "storage.deserialize_s": ("s", ["storage.deserialize"], "self"),
    "theta_join.join_self_s": ("s", ["theta_join.theta_join"], "self"),
    "theta_join.merge_rows_in": ("count", ["theta_join.merge_intervals"], "rows_in"),
    "theta_join.merge_s": ("s", ["theta_join.merge_intervals"], "self"),
    "theta_join.merge_rows_out": ("count", ["theta_join.merge_intervals"], "rows_out"),
    "theta_join.steps": ("count", ["theta_join.theta_join"], "calls"),
    "theta_join.chain_self_s": ("s", ["theta_join.chain_query"], "self"),
    "theta_join.to_cells_s": ("s", ["theta_join.intervals_to_cells"], "self"),
    "theta_join.cells_out": ("count", ["theta_join.intervals_to_cells"], "cells"),
    "dslog.prov_query_self_s": ("s", ["dslog.prov_query"], "self"),
    "spark_provrc.compress_s": (
        "s", ["spark_provrc.compress_spark", "spark_provrc.collect_compressed"], "self"),
    "spark_provrc.exchanges": ("count", ["spark_provrc.compress_spark"], "counter"),
    "spark_query.chain_s": ("s", ["spark_query.chain_query_spark"], "self"),
    "spark_query.collect_s": ("s", ["spark_query.collect_cells"], "self"),
    "spark_query.exchanges": ("count", ["spark_query.chain_query_spark"], "counter"),
    "store.open_s": ("s", ["store.open_store"], "self"),
}


def layer_metrics(wl, tracer, records) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the traced operations, divided by their count,
    plus the tracing overhead and the share of time the spans cover."""
    traced = [r for r in records if r[4]]
    op_time = sum(r[2] for r in traced)
    counters: dict[str, float] = defaultdict(float)
    for kind, _, _, out, _, err in traced:
        if err is None:
            for name, value in wl.counters(kind, out).items():
                counters[name] += value
    self_times = tracer.self_times()
    out = {}
    for name, (unit, names, source) in LAYER_METRICS.items():
        if any(n in tracer.missing for n in names):
            continue
        spans = [s for s in tracer.spans if s.name in names]
        if source == "self":
            total = sum(self_times[s.id] for s in spans)
        elif source == "calls":
            total = len(spans)
        elif source == "counter":
            total = counters[name]
        else:
            total = sum(s.attrs.get(source, 0) for s in spans)
        out[name] = (total / len(traced), unit)
    untraced_time = sum(r[2] for r in records if not r[4])
    out["trace.overhead_pct"] = (100.0 * (op_time / untraced_time - 1.0), "%")
    top = sum(s.duration for s in tracer.spans if s.parent is None)
    out["trace.coverage_pct"] = (100.0 * top / op_time, "%")
    return out


def raw_times(wl, state, records) -> tuple[float, float]:
    """Seconds of one compress pass (the compressing op kinds' medians,
    summed) and the mean over the query kinds of their median seconds."""
    med = {}
    for kind, _, secs, _, _, _ in records:
        med.setdefault(kind, []).append(secs)
    med = {kind: statistics.median(v) for kind, v in med.items()}
    rows = wl.compress_rows(state)
    return (sum(med[k] for k in rows),
            statistics.fmean(med[k] for k in med if k not in rows))


def end_to_end(wl, state, setup_s, records, ref_s, failed, peak_mb):
    compress_s, query_s = raw_times(wl, state, records)
    outputs = [(r[0], r[3]) for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "compress_pass_ref": (compress_s / ref_s, "x"),
        "query_p50_ref": (query_s / ref_s, "x"),
        "stored_pct_of_raw": (wl.stored_pct(state, outputs), "%"),
        "peak_rss_mb": (peak_mb, "MB"),
        "correct_frac": (1.0 - failed / len(records), "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "toy"), default="bench",
                    help="toy sizes are for the smoke test only")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.scale, args.seed, workdir)
    phases: dict[str, object] = {}
    try:
        t0 = time.perf_counter()
        wl.start()
        phases["start_s"] = time.perf_counter() - t0
        tracer = Tracer() if args.trace else None
        reps, records, refs, failed, peak_mb = [], [], [], 0, 0.0
        timed_s = check_s = 0.0
        cpu0, steal0, cycle = time.process_time(), _steal_s(), 0
        for rep in range(SETUP_REPEATS):
            state = None  # free the previous repetition's state first
            t0 = time.perf_counter()
            state = wl.setup()
            reps.append(time.perf_counter() - t0)
            if rep == 0:
                # One untimed warm-up of every op kind (JVM JIT, Python
                # workers); not part of setup_s, which counts only what a
                # user must build.
                t0 = time.perf_counter()
                for _, _, thunk in wl.cycle(state, 0):
                    thunk()
                phases["warmup_s"] = time.perf_counter() - t0
            # Chunk k ends once the timed phase has run k/SETUP_REPEATS of
            # --seconds in total, so an overlong chunk shortens the next.
            _reset_peak_rss()
            t0 = time.perf_counter()
            chunk, chunk_refs, cycle = timed_phase(
                wl, state, args.seconds * (rep + 1) / SETUP_REPEATS - timed_s,
                tracer, cycle, len(records))
            timed_s += time.perf_counter() - t0
            peak_mb = max(peak_mb, _peak_rss_mb())
            t0 = time.perf_counter()
            failed += check_records(wl, state, chunk)
            check_s += time.perf_counter() - t0
            records += chunk
            refs += chunk_refs
        phases["setup_reps_s"] = reps
        setup_s = phases["start_s"] + statistics.median(reps)
        phases["timed_s"] = timed_s
        phases["check_s"] = check_s
        # Process CPU time and steal over the whole loop, set-up included.
        phases["cpu_s"] = time.process_time() - cpu0
        phases["steal_s"] = _steal_s() - steal0
        ref_s = statistics.median(refs)
        compress_s, query_s = raw_times(wl, state, [r for r in records if not r[4]])
        phases["ref_ms"] = 1000 * ref_s
        phases["compress_pass_s"] = compress_s
        phases["query_ms_p50"] = 1000 * query_s
        phases["op_s"] = {}
        for kind, _, secs, _, _, _ in records:
            phases["op_s"].setdefault(kind, []).append(round(secs, 4))

        if tracer is not None:
            metrics = layer_metrics(wl, tracer, records)
            # The raw times behind the end-to-end ratios, unbounded: the
            # host's speed level moves them (see README.md, Steadiness).
            metrics["host.ref_ms"] = (phases["ref_ms"], "ms")
            metrics["raw.compress_pass_s"] = (compress_s, "s")
            metrics["raw.query_ms_p50"] = (phases["query_ms_p50"], "ms")
            tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics = end_to_end(wl, state, setup_s, records, ref_s, failed, peak_mb)
    finally:
        wl.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench: phases {json.dumps(phases)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
