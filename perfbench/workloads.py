"""The benchmark's workloads: inputs, timed operations and answer checks.

Every workload follows the same life cycle, driven by ``run.py``:

- ``start()`` pays one-time process costs (the Spark session);
- ``setup()`` builds the state the timed phase reads (inputs, compressed
  and stored tables) and is repeated so its median can be reported;
- ``cycle(state, i)`` returns the i-th round of operations as
  ``(kind, key, thunk)``; a thunk calls only public functions of the
  layer modules, and everything it needs (query cells, Spark inputs) is
  built before it runs. The op kinds of a cycle are fixed; the seed only
  moves permutations, LIME masks and query positions;
- ``check(state, kind, key, output)`` verifies one answer, outside the
  timed region;
- ``compress_rows(state)``: the op kinds that compress, with the lineage
  rows each compresses; every other op kind is a query;
- ``stored_pct(state, outputs)``: ProvRC-GZip bytes of the lineage the
  timed phase compresses as a percentage of its Raw CSV bytes (Table
  VII's Rel %).

The benchmark runs two workloads: ``kernel`` (the single-process write
path and both query paths, built from the ``Ingest``, ``QueryChain`` and
``QueryScattered`` parts) and ``spark``.

Layer functions are always called through their module
(``provrc.compress``, ``tj.chain_query``) so the tracer's wrappers see
them.
"""
from __future__ import annotations

import gzip
import importlib
import itertools
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pandas as pd

import repro
from repro.baselines.formats import write_array, write_raw
from repro.capture import numpy_ops as nops
from repro.capture import patterns as pt
from repro.capture.explain import lime_capture
from repro.core import provrc, storage
from repro.core.model import LineageSchema, backward_schema, forward_schema
from repro.dslog import DSLog
from repro.experiments.table7 import capture_order
from repro.insitu.baseline_query import array_chain_query

# ``repro.insitu`` shadows this submodule with the function of the same name.
tj = importlib.import_module("repro.insitu.theta_join")

Op = tuple[str, Any, Callable[[], Any]]


def _schema_of(rel: pd.DataFrame) -> LineageSchema:
    n_out = sum(c.startswith("b") for c in rel.columns)
    return backward_schema(n_out, len(rel.columns) - n_out)


def _same_table(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """Equal as sets of rows over the same columns (NaN equals NaN)."""
    if sorted(a.columns) != sorted(b.columns) or len(a) != len(b):
        return False
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols, kind="mergesort").to_numpy(dtype="float64")
    b = b[cols].sort_values(cols, kind="mergesort").to_numpy(dtype="float64")
    return np.array_equal(a, b, equal_nan=True)


def _same_cells(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    got = got.to_numpy(dtype="int64")
    want = want.to_numpy(dtype="int64")
    return got.shape == want.shape and np.array_equal(got, want)


def _lossless(cdf: pd.DataFrame, rel: pd.DataFrame, schema: LineageSchema) -> bool:
    cols = list(schema.full_cols)
    want = rel[cols].drop_duplicates().sort_values(cols, kind="mergesort")
    return _same_cells(provrc.decompress(cdf, schema)[cols], want)


def _pct(stored: int, raw: int) -> float:
    return 100.0 * stored / raw


class Workload:
    """One workload, or one part of ``Kernel``; ``name`` is set on the two
    workloads the benchmark runs."""

    name = ""

    def __init__(self, scale: str, seed: int, workdir: Path):
        self.toy = scale == "toy"
        self.seed = seed
        self.workdir = workdir
        self._verified: dict[Any, Any] = {}

    def start(self) -> None:
        pass

    def setup(self) -> Any:
        raise NotImplementedError

    def cycle(self, state: Any, i: int) -> list[Op]:
        raise NotImplementedError

    def check(self, state: Any, kind: str, key: Any, output: Any) -> bool:
        raise NotImplementedError

    def compress_rows(self, state: Any) -> dict[str, int]:
        return {}

    def stored_pct(self, state: Any, outputs: list[tuple[str, Any]]) -> float:
        raise NotImplementedError

    def counters(self, kind: str, output: Any) -> dict[str, float]:
        return {}

    def stop(self) -> None:
        pass

    def _raw_bytes(self, rel: pd.DataFrame) -> int:
        path = self.workdir / "raw.csv"
        n = write_raw(rel, path)
        path.unlink()
        return n

    def _gzip_bytes(self, cdf: pd.DataFrame, schema: LineageSchema) -> int:
        path = self.workdir / "size.prc.gz"
        n = storage.write(cdf, schema, path, gzipped=True)
        path.unlink()
        return n


class Ingest(Workload):
    """compress + gzipped write of a fixed mix of capture-ordered relations."""

    def setup(self):
        n = 24 if self.toy else 112
        side = n // 3
        img = 32 if self.toy else 96
        g = np.random.default_rng(self.seed)
        perm = (n * n * 3) // 4
        rels = {
            "elementwise": pt.identity((n, n)),
            "aggregate": pt.reduce_axis((n, n), 1),
            "repetition": pt.index_map((n, n), lambda o: [o[0] % (n // 2), o[1] % (n // 2)]),
            "conv3x3": pt.conv2d(side, side, 3, 3),
            "lime": lime_capture(img, img, 3, block=16, keep_frac=0.7, seed=self.seed).relation(0),
            "permutation": pd.DataFrame({"b0": np.arange(perm), "a0": g.permutation(perm)}),
        }
        return {k: capture_order(r, self.seed) for k, r in rels.items()}

    def cycle(self, rels, i):
        ops = []
        calls = itertools.count()
        for kind, rel in rels.items():
            schema = _schema_of(rel)

            # Every call writes its own file, so each record's check reads
            # the payload that call wrote.
            def op(rel=rel, schema=schema, kind=kind):
                path = self.workdir / f"{i}_{next(calls)}_{kind}.prc.gz"
                cdf = provrc.compress(rel, schema)
                return cdf, path, storage.write(cdf, schema, path, gzipped=True)

            ops.append((kind, None, op))
        return ops

    def check(self, rels, kind, key, output):
        cdf, path, _ = output
        # The gzip header carries a timestamp; compare what it wraps.
        payload = gzip.decompress(path.read_bytes())
        if kind in self._verified:
            ref_cdf, ref_payload = self._verified[kind]
            return _same_table(cdf, ref_cdf) and payload == ref_payload
        rel = rels[kind]
        schema = _schema_of(rel)
        back, back_schema = storage.read(path)
        ok = back_schema == schema and _same_table(back, cdf) and _lossless(cdf, rel, schema)
        if ok:
            self._verified[kind] = (cdf, payload)
        return ok

    def compress_rows(self, rels):
        return {kind: len(rel) for kind, rel in rels.items()}

    def stored_pct(self, rels, outputs):
        stored = {kind: out[2] for kind, out in outputs if kind in rels and out is not None}
        return _pct(sum(stored.values()), sum(self._raw_bytes(rels[k]) for k in stored))


# The ops seed 7 draws for a balanced 5-op random numpy pipeline
# (workflows.pipelines.random_numpy_pipeline), pinned by name so the
# workload cannot change when the registry or the generator does.
CHAIN_OPS = ["rad2deg", "spacing", "cumprod", "copy", "nancumprod"]


class QueryChain(Workload):
    """Forward chained in-situ queries over stored ProvRC-GZip tables."""

    pool = 8

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.shape = (60, 10) if self.toy else (400, 20)
        self.block_rows = (1, 3, 20) if self.toy else (2, 20, 200)
        g = np.random.default_rng(seed)
        self.positions = {
            r: g.integers(0, self.shape[0] - r + 1, size=self.pool) for r in self.block_rows
        }

    def setup(self):
        rng = np.random.default_rng(7)
        steps = []
        for k, name in enumerate(CHAIN_OPS):
            rel = nops.OPS[name].capture((self.shape,), rng).relation(0)
            rel = capture_order(rel, self.seed)
            schema = forward_schema(2, 2)
            cdf = provrc.compress(rel, schema)
            path = self.workdir / f"step{k}.prc.gz"
            storage.write(cdf, schema, path, gzipped=True)
            steps.append({"rel": rel, "path": path})
        return steps

    def _cells(self, rows: int, j: int) -> pd.DataFrame:
        r0 = int(self.positions[rows][j % self.pool])
        width = self.shape[1]
        return pd.DataFrame(
            {"a0": np.repeat(np.arange(r0, r0 + rows), width), "a1": np.tile(np.arange(width), rows)}
        )

    def cycle(self, steps, i):
        paths = [s["path"] for s in steps]
        ops = []
        for rows in self.block_rows:
            cells = self._cells(rows, i)

            def op(cells=cells):
                tables = [storage.read(p) for p in paths]
                key_cols = list(tables[0][1].key_cols)
                q = provrc.encode_query(cells.set_axis(key_cols, axis=1), key_cols)
                result = tj.chain_query(q, tables)
                return tj.intervals_to_cells(result, list(tables[-1][1].val_cols))

            ops.append((f"rows{rows}", (rows, i % self.pool), op))
        return ops

    def check(self, steps, kind, key, output):
        if key not in self._verified:
            npy = []
            for k, s in enumerate(steps):
                path = self.workdir / f"step{k}.npy"
                if not path.exists():
                    write_array(s["rel"][["b0", "b1", "a0", "a1"]], path)
                npy.append(path)
            self._verified[key] = array_chain_query(npy, self._cells(*key), self.shape)
        return _same_cells(output, self._verified[key])


class QueryScattered(Workload):
    """Backward DSLog queries of scattered cells against Sort lineage."""

    pool = 8

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.side = 40 if self.toy else 160
        n_cells = 6 if self.toy else 24
        g = np.random.default_rng(seed + 1)
        self.queries = []
        for _ in range(self.pool):
            flat = g.choice(self.side * self.side, n_cells, replace=False)
            self.queries.append(pd.DataFrame({"c0": flat // self.side, "c1": flat % self.side}))

    def setup(self):
        cap = nops.OPS["sort"].capture(((self.side, self.side),), np.random.default_rng(self.seed))
        log = DSLog()
        log.array("X", (self.side, self.side))
        log.array("Y", (self.side, self.side))
        # Lineage() ingests the captured relation as is; register_operation
        # would also build reuse signatures, which compress it once more.
        log.lineage("X", "Y", cap.relation(0))
        # The facade compresses lazily, on the first query: part of set-up.
        log.prov_query(["Y", "X"], self.queries[0])
        return {"log": log, "rel": cap.relation(0)}

    def cycle(self, state, i):
        cells = self.queries[i % self.pool]
        log = state["log"]
        return [("scattered", i % self.pool, lambda: log.prov_query(["Y", "X"], cells))]

    def check(self, state, kind, key, output):
        if key not in self._verified:
            q = self.queries[key].set_axis(["b0", "b1"], axis=1)
            hit = state["rel"].merge(q, on=["b0", "b1"])[["a0", "a1"]]
            self._verified[key] = hit.drop_duplicates().sort_values(["a0", "a1"], kind="mergesort")
        return _same_cells(output, self._verified[key])


class Kernel(Workload):
    """Ingest, chained and scattered queries in one single-process cycle.

    Each part keeps its own state and op kinds; the cycle runs every op
    kind of every part once. Compression happens only in the ingest ops,
    so ``compress_pass_ref`` and ``query_p50_ref`` see disjoint code.
    """

    name = "kernel"

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.ingest = Ingest(scale, seed, workdir)
        self.parts = [self.ingest, QueryChain(scale, seed, workdir),
                      QueryScattered(scale, seed, workdir)]
        self._part_of: dict[str, int] = {}

    def setup(self):
        return [p.setup() for p in self.parts]

    def cycle(self, states, i):
        ops = []
        for k, (part, state) in enumerate(zip(self.parts, states)):
            for op in part.cycle(state, i):
                self._part_of[op[0]] = k
                ops.append(op)
        return ops

    def check(self, states, kind, key, output):
        k = self._part_of[kind]
        return self.parts[k].check(states[k], kind, key, output)

    def compress_rows(self, states):
        return self.ingest.compress_rows(states[0])

    def stored_pct(self, states, outputs):
        return self.ingest.stored_pct(states[0], outputs)


def spark_cores() -> int:
    """Two local cores: with four tasks on the host's four shared vCPUs,
    every stage waited for the task whose vCPU the host had taken away,
    and runs of the same code spread about three times as much."""
    return max(1, min(2, os.cpu_count() or 1))


def driver_memory() -> str:
    """Spark driver memory, derived as in the tier-1 test command:
    half of MemTotal in GiB, clamped to 2..8, unless SPARK_DRIVER_MEM is set."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"


def exchange_count(df) -> int:
    """Exchange nodes in a DataFrame's executed plan (after an action).

    Reads the plan string the way ``store.pushed_filters`` does; with
    adaptive execution only the final plan is counted.
    """
    plan = df._jdf.queryExecution().executedPlan().toString()
    if "== Final Plan ==" in plan:
        plan = plan.split("== Final Plan ==", 1)[1].split("== Initial Plan ==", 1)[0]
    return sum(1 for line in plan.splitlines() if "Exchange " in line and "Reused" not in line)


class Spark(Workload):
    """compress_spark on a conv relation and chain_query_spark over a store."""

    name = "spark"
    pool = 8

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.side = 16 if self.toy else 100
        self.block = 2 if self.toy else 5
        g = np.random.default_rng(seed)
        self.positions = g.integers(0, self.side - self.block + 1, size=self.pool)
        self.spark = None

    def start(self):
        # Spark reads these when the JVM starts. They keep every file it
        # writes inside the run's directory, and let the Python workers
        # import ``repro`` (``applyInPandas`` fails without it).
        tmp = self.workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(tmp)
        src = str(Path(repro.__file__).resolve().parents[1])
        n = spark_cores()
        os.environ.update({
            "TMPDIR": str(tmp),
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep),
            "SPARK_LOCAL_DIRS": str(self.workdir / "spark-local"),
            # Every JVM, the spark-submit launcher included; without
            # -XX:-UsePerfData a JVM writes /tmp/hsperfdata_<user>.
            "JAVA_TOOL_OPTIONS": f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
            "PYSPARK_SUBMIT_ARGS": (
                f"--master local[{n}] --driver-memory {driver_memory()} "
                "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
            ),
        })
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(n))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.warehouse.dir", str(self.workdir / "warehouse"))
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")

    def setup(self):
        from repro.core.spark_provrc import interval_columns
        from repro.insitu import store

        spark = self.spark
        conv = pt.conv2d(self.side, self.side, 3, 3)
        chain = [
            (conv, forward_schema(2, 2)),
            (pt.reduce_axis((self.side, self.side), 1), forward_schema(1, 2)),
        ]
        kernel_tables, paths = [], []
        for k, (rel, schema) in enumerate(chain):
            cdf = provrc.compress(rel, schema)
            kernel_tables.append((cdf, schema))
            for c in interval_columns(schema):
                if c not in cdf.columns:
                    cdf = cdf.assign(**{c: np.nan})
            path = self.workdir / f"store{k}"
            shutil.rmtree(path, ignore_errors=True)
            store.write_store(spark.createDataFrame(cdf[interval_columns(schema)]), schema, path)
            paths.append(path)
        return {
            "conv": conv,
            "schema": backward_schema(2, 2),
            "input": spark.createDataFrame(conv),
            "kernel": kernel_tables,
            "paths": paths,
        }

    def _query(self, j: int) -> pd.DataFrame:
        r0 = int(self.positions[j % self.pool])
        cells = pd.DataFrame(
            {"a0": np.repeat(np.arange(r0, r0 + self.block), self.side),
             "a1": np.tile(np.arange(self.side), self.block)}
        )
        return provrc.encode_query(cells, ["a0", "a1"])

    def cycle(self, state, i):
        from repro.core import spark_provrc
        from repro.insitu import spark_query, store

        spark = self.spark

        def compress():
            cdf = spark_provrc.compress_spark(state["input"], state["schema"], n_buckets=spark_cores())
            return cdf, spark_provrc.collect_compressed(cdf)

        q = self._query(i)

        def chain():
            tables = [store.open_store(spark, p) for p in state["paths"]]
            result = spark_query.chain_query_spark(spark, q, tables)
            return result, spark_query.collect_cells(result, ["b0"])

        return [("compress_conv", None, compress), ("chain_query", i % self.pool, chain)]

    def check(self, state, kind, key, output):
        if kind == "chain_query":
            if key not in self._verified:
                result = tj.chain_query(self._query(key), state["kernel"])
                self._verified[key] = tj.intervals_to_cells(result, ["b0"])
            return _same_cells(output[1], self._verified[key])
        pdf = output[1]
        if kind in self._verified:
            return _same_table(pdf, self._verified[kind])
        ok = _lossless(pdf, state["conv"], state["schema"])
        if ok:
            self._verified[kind] = pdf
        return ok

    def compress_rows(self, state):
        return {"compress_conv": len(state["conv"])}

    def stored_pct(self, state, outputs):
        pdf = next(out[1] for k, out in outputs if k == "compress_conv" and out is not None)
        return _pct(self._gzip_bytes(pdf, state["schema"]), self._raw_bytes(state["conv"]))

    def counters(self, kind, output):
        layer = "spark_query" if kind == "chain_query" else "spark_provrc"
        return {f"{layer}.exchanges": exchange_count(output[0])}

    def stop(self):
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            # The JVM exits when its stdin closes; wait so nothing outlives the run.
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.spark = None


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Kernel, Spark)}
