"""Spark in-situ query path: one task per partition of a filtered scan
runs every θ-join step of a chain, returns the kernel's cells on every
input and at any partitioning, matches the DuckDB oracle, runs one Spark
job per table (a single Python job), and plans as a pushed-down Parquet
scan with no shuffle.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import LongType, StructField, StructType

from repro.capture import numpy_ops as nops
from repro.capture import patterns as pt
from repro.core import provrc
from repro.core.model import backward_schema, forward_schema
from repro.core.provrc import interval_columns
from repro.core.ranges import hi, lo
from repro.core.spark_provrc import compress_spark
from repro.insitu import spark_query, store
from repro.insitu.spark_query import chain_query_spark, collect_cells
from repro.insitu.theta_join import chain_query, intervals_to_cells, query_matrix, theta_join
from repro.oracle import assert_equivalent


def _executed_plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


def _sql_plans(spark) -> dict[int, str]:
    """Physical plans of the SQL executions the session retains, by id."""
    it = spark._jsparkSession.sharedState().statusStore().executionsList().iterator()
    plans = {}
    while it.hasNext():
        e = it.next()
        plans[e.executionId()] = e.physicalPlanDescription()
    return plans


def _reduce(spark, tmp_path, cells):
    rel = pt.reduce_axis((50, 6), 1)
    schema = backward_schema(1, 2)
    cdf_s = compress_spark(spark.createDataFrame(rel), schema, n_buckets=8)
    q = provrc.encode_query(pd.DataFrame({"b0": cells}), ["b0"])
    return q, [(rel, schema)], [(cdf_s, schema)]


def _conv_then_row_aggregate(spark, tmp_path, rows=range(7, 12)):
    """The benchmark's Spark chain at test scale: conv 20² -> row sums,
    both forward, read back from the Parquet store."""
    side = 20
    chain = [
        (pt.conv2d(side, side, 3, 3), forward_schema(2, 2)),
        (pt.reduce_axis((side, side), 1), forward_schema(1, 2)),
    ]
    spark_tables = []
    for k, (rel, schema) in enumerate(chain):
        cdf = provrc.compress(rel, schema)
        store.write_store(spark.createDataFrame(cdf), schema, tmp_path / f"st{k}")
        spark_tables.append(store.open_store(spark, tmp_path / f"st{k}"))
    rows = np.asarray(rows)
    cells = pd.DataFrame(
        {"a0": np.repeat(rows, side), "a1": np.tile(np.arange(side), len(rows))}
    )
    q = provrc.encode_query(cells, ["a0", "a1"])
    return q, chain, spark_tables


def _scattered_sort(spark, tmp_path):
    rel = nops.OPS["sort"].capture(((30, 30),), np.random.default_rng(3)).relation(0)
    schema = backward_schema(2, 2)
    cdf = provrc.compress(rel, schema)
    flat = np.random.default_rng(4).choice(900, 12, replace=False)
    cells = pd.DataFrame({"b0": flat // 30, "b1": flat % 30})
    q = provrc.encode_query(cells, ["b0", "b1"])
    return q, [(rel, schema)], [(spark.createDataFrame(cdf), schema)]


def _forward_chain_tables() -> list[pd.DataFrame]:
    """identity -> trailing window -> identity over 64 cells, compressed.
    The first table is the identity compressed in blocks of 8 cells:
    eight rows, still a valid compressed table of the same relation, so
    that partitions can hold different key ranges."""
    n = 64
    s = forward_schema(1, 1)
    window = pd.DataFrame(
        [(i, j) for i in range(n) for j in range(max(0, i - 2), i + 1)], columns=["b0", "a0"]
    )
    first = pd.concat(
        [provrc.compress(pt.identity((n,)).iloc[i : i + 8], s) for i in range(0, n, 8)],
        ignore_index=True,
    )
    return [first, provrc.compress(window, s), provrc.compress(pt.identity((n,)), s)]


def _partitioned(spark, cdf: pd.DataFrame, schema, n_parts: int):
    """``cdf`` as a Spark table of exactly ``n_parts`` partitions, with no
    Exchange in its plan. The rows that overlap ``FORWARD_QUERY`` come
    first and the rows that only overlap its hull last, so once the scan
    is coalesced to any parallelism of 2 or more, some partition holds
    rows but joins none of them."""
    cols = interval_columns(schema)
    order = [1, 5, 0, 6, 7, 2, 3, 4]
    rows = [tuple(int(x) for x in r) for r in cdf[cols].to_numpy()[order]]
    longs = StructType([StructField(c, LongType()) for c in cols])
    return spark.createDataFrame(spark.sparkContext.parallelize(rows, n_parts), longs)


FORWARD_QUERY = [10, 11, 40]


CASES = {
    "reduce": lambda s, p: _reduce(s, p, [3, 4, 5, 20]),
    "conv_then_row_aggregate": _conv_then_row_aggregate,
    "scattered_sort": _scattered_sort,
    "out_of_range": lambda s, p: _reduce(s, p, [500, 501]),
    "empty_intermediate": lambda s, p: _conv_then_row_aggregate(s, p, rows=[40, 41]),
}


class TestSparkThetaJoin:
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_kernel(self, spark, tmp_path, case):
        q, rels, spark_tables = CASES[case](spark, tmp_path)
        last = spark_tables[-1][1]
        cols = list(last.val_cols)
        result = chain_query_spark(spark, q, spark_tables)
        assert result.columns == [c for v in cols for c in (lo(v), hi(v))]
        got = collect_cells(result, cols)
        kernel_tables = [(provrc.compress(r, s), s) for r, s in rels]
        want = intervals_to_cells(chain_query(q, kernel_tables), cols)
        pd.testing.assert_frame_equal(got, want)
        assert got.empty == (case in ("out_of_range", "empty_intermediate"))

    def test_plan_is_pushed_down_scan_without_shuffle(self, spark, tmp_path):
        q, _, spark_tables = _conv_then_row_aggregate(spark, tmp_path)
        result = chain_query_spark(spark, q, spark_tables)
        assert not collect_cells(result, ["b0"]).empty
        filters = store.pushed_filters(result)
        assert "a0_hi" in filters and "a0_lo" in filters, filters
        plan = _executed_plan(result)
        assert "Exchange" not in plan, plan

    def test_axis_count_mismatch_is_refused_before_any_job(self, spark):
        """A path whose first table has 2 value attributes and whose next
        table has 1 key attribute raises before any Spark job runs."""
        s1, s2 = backward_schema(1, 2), backward_schema(1, 1)
        c1 = provrc.compress(pt.reduce_axis((4, 2), 1), s1)
        c2 = provrc.compress(pd.DataFrame({"b0": [0, 1], "a0": [0, 1]}), s2)
        tables = [(spark.createDataFrame(c1), s1), (spark.createDataFrame(c2), s2)]
        q = provrc.encode_query(pd.DataFrame({"b0": [0]}), ["b0"])
        tracker = spark.sparkContext.statusTracker()
        before = set(tracker.getJobIdsForGroup())
        with pytest.raises(ValueError, match=r"path axis count mismatch \(2 vs 1\)"):
            chain_query_spark(spark, q, tables)
        assert set(tracker.getJobIdsForGroup()) == before

    def test_forward_chain_matches_duckdb(self, spark):
        """3-op forward pipeline, Spark in-situ vs DuckDB joins on raw."""
        n = 64
        r1 = pt.identity((n,))  # elementwise
        rows2 = [(i, j) for i in range(n) for j in range(max(0, i - 2), i + 1)]
        r2 = pd.DataFrame(rows2, columns=["b0", "a0"])  # trailing window
        r3 = pt.identity((n,))
        s = forward_schema(1, 1)
        tables = [
            (compress_spark(spark.createDataFrame(r), s, n_buckets=4), s)
            for r in (r1, r2, r3)
        ]
        q = provrc.encode_query(pd.DataFrame({"a0": [10, 11, 40]}), ["a0"])
        got_cells = collect_cells(chain_query_spark(spark, q, tables), ["b0"])
        assert_equivalent(
            spark.createDataFrame(got_cells),
            """
            SELECT DISTINCT r3.b0 AS b0
            FROM r1 JOIN r2 ON r2.a0 = r1.b0
                    JOIN r3 ON r3.a0 = r2.b0
            WHERE r1.a0 IN (10, 11, 40)
            """,
            r1=r1,
            r2=r2,
            r3=r3,
        )

    @pytest.mark.parametrize("n_parts", [1, 4, 8])
    def test_chain_at_any_partitioning_matches_kernel(self, spark, n_parts):
        """A 3-table chain gives the kernel's cells whatever the first
        table's partitioning, also when a partition's intermediate result
        is empty, in one Spark job per table of which only one runs Python,
        with one MapInPandas and no Exchange in its plan."""
        s = forward_schema(1, 1)
        kernel_tables = [(t, s) for t in _forward_chain_tables()]
        tables = [(_partitioned(spark, kernel_tables[0][0], s, n_parts), s)] + [
            (spark.createDataFrame(t), s) for t, _ in kernel_tables[1:]
        ]
        q = provrc.encode_query(pd.DataFrame({"a0": FORWARD_QUERY}), ["a0"])
        want = intervals_to_cells(chain_query(q, kernel_tables), ["b0"])

        sc = spark.sparkContext
        group = f"chain-{n_parts}"
        seen = max(_sql_plans(spark), default=-1)
        sc.setJobGroup(group, "one chain query")
        try:
            result = chain_query_spark(spark, q, tables)
            got = collect_cells(result, ["b0"])
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        pd.testing.assert_frame_equal(got, want)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == len(tables)
        ran = [p for i, p in _sql_plans(spark).items() if i > seen]
        assert sum("MapInPandas" in p for p in ran) == 1, ran
        plan = _executed_plan(result)
        assert plan.count("MapInPandas") == 1, plan
        assert "Exchange" not in plan, plan

        if n_parts > 1:
            qm = query_matrix(q, [s])
            parts = spark_query._scan(spark, tables[0][0], qm, s).rdd.glom().collect()
            steps = [theta_join(qm, np.array(p, dtype=np.int64), s.n_key) for p in parts if p]
            assert any(len(m) == 0 for m in steps), [len(m) for m in steps]


class TestStore:
    def test_roundtrip_and_pushdown(self, spark, tmp_path):
        rel = pt.reduce_axis((80, 5), 1)
        schema = backward_schema(1, 2)
        cdf_s = compress_spark(spark.createDataFrame(rel), schema, n_buckets=4)
        store.write_store(cdf_s, schema, tmp_path / "st")
        df, got_schema = store.open_store(spark, tmp_path / "st")
        assert got_schema == schema
        assert df.count() == cdf_s.count()
        scan = store.overlapping(df, got_schema, 10, 20)
        filters = store.pushed_filters(scan)
        assert "b0_hi" in filters or "b0_lo" in filters, filters
        rows = scan.toPandas()
        assert ((rows[hi("b0")] >= 10) & (rows[lo("b0")] <= 20)).all()

    def test_query_over_store(self, spark, tmp_path):
        rel = pt.identity((60, 4))
        schema = backward_schema(2, 2)
        cdf_s = compress_spark(spark.createDataFrame(rel), schema, n_buckets=4)
        store.write_store(cdf_s, schema, tmp_path / "st2")
        df, sch = store.open_store(spark, tmp_path / "st2")
        q = provrc.encode_query(
            pd.DataFrame([(5, 1), (5, 2), (6, 1)], columns=["b0", "b1"]),
            ["b0", "b1"],
        )
        got = collect_cells(chain_query_spark(spark, q, [(df, sch)]), ["a0", "a1"])
        want = pd.DataFrame(
            [(5, 1), (5, 2), (6, 1)], columns=["a0", "a1"]
        ).sort_values(["a0", "a1"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
