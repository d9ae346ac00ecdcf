"""Chained in-situ lineage queries over compressed tables, in Spark (§V).

Each θ-join runs as DataFrame operations: bucketed range join on the key
intervals (shuffle path), per-attribute interval intersection, Catalyst
de-relativization expressions, projection to the next array's axes, and
the merge (row-reduction) optimization as one ``applyInPandas`` union
sweep per axis. The query never decompresses a lineage table.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core import ranges as rg
from repro.core.model import LineageSchema
from repro.insitu.range_join import bucketed_range_join
from repro.insitu.theta_join import merge_intervals

_PFX = "q__"


def query_to_spark(spark: SparkSession, qdf: pd.DataFrame) -> DataFrame:
    """Lift an encoded query (interval pandas table) into Spark with the
    query prefix on every column."""
    return spark.createDataFrame(qdf.add_prefix(_PFX))


def _derelativize_expr(joined: DataFrame, schema: LineageSchema) -> DataFrame:
    """Absolute value intervals via Catalyst when/otherwise chains.

    For value ``v`` with ``v_rep = 1 + j``: shift the (intersected) key
    interval of key ``j`` by the stored delta, ``[x_lo + d_lo, x_hi + d_hi]``
    (paper's rel_back); with ``v_rep = 0`` keep the absolute interval.
    """
    out = joined
    for v in schema.val_cols:
        lo_expr, hi_expr = F.col(rg.lo(v)), F.col(rg.hi(v))
        for j, k in enumerate(schema.key_cols):
            relative = F.col(rg.rep(v)) == 1 + j
            lo_expr = F.when(relative, F.col(f"__x_{rg.lo(k)}") + F.col(rg.lo(v))).otherwise(lo_expr)
            hi_expr = F.when(relative, F.col(f"__x_{rg.hi(k)}") + F.col(rg.hi(v))).otherwise(hi_expr)
        out = out.withColumn(f"__v_{rg.lo(v)}", lo_expr).withColumn(f"__v_{rg.hi(v)}", hi_expr)
    return out


def theta_join_spark(
    qdf_spark: DataFrame,
    cdf_spark: DataFrame,
    schema: LineageSchema,
    *,
    bucket_width: int = 64,
    merge: bool = True,
    n_buckets: int = 32,
) -> DataFrame:
    """One θ-join in Spark; returns intervals over ``schema.val_cols``."""
    joined = bucketed_range_join(
        qdf_spark, cdf_spark, list(schema.key_cols), bucket_width=bucket_width
    )
    # Intersected key intervals (needed for de-relativization).
    for k in schema.key_cols:
        joined = joined.withColumn(
            f"__x_{rg.lo(k)}",
            F.greatest(F.col(f"{_PFX}{rg.lo(k)}"), F.col(rg.lo(k))),
        ).withColumn(
            f"__x_{rg.hi(k)}",
            F.least(F.col(f"{_PFX}{rg.hi(k)}"), F.col(rg.hi(k))),
        )
    joined = _derelativize_expr(joined, schema)
    t = joined.select(
        *[
            F.col(f"__v_{rg.lo(v)}").alias(rg.lo(v))
            for v in schema.val_cols
        ],
        *[
            F.col(f"__v_{rg.hi(v)}").alias(rg.hi(v))
            for v in schema.val_cols
        ],
    )
    if not merge:
        return t
    return _merge_spark(t, list(schema.val_cols), n_buckets=n_buckets)


def _merge_spark(t: DataFrame, cols: list[str], *, n_buckets: int) -> DataFrame:
    """Row-reduction in Spark: one bucketed union-sweep pass per axis."""
    t = t.dropDuplicates()
    out_schema = ", ".join(
        f"`{c}` double" for c in [rg.lo(x) for x in cols] + [rg.hi(x) for x in cols]
    )
    col_order = [rg.lo(x) for x in cols] + [rg.hi(x) for x in cols]
    def _make_sweep(c: str, others: list[str]):
        def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.drop(columns=["__bucket"])
            out = rg.union_sweep(pdf, c, others)
            return out[col_order]

        return sweep

    for c in cols:
        others = [o for o in cols if o != c]
        sweep = _make_sweep(c, others)

        if others:
            bucket = F.pmod(
                F.xxhash64(
                    *[F.col(rg.lo(o)) for o in others]
                    + [F.col(rg.hi(o)) for o in others]
                ),
                F.lit(n_buckets),
            )
        else:
            bucket = F.lit(0)
        t = t.withColumn("__bucket", bucket).groupBy("__bucket").applyInPandas(
            sweep, out_schema
        )
    return t


def chain_query_spark(
    spark: SparkSession,
    qdf: pd.DataFrame,
    tables: list[tuple[DataFrame, LineageSchema]],
    *,
    bucket_width: int = 64,
    merge: bool = True,
) -> DataFrame:
    """Process a query along a path of Spark-resident compressed tables."""
    cur = query_to_spark(spark, qdf)
    for step, (cdf, schema) in enumerate(tables):
        if step > 0:
            prev_vals = tables[step - 1][1].val_cols
            if len(prev_vals) != len(schema.key_cols):
                raise ValueError(f"path step {step}: axis count mismatch")
            sel = []
            for pv, k in zip(prev_vals, schema.key_cols):
                sel.append(F.col(rg.lo(pv)).alias(f"{_PFX}{rg.lo(k)}"))
                sel.append(F.col(rg.hi(pv)).alias(f"{_PFX}{rg.hi(k)}"))
            cur = cur.select(*sel)
        cur = theta_join_spark(
            cur, cdf, schema, bucket_width=bucket_width, merge=merge
        )
    return cur


def collect_cells(result: DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand a Spark interval result into distinct cells (driver-side)."""
    from repro.insitu.theta_join import intervals_to_cells

    pdf = result.toPandas()
    if pdf.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    return intervals_to_cells(pdf, cols)
