"""Compressed-lineage Parquet store with predicate pushdown.

The repro band asks for ProvRC as "a custom Parquet/columnar FileFormat
with predicate pushdown executed per-partition in Spark executors". A
true JVM DataSourceV2 is out of scope (DESIGN.md §6); instead compressed
tables are persisted as Parquet range-partitioned and sorted on the
primary key attribute's lower bound, so a query step's hull predicate
``k_hi >= q_lo AND k_lo <= q_hi`` (``overlapping``):

- is pushed into the Parquet scan (visible as PushedFilters in the
  physical plan), and
- prunes row groups via their min/max statistics, because sorting makes
  the lo/hi columns clustered.

Schema metadata (direction, axis counts) travels in a sidecar JSON.
"""
from __future__ import annotations

import json
from pathlib import Path

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core import ranges as rg
from repro.core.model import LineageSchema, backward_schema, forward_schema


def write_store(cdf: DataFrame, schema: LineageSchema, path: str | Path) -> None:
    path = Path(path)
    primary = schema.key_cols[0]
    n_parts = max(1, min(16, cdf.rdd.getNumPartitions()))
    (
        cdf.repartitionByRange(n_parts, F.col(rg.lo(primary)))
        .sortWithinPartitions(rg.lo(primary))
        .write.mode("overwrite")
        .parquet(str(path / "data"))
    )
    meta = {
        "direction": schema.direction,
        "n_key": schema.n_key,
        "n_val": schema.n_val,
    }
    (path / "schema.json").write_text(json.dumps(meta))


def read_schema(path: str | Path) -> LineageSchema:
    meta = json.loads((Path(path) / "schema.json").read_text())
    if meta["direction"] == "backward":
        return backward_schema(meta["n_key"], meta["n_val"])
    return forward_schema(meta["n_val"], meta["n_key"])


def open_store(spark: SparkSession, path: str | Path) -> tuple[DataFrame, LineageSchema]:
    schema = read_schema(path)
    return spark.read.parquet(str(Path(path) / "data")), schema


def overlapping(df: DataFrame, schema: LineageSchema, lo: int, hi: int) -> DataFrame:
    """Rows of a compressed table whose primary key interval overlaps [lo, hi].

    The filter references only stored columns, so on a table from
    ``open_store`` Catalyst pushes it to the Parquet data source
    (row-group stats pruning on the sorted primary column).
    """
    primary = schema.key_cols[0]
    return df.filter(
        (F.col(rg.hi(primary)) >= int(lo)) & (F.col(rg.lo(primary)) <= int(hi))
    )


def pushed_filters(df: DataFrame) -> str:
    """The PushedFilters fragment of the physical plan (for tests)."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    for line in plan.splitlines():
        if "PushedFilters" in line:
            return line.strip()
    return ""
