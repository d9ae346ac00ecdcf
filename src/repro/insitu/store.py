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

Schema metadata (direction, axis counts) travels in a sidecar JSON. The
stored columns are always ``provrc.interval_columns(schema)`` as longs
(``write_store`` refuses any other frame), so ``open_store`` hands that
schema to the reader instead of having Spark infer it from the Parquet
footers, which costs one Spark job per open.
"""
from __future__ import annotations

import json
from pathlib import Path

from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core import ranges as rg
from repro.core.model import LineageSchema, schema_of
from repro.core.provrc import interval_columns


def _longs(schema: LineageSchema) -> StructType:
    """The stored schema: ``interval_columns(schema)`` as longs."""
    return StructType([StructField(c, LongType()) for c in interval_columns(schema)])


def write_store(cdf: DataFrame, schema: LineageSchema, path: str | Path) -> None:
    """Persist a finalized table, range-partitioned and sorted on the
    primary key's ``lo``.

    ``cdf`` must have exactly ``interval_columns(schema)``, in that order,
    as longs (any nullability), which is what ``compress_spark`` returns;
    any other frame raises ``ValueError``, so every store holds the schema
    ``open_store`` declares.
    """
    path = Path(path)
    given = [(f.name, f.dataType) for f in cdf.schema]
    if given != [(f.name, f.dataType) for f in _longs(schema)]:
        raise ValueError(
            f"write_store needs interval_columns(schema) as longs, in order; got {given}"
        )
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
    return schema_of(meta["direction"], meta["n_key"], meta["n_val"])


def open_store(spark: SparkSession, path: str | Path) -> tuple[DataFrame, LineageSchema]:
    """A store's table and schema; the Parquet schema comes from
    ``schema.json``, not from a scan of the footers."""
    schema = read_schema(path)
    return spark.read.schema(_longs(schema)).parquet(str(Path(path) / "data")), schema


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
