"""Spark-parallel ProvRC compression (paper §VII.C.2: "ProvRC is highly
parallelizable, so we expect significant performance gains from a
multi-threaded implementation").

Parallelization is semantics-preserving because every merge performed by
an encoding pass happens inside a group whose key columns are exactly
equal; bucketing rows by a hash of those key columns therefore never
splits a merge group, and the pandas kernel re-groups by exact values
inside each bucket. Concretely:

- step-1 passes (value encoding) all group on "every key column equal"
  (plus other value columns, handled inside the kernel), so one shuffle
  on ``hash(key columns)`` parallelizes the whole phase;
- each step-2 pass on key ``k_j`` groups on the *other* key columns, so
  it gets its own shuffle on ``hash(other keys)``; with a single key
  axis the pass is one global group (a genuinely sequential scan — the
  paper's worst case, e.g. Sort).

Between passes rows travel in the kernel's private candidate form
(doubles, NaN = absent representation). The final ``mapInPandas`` runs
``provrc.finalize`` and emits the finalized layout shared with the kernel
and the file format: ``interval_columns(schema)`` as non-nullable longs,
collectable into the pandas kernel's table or persisted via
``insitu.store``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core import ranges as rg
from repro.core.model import LineageSchema
from repro.core import provrc
from repro.core.provrc import interval_columns

_BUCKET = "__bucket"


def _candidate_columns(schema: LineageSchema) -> list[str]:
    """Columns of the candidate form exchanged between encoding passes."""
    attrs = list(schema.key_cols + schema.val_cols) + [
        rg.delta(v, k) for v in schema.val_cols for k in schema.key_cols
    ]
    return [c for a in attrs for c in (rg.lo(a), rg.hi(a))]


def compress_spark(
    df: DataFrame, schema: LineageSchema, *, n_buckets: int = 64
) -> DataFrame:
    """Compress a full lineage relation (integer columns per axis) with
    ProvRC, executing every encoding pass per-partition in executors."""
    key_cols = list(schema.key_cols)
    val_cols = list(schema.val_cols)
    cand_cols = _candidate_columns(schema)
    out_schema = ", ".join(f"`{c}` double" for c in cand_cols)

    df = df.dropDuplicates(list(schema.full_cols))

    # Phase A: all step-1 (value) passes, bucketed by the key columns.
    def step1(pdf: pd.DataFrame) -> pd.DataFrame:
        return provrc._encode_values(pdf.drop(columns=[_BUCKET]), schema)[cand_cols]

    bucketed = df.withColumn(
        _BUCKET, F.pmod(F.xxhash64(*[F.col(c) for c in key_cols]), F.lit(n_buckets))
    )
    work = bucketed.groupBy(_BUCKET).applyInPandas(step1, out_schema)

    # Phase B: one shuffle + kernel pass per key attribute.
    def _make_key_pass(target: str, others: list[str]):
        def key_pass(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.drop(columns=[_BUCKET])
            out = provrc._encode_key_pass(
                pdf, target, others, tuple(val_cols), tuple(key_cols)
            )
            return out[cand_cols]

        return key_pass

    for j in range(len(key_cols) - 1, -1, -1):
        target = key_cols[j]
        others = [c for c in key_cols if c != target]
        key_pass = _make_key_pass(target, others)

        if others:
            bucket = F.pmod(
                F.xxhash64(*[F.col(rg.lo(c)) for c in others] + [F.col(rg.hi(c)) for c in others]),
                F.lit(n_buckets),
            )
        else:
            bucket = F.lit(0)
        work = (
            work.withColumn(_BUCKET, bucket)
            .groupBy(_BUCKET)
            .applyInPandas(key_pass, out_schema)
        )

    # Finalize: prune each value attribute to one representation
    # (partition-local, no shuffle).
    def fin(it):
        for pdf in it:
            if len(pdf):
                yield provrc.finalize(pdf, schema)

    final_schema = StructType(
        [StructField(c, LongType(), nullable=False) for c in interval_columns(schema)]
    )
    return work.mapInPandas(fin, final_schema)


def collect_compressed(cdf: DataFrame) -> pd.DataFrame:
    """Collect a Spark compressed table into the pandas kernel format."""
    return cdf.toPandas()
