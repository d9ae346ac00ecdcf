"""The θ-join over compressed lineage tables (paper §V.B), pandas kernel.

A query is a table of intervals over the key attributes of a compressed
table (the paper's Q', produced by ``provrc.encode_query``). One θ-join:

1. **Range join** — join rows whose key intervals all overlap, keeping
   the per-attribute intersections. Because each compressed row is
   all-to-all between its intervals (in relative space for relative
   attributes), intersecting the key side preserves exactly the lineage
   of the queried cells (paper Fig 4).
2. **De-relativize** — rebuild absolute value intervals: an attribute
   stored relative to key ``k`` with delta ``[d1, d2]`` and intersected
   key interval ``[x1, x2]`` covers exactly ``[x1 + d1, x2 + d2]`` (the
   union of shifted intervals over a contiguous key range is one
   interval). This is the paper's ``rel_back``; the forward direction
   uses the same formula on the forward representation (DESIGN.md
   explains why the paper's separate ``rel_for`` is not needed).
3. **Project + merge** — keep only the next array's attributes and merge
   overlapping/adjacent intervals per group (the paper's row-reduction
   optimization; skipping it gives the DSLog-NoMerge baseline).

Chained queries repeat the θ-join along the path, renaming each result's
axes to the next table's key attributes positionally (the arrays are the
same, only the role flips from "output of op k" to "input of op k+1").
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import ranges as rg
from repro.core.model import LineageSchema
from repro.core.provrc import absolute_values


def _overlap_join(qdf: pd.DataFrame, cdf: pd.DataFrame, key_cols: tuple[str, ...]) -> pd.DataFrame:
    """Cross-join + overlap filter + per-key intersection (kernel path).

    Quadratic but only used by the pandas kernel on small tables and as
    the per-partition leaf of the Spark bucketed range join; the Spark
    driver never materializes the full cross product.
    """
    q = qdf.add_prefix("q__")
    left = q.merge(cdf, how="cross")
    keep = np.ones(len(left), dtype=bool)
    for k in key_cols:
        keep &= (left[f"q__{rg.lo(k)}"] <= left[rg.hi(k)]).to_numpy()
        keep &= (left[rg.lo(k)] <= left[f"q__{rg.hi(k)}"]).to_numpy()
    left = left.loc[keep].reset_index(drop=True)
    for k in key_cols:
        left[rg.lo(k)] = np.maximum(left[rg.lo(k)], left[f"q__{rg.lo(k)}"])
        left[rg.hi(k)] = np.minimum(left[rg.hi(k)], left[f"q__{rg.hi(k)}"])
    return left.drop(columns=[c for c in left.columns if c.startswith("q__")])


def _derelativize(joined: pd.DataFrame, schema: LineageSchema) -> pd.DataFrame:
    """Convert every value attribute of the joined table to absolute intervals."""
    return absolute_values(
        joined,
        schema,
        [joined[rg.lo(k)].to_numpy() for k in schema.key_cols],
        [joined[rg.hi(k)].to_numpy() for k in schema.key_cols],
    )


def merge_intervals(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Row-reduction: dedupe, then union-sweep each attribute in turn."""
    if df.empty:
        return df
    df = df.drop_duplicates().reset_index(drop=True)
    for c in cols:
        others = [o for o in cols if o != c]
        df = rg.union_sweep(df, c, others)
    return df.reset_index(drop=True)


def theta_join(
    qdf: pd.DataFrame,
    cdf: pd.DataFrame,
    schema: LineageSchema,
    *,
    merge: bool = True,
) -> pd.DataFrame:
    """One θ-join: returns absolute intervals over ``schema.val_cols``."""
    joined = _overlap_join(qdf, cdf, schema.key_cols)
    t = _derelativize(joined, schema)
    if merge:
        t = merge_intervals(t, list(schema.val_cols))
    return t


def chain_query(
    qdf: pd.DataFrame,
    tables: list[tuple[pd.DataFrame, LineageSchema]],
    *,
    merge: bool = True,
) -> pd.DataFrame:
    """Process a query along a path of compressed tables (left to right).

    ``qdf`` holds intervals over the first table's key attributes. Each
    step's result is renamed positionally to the next table's key
    attributes. Returns absolute intervals over the last table's value
    attributes.
    """
    cur = qdf
    for step, (cdf, schema) in enumerate(tables):
        if step > 0:
            prev_vals = tables[step - 1][1].val_cols
            if len(prev_vals) != len(schema.key_cols):
                raise ValueError(
                    f"path step {step}: axis count mismatch "
                    f"({len(prev_vals)} vs {len(schema.key_cols)})"
                )
            renames = {}
            for pv, k in zip(prev_vals, schema.key_cols):
                renames[rg.lo(pv)] = rg.lo(k)
                renames[rg.hi(pv)] = rg.hi(k)
            cur = cur.rename(columns=renames)
        cur = theta_join(cur, cdf, schema, merge=merge)
    return cur


def intervals_to_cells(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand an interval result into distinct cells (for display/oracle)."""
    work = df.copy().reset_index(drop=True)
    for c in cols:
        work = rg.explode_interval(work, c, c)
    out = work[cols].astype("int64").drop_duplicates()
    return out.sort_values(cols, kind="mergesort").reset_index(drop=True)
