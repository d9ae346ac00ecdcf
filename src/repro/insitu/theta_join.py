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
    """Table rows paired with every query row whose key intervals all
    overlap theirs, each key interval cut to the intersection.

    Quadratic in |query| x |table|, but only in (query row, table row)
    index pairs, filtered one key axis at a time before any table column
    is gathered. Spark runs it per partition of the table after filtering
    on the query's primary-key hull, so only the overlapping partitions
    pay it; a sort-based interval join is an open ROADMAP item.
    """
    qi = np.repeat(np.arange(len(qdf)), len(cdf))
    ri = np.tile(np.arange(len(cdf)), len(qdf))
    for k in key_cols:
        q_lo, q_hi = qdf[rg.lo(k)].to_numpy(), qdf[rg.hi(k)].to_numpy()
        r_lo, r_hi = cdf[rg.lo(k)].to_numpy(), cdf[rg.hi(k)].to_numpy()
        keep = (q_lo[qi] <= r_hi[ri]) & (r_lo[ri] <= q_hi[qi])
        qi, ri = qi[keep], ri[keep]
    out = cdf.take(ri).reset_index(drop=True)
    for k in key_cols:
        out[rg.lo(k)] = np.maximum(out[rg.lo(k)].to_numpy(), qdf[rg.lo(k)].to_numpy()[qi])
        out[rg.hi(k)] = np.minimum(out[rg.hi(k)].to_numpy(), qdf[rg.hi(k)].to_numpy()[qi])
    return out


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
            cur = as_next_query(cur, tables[step - 1][1], schema)
        cur = theta_join(cur, cdf, schema, merge=merge)
    return cur


def as_next_query(
    result: pd.DataFrame, prev: LineageSchema, schema: LineageSchema
) -> pd.DataFrame:
    """Rename a step's result (over ``prev.val_cols``) positionally to the
    key attributes of the next table, ``schema.key_cols``."""
    if len(prev.val_cols) != len(schema.key_cols):
        raise ValueError(
            f"path axis count mismatch ({len(prev.val_cols)} vs {len(schema.key_cols)})"
        )
    renames = {}
    for pv, k in zip(prev.val_cols, schema.key_cols):
        renames[rg.lo(pv)] = rg.lo(k)
        renames[rg.hi(pv)] = rg.hi(k)
    return result.rename(columns=renames)


def intervals_to_cells(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Expand an interval result into distinct cells (for display/oracle)."""
    work = df.copy().reset_index(drop=True)
    for c in cols:
        work = rg.explode_interval(work, c, c)
    out = work[cols].astype("int64").drop_duplicates()
    return out.sort_values(cols, kind="mergesort").reset_index(drop=True)
