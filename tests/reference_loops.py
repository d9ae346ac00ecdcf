"""Row-at-a-time reference implementations of vectorized kernel loops.

These are the straightforward Python loops that ``provrc._scan_key_pass``,
``provrc._encode_key_pass`` and ``ranges.union_sweep`` replace with
whole-column numpy, the cross-product θ-join that
``theta_join._range_join`` replaces with a sort-based interval join,
the pandas gaps-and-islands step 1 that ``provrc._encode_values`` and
``provrc.encode_query`` replace with ``ranges.union_sweep``, the
``drop_duplicates`` plus ``sort_rows`` that ``ranges.distinct_rows``
replaces with one packed sort, and a per-step frame loop (one-table
``chain_query`` calls, relabelled between steps) for the multi-table
``theta_join.chain_query``, which carries one int64 matrix from step to
step. The loops address
attributes by name (``_candidates``, ``_orderings`` and ``_changed`` are
the name-based forms of the kernel's index-based helpers), on frames
whose columns the kernel's matrices carry as rows. Tests compare the two
on random inputs; nothing in ``src/`` imports this module.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import ranges as rg
from repro.core.model import LineageSchema
from repro.core.provrc import absolute_values, interval_columns, value_columns
from repro.insitu.theta_join import chain_query, merge_intervals


def _candidates(val: str, key_cols: tuple[str, ...]) -> list[str]:
    """Representation candidates for one value attribute (abs + all deltas)."""
    return [val] + [rg.delta(val, k) for k in key_cols]


def _orderings(val_cols: tuple[str, ...]) -> list[tuple[tuple[str, ...], str]]:
    """``provrc._orderings`` by name: ``(value-column order, mode)``."""
    orderings: list[tuple[tuple[str, ...], str]] = [((), "abs")]
    for i in range(len(val_cols)):
        rot = tuple(val_cols[i:] + val_cols[:i])
        orderings.append((rot, "abs"))
        orderings.append((rot, "delta"))
    return orderings


def _changed(df: pd.DataFrame, attrs: list[str]) -> np.ndarray:
    """``ranges.changed`` over the ``lo``/``hi`` columns of ``attrs``."""
    m = df[[c for a in attrs for c in (rg.lo(a), rg.hi(a))]].to_numpy().T
    return rg.changed(m, range(len(m)))


def sort_rows(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Rows of ``df`` sorted by ``cols``, stable, NaN last, fresh index:
    ``df.sort_values(cols, kind="mergesort")`` from one ``np.lexsort`` over
    the raw columns."""
    out = df.take(np.lexsort([df[c].to_numpy() for c in reversed(cols)]))
    out.index = pd.RangeIndex(len(out))
    return out


def to_intervals(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Scalar integer columns -> degenerate ``[v, v]`` interval columns."""
    out = {}
    for c in cols:
        v = df[c].to_numpy(dtype="float64")
        out[rg.lo(c)] = v
        out[rg.hi(c)] = v
    return pd.DataFrame(out)


def encode_value_pass(df: pd.DataFrame, target: str, other_cols: list[str]) -> pd.DataFrame:
    """One step-1 pass: merge maximal runs of consecutive ``target``
    values whose every other attribute matches exactly (gaps and islands:
    each run keeps its first row, with the ``hi`` of its last row)."""
    if df.empty:
        return df
    sort_cols = []
    for c in other_cols:
        sort_cols += [rg.lo(c), rg.hi(c)]
    sort_cols.append(rg.lo(target))
    df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    t_lo = df[rg.lo(target)].to_numpy()
    t_hi = df[rg.hi(target)].to_numpy()
    new_run = _changed(df, other_cols)
    new_run[1:] |= t_lo[1:] != t_hi[:-1] + 1
    starts = np.flatnonzero(new_run)
    out = df.iloc[starts].reset_index(drop=True)
    out[rg.hi(target)] = t_hi[np.append(starts[1:], len(df)) - 1]
    return out


def range_encode(df: pd.DataFrame, targets: list[str], cols: list[str]) -> pd.DataFrame:
    """Deduplicated scalar ``cols`` range-encoded by one
    ``encode_value_pass`` per target, last first (float64 intervals)."""
    work = to_intervals(df.drop_duplicates(subset=cols), cols)
    for target in reversed(targets):
        work = encode_value_pass(work, target, [c for c in cols if c != target])
    return work


def encode_values_reference(df: pd.DataFrame, schema: LineageSchema) -> pd.DataFrame:
    """Step 1 over the value attributes, then every ``value - key`` delta."""
    cols = list(schema.key_cols) + list(schema.val_cols)
    work = range_encode(df, list(schema.val_cols), cols)
    for v in schema.val_cols:
        for k in schema.key_cols:
            d = rg.delta(v, k)
            work[rg.lo(d)] = work[rg.lo(v)] - work[rg.lo(k)]
            work[rg.hi(d)] = work[rg.hi(v)] - work[rg.lo(k)]
    return work


def scan_key_pass_loop(
    df: pd.DataFrame,
    target: str,
    other_keys: list[str],
    sort_val_order: tuple[str, ...],
    val_cols: tuple[str, ...],
    key_cols: tuple[str, ...],
    sort_mode: str = "abs",
) -> pd.DataFrame:
    """The greedy step-2 scan, one run per loop iteration."""
    cand_cols = [c for v in val_cols for c in _candidates(v, key_cols)]
    sort_cols = []
    for c in other_keys:
        sort_cols += [rg.lo(c), rg.hi(c)]
    for v in sort_val_order:
        if sort_mode == "delta":
            for k in key_cols:
                d = rg.delta(v, k)
                sort_cols += [rg.lo(d), rg.hi(d)]
        else:
            sort_cols += [rg.lo(v), rg.hi(v)]
    sort_cols.append(rg.lo(target))
    for c in cand_cols:
        if rg.lo(c) not in sort_cols:
            sort_cols += [rg.lo(c), rg.hi(c)]
    df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    n = len(df)

    t_lo = df[rg.lo(target)].to_numpy()
    t_hi = df[rg.hi(target)].to_numpy()
    grp = _changed(df, other_keys) if other_keys else np.zeros(n, dtype=bool)
    contig = np.zeros(n, dtype=bool)
    contig[1:] = t_lo[1:] == t_hi[:-1] + 1
    hard = grp | ~contig
    hard[0] = True
    next_hard = rg.next_true_at_or_after(hard)

    next_brk = {c: rg.next_true_at_or_after(_changed(df, [c])) for c in cand_cols}
    notnull = {c: ~np.isnan(df[rg.lo(c)].to_numpy()) for c in cand_cols}

    starts: list[int] = []
    ends: list[int] = []
    s = 0
    while s < n:
        e = next_hard[s + 1] - 1 if s + 1 < n else n - 1
        for v in val_cols:
            ext_v = s
            for c in _candidates(v, key_cols):
                if notnull[c][s]:
                    ext_c = (next_brk[c][s + 1] - 1) if s + 1 < n else n - 1
                    ext_v = max(ext_v, ext_c)
            e = min(e, ext_v)
        starts.append(s)
        ends.append(e)
        s = e + 1

    s_arr = np.asarray(starts)
    e_arr = np.asarray(ends)
    out = df.iloc[s_arr].reset_index(drop=True)
    out[rg.hi(target)] = t_hi[e_arr]
    for c in cand_cols:
        survived = notnull[c][s_arr] & (
            np.where(s_arr + 1 < n, next_brk[c][np.minimum(s_arr + 1, n - 1)], n) > e_arr
        )
        dead = ~survived
        if dead.any():
            out.loc[dead, [rg.lo(c), rg.hi(c)]] = np.nan
    return out


def encode_key_pass_all_orderings(
    df: pd.DataFrame,
    target: str,
    other_keys: list[str],
    val_cols: tuple[str, ...],
    key_cols: tuple[str, ...],
) -> pd.DataFrame:
    """A key pass that scans every ordering and picks per group by tuple sets."""
    grp_cols = [c for k in other_keys for c in (rg.lo(k), rg.hi(k))]
    best: pd.DataFrame | None = None
    for order, mode in _orderings(val_cols):
        out = scan_key_pass_loop(df, target, other_keys, order, val_cols, key_cols, mode)
        if best is None:
            best = out
            continue
        if not grp_cols:
            if len(out) < len(best):
                best = out
            continue
        counts_new = out.groupby(grp_cols, dropna=False, sort=False).size()
        counts_old = best.groupby(grp_cols, dropna=False, sort=False).size()
        better = counts_new[counts_new < counts_old.reindex(counts_new.index)].index
        if len(better):
            better_set = set(better if isinstance(better, pd.MultiIndex) else [(b,) for b in better])
            key_new = out[grp_cols].apply(tuple, axis=1)
            key_old = best[grp_cols].apply(tuple, axis=1)
            best = pd.concat(
                [best[~key_old.isin(better_set)], out[key_new.isin(better_set)]],
                ignore_index=True,
            )
    return best.reset_index(drop=True)


def union_sweep_loop(df: pd.DataFrame, col: str, group_cols: list[str]) -> pd.DataFrame:
    """Union of overlapping or adjacent intervals per group, one row per step."""
    if df.empty:
        return df
    sort_cols = [rg.lo(g) for g in group_cols] + [rg.hi(g) for g in group_cols]
    sort_cols += [rg.lo(col), rg.hi(col)]
    df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    grp = _changed(df, group_cols) if group_cols else np.zeros(len(df), dtype=bool)
    grp[0] = True
    lo_v = df[rg.lo(col)].to_numpy()
    hi_v = df[rg.hi(col)].to_numpy()
    run_start = np.zeros(len(df), dtype=bool)
    run_max = -np.inf
    for t in range(len(df)):
        if grp[t] or lo_v[t] > run_max + 1:
            run_start[t] = True
            run_max = hi_v[t]
        else:
            run_max = max(run_max, hi_v[t])
    run_id = np.cumsum(run_start)
    agg = {c: "first" for c in df.columns}
    agg[rg.hi(col)] = "max"
    return df.groupby(run_id, sort=False).agg(agg).reset_index(drop=True)


def merge_intervals_loop(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Row-reduction as a dedupe, then one row-at-a-time sweep per attribute."""
    if df.empty:
        return df
    df = df.drop_duplicates().reset_index(drop=True)
    for c in cols:
        df = union_sweep_loop(df, c, [o for o in cols if o != c])
    return df.reset_index(drop=True)


def overlap_join_cross(qdf: pd.DataFrame, cdf: pd.DataFrame, key_cols: tuple[str, ...]) -> pd.DataFrame:
    """Table rows paired with every query row whose key intervals all
    overlap theirs, each key interval cut to the intersection.

    Enumerates every (query row, table row) index pair, filtered one key
    axis at a time: O(|query| x |table|) memory.
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


def theta_join_cross(
    qdf: pd.DataFrame, cdf: pd.DataFrame, schema: LineageSchema, *, merge: bool = True
) -> pd.DataFrame:
    """One θ-join over the cross product, merged by ``merge_intervals_loop``."""
    joined = overlap_join_cross(qdf, cdf, schema.key_cols)
    n_key = len(schema.key_cols)
    keys = joined[interval_columns(schema)[: 2 * n_key]].to_numpy(np.int64)
    vals = joined[interval_columns(schema)[2 * n_key :]].to_numpy(np.int64)
    t = pd.DataFrame(
        absolute_values(vals, keys[:, 0::2], keys[:, 1::2]), columns=value_columns(schema)
    )
    return merge_intervals_loop(t, list(schema.val_cols)) if merge else t


def chain_query_stepwise(
    qdf: pd.DataFrame,
    tables: list[tuple[pd.DataFrame, LineageSchema]],
    *,
    merge: bool = True,
) -> pd.DataFrame:
    """A chained query with one frame per step: a one-table ``chain_query``
    without the merge, then ``merge_intervals`` on its matrix, then a
    positional ``set_axis`` to relabel the result as the next table's
    keys."""
    cur = qdf
    for step, (cdf, schema) in enumerate(tables):
        if step > 0:
            cur = cur.set_axis(interval_columns(schema)[: 2 * schema.n_key], axis=1)
        cur = chain_query(cur, [(cdf, schema)], merge=False)
        if merge:
            cur = pd.DataFrame(merge_intervals(cur.to_numpy(np.int64)), columns=cur.columns)
    return cur
