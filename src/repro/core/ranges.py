"""Vectorized interval and run-scan primitives.

Every attribute is a closed integer interval ``[lo, hi]`` stored as two
columns. A finalized compressed table (``provrc.interval_columns``) is all
int64: key ``lo``/``hi`` pairs plus, per value attribute, a ``rep`` code
and the chosen representation's ``lo``/``hi``. Only the candidate matrix
inside ProvRC's step 2 is float64 with NaN = absent; float64 represents
integers exactly up to 2**53, far beyond any array index here.

The primitives are whole-column numpy: ``packed_order`` (a stable sort
on rows of non-negative int64 codes, folded into as few mixed-radix int64
keys as fit, for step 2's scans), ``distinct_rows`` (the sorted distinct
rows of an int64 matrix, by the same packed sort, for ``decompress`` and
``intervals_to_cells``), ``changed`` (a NaN-aware change mask over
matrix rows), next-change indices, and the two pieces of interval
algebra, each on int64 matrices rather than frames and each with a
single implementation: ``union_sweep``, the
multi-attribute range encoding (ProvRC step 1, the query encoding Q' and
the θ-join's merge), and ``cartesian``, the expansion of interval rows
into cells (``decompress`` and ``intervals_to_cells``), built on the
per-attribute ``expand``. None of them loops over rows in Python.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def lo(col: str) -> str:
    """Name of the lower-bound column for logical attribute ``col``."""
    return f"{col}_lo"


def hi(col: str) -> str:
    """Name of the upper-bound column for logical attribute ``col``."""
    return f"{col}_hi"


def rep(col: str) -> str:
    """Name of the representation-code column of value attribute ``col``:
    0 = absolute, 1 + j = relative to key attribute j (the file's codes)."""
    return f"{col}_rep"


def delta(val: str, key: str) -> str:
    """Name of the relative (delta) attribute ``val - key``.

    The paper's prose writes the delta as ``b - a`` but its worked tables
    and ``rel_back`` formula require ``a - b`` (see DESIGN.md); here the
    convention is uniformly ``value - key`` so ``value = key + delta``.
    """
    return f"{val}__{key}"


_KEY_LIMIT = 1 << 62


def _packed_keys(codes: Sequence[np.ndarray], spans: Sequence[int]) -> list[np.ndarray]:
    """Mixed-radix int64 keys over code rows, most significant first.

    ``codes`` are rows of non-negative int64 codes, most significant
    first, each below its ``spans`` entry. Consecutive rows fold into one
    key ``key * span + code`` while the key's radix stays within 2**62; a
    new key starts only where the product would pass that. Constant rows
    (span 1) order nothing and are left out, so the list may be empty.
    Comparing the keys lexicographically compares the rows.
    """
    keys: list[np.ndarray] = []
    key, radix = None, 1
    for code, span in zip(codes, spans):
        if span == 1:
            continue
        if key is not None and radix * span <= _KEY_LIMIT:
            key, radix = key * span + code, radix * span
        else:
            if key is not None:
                keys.append(key)
            key, radix = code, span
    if key is not None:
        keys.append(key)
    return keys


def packed_order(codes: Sequence[np.ndarray], spans: Sequence[int]) -> np.ndarray:
    """Stable order sorting by ``codes[0]``, then ``codes[1]``, and so on.

    The same permutation as ``np.lexsort(codes[::-1])``, from one
    ``np.lexsort`` over the few packed keys of ``_packed_keys`` instead of
    one stable pass per row. ``codes`` must hold at least one row.
    """
    keys = _packed_keys(codes, spans)
    if not keys:
        return np.arange(len(codes[0]))
    return np.lexsort(keys[::-1])


def distinct_rows(cells: np.ndarray) -> np.ndarray:
    """The distinct rows of int64 matrix ``cells``, sorted by column 0,
    then column 1, and so on.

    Each column's codes are its values minus its minimum; the rows are
    put in their ``packed_order``, and a row is kept where its packed keys
    differ from the previous row's. This is ``drop_duplicates`` followed
    by a stable sort, in one sort and with no hashing.
    """
    if len(cells) == 0:
        return cells
    base = cells.min(axis=0)
    codes = np.subtract(cells.T, base[:, None], out=np.empty(cells.shape[::-1], np.int64))
    spans = [int(h) - int(b) + 1 for h, b in zip(cells.max(axis=0), base)]
    keys = _packed_keys(codes, spans)
    if not keys:
        return cells[:1].copy()
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    return cells[order[new]]


def changed(m: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Boolean mask over the columns of matrix ``m``: column t differs from
    column t-1 in any of ``rows``. Column 0 is always marked changed.

    NaN-aware: two NaNs compare equal (same "absent" state); NaN vs value
    is a change.
    """
    out = np.ones(m.shape[1], dtype=bool)
    a = m[list(rows)]
    same = a[:, 1:] == a[:, :-1]
    if a.dtype.kind == "f":
        same |= np.isnan(a[:, 1:]) & np.isnan(a[:, :-1])
    out[1:] = ~same.all(axis=0)
    return out


def next_true_at_or_after(mask: np.ndarray) -> np.ndarray:
    """For each index t, the smallest u >= t with ``mask[u]`` (n if none),
    along the last axis: a 2-D mask is one row per mask.

    Computed with one reversed running minimum, O(n), no Python loop.
    ProvRC step 2 finds every candidate's next break this way, all
    candidates in one call.
    """
    n = mask.shape[-1]
    idx = np.where(mask, np.arange(n), n)
    return np.minimum.accumulate(idx[..., ::-1], axis=-1)[..., ::-1]


def expand(lo_v: np.ndarray, hi_v: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Every integer of every interval ``[lo_v[i], hi_v[i]]``.

    Returns ``(row, value)``: the source row of each integer and the
    integer itself, rows in order and values ascending within a row.
    Vectorized via ``np.repeat``. Raises ``ValueError`` naming attribute
    ``name`` if an interval is empty or inverted.
    """
    counts = (hi_v - lo_v + 1).astype(np.int64)
    if (counts <= 0).any():
        raise ValueError(f"empty or inverted interval in {name}")
    row = np.repeat(np.arange(len(counts)), counts)
    return row, lo_v[row] + (np.arange(len(row)) - (np.cumsum(counts) - counts)[row])


def cartesian(
    lo_m: np.ndarray, hi_m: np.ndarray, names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Every cell of every row's Cartesian product of intervals.

    ``lo_m``/``hi_m`` are int64 matrices with one row per interval row and
    one column per attribute (named by ``names`` for errors). Returns
    ``(row, cells)``: each cell's source row, and the cells as a matrix
    with one column per attribute, rows in order and cells ascending
    within a row. One ``expand`` per attribute.
    """
    row = np.arange(len(lo_m))
    cells = np.empty((len(lo_m), 0), dtype=np.int64)
    for j, name in enumerate(names):
        src, val = expand(lo_m[row, j], hi_m[row, j], name)
        cells = np.column_stack([cells[src], val])
        row = row[src]
    return row, cells


def union_sweep(m: np.ndarray, order: list[int]) -> np.ndarray:
    """Multi-attribute range encoding: merge overlapping or adjacent
    intervals of one attribute at a time, per group of the others.

    ``m`` is an int64 matrix of interval attributes, attribute ``p`` in
    columns ``(2p, 2p + 1)`` as ``(lo, hi)``. The attributes in ``order``
    are swept in that order; each sweep unions the attribute's intervals
    over the rows that match exactly on every other column. This is
    ProvRC's step 1 (values swept last first, keys only grouped on), the
    query encoding Q' (every attribute, last first) and the θ-join's
    row-reduction merge (every attribute, first to last). On scalar input
    it merges runs of consecutive integers, as the paper's range encoding
    does; on overlapping intervals it takes their union. Intervals must be
    valid (``lo <= hi``).

    Each sweep sorts the rows by every other attribute's ``lo``, then
    their ``hi``, then the swept ``lo`` and ``hi`` (one stable
    ``np.lexsort``) and keeps the first row of each run, with ``hi`` the
    run's maximum. Identical rows always fall into one run, so the first
    sweep also drops duplicate rows.
    """
    if len(m) == 0:
        return m
    n_attr = m.shape[1] // 2
    # A pair with hi == lo on every row (a scalar column, as in step 1 and
    # Q') orders and groups rows exactly as its lo does, so its hi is left
    # out of the sort keys and of the group compare.
    wide = (m[:, 0::2] != m[:, 1::2]).any(axis=0)
    for p in order:
        lo_c, hi_c = 2 * p, 2 * p + 1
        others = [g for g in range(n_attr) if g != p]
        group_cols = [2 * g for g in others] + [2 * g + 1 for g in others if wide[g]]
        keys = group_cols + ([lo_c, hi_c] if wide[p] else [lo_c])
        m = m[np.lexsort([m[:, c] for c in reversed(keys)])]
        run_start = np.zeros(len(m), dtype=bool)
        run_start[0] = True
        for c in group_cols:
            run_start[1:] |= m[1:, c] != m[:-1, c]
        lo_v = m[:, lo_c]
        hi_v = m[:, hi_c]
        # An interval starts a new run iff its group changed or its lo
        # exceeds (running max of hi over the group's earlier rows) + 1.
        # The running max never crosses a group: each group's hi is lifted
        # above every earlier group's by its group id times the value range.
        gid = np.cumsum(run_start) - 1
        base = hi_v.min()
        width = hi_v.max() - base + 1
        lifted = gid * width + (hi_v - base)
        run_max = np.maximum.accumulate(lifted) - gid * width + base
        run_start[1:] |= lo_v[1:] > run_max[:-1] + 1
        starts = np.flatnonzero(run_start)
        out = m[starts]
        out[:, hi_c] = np.maximum.reduceat(hi_v, starts)
        m = out
        wide[p] = True
    return m
