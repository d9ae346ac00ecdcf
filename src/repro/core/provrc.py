"""The ProvRC lineage-compression kernel (paper §IV), in pandas/numpy.

The kernel is generic over attribute *roles* (see ``model``): step 1
range-encodes the value attributes (``ranges.union_sweep``, the same
range encoding the query encoding and the θ-join's merge use), step 2
applies the relative value transformation (``delta = value - key``) and
range-encodes the key attributes with the paper's "exists a constant
representation" rule.
Running it with key=B/value=A yields the backward table, with key=A/value=B
the forward table (§IV.C), from a single implementation.

Two deliberate refinements over the paper's prose, both documented in
DESIGN.md:

- the delta sign is ``value - key`` (the paper's tables and ``rel_back``
  require it, its prose says the opposite);
- during step-2 passes *all* surviving representations of a value
  attribute are retained (one float64 candidate matrix, NaN = absent),
  and pruning to a single representation happens in ``finalize``. Pruning
  eagerly (as a literal reading suggests) would destroy later merge
  opportunities — e.g. the paper's own forward table (Table III) is only
  reachable if the ``b-a`` delta survives the first output pass even
  though the absolute value also survived it.

Step 2 works on one float64 ``(2·n_attr, n)`` C-order candidate matrix,
the orientation of the int64 matrix ``finalize`` and
``storage.deserialize`` fill: its rows follow ``candidate_columns(schema)``
(keys, values, then the ``value - key`` deltas), attribute ``p`` is rows
``2p, 2p + 1``, and every step-2 function addresses attributes by index.

``finalize`` emits the only post-compression layout, shared by the
kernel, the file format (``storage``) and Spark: all int64 columns
``interval_columns(schema)`` — ``k_lo, k_hi`` per key attribute, then
``v_rep, v_lo, v_hi`` per value attribute, where ``v_rep`` is 0 for an
absolute interval and ``1 + j`` for a delta relative to key ``j``.

Losslessness: a compressed row denotes the tuple set obtained by expanding
key ranges (Cartesian) and then each value attribute either from its
absolute range (Cartesian) or as ``key + delta`` per expanded key value.
Every merge performed here preserves that expansion exactly;
``decompress`` implements it with ``ranges.cartesian`` (the expansion
``intervals_to_cells`` uses) and the round trip is property-tested.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

import numpy as np
import pandas as pd

from repro.core import ranges as rg
from repro.core.model import LineageSchema


def _candidates(i: int, n_key: int, n_val: int) -> list[int]:
    """Representation candidates of value ``i`` as candidate-form attribute
    indices: its absolute interval, then its delta against each key."""
    first = n_key + n_val + i * n_key
    return [n_key + i] + list(range(first, first + n_key))


def _orderings(n_val: int) -> list[tuple[tuple[int, ...], str]]:
    """The sort orderings a key pass tries, in order, as
    ``(value-index order, mode)``; the greedy scan is order-dependent
    and no single sort serves every pattern:

    - ``((), "abs")``: target first — delta-run friendly (tile offsets);
    - ``(rot, "abs")``: one value's absolute interval first — clusters
      same-value runs (cross's a1 in {0, 2});
    - ``(rot, "delta")``: one value's delta intervals first — clusters
      same-shift runs when a key has several deltas (gradient's i-1 /
      i+1 windows).
    """
    orderings: list[tuple[tuple[int, ...], str]] = [((), "abs")]
    for i in range(n_val):
        rot = tuple(range(i, n_val)) + tuple(range(i))
        orderings.append((rot, "abs"))
        orderings.append((rot, "delta"))
    return orderings


def _pairs(attrs: Iterable[int]) -> list[int]:
    """Candidate-matrix rows (``lo``, ``hi``) of attribute indices ``attrs``."""
    return [r for a in attrs for r in (2 * a, 2 * a + 1)]


def _codes(m: np.ndarray) -> tuple[np.ndarray, list[int], dict[int, np.ndarray]]:
    """The candidate matrix as non-negative int64 codes, one code row per
    matrix row.

    A row's codes are its values minus the row's minimum, and NaN (an
    absent representation) is one past the row's maximum, so codes sort
    and compare as the float values do (NaN last, NaN equal to NaN).
    Returns the codes, each row's span (one past its largest code) and,
    for each attribute absent in some column, its absent mask (an
    attribute's ``lo`` and ``hi`` are absent together). Rows that hold no
    NaN take one subtraction; only the others pay for NaN handling.

    A ``hi`` row whose codes equal its ``lo`` row's (a scalar attribute,
    or any fixed width) orders and changes exactly where the ``lo`` row
    does, so its span is given as 1: sorts leave it out, as they leave
    out a constant row, and no change mask compares it.
    """
    lo_v, hi_v = m.min(axis=1), m.max(axis=1)
    absent = {}
    for a in np.flatnonzero(np.isnan(lo_v[0::2])).tolist():
        absent[a] = np.isnan(m[2 * a])
        for r in (2 * a, 2 * a + 1):
            lo_v[r], hi_v[r] = np.fmin.reduce(m[r]), np.fmax.reduce(m[r]) + 1
            if np.isnan(lo_v[r]):
                lo_v[r] = hi_v[r] = 0
    codes = np.empty(m.shape, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        np.subtract(m, lo_v[:, None], out=codes, casting="unsafe")
    for a, miss in absent.items():
        for r in (2 * a, 2 * a + 1):
            codes[r, miss] = int(hi_v[r] - lo_v[r])
    spans = [int(h) - int(lo) + 1 for h, lo in zip(hi_v, lo_v)]
    for r in range(1, len(m), 2):
        if spans[r] == spans[r - 1] and np.array_equal(codes[r], codes[r - 1]):
            spans[r] = 1
    return codes, spans, absent


def _run_floor(
    m: np.ndarray,
    coded: tuple[np.ndarray, list[int], dict[int, np.ndarray]],
    target: int,
    n_key: int,
    n_val: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A lower bound on the rows any ordering's scan leaves in each group
    of the other keys, and the group number of each column of ``m``
    (groups numbered in the order every scan's output lists them).

    ``coded`` is ``_codes(m)``, and the target must be scalar, as it is in
    its own pass (only that pass range-encodes it): the bound reads
    adjacency off the target's ``lo`` alone. A *block* is the rows of a
    group that share one target value. Between two consecutive target
    values of a group there is a *cut* when they are not adjacent, or
    when both blocks are single rows and, for some value attribute, the
    two rows share no present candidate with equal codes. The consecutive
    rows of a run have adjacent targets and share a constant candidate
    for every value attribute, so no run crosses a cut, and a run holds at
    most one row of each block: a group needs at least, per cut-separated
    piece, as many runs as the piece's largest block has rows.
    """
    codes, spans, absent = coded
    assert np.array_equal(m[2 * target], m[2 * target + 1]), "the target key must be scalar"
    grp = _pairs(k for k in range(n_key) if k != target)
    keys = grp + [2 * target]
    perm = rg.packed_order([codes[r] for r in keys], [spans[r] for r in keys])
    n = len(perm)
    new_grp = np.zeros(n, dtype=bool)
    new_grp[0] = True
    for r in grp:
        if spans[r] > 1:
            code = codes[r].take(perm)
            new_grp[1:] |= code[1:] != code[:-1]
    t = codes[2 * target].take(perm)
    step = t[1:] - t[:-1]
    new_blk = new_grp.copy()
    new_blk[1:] |= step != 0
    cut = new_grp.copy()
    cut[1:] |= step > 1
    starts = np.flatnonzero(new_blk)
    sizes = np.diff(starts, append=n)

    # Cuts between two single-row blocks that share no constant candidate
    # for some value attribute.
    pair = starts[1:][(sizes[1:] == 1) & (sizes[:-1] == 1) & ~cut[starts[1:]]]
    if len(pair):
        a, b = perm[pair - 1], perm[pair]
        for i in range(n_val):
            shared = np.zeros(len(pair), dtype=bool)
            for c in _candidates(i, n_key, n_val):
                same = np.ones(len(pair), dtype=bool)
                for r in _pairs([c]):
                    if spans[r] > 1:
                        same &= codes[r].take(a) == codes[r].take(b)
                if c in absent:
                    same &= ~absent[c].take(a) & ~absent[c].take(b)
                shared |= same
            cut[pair[~shared]] = True

    piece = np.flatnonzero(cut[starts])
    most = np.maximum.reduceat(sizes, piece)
    floor = np.add.reduceat(most, np.flatnonzero(new_grp[starts[piece]]))
    gid = np.empty(n, dtype=np.int64)
    gid[perm] = np.cumsum(new_grp) - 1
    return floor, gid


def _take_columns(
    m: np.ndarray, coded: tuple[np.ndarray, list[int], dict[int, np.ndarray]], cols: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, list[int], dict[int, np.ndarray]]]:
    """The columns ``cols`` (a mask) of ``m`` and of its ``_codes``. The
    spans stay those of the whole matrix: every code stays below its
    span, and a row constant on the whole is constant on the subset."""
    codes, spans, absent = coded
    sub = (codes.compress(cols, axis=1), spans, {a: miss[cols] for a, miss in absent.items()})
    return m.compress(cols, axis=1), sub


def _encode_key_pass(m: np.ndarray, target: int, n_key: int, n_val: int) -> np.ndarray:
    """One range-encoding pass over key attribute ``target`` (paper §IV.A
    step 2), on and to the candidate matrix.

    The greedy scan's merges depend on row order, and no single sort
    serves every lineage pattern: a value attribute that is constant
    along a run must sort *before* the target to cluster its rows (e.g.
    cross's a1 in {0, 2}), while a delta-monotone attribute sorts
    harmlessly anywhere. So the pass scans once per rotation of the
    value order and keeps, per group of the other key attributes, the
    rotation producing the fewest rows (a later ordering replaces a
    group only with strictly fewer rows). Every scan is independently
    lossless, and per-group selection makes the result's rows the same
    whether the pass runs over the whole relation or over pieces that
    each hold whole groups (``chunk``).

    A group whose rows are down to its ``_run_floor`` cannot be improved
    by any ordering, so it is closed. The first ordering scans every
    group (the floor is computed only if some group is left above one
    row); each later ordering scans only the columns of the groups still
    open, and the pass stops once none is. A scan's runs never cross
    groups, so a group's scan is the same on that subset as on the whole
    matrix.

    The matrix becomes int64 codes once (``_codes``), and every ordering
    sorts and compares those. A scan's output is sorted by the other keys
    first, so every ordering's output lists the same groups in the same
    order, and a change mask over it numbers them: no sort is needed to
    match one ordering's groups to another's.
    """
    if m.shape[1] == 0:
        return m
    (order, mode), *later = _orderings(n_val)
    coded = _codes(m)
    grp = _pairs(k for k in range(n_key) if k != target)
    best = _scan_key_pass(m, coded, target, order, mode, n_key, n_val)
    gid = np.cumsum(rg.changed(best, grp)) - 1
    rows = np.bincount(gid)
    if len(rows) == best.shape[1]:
        return best
    floor, col_gid = _run_floor(m, coded, target, n_key, n_val)
    is_open = rows > floor
    sub, sub_gid = (m, coded), col_gid
    for order, mode in later:
        cols = is_open[sub_gid]
        if not cols.any():
            break
        if not cols.all():
            sub, sub_gid = _take_columns(*sub, cols), sub_gid[cols]
        out = _scan_key_pass(*sub, target, order, mode, n_key, n_val)
        new = np.flatnonzero(is_open)[np.cumsum(rg.changed(out, grp)) - 1]
        count = np.bincount(new, minlength=len(rows))
        better = is_open & (count < rows)
        if better.any():
            keep, take = ~better[gid], better[new]
            best = np.concatenate([best.compress(keep, axis=1), out.compress(take, axis=1)], axis=1)
            gid = np.concatenate([gid[keep], new[take]])
            rows[better] = count[better]
            is_open &= rows > floor
    return best


def _scan_key_pass(
    m: np.ndarray,
    coded: tuple[np.ndarray, list[int], dict[int, np.ndarray]],
    target: int,
    order: tuple[int, ...],
    mode: str,
    n_key: int,
    n_val: int,
) -> np.ndarray:
    """One greedy scan with a fixed sort order (see ``_encode_key_pass``);
    ``coded`` is ``_codes(m)``.

    After sorting, a run starting at row ``s`` extends to

        e(s) = min(last_hard(s),
                   min over v of max(s, max over c of last[c](s)))

    where ``last_hard(s)`` is the last row before a change of the other
    keys or a gap in the target, ``last[c](s)`` the last row before
    candidate ``c`` changes, and ``c`` ranges over value ``v``'s candidate
    representations that are present at ``s``: a run may grow as long as
    every value attribute keeps at least one representation constant.

    The sort is one ``ranges.packed_order`` over the codes. Only the rows
    the scan reads are gathered in sorted order: the target's ``lo`` and
    ``hi``, the codes, and the present masks. Every change mask compares
    codes, and one 2-D ``ranges.next_true_at_or_after`` finds every
    ``last`` at once. ``e`` is computed for every row; the walk then
    follows ``s -> e(s) + 1`` from row 0, but steps only at rows that
    start a run of two or more: each stretch of one-row runs before such a
    row is emitted as one slice. The output columns are gathered from the
    unsorted matrix.
    """
    codes, spans, absent = coded
    others = [k for k in range(n_key) if k != target]
    cands = [_candidates(i, n_key, n_val) for i in range(n_val)]
    sort_attrs = list(others)
    for i in order:
        sort_attrs += cands[i][1:] if mode == "delta" else cands[i][:1]
    keys = _pairs(sort_attrs) + [2 * target]
    keys += _pairs(c for cs in cands for c in cs if c not in sort_attrs)
    perm = rg.packed_order([codes[r] for r in keys], [spans[r] for r in keys])
    n = len(perm)
    idx = np.arange(n)

    # Row 0 of ``brk`` marks a change of the other keys or a gap in the
    # target between rows t and t + 1, row 1 + i a change of candidate
    # ``flat[i]``; the last column ends every run.
    flat = [c for cs in cands for c in cs]
    t_hi = m[2 * target + 1].take(perm)
    brk = np.zeros((1 + len(flat), n), dtype=bool)
    brk[:, -1] = True
    brk[0, :-1] = m[2 * target].take(perm[1:]) != t_hi[:-1] + 1
    for i, attrs in enumerate([others] + [[c] for c in flat]):
        for r in _pairs(attrs):
            if spans[r] > 1:
                code = codes[r].take(perm)
                brk[i, :-1] |= code[1:] != code[:-1]
    last = rg.next_true_at_or_after(brk)
    ext = last[1:]
    if absent:
        present = np.ones((len(flat), n), dtype=bool)
        for i, c in enumerate(flat):
            if c in absent:
                present[i] = ~absent[c].take(perm)
        ext = np.where(present, ext, idx)
    end = np.minimum(last[0], ext.reshape(n_val, n_key + 1, n).max(axis=1).min(axis=0))

    multi = np.flatnonzero(end > idx)
    multi_l, multi_end = multi.tolist(), end[multi].tolist()
    pieces = []
    s = j = 0
    while (j := bisect_left(multi_l, s, j)) < len(multi_l):
        pieces.append(idx[s : multi_l[j] + 1])
        s = multi_end[j] + 1
    pieces.append(idx[s:])
    s_arr = np.concatenate(pieces)
    e_arr = end[s_arr]
    out = m.take(perm[s_arr], axis=1)
    out[2 * target + 1] = t_hi[e_arr]
    # Null out candidate representations that did not survive their run.
    alive = last[1:, s_arr] >= e_arr
    if absent:
        alive &= present[:, s_arr]
    for i, c in enumerate(flat):
        out[2 * c : 2 * c + 2, ~alive[i]] = np.nan
    return out


def interval_columns(schema: LineageSchema) -> list[str]:
    """Columns of a finalized compressed table, in order (all int64)."""
    cols = [c for k in schema.key_cols for c in (rg.lo(k), rg.hi(k))]
    return cols + [c for v in schema.val_cols for c in (rg.rep(v), rg.lo(v), rg.hi(v))]


def value_columns(schema: LineageSchema) -> list[str]:
    """Absolute value intervals, ``lo``/``hi`` per value attribute: the
    columns of a θ-join result and of ``absolute_values``' output."""
    return [c for v in schema.val_cols for c in (rg.lo(v), rg.hi(v))]


def candidate_columns(schema: LineageSchema) -> list[str]:
    """Names of the candidate matrix's rows (``chunk``'s output,
    ``stitch``'s input): ``lo``/``hi`` per key and value attribute, then
    per ``value - key`` delta. Only Spark's Arrow schema needs them."""
    attrs = list(schema.key_cols + schema.val_cols) + [
        rg.delta(v, k) for v in schema.val_cols for k in schema.key_cols
    ]
    return [c for a in attrs for c in (rg.lo(a), rg.hi(a))]


def _encode_values(df: pd.DataFrame, schema: LineageSchema) -> np.ndarray:
    """Step 1 (value range encoding) plus the relative value transformation.

    Step 1 is one ``ranges.union_sweep`` over the value attributes, last
    first, grouped on the still-scalar keys. Returns the candidate matrix
    the step-2 key passes consume: float64, C order, one row per
    ``candidate_columns(schema)`` entry and one column per tuple, so
    attribute ``p`` (keys, then values, then every ``value - key`` delta)
    is rows ``2p, 2p + 1``. Float64 because those passes mark absent
    representations with NaN. Keys are still scalar here, so a delta is
    ``[v_lo - k, v_hi - k]``.
    """
    cols = list(schema.key_cols) + list(schema.val_cols)
    n_key, n_val = schema.n_key, schema.n_val
    m = np.repeat(np.column_stack([df[c].to_numpy(np.int64) for c in cols]), 2, axis=1)
    m = rg.union_sweep(m, list(range(len(cols) - 1, n_key - 1, -1))).T
    out = np.empty((2 * (len(cols) + n_val * n_key), m.shape[1]), dtype=np.float64)
    out[: len(m)] = m
    for i in range(n_val):
        for j, d in enumerate(_candidates(i, n_key, n_val)[1:]):
            out[2 * d : 2 * d + 2] = m[2 * (n_key + i) : 2 * (n_key + i) + 2] - m[2 * j]
    return out


def chunk(df: pd.DataFrame, schema: LineageSchema) -> np.ndarray:
    """Every pass of ``compress`` that stays within one primary-key value.

    Runs step 1 and the relative value transformation, then every key
    pass except the primary key's (``schema.key_cols[0]``), and returns
    the candidate matrix ``stitch`` consumes. Step 1's first sweep also
    merges duplicate rows (every schema has a value attribute, and
    identical rows fall into one run). The primary key is still scalar
    throughout, and every merge here groups on it, so running ``chunk``
    on pieces of the relation that each hold all rows of their
    primary-key values (hash partitions of it, say) and concatenating the
    results along axis 1 gives the same tuples as running it on the
    whole relation.
    """
    work = _encode_values(df, schema)
    for j in range(schema.n_key - 1, 0, -1):
        work = _encode_key_pass(work, j, schema.n_key, schema.n_val)
    return work


def stitch(work: np.ndarray, schema: LineageSchema) -> pd.DataFrame:
    """The primary-key pass over ``chunk``'s candidate matrix, then
    ``finalize``.

    The only pass that merges across primary-key values, so it runs once
    over all chunks. Its scans sort their input, so the result does not
    depend on the order in which the chunks are concatenated.
    """
    return finalize(_encode_key_pass(work, 0, schema.n_key, schema.n_val), schema)


def compress(df: pd.DataFrame, schema: LineageSchema) -> pd.DataFrame:
    """Run the full ProvRC algorithm on an uncompressed lineage relation.

    ``df`` has one scalar integer column per axis (``schema.full_cols``);
    duplicate rows merge in step 1 (set semantics). Returns the
    finalized compressed table (``interval_columns(schema)``), in which
    each value attribute keeps exactly one representation, matching the
    paper's tables. ``stitch(chunk(df))``: Spark runs the same two halves,
    ``chunk`` per hash partition of the primary key and ``stitch`` once.
    """
    return stitch(chunk(df, schema), schema)


def finalize(m: np.ndarray, schema: LineageSchema) -> pd.DataFrame:
    """Prune the candidate matrix to one representation per value attribute.

    Absolute is preferred (paper pattern (2) over (3)); otherwise the
    first surviving delta is kept. Returns the finalized int64 layout
    ``interval_columns(schema)``, one int64 block filled row by row of a
    ``(n_cols, n)`` matrix, as ``storage.deserialize`` builds it.
    """
    cols = interval_columns(schema)
    n = m.shape[1]
    out = np.empty((len(cols), n), dtype=np.int64)
    k = 2 * schema.n_key
    out[:k] = m[:k]
    tuples = np.arange(n)
    for i, v in enumerate(schema.val_cols):
        cands = _candidates(i, schema.n_key, schema.n_val)
        los = m[[2 * c for c in cands]]
        his = m[[2 * c + 1 for c in cands]]
        avail = ~np.isnan(los)
        if not avail.any(axis=0).all():
            raise ValueError(f"value attribute {v} has no representation in some rows")
        code = avail.argmax(axis=0)
        out[k + 3 * i] = code
        out[k + 3 * i + 1] = los[code, tuples]
        out[k + 3 * i + 2] = his[code, tuples]
    return pd.DataFrame(out.T, columns=cols)


def absolute_values(vals: np.ndarray, key_lo: np.ndarray, key_hi: np.ndarray) -> np.ndarray:
    """Absolute ``lo``/``hi`` of every value attribute (the paper's rel_back).

    ``vals`` holds the value columns of ``interval_columns`` (``rep``,
    ``lo``, ``hi`` per value attribute), ``key_lo``/``key_hi`` one column
    per key attribute; all int64 with one row per table row. A value
    stored relative to key ``j`` with delta ``[d1, d2]``, over key interval
    ``[x1, x2]`` (``key_lo[:, j]``, ``key_hi[:, j]``), covers exactly
    ``[x1 + d1, x2 + d2]``. One gather for all value attributes:
    ``lo + [0, k0_lo, k1_lo, …][rep]``, and the same for ``hi``. Returns
    ``lo``, ``hi`` per value attribute, in that column order.
    """
    n = len(vals)
    rows = np.arange(n)[:, None]
    code = vals[:, 0::3]
    zero = np.zeros((n, 1), dtype=np.int64)
    out = np.empty((n, 2 * code.shape[1]), dtype=np.int64)
    out[:, 0::2] = vals[:, 1::3] + np.hstack([zero, key_lo])[rows, code]
    out[:, 1::2] = vals[:, 2::3] + np.hstack([zero, key_hi])[rows, code]
    return out


def decompress(cdf: pd.DataFrame, schema: LineageSchema) -> pd.DataFrame:
    """Expand a compressed table back to the full lineage relation.

    Exact inverse of ``compress`` (losslessness, paper §IV.B): key ranges
    expand Cartesian-style; each value attribute expands from its absolute
    range or as ``key + delta`` per expanded key value. Output columns are
    ``schema.full_cols`` as int64, deduplicated and sorted by one
    ``ranges.distinct_rows`` (a packed sort and an adjacent-row compare,
    no hashing), with a fresh ``RangeIndex``.
    """
    m = cdf[interval_columns(schema)].to_numpy(np.int64)
    k = 2 * schema.n_key
    row, keys = rg.cartesian(m[:, 0:k:2], m[:, 1:k:2], schema.key_cols)
    vals = absolute_values(m[row, k:], keys, keys)
    row, cells = rg.cartesian(vals[:, 0::2], vals[:, 1::2], schema.val_cols)
    parts = [keys[row], cells] if schema.direction == "backward" else [cells, keys[row]]
    return pd.DataFrame(rg.distinct_rows(np.hstack(parts)), columns=list(schema.full_cols))


def encode_query(cells: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Range-encode a query cell set into the compressed format (§V.B).

    ``cells`` has one scalar integer column per queried axis. The result
    is an int64 interval table over the same columns, produced with the
    same multi-attribute range encoding as ProvRC step 1 (one
    ``ranges.union_sweep`` over every column, last first) — the paper's Q'.
    """
    m = np.repeat(np.column_stack([cells[c].to_numpy(np.int64) for c in cols]), 2, axis=1)
    m = rg.union_sweep(m, list(range(len(cols)))[::-1])
    return pd.DataFrame(m, columns=[c for a in cols for c in (rg.lo(a), rg.hi(a))])
