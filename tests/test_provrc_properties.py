"""Property-based tests (hypothesis) for ProvRC's paper §IV.B claims.

- compress |> decompress is the identity on any integer lineage relation
  (losslessness via union-of-Cartesian-products);
- in-situ queries over independent-pattern relations return exactly the
  ground-truth cell set;
- the query result is always a superset of ground truth (even for
  correlated-delta patterns, where exactness is not promised — DESIGN.md);
- no sort ordering leaves a group of a key pass fewer rows than the
  pass's run floor;
- the vectorized step-2 key pass returns the same candidate matrix,
  wrapped as a frame, as the row-at-a-time reference in
  ``tests/reference_loops.py`` returns, per ordering
  and for the whole pass, and step 1 and the query encoding give the same
  rows as the former pandas passes kept there;
- ``compress`` is separable on primary-key ranges: ``chunk`` per range,
  concatenated, then ``stitch`` equals ``compress`` row for row;
- repeated rows, in any order, compress to the table of the distinct ones.

Each schema shape also has a dense strategy (few distinct values per
axis), so that rows meet and merge in most examples.
"""
import numpy as np
import pandas as pd
from hypothesis import example, given, settings, strategies as st

from repro.core import provrc
from repro.core import ranges as rg
from repro.core.model import backward_schema, forward_schema
from repro.insitu.theta_join import chain_query, intervals_to_cells
from tests.reference_loops import (
    encode_key_pass_all_orderings,
    encode_values_reference,
    range_encode,
    scan_key_pass_loop,
    sort_rows,
)

relation_1x1 = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=120,
).map(lambda rows: pd.DataFrame(rows, columns=["b0", "a0"]))

relation_1x2 = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 5)),
    min_size=1,
    max_size=80,
).map(lambda rows: pd.DataFrame(rows, columns=["b0", "a0", "a1"]))

relation_2x1 = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10)),
    min_size=1,
    max_size=80,
).map(lambda rows: pd.DataFrame(rows, columns=["b0", "b1", "a0"]))

# The schema of element-wise, conv and repetition lineage over 2-D arrays:
# either arbitrary rows, or each input cell a small shift of its output
# cell (the structured case, where deltas survive).
relation_2x2 = st.one_of(
    st.lists(
        st.tuples(*[st.integers(0, 5)] * 4),
        min_size=1,
        max_size=80,
    ),
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(-1, 1), st.integers(-1, 1)),
        min_size=1,
        max_size=80,
    ).map(lambda rows: [(b0, b1, b0 + d0, b1 + d1) for b0, b1, d0, d1 in rows]),
).map(lambda rows: pd.DataFrame(rows, columns=["b0", "b1", "a0", "a1"]))


# Few distinct values, so that cells sharing their other attributes meet
# and the order of step 1's value sweeps shows in its rows.
relation_dense_1x2 = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=30,
).map(lambda rows: pd.DataFrame(rows, columns=["b0", "a0", "a1"]))

relation_dense_2x1 = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=30,
).map(lambda rows: pd.DataFrame(rows, columns=["b0", "b1", "a0"]))

relation_dense_2x2 = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=40,
).map(lambda rows: pd.DataFrame(rows, columns=["b0", "b1", "a0", "a1"]))


def _schema_of(rel: pd.DataFrame, forward: bool):
    n_b = sum(c.startswith("b") for c in rel.columns)
    n_a = len(rel.columns) - n_b
    return forward_schema(n_b, n_a) if forward else backward_schema(n_b, n_a)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.drop_duplicates()
        .sort_values(list(df.columns), kind="mergesort")
        .reset_index(drop=True)
        .astype("int64")
    )


@settings(max_examples=60, deadline=None)
@given(relation_1x1)
def test_roundtrip_1x1(rel):
    schema = backward_schema(1, 1)
    back = provrc.decompress(provrc.compress(rel, schema), schema)
    pd.testing.assert_frame_equal(_canon(back), _canon(rel), check_dtype=False)


@settings(max_examples=80, deadline=None)
@given(st.one_of(relation_1x2, relation_dense_1x2))
def test_roundtrip_1x2(rel):
    schema = backward_schema(1, 2)
    back = provrc.decompress(provrc.compress(rel, schema), schema)
    pd.testing.assert_frame_equal(_canon(back), _canon(rel), check_dtype=False)


@settings(max_examples=80, deadline=None)
@given(st.one_of(relation_2x1, relation_dense_2x1))
def test_roundtrip_2x1(rel):
    schema = backward_schema(2, 1)
    back = provrc.decompress(provrc.compress(rel, schema), schema)
    pd.testing.assert_frame_equal(_canon(back), _canon(rel), check_dtype=False)


@settings(max_examples=80, deadline=None)
@given(st.one_of(relation_2x2, relation_dense_2x2))
def test_roundtrip_2x2(rel):
    schema = backward_schema(2, 2)
    back = provrc.decompress(provrc.compress(rel, schema), schema)
    pd.testing.assert_frame_equal(_canon(back), _canon(rel), check_dtype=False)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        relation_1x2,
        relation_2x1,
        relation_2x2,
        relation_dense_1x2,
        relation_dense_2x1,
        relation_dense_2x2,
    ),
    st.booleans(),
    st.just(0),
)
@example(
    pd.DataFrame(
        [
            (1, 0, 0, 2, 0), (1, 0, 1, 1, 0), (1, 1, 0, 0, 0), (1, 1, 2, 2, 0), (1, 2, 0, 1, 0),
            (2, 0, 0, 2, 1), (2, 0, 1, 2, 0), (2, 1, 0, 2, 2), (2, 1, 2, 1, 0), (2, 2, 0, 2, 1),
        ],
        columns=["b0", "b1", "a0", "a1", "a2"],
    ),
    False,
    2,
)
@example(pd.DataFrame({"b0": range(10), "a0": [5, 11, 2, 3, 4, 9, 7, 8, 0, 20]}), False, 0)
@example(pd.DataFrame({"b0": range(8), "a0": [3, 7, 0, 5, 1, 6, 2, 4]}), False, 0)
def test_scan_matches_loop_reference(rel, forward, min_wins):
    """Every ordering's scan, and each whole key pass, on the candidate
    forms ``compress`` feeds them (later passes see NaN candidates). No
    ordering leaves a group fewer rows than its ``_run_floor``, the bound
    that lets a pass skip the orderings of groups already down to it.

    In some key pass, at least ``min_wins`` orderings after the first
    each give some group fewer rows than every ordering before them. The
    first explicit example has two such orderings in its ``b1`` pass, so
    the second replaces a group once the pass's best rows are no longer
    sorted by group. In the second, the target-first scan has one-row
    runs before, between and after its two delta runs (``b0`` 2–4 and
    6–7), two of them at each end. The third is a permutation with no
    two neighbours on a common delta or value: every row is a run of its
    own in every ordering."""
    schema = _schema_of(rel, forward)
    n_key, n_val = schema.n_key, schema.n_val
    cols = provrc.candidate_columns(schema)

    def frame(m):
        return pd.DataFrame(m.T, columns=cols)

    most_wins = 0
    work = provrc._encode_values(rel.drop_duplicates(), schema)
    for j in range(n_key - 1, -1, -1):
        target = schema.key_cols[j]
        others = [c for c in schema.key_cols if c != target]
        grp = [c for k in others for c in (rg.lo(k), rg.hi(k))]
        args = (schema.val_cols, schema.key_cols)
        fewest, wins = None, 0
        coded = provrc._codes(work)
        floor = provrc._run_floor(work, coded, j, n_key, n_val)[0]
        for order, mode in provrc._orderings(n_val):
            got = provrc._scan_key_pass(work, coded, j, order, mode, n_key, n_val)
            names = tuple(schema.val_cols[i] for i in order)
            want = scan_key_pass_loop(frame(work), target, others, names, *args, mode)
            pd.testing.assert_frame_equal(frame(got), want, check_exact=True)
            rows = want.groupby(grp).size().to_numpy() if grp else np.array([len(want)])
            assert (rows >= floor).all()
            if fewest is not None:
                wins += bool((rows < fewest).any())
                rows = np.minimum(rows, fewest)
            fewest = rows
        most_wins = max(most_wins, wins)
        got = provrc._encode_key_pass(work, j, n_key, n_val)
        want = encode_key_pass_all_orderings(frame(work), target, others, *args)
        pd.testing.assert_frame_equal(frame(got), want, check_exact=True)
        work = got
    assert most_wins >= min_wins


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(relation_1x1, relation_1x2, relation_2x1, relation_2x2, relation_dense_1x2),
    st.booleans(),
)
@example(pd.DataFrame({"b0": [0, 0, 0], "a0": [0, 0, 1], "a1": [0, 1, 0]}), False)
def test_step1_matches_reference(rel, forward):
    """Step 1 (``_encode_values``, duplicates included) and the query
    encoding (every column) give the reference passes' rows. The explicit
    example is an L of three cells, whose rows depend on which value is
    swept first."""
    schema = _schema_of(rel, forward)

    def rows(df):
        return sort_rows(df, list(df.columns))

    got = pd.DataFrame(provrc._encode_values(rel, schema).T, columns=provrc.candidate_columns(schema))
    want = encode_values_reference(rel, schema)
    pd.testing.assert_frame_equal(rows(got), rows(want), check_exact=True)
    cols = list(schema.full_cols)
    got = provrc.encode_query(rel, cols)
    want = range_encode(rel, cols, cols).astype("int64")
    pd.testing.assert_frame_equal(rows(got), rows(want), check_exact=True)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        relation_1x1,
        relation_1x2,
        relation_2x1,
        relation_2x2,
        relation_dense_1x2,
        relation_dense_2x1,
        relation_dense_2x2,
    ),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_repeated_rows_compress_like_distinct_ones(rel, forward, rnd):
    """Every row repeated, the repeats out of order, and those rows in a
    random order: the same table as the relation without duplicates
    (step 1 merges identical rows). ``compress`` depends only on the row
    set, which the reuse index's dim_sig ``DataFrame.equals`` relies on."""
    schema = _schema_of(rel, forward)
    distinct = provrc.compress(rel.drop_duplicates().reset_index(drop=True), schema)
    repeated = pd.concat([rel, rel.iloc[::-1]], ignore_index=True)
    shuffled = repeated.iloc[rnd.sample(range(len(repeated)), len(repeated))]
    for rows in (repeated, shuffled):
        pd.testing.assert_frame_equal(provrc.compress(rows, schema), distinct, check_exact=True)


def test_empty_relation_roundtrip():
    for schema in (backward_schema(2, 1), forward_schema(2, 1)):
        empty = pd.DataFrame({c: np.array([], np.int64) for c in schema.full_cols})
        cdf = provrc.compress(empty, schema)
        assert list(cdf.columns) == provrc.interval_columns(schema) and len(cdf) == 0
        assert (cdf.dtypes == np.int64).all()
        back = provrc.decompress(cdf, schema)
        assert list(back.columns) == list(schema.full_cols) and len(back) == 0
        assert (back.dtypes == np.int64).all()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(relation_1x1, relation_1x2, relation_2x1, relation_2x2),
    st.booleans(),
    st.sets(st.integers(0, 12), max_size=3),
    st.booleans(),
)
def test_chunks_on_primary_key_ranges_stitch_to_compress(rel, forward, cuts, backwards):
    """Cut at ``cuts`` into up to 4 non-empty primary-key ranges; the
    stitched chunks equal ``compress`` whatever order they come in."""
    schema = _schema_of(rel, forward)
    bins = np.searchsorted(sorted(cuts), rel[schema.key_cols[0]].to_numpy())
    parts = [provrc.chunk(rel[bins == b], schema) for b in np.unique(bins)]
    if backwards:
        parts.reverse()
    got = provrc.stitch(np.concatenate(parts, axis=1), schema)
    pd.testing.assert_frame_equal(got, provrc.compress(rel, schema), check_exact=True)


@settings(max_examples=40, deadline=None)
@given(relation_1x1, st.sets(st.integers(0, 12), min_size=1, max_size=5))
def test_query_exact_on_1x1(rel, q_keys):
    """With a single input axis no correlated deltas exist -> exact."""
    schema = backward_schema(1, 1)
    cdf = provrc.compress(rel, schema)
    q_cells = pd.DataFrame({"b0": sorted(q_keys)})
    q = provrc.encode_query(q_cells, ["b0"])
    got = intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0"])
    want = (
        rel[rel["b0"].isin(q_keys)][["a0"]]
        .drop_duplicates()
        .sort_values("a0")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@settings(max_examples=40, deadline=None)
@given(relation_1x2, st.sets(st.integers(0, 8), min_size=1, max_size=4))
def test_query_superset_always_holds(rel, q_keys):
    schema = backward_schema(1, 2)
    cdf = provrc.compress(rel, schema)
    q_cells = pd.DataFrame({"b0": sorted(q_keys)})
    q = provrc.encode_query(q_cells, ["b0"])
    got = intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0", "a1"])
    want = rel[rel["b0"].isin(q_keys)][["a0", "a1"]].drop_duplicates()
    merged = want.merge(got, how="left", indicator=True)
    assert (merged["_merge"] == "both").all()
