"""θ-join kernel tests: the paper's §V running example (Tables IV-VI),
randomized equivalence against ground-truth joins over uncompressed
lineage and against the cross-product join, defined empty outcomes, and
bounded memory for scattered queries and wide table rows.
"""
import tracemalloc

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.capture import numpy_ops as nops
from repro.core import provrc
from repro.core.model import backward_schema, forward_schema
from repro.core.provrc import interval_columns
from repro.core.ranges import hi, lo, rep
from repro.insitu import theta_join as tj
from repro.insitu.theta_join import chain_query, intervals_to_cells
from tests.reference_loops import chain_query_stepwise, theta_join_cross

MiB = 1 << 20


def sum_axis1_lineage() -> pd.DataFrame:
    rows = [(b, b, a1) for b in range(3) for a1 in range(2)]
    return pd.DataFrame(rows, columns=["b0", "a0", "a1"])


def ground_truth_chain(relations, in_cols_list, out_cols_list, query_cells):
    """Reachable cell set via plain equality joins over full relations."""
    cur = query_cells.drop_duplicates()
    for rel, in_cols, out_cols in zip(relations, in_cols_list, out_cols_list):
        cur = cur.rename(columns=dict(zip(cur.columns, in_cols)))
        joined = cur.merge(rel, on=in_cols)
        cur = joined[out_cols].drop_duplicates().reset_index(drop=True)
    return cur.sort_values(list(cur.columns)).reset_index(drop=True)


class TestPaperExample:
    def test_tables_iv_to_vi_backward_query(self):
        """Query b in {0,1} over the Table II row -> a0=[0,1], a1=[0,1]."""
        schema = backward_schema(1, 2)
        cdf = provrc.compress(sum_axis1_lineage(), schema)
        q = provrc.encode_query(pd.DataFrame({"b0": [0, 1]}), ["b0"])
        assert len(q) == 1 and (q.iloc[0][lo("b0")], q.iloc[0][hi("b0")]) == (0, 1)
        t = chain_query(q, [(cdf, schema)])
        assert len(t) == 1
        r = t.iloc[0]
        # Paper Table VI (1-based): a1=[1,2], a2=[1,2].
        assert (r[lo("a0")], r[hi("a0")]) == (0, 1)
        assert (r[lo("a1")], r[hi("a1")]) == (0, 1)

    def test_fig5_relative_derelativization(self):
        """Fig 5: delta [0,1] vs key [0,2]; query key in [0,1] -> value [0,2]."""
        # Lineage b -> {b, b+1} over b in 0..2 (clipped pattern kept full).
        rows = [(b, b + d) for b in range(3) for d in (0, 1)]
        df = pd.DataFrame(rows, columns=["b0", "a0"])
        schema = backward_schema(1, 1)
        cdf = provrc.compress(df, schema)
        assert len(cdf) == 1  # delta [0,1] constant across b=[0,2]
        q = provrc.encode_query(pd.DataFrame({"b0": [0, 1]}), ["b0"])
        t = chain_query(q, [(cdf, schema)])
        r = t.iloc[0]
        assert (r[lo("a0")], r[hi("a0")]) == (0, 2)

    def test_forward_query_on_forward_table(self):
        """Forward query over the forward representation (paper §IV.C)."""
        schema = forward_schema(1, 2)
        cdf = provrc.compress(sum_axis1_lineage(), schema)
        q = provrc.encode_query(pd.DataFrame({"a0": [1], "a1": [0]}), ["a0", "a1"])
        t = chain_query(q, [(cdf, schema)])
        cells = intervals_to_cells(t, ["b0"])
        assert cells["b0"].tolist() == [1]


class TestRandomEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_step_backward_superset(self, seed):
        """Random 2-input-axis relations: the result must contain every
        true cell. Exactness is only promised for patterns without
        correlated deltas (DESIGN.md); the 1-axis case below is exact."""
        g = np.random.default_rng(seed)
        n = int(g.integers(5, 300))
        rel = pd.DataFrame(
            {
                "b0": g.integers(0, 15, n),
                "a0": g.integers(0, 15, n),
                "a1": g.integers(0, 8, n),
            }
        ).drop_duplicates()
        schema = backward_schema(1, 2)
        cdf = provrc.compress(rel, schema)
        q_cells = pd.DataFrame({"b0": g.choice(15, size=4, replace=False)})
        q = provrc.encode_query(q_cells, ["b0"])
        got = intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0", "a1"])
        want = ground_truth_chain([rel], [["b0"]], [["a0", "a1"]], q_cells)
        merged = want.merge(got, how="left", indicator=True)
        assert (merged["_merge"] == "both").all()
        assert len(got) <= max(2 * len(want), len(want) + 8)

    @pytest.mark.parametrize("seed", range(8))
    def test_single_step_backward_1axis_exact(self, seed):
        g = np.random.default_rng(100 + seed)
        n = int(g.integers(5, 300))
        rel = pd.DataFrame(
            {"b0": g.integers(0, 15, n), "a0": g.integers(0, 30, n)}
        ).drop_duplicates()
        schema = backward_schema(1, 1)
        cdf = provrc.compress(rel, schema)
        q_cells = pd.DataFrame({"b0": g.choice(15, size=4, replace=False)})
        q = provrc.encode_query(q_cells, ["b0"])
        got = intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0"])
        want = ground_truth_chain([rel], [["b0"]], [["a0"]], q_cells)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_two_step_forward_chain(self, seed):
        """X -> Y -> Z with structured ops: exact match with ground truth."""
        g = np.random.default_rng(1000 + seed)
        nx = 30
        # op1: element-wise with shift (y[i] <- x[i]); op2: window y -> z.
        r1 = pd.DataFrame({"b0": range(nx), "a0": range(nx)})
        rows2 = [
            (i, j)
            for i in range(nx)
            for j in range(max(0, i - 1), min(nx, i + 2))
        ]
        r2 = pd.DataFrame(rows2, columns=["b0", "a0"])
        s1 = forward_schema(1, 1)
        s2 = forward_schema(1, 1)
        c1 = provrc.compress(r1, s1)
        c2 = provrc.compress(r2, s2)
        q_cells = pd.DataFrame({"a0": g.choice(nx, size=5, replace=False)})
        q = provrc.encode_query(q_cells, ["a0"])
        got = intervals_to_cells(chain_query(q, [(c1, s1), (c2, s2)]), ["b0"])
        # Forward ground truth: follow a->b in each relation.
        want = ground_truth_chain(
            [r1, r2], [["a0"], ["a0"]], [["b0"], ["b0"]], q_cells
        )
        pd.testing.assert_frame_equal(got, want.rename(columns={}), check_dtype=False)

    def test_no_merge_same_cells(self):
        g = np.random.default_rng(7)
        rel = pd.DataFrame(
            {"b0": g.integers(0, 20, 200), "a0": g.integers(0, 20, 200)}
        ).drop_duplicates()
        schema = backward_schema(1, 1)
        cdf = provrc.compress(rel, schema)
        q = provrc.encode_query(pd.DataFrame({"b0": [2, 3, 4, 11]}), ["b0"])
        with_merge = intervals_to_cells(chain_query(q, [(cdf, schema)], merge=True), ["a0"])
        no_merge = intervals_to_cells(chain_query(q, [(cdf, schema)], merge=False), ["a0"])
        pd.testing.assert_frame_equal(with_merge, no_merge, check_dtype=False)

    def test_correlated_delta_over_approximates(self):
        """Documented caveat: diag-style lineage yields a superset (DESIGN.md)."""
        rel = pd.DataFrame({"b0": range(6), "a0": range(6), "a1": range(6)})
        schema = backward_schema(1, 2)
        cdf = provrc.compress(rel, schema)
        q = provrc.encode_query(pd.DataFrame({"b0": [1, 2]}), ["b0"])
        got = intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0", "a1"])
        true_cells = pd.DataFrame({"a0": [1, 2], "a1": [1, 2]})
        merged = got.merge(true_cells, how="outer", indicator=True)
        assert (merged["_merge"] != "right_only").all()  # superset holds
        assert len(got) >= len(true_cells)


@pytest.mark.parametrize("case", ["hit", "out_of_range", "empty_query", "empty_table"])
def test_query_intervals_are_int64(case):
    """Queries and their results keep the finalized table's int64 layout;
    an empty query, an empty table or a query outside the table's keys
    gives an empty result with the same int64 columns."""
    rel = pd.DataFrame([(b, b, a1) for b in range(30) for a1 in range(4)], columns=["b0", "a0", "a1"])
    schema = backward_schema(1, 2)
    cdf = provrc.compress(rel, schema)
    cells = {"hit": [3, 4, 5, 20], "out_of_range": [500, 501], "empty_query": []}.get(case, [3, 4])
    q = provrc.encode_query(pd.DataFrame({"b0": np.array(cells, dtype=np.int64)}), ["b0"])
    if case == "empty_table":
        cdf = cdf.iloc[:0]
    results = [chain_query(q, [(cdf, schema)], merge=m) for m in (True, False)]
    for out in (q, *results):
        assert all(str(t) == "int64" for t in out.dtypes), out.dtypes
    joined = tj.theta_join(q.to_numpy(), cdf.to_numpy(), schema.n_key, merge=False)
    for out in (joined, tj.merge_intervals(joined)):
        assert out.dtype == np.int64 and out.shape[1] == 4
    for out in results:
        assert list(out.columns) == ["a0_lo", "a0_hi", "a1_lo", "a1_hi"]
        assert out.empty == (case != "hit")
    got = intervals_to_cells(results[0], ["a0", "a1"])
    assert list(got.columns) == ["a0", "a1"]
    assert all(str(t) == "int64" for t in got.dtypes), got.dtypes
    assert got.empty == (case != "hit")


# Key intervals of random tables and queries: narrow ones, and one that
# spans the whole primary key (the worst case for a width-bounded search).
key_interval = st.one_of(
    st.tuples(st.integers(0, 30), st.integers(0, 4)).map(lambda t: (t[0], t[0] + t[1])),
    st.just((0, 40)),
)


def _draw_table(draw, schema) -> pd.DataFrame:
    """A random finalized table over ``schema`` (any rep codes and deltas)."""
    keys = st.lists(key_interval, min_size=schema.n_key, max_size=schema.n_key)
    vals = st.lists(
        st.tuples(st.integers(0, schema.n_key), st.integers(-5, 5), st.integers(0, 3)),
        min_size=schema.n_val,
        max_size=schema.n_val,
    )
    table = {c: [] for c in interval_columns(schema)}
    for key_ivs, val_ivs in draw(st.lists(st.tuples(keys, vals), max_size=25)):
        for k, (k_lo, k_hi) in zip(schema.key_cols, key_ivs):
            table[lo(k)].append(k_lo)
            table[hi(k)].append(k_hi)
        for v, (code, d, w) in zip(schema.val_cols, val_ivs):
            table[rep(v)].append(code)
            table[lo(v)].append(d)
            table[hi(v)].append(d + w)
    return pd.DataFrame(table, dtype="int64")


def _draw_query(draw, schema, intervals=key_interval) -> pd.DataFrame:
    """A random query over ``schema``'s keys."""
    keys = st.lists(intervals, min_size=schema.n_key, max_size=schema.n_key)
    query = {c: [] for k in schema.key_cols for c in (lo(k), hi(k))}
    for key_ivs in draw(st.lists(keys, max_size=12)):
        for k, (k_lo, k_hi) in zip(schema.key_cols, key_ivs):
            query[lo(k)].append(k_lo)
            query[hi(k)].append(k_hi)
    return pd.DataFrame(query, dtype="int64")


@st.composite
def join_inputs(draw):
    """A random finalized table (any rep codes and deltas) and query."""
    schema = backward_schema(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    cdf = _draw_table(draw, schema)
    return _draw_query(draw, schema), cdf, schema


@st.composite
def chain_inputs(draw):
    """A query and a path of 1-3 random tables, each with 1-2 key and
    value attributes, the value attributes of one step as many as the key
    attributes of the next. Query rows may lie outside every key, and
    intermediate results are often empty."""
    axes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))
    schemas = [backward_schema(a, b) for a, b in zip(axes, axes[1:])]
    far = st.one_of(key_interval, st.just((500, 502)))
    tables = [(_draw_table(draw, s), s) for s in schemas]
    return _draw_query(draw, schemas[0], far), tables


@settings(max_examples=120, deadline=None)
@given(join_inputs(), st.sampled_from([1, 5]))
def test_matches_cross_product_reference(case, budget):
    """The sort-based range join returns the cross-product join's frame
    (rows, order, dtypes), merged or not, for the default pair budget and
    for budgets that split the query into many chunks, and for an empty
    query or an empty table."""
    qdf, cdf, schema = case
    default = tj.PAIR_BUDGET
    try:
        for tj.PAIR_BUDGET in (default, budget):
            for q, c in ((qdf, cdf), (qdf.iloc[:0], cdf), (qdf, cdf.iloc[:0])):
                for merge in (True, False):
                    pd.testing.assert_frame_equal(
                        chain_query(q, [(c, schema)], merge=merge),
                        theta_join_cross(q, c, schema, merge=merge),
                    )
    finally:
        tj.PAIR_BUDGET = default


def _frame(**cols) -> pd.DataFrame:
    return pd.DataFrame(cols, dtype="int64")


# Two query rows whose first-step results overlap: merged, they reach the
# second table as one row, and the second step's rows (and so the merged
# answer) differ from those of the two rows apart.
MERGE_BETWEEN_STEPS = (
    _frame(b0_lo=[0, 0], b0_hi=[1, 40]),
    [
        (
            _frame(b0_lo=[0], b0_hi=[40], a0_rep=[1], a0_lo=[0], a0_hi=[0],
                   a1_rep=[0], a1_lo=[0], a1_hi=[0]),
            backward_schema(1, 2),
        ),
        (
            _frame(b0_lo=[0, 0], b0_hi=[0, 40], b1_lo=[0, 0], b1_hi=[0, 40],
                   a0_rep=[0, 1], a0_lo=[0, 0], a0_hi=[0, 0],
                   a1_rep=[0, 1], a1_lo=[0, 0], a1_hi=[0, 0]),
            backward_schema(2, 2),
        ),
    ],
)


@settings(max_examples=150, deadline=None)
@given(chain_inputs())
@example(MERGE_BETWEEN_STEPS)
def test_chain_query_matches_stepwise_reference(case):
    """The matrix chain returns the per-step frame driver's frame (rows,
    order, columns, dtypes, index), merged or not, for the query and for
    an empty one. The explicit example only matches if every step's
    result is merged before the next step."""
    qdf, tables = case
    for q in (qdf, qdf.iloc[:0]):
        for merge in (True, False):
            got = chain_query(q, tables, merge=merge)
            want = chain_query_stepwise(q, tables, merge=merge)
            pd.testing.assert_frame_equal(got, want)
            assert got.equals(want)


def test_chain_axis_count_mismatch_raises():
    """A step whose value attributes are not as many as the next table's
    key attributes is refused before any step runs."""
    s1, s2 = backward_schema(1, 2), backward_schema(1, 1)
    c1 = provrc.compress(sum_axis1_lineage(), s1)
    c2 = provrc.compress(pd.DataFrame({"b0": [0, 1], "a0": [0, 1]}), s2)
    q = provrc.encode_query(pd.DataFrame({"b0": [0]}), ["b0"])
    with pytest.raises(ValueError, match=r"path axis count mismatch \(2 vs 1\)"):
        chain_query(q, [(c1, s1), (c2, s2)])


@settings(max_examples=60, deadline=None)
@given(join_inputs(), st.randoms(use_true_random=False))
def test_columns_are_read_by_name(case, rnd):
    """A table or query whose columns come in another order, or with an
    extra column, gives the same result: columns are read by name."""
    qdf, cdf, schema = case
    want = chain_query(qdf, [(cdf, schema)])
    cols = list(cdf.columns)
    rnd.shuffle(cols)
    shuffled = cdf[cols].assign(extra=1)
    q_cols = list(qdf.columns)[::-1]
    pd.testing.assert_frame_equal(chain_query(qdf[q_cols], [(shuffled, schema)]), want)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_row_does_not_bring_back_the_cross_product():
    """One row spanning the whole primary key makes every narrow row a
    candidate of every query row (2,000 x 20,000 pairs, ~640 MB as two
    index arrays); the chunked join stays within a fixed budget."""
    n = 20_000
    schema = backward_schema(1, 1)
    cdf = pd.DataFrame(
        {
            "b0_lo": np.r_[0, np.arange(n)],
            "b0_hi": np.r_[n - 1, np.arange(n)],
            "a0_rep": np.r_[0, np.ones(n, dtype=np.int64)],
            "a0_lo": np.r_[-1, np.zeros(n, dtype=np.int64)],
            "a0_hi": np.r_[-1, np.zeros(n, dtype=np.int64)],
        }
    )
    at = np.sort(np.random.default_rng(0).choice(n, 2_000, replace=False))
    q = pd.DataFrame({"b0_lo": at, "b0_hi": at})
    out, peak = _traced_peak(lambda: chain_query(q, [(cdf, schema)], merge=False))
    # Each query row meets the wide row (a0 = -1) and its own cell (a0 = b0).
    want = np.column_stack([np.full(len(at), -1), at]).ravel()
    assert (out["a0_lo"].to_numpy() == want).all() and (out["a0_hi"].to_numpy() == want).all()
    assert peak < 32 * MiB, f"traced peak {peak / MiB:.1f} MiB"


def test_scattered_sort_query_is_exact_within_memory_budget():
    """2,000 scattered cells against the Sort 160² backward lineage
    (~25k compressed rows, ~50M pairs as a cross product): the answer
    equals a DuckDB join over the raw relation, in bounded memory."""
    side = 160
    rel = nops.OPS["sort"].capture(((side, side),), np.random.default_rng(0)).relation(0)
    schema = backward_schema(2, 2)
    cdf = provrc.compress(rel, schema)
    flat = np.random.default_rng(1).choice(side * side, 2_000, replace=False)
    cells = pd.DataFrame({"b0": flat // side, "b1": flat % side})

    def query():
        q = provrc.encode_query(cells, ["b0", "b1"])
        return intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0", "a1"])

    got, peak = _traced_peak(query)
    con = duckdb.connect()
    try:
        con.register("rel", rel)
        con.register("cells", cells)
        want = con.execute(
            "SELECT DISTINCT a0, a1 FROM rel JOIN cells USING (b0, b1) ORDER BY a0, a1"
        ).df()
    finally:
        con.close()
    pd.testing.assert_frame_equal(got, want.astype("int64"))
    assert peak < 64 * MiB, f"traced peak {peak / MiB:.1f} MiB"
