"""Unit tests for the interval / run-scan primitives in core.ranges."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import provrc
from repro.core import ranges as rg
from tests.reference_loops import sort_rows, union_sweep_loop


class TestNaming:
    def test_lo_hi_delta(self):
        assert rg.lo("a0") == "a0_lo"
        assert rg.hi("b1") == "b1_hi"
        assert rg.delta("a0", "b1") == "a0__b1"


class TestPairChanged:
    """``changed`` over one attribute's ``lo``/``hi`` matrix rows."""

    def test_detects_value_changes(self):
        m = np.array([(1, 2), (1, 2), (1, 3), (4, 4)], dtype=np.float64).T
        assert rg.changed(m, [0, 1]).tolist() == [True, False, True, True]

    def test_nan_equals_nan(self):
        m = np.array([(np.nan, np.nan), (np.nan, np.nan), (1, 1)]).T
        assert rg.changed(m, [0, 1]).tolist() == [True, False, True]

    def test_nan_vs_value_is_change(self):
        m = np.array([(1, 1), (np.nan, np.nan), (1, 1)]).T
        assert rg.changed(m, [0, 1]).tolist() == [True, True, True]


class TestNextTrue:
    def test_basic(self):
        mask = np.array([False, True, False, False, True, False])
        got = rg.next_true_at_or_after(mask)
        assert got.tolist() == [1, 1, 4, 4, 4, 6]

    def test_rows_of_a_2d_mask(self):
        mask = np.array([[False, True, False], [True, False, False]])
        assert rg.next_true_at_or_after(mask).tolist() == [[1, 1, 3], [0, 3, 3]]

    def test_all_false(self):
        assert rg.next_true_at_or_after(np.zeros(3, dtype=bool)).tolist() == [3, 3, 3]


class TestExpand:
    def test_rows_and_values(self):
        row, val = rg.expand(np.array([0, 5, 2]), np.array([2, 5, 3]), "x")
        assert row.tolist() == [0, 0, 0, 1, 2, 2]
        assert val.tolist() == [0, 1, 2, 5, 2, 3]

    def test_inverted_raises(self):
        with pytest.raises(ValueError, match="in x"):
            rg.expand(np.array([3]), np.array([1]), "x")


class TestExplodeInterval:
    """``cartesian``: the one interval expansion (decompress, cells)."""

    def test_expands_and_drops_pair(self):
        lo_m = np.array([[0, 7], [5, 1]])
        hi_m = np.array([[1, 8], [5, 1]])
        row, cells = rg.cartesian(lo_m, hi_m, ["x", "y"])
        assert row.tolist() == [0, 0, 0, 0, 1]
        assert cells.tolist() == [[0, 7], [0, 8], [1, 7], [1, 8], [5, 1]]

    def test_empty(self):
        row, cells = rg.cartesian(np.empty((0, 2), np.int64), np.empty((0, 2), np.int64), "xy")
        assert row.shape == (0,) and cells.shape == (0, 2) and cells.dtype == np.int64

    def test_inverted_raises(self):
        with pytest.raises(ValueError, match="in y"):
            rg.cartesian(np.array([[0, 3]]), np.array([[2, 1]]), ["x", "y"])


class TestUnionSweep:
    """``union_sweep`` on an int64 matrix of (lo, hi) column pairs."""

    def test_merges_overlap_and_adjacent(self):
        m = np.array([(0, 2), (3, 5), (5, 7), (10, 11)], dtype=np.int64)
        out = rg.union_sweep(m, [0])
        assert sorted(map(tuple, out.tolist())) == [(0, 7), (10, 11)]

    def test_contained_interval_absorbed(self):
        m = np.array([(0, 10), (2, 3)], dtype=np.int64)
        out = rg.union_sweep(m, [0])
        assert out.tolist() == [[0, 10]]

    def test_respects_groups(self):
        # Columns: x_lo, x_hi, g_lo, g_hi.
        m = np.array([(0, 1, 0, 0), (2, 3, 0, 0), (0, 1, 1, 1)], dtype=np.int64)
        out = rg.union_sweep(m, [0])
        assert out.tolist() == [[0, 3, 0, 0], [0, 1, 1, 1]]  # group 0 merges [0,3]; group 1 stays

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 20), st.integers(0, 4)),
            min_size=1,
            max_size=60,
        ),
        st.integers(0, 2),
    )
    def test_matches_loop_reference(self, rows, n_groups):
        """Random grouped interval sets (int64, as the θ-join's merge sees
        them): same rows, order and dtypes as the row-at-a-time sweep."""
        cols = {}
        for j in range(n_groups):
            cols[rg.lo(f"g{j}")] = [r[2 * j] for r in rows]
            cols[rg.hi(f"g{j}")] = [r[2 * j] + r[2 * j + 1] for r in rows]
        cols[rg.lo("x")] = [r[4] for r in rows]
        cols[rg.hi("x")] = [r[4] + r[5] for r in rows]
        df = pd.DataFrame(cols, dtype="int64")
        groups = [f"g{j}" for j in range(n_groups)]
        got = rg.union_sweep(df.to_numpy(), [n_groups])
        pd.testing.assert_frame_equal(
            pd.DataFrame(got, columns=df.columns), union_sweep_loop(df, "x", groups)
        )


class TestGroupChanged:
    """``changed`` over several attributes' rows, and over none."""

    def test_multi_column(self):
        # Rows: x_lo, x_hi, y_lo, y_hi; columns are tuples.
        m = np.array([(1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 5, 5)], dtype=np.float64).T
        assert rg.changed(m, [0, 1, 2, 3]).tolist() == [True, False, True]
        assert rg.changed(m, [0, 1]).tolist() == [True, False, False]
        assert rg.changed(m, []).tolist() == [True, False, False]


def _int_codes(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Codes and spans of an int64 matrix's rows: value minus row minimum."""
    if m.shape[1] == 0:
        return m, [1] * len(m)
    base = m.min(axis=1)
    return m - base[:, None], [int(h) - int(b) + 1 for h, b in zip(m.max(axis=1), base)]


# Small values, and values near ±2**40: a row holding both spans about
# 2**41, so two such rows need two packed keys.
_int_values = st.one_of(
    st.integers(-3, 3), st.integers(2**40 - 3, 2**40 + 3), st.integers(-(2**40) - 3, -(2**40) + 3)
)


@st.composite
def int_matrices(draw):
    """int64 matrices of 1–4 rows and 0–30 columns."""
    n_rows, n = draw(st.integers(1, 4)), draw(st.integers(0, 30))
    row = st.lists(_int_values, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return np.array(rows, dtype=np.int64).reshape(n_rows, n)


@st.composite
def candidate_matrices(draw):
    """Float64 matrices shaped like step 2's candidate matrix: 1–4
    attributes, each a ``lo`` and a ``hi`` row absent (NaN) together in
    some columns, in none or in all; some rows constant; integer values
    small or near ±2**52, where float64 still holds every integer, so a
    row can span about 2**53."""
    n_attr, n = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    values = st.integers(-3, 3).flatmap(
        lambda v: st.sampled_from([v, 2**52 - 4 + v, -(2**52) + 4 + v])
    )
    m = np.empty((2 * n_attr, n))
    for a in range(n_attr):
        for r in (2 * a, 2 * a + 1):
            if draw(st.booleans()):
                m[r] = draw(values)
            else:
                m[r] = draw(st.lists(values, min_size=n, max_size=n))
        absent = draw(st.sampled_from(["none", "some", "all"]))
        if absent == "all":
            m[2 * a : 2 * a + 2] = np.nan
        elif absent == "some":
            miss = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            m[2 * a : 2 * a + 2, miss] = np.nan
    return m


class TestPackedOrder:
    """``packed_order`` over codes is ``np.lexsort`` over the raw rows."""

    @settings(max_examples=150, deadline=None)
    @given(candidate_matrices())
    def test_float_candidate_codes(self, m):
        """``provrc._codes`` keeps every row's order and equalities:
        NaN sorts last and equals NaN."""
        codes, spans, absent = provrc._codes(m)
        assert (codes >= 0).all()
        for r, span in enumerate(spans):
            if span == 1 and r % 2:
                assert (codes[r] == codes[r - 1]).all() or (codes[r] == 0).all()
            else:
                assert codes[r].max() < span
        assert rg.packed_order(list(codes), spans).tolist() == np.lexsort(m[::-1]).tolist()
        same = (m[:, 1:] == m[:, :-1]) | (np.isnan(m[:, 1:]) & np.isnan(m[:, :-1]))
        assert ((codes[:, 1:] == codes[:, :-1]) == same).all()
        assert sorted(absent) == [a for a in range(len(m) // 2) if np.isnan(m[2 * a]).any()]
        for a, miss in absent.items():
            assert (miss == np.isnan(m[2 * a])).all()

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_int_codes(self, m):
        codes, spans = _int_codes(m)
        assert rg.packed_order(list(codes), spans).tolist() == np.lexsort(m[::-1]).tolist()

    def test_a_new_key_starts_only_past_2_62(self):
        wide = np.array([0, 2**41])
        codes = [wide, wide, np.array([0, 1]), np.array([0, 0])]
        keys = rg._packed_keys(codes, [2**41 + 1, 2**41 + 1, 2, 1])
        assert len(keys) == 2
        assert len(rg._packed_keys([np.array([0, 3])] * 5, [4] * 5)) == 1
        assert rg._packed_keys([np.array([0, 0])], [1]) == []

    def test_zero_and_one_column(self):
        assert rg.packed_order([np.empty(0, np.int64)], [1]).tolist() == []
        assert rg.packed_order([np.empty(0, np.int64)], [5]).tolist() == []
        codes, spans, _ = provrc._codes(np.array([[np.nan], [np.nan], [7.0], [7.0]]))
        assert codes.tolist() == [[0], [0], [0], [0]] and spans == [1, 1, 1, 1]
        assert rg.packed_order(list(codes), spans).tolist() == [0]


class TestDistinctRows:
    """``distinct_rows`` equals pandas ``drop_duplicates`` plus a stable
    sort, including the index, the dtypes and the empty case."""

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(), st.integers(0, 3))
    def test_matches_drop_duplicates_then_sort(self, m, dup):
        cells = np.concatenate([m.T] + [m.T[::-1]] * dup)
        cols = [f"c{j}" for j in range(cells.shape[1])]
        got = pd.DataFrame(rg.distinct_rows(cells), columns=cols)
        want = sort_rows(pd.DataFrame(cells, columns=cols).drop_duplicates(), cols)
        assert got.equals(want) and list(got.dtypes) == list(want.dtypes)
        assert got.index.equals(want.index)
