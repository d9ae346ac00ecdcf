"""Unit tests for the interval / run-scan primitives in core.ranges."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ranges as rg
from tests.reference_loops import union_sweep_loop


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
