"""Unit tests for the ProvRC kernel against the paper's worked examples.

The paper's examples are 1-based; this repo is 0-based throughout, so the
expected values here are the paper's minus one. Covered: the §III.B running
example (Fig 1), step-1 output (Table I), step-2 output (Table II), the
forward representation (Table III), and the Fig 2 / Fig 3 mini-examples.
"""
import numpy as np
import pandas as pd
import pytest

from repro.capture import patterns as pt
from repro.core import provrc
from repro.core.model import backward_schema, forward_schema
from repro.core.ranges import hi, lo, rep


def sum_axis1_lineage() -> pd.DataFrame:
    """Running example: B = np.sum(A, axis=1), A of shape 3x2 (Fig 1)."""
    rows = [(b, b, a1) for b in range(3) for a1 in range(2)]
    return pd.DataFrame(rows, columns=["b0", "a0", "a1"])


class TestStep1:
    def test_table1_multi_attribute_range_encoding(self):
        """Paper Table I: inputs collapse to (b, b, [0,1]) rows."""
        schema = backward_schema(1, 2)
        cdf = provrc.compress(sum_axis1_lineage(), schema)
        # Before step 2 would merge them, step 1 alone gives 3 rows; the
        # full algorithm merges to 1 (Table II). Check step 1 in isolation.
        work = pd.DataFrame(
            provrc._encode_values(sum_axis1_lineage(), schema).T,
            columns=provrc.candidate_columns(schema),
        )
        assert len(work) == 3
        got = work.sort_values(lo("b0")).reset_index(drop=True)
        for r in range(3):
            assert got.loc[r, lo("b0")] == r == got.loc[r, hi("b0")]
            assert got.loc[r, lo("a0")] == r == got.loc[r, hi("a0")]
            assert got.loc[r, lo("a1")] == 0
            assert got.loc[r, hi("a1")] == 1
        assert len(cdf) == 1  # full algorithm reaches Table II

    def test_range_encoding_merges_gaps_correctly(self):
        """range({1,2,3,4,9,12..15}) = {[1,4],[9],[12,15]} (paper §IV.A)."""
        vals = [1, 2, 3, 4, 9, 12, 13, 14, 15]
        df = pd.DataFrame({"b0": [0] * len(vals), "a0": vals})
        work = provrc.encode_query(df, ["b0", "a0"])
        assert (work[lo("b0")] == 0).all() and (work[hi("b0")] == 0).all()
        got = sorted(zip(work[lo("a0")], work[hi("a0")]))
        assert got == [(1, 4), (9, 9), (12, 15)]


class TestStep2:
    def test_table2_backward_compression(self):
        """Paper Table II: single row b=[0,2], a0 relative delta 0, a1=[0,1]."""
        schema = backward_schema(1, 2)
        cdf = provrc.compress(sum_axis1_lineage(), schema)
        assert len(cdf) == 1
        r = cdf.iloc[0]
        assert (r[lo("b0")], r[hi("b0")]) == (0, 2)
        # a0 stored relative to b0 (rep 1) with delta 0 (paper's a1b1 = 0 column).
        assert r[rep("a0")] == 1
        assert (r[lo("a0")], r[hi("a0")]) == (0, 0)
        # a1 stored absolutely (rep 0) as [0, 1].
        assert r[rep("a1")] == 0
        assert (r[lo("a1")], r[hi("a1")]) == (0, 1)

    def test_table3_forward_representation(self):
        """Paper Table III: a0=[0,2], a1=[0,1] absolute; b0 relative to a0."""
        schema = forward_schema(1, 2)
        cdf = provrc.compress(sum_axis1_lineage(), schema)
        assert len(cdf) == 1
        r = cdf.iloc[0]
        assert (r[lo("a0")], r[hi("a0")]) == (0, 2)
        assert (r[lo("a1")], r[hi("a1")]) == (0, 1)
        # b0 stored relative to a0 (rep 1) with delta 0.
        assert r[rep("b0")] == 1
        assert (r[lo("b0")], r[hi("b0")]) == (0, 0)

    def test_fig2_all_to_all_aggregation(self):
        """Fig 2: 4x4 -> 1x1 aggregation compresses to one absolute row."""
        rows = [(0, 0, i, j) for i in range(4) for j in range(4)]
        df = pd.DataFrame(rows, columns=["b0", "b1", "a0", "a1"])
        cdf = provrc.compress(df, backward_schema(2, 2))
        assert len(cdf) == 1
        r = cdf.iloc[0]
        assert (r[lo("a0")], r[hi("a0")]) == (0, 3)
        assert (r[lo("a1")], r[hi("a1")]) == (0, 3)

    def test_fig3_one_to_one(self):
        """Fig 3: element-wise 2x1 op -> one row with relative delta 0."""
        df = pd.DataFrame([(0, 0), (1, 1)], columns=["b0", "a0"])
        cdf = provrc.compress(df, backward_schema(1, 1))
        assert len(cdf) == 1
        r = cdf.iloc[0]
        assert (r[lo("b0")], r[hi("b0")]) == (0, 1)
        assert r[rep("a0")] == 1
        assert (r[lo("a0")], r[hi("a0")]) == (0, 0)

    def test_matmul_pattern_compresses_to_constant_rows(self):
        """Matrix*Matrix lineage is O(1) rows regardless of n (Table VII)."""
        n = 6
        rows = [
            (i, j, i, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ]
        df = pd.DataFrame(rows, columns=["b0", "b1", "a0", "a1"])
        cdf = provrc.compress(df, backward_schema(2, 2))
        assert len(cdf) == 1
        r = cdf.iloc[0]
        assert (r[lo("b0")], r[hi("b0")]) == (0, n - 1)
        assert (r[lo("b1")], r[hi("b1")]) == (0, n - 1)
        assert r[rep("a0")] == 1
        assert (r[lo("a0")], r[hi("a0")]) == (0, 0)
        assert r[rep("a1")] == 0
        assert (r[lo("a1")], r[hi("a1")]) == (0, n - 1)

    def test_sort_worst_case_stays_lossless(self):
        """A random permutation has no runs; ProvRC must not lose rows."""
        g = np.random.default_rng(0)
        perm = g.permutation(50)
        df = pd.DataFrame({"b0": np.arange(50), "a0": perm})
        schema = backward_schema(1, 1)
        cdf = provrc.compress(df, schema)
        back = provrc.decompress(cdf, schema)
        expect = df.sort_values(["b0", "a0"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(back, expect, check_dtype=False)

    def test_key_pass_stops_once_every_group_is_one_row(self, monkeypatch):
        """Identity lineage is one row per group after the first ordering,
        so each key pass scans once instead of 1 + 2·|val| times."""
        targets = []
        scan = provrc._scan_key_pass

        def counting(m, coded, target, *args):
            targets.append(target)
            return scan(m, coded, target, *args)

        monkeypatch.setattr(provrc, "_scan_key_pass", counting)
        cdf = provrc.compress(pt.identity((12, 12)), backward_schema(2, 2))
        assert targets == [1, 0]
        assert len(cdf) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_relation_roundtrip(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 200))
        df = pd.DataFrame(
            {
                "b0": g.integers(0, 12, n),
                "a0": g.integers(0, 12, n),
                "a1": g.integers(0, 6, n),
            }
        )
        schema = backward_schema(1, 2)
        cdf = provrc.compress(df, schema)
        back = provrc.decompress(cdf, schema)
        expect = (
            df.drop_duplicates()
            .sort_values(["b0", "a0", "a1"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(back, expect, check_dtype=False)

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_roundtrip(self, seed):
        g = np.random.default_rng(100 + seed)
        n = int(g.integers(1, 150))
        df = pd.DataFrame(
            {
                "b0": g.integers(0, 10, n),
                "b1": g.integers(0, 5, n),
                "a0": g.integers(0, 10, n),
            }
        )
        schema = forward_schema(2, 1)
        cdf = provrc.compress(df, schema)
        back = provrc.decompress(cdf, schema)
        expect = (
            df.drop_duplicates()
            .sort_values(["b0", "b1", "a0"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            back[["b0", "b1", "a0"]], expect, check_dtype=False
        )

    def test_diagonal_roundtrip_exact(self):
        """Correlated deltas (b[i] <- a[i,i]) still decompress exactly.

        Query-time de-relativization over-approximates on this pattern
        (documented in DESIGN.md) but compression stays lossless.
        """
        df = pd.DataFrame({"b0": range(8), "a0": range(8), "a1": range(8)})
        schema = backward_schema(1, 2)
        cdf = provrc.compress(df, schema)
        assert len(cdf) == 1  # one row: b=[0,7], both deltas 0
        back = provrc.decompress(cdf, schema)
        pd.testing.assert_frame_equal(back, df, check_dtype=False)


class TestEncodeQuery:
    def test_cells_collapse_to_ranges(self):
        cells = pd.DataFrame({"b0": [0, 1, 2, 5, 7, 8]})
        q = provrc.encode_query(cells, ["b0"])
        got = sorted(zip(q[lo("b0")], q[hi("b0")]))
        assert got == [(0.0, 2.0), (5.0, 5.0), (7.0, 8.0)]

    def test_2d_rectangles(self):
        cells = pd.DataFrame(
            [(i, j) for i in range(2) for j in range(3)], columns=["b0", "b1"]
        )
        q = provrc.encode_query(cells, ["b0", "b1"])
        assert len(q) == 1
        r = q.iloc[0]
        assert (r[lo("b0")], r[hi("b0")]) == (0, 1)
        assert (r[lo("b1")], r[hi("b1")]) == (0, 2)
