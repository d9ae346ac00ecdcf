"""θ-join kernel tests: the paper's §V running example (Tables IV-VI) and
randomized equivalence against ground-truth joins over uncompressed lineage.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import provrc
from repro.core.model import backward_schema, forward_schema
from repro.core.ranges import hi, lo
from repro.insitu.theta_join import (
    chain_query,
    intervals_to_cells,
    theta_join,
)


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
        t = theta_join(q, cdf, schema)
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
        t = theta_join(q, cdf, schema)
        r = t.iloc[0]
        assert (r[lo("a0")], r[hi("a0")]) == (0, 2)

    def test_forward_query_on_forward_table(self):
        """Forward query over the forward representation (paper §IV.C)."""
        schema = forward_schema(1, 2)
        cdf = provrc.compress(sum_axis1_lineage(), schema)
        q = provrc.encode_query(pd.DataFrame({"a0": [1], "a1": [0]}), ["a0", "a1"])
        t = theta_join(q, cdf, schema)
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
        got = intervals_to_cells(theta_join(q, cdf, schema), ["a0", "a1"])
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
        got = intervals_to_cells(theta_join(q, cdf, schema), ["a0"])
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
        with_merge = intervals_to_cells(theta_join(q, cdf, schema, merge=True), ["a0"])
        no_merge = intervals_to_cells(theta_join(q, cdf, schema, merge=False), ["a0"])
        pd.testing.assert_frame_equal(with_merge, no_merge, check_dtype=False)

    def test_correlated_delta_over_approximates(self):
        """Documented caveat: diag-style lineage yields a superset (DESIGN.md)."""
        rel = pd.DataFrame({"b0": range(6), "a0": range(6), "a1": range(6)})
        schema = backward_schema(1, 2)
        cdf = provrc.compress(rel, schema)
        q = provrc.encode_query(pd.DataFrame({"b0": [1, 2]}), ["b0"])
        got = intervals_to_cells(theta_join(q, cdf, schema), ["a0", "a1"])
        true_cells = pd.DataFrame({"a0": [1, 2], "a1": [1, 2]})
        merged = got.merge(true_cells, how="outer", indicator=True)
        assert (merged["_merge"] != "right_only").all()  # superset holds
        assert len(got) >= len(true_cells)


@pytest.mark.parametrize("cells", [[3, 4, 5, 20], [500, 501]], ids=["hit", "out_of_range"])
def test_query_intervals_are_int64(cells):
    """Queries and their results keep the finalized table's int64 layout."""
    rel = pd.DataFrame([(b, b, a1) for b in range(30) for a1 in range(4)], columns=["b0", "a0", "a1"])
    schema = backward_schema(1, 2)
    cdf = provrc.compress(rel, schema)
    q = provrc.encode_query(pd.DataFrame({"b0": cells}), ["b0"])
    for out in (q, theta_join(q, cdf, schema), chain_query(q, [(cdf, schema)])):
        assert all(str(t) == "int64" for t in out.dtypes), out.dtypes
    assert theta_join(q, cdf, schema).empty == (cells[0] >= 30)
