"""End-to-end over the provided TPC-H-lite generators: capture relational
lineage on lineitem/orders, verify results against the DuckDB oracle, and
answer in-situ lineage queries over the compressed tables."""
import pandas as pd
import pytest

from repro import synth_data
from repro.capture.relational import groupby_lineage, inner_join_lineage
from repro.core import provrc
from repro.core.model import backward_schema
from repro.insitu.theta_join import chain_query, intervals_to_cells
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tpch(spark):
    li = synth_data.lineitem(spark, sf=0.001, seed=0).select(
        "l_orderkey", "l_partkey", "l_quantity"
    )
    o = synth_data.orders(spark, sf=0.001, seed=1).select(
        "o_orderkey", "o_custkey", "o_totalprice"
    )
    return li, o


def test_groupby_quantity_matches_duckdb(spark, tpch):
    li, _ = tpch
    out_df, cap = groupby_lineage(li, "l_orderkey", ["l_quantity"])
    assert_equivalent(
        out_df.select("l_orderkey", "l_quantity"),
        "SELECT l_orderkey, SUM(l_quantity) AS l_quantity FROM li GROUP BY l_orderkey",
        li=li,
    )
    # Backward in-situ query: the first group's quantity cell descends
    # from that group's lineitem rows only.
    rel = cap.relation(0)
    schema = backward_schema(2, 2)
    cdf = provrc.compress(rel, schema)
    q = provrc.encode_query(pd.DataFrame({"b0": [0], "b1": [1]}), ["b0", "b1"])
    got = intervals_to_cells(chain_query(q, [(cdf, schema)]), ["a0", "a1"])
    want = (
        rel[(rel["b0"] == 0) & (rel["b1"] == 1)][["a0", "a1"]]
        .drop_duplicates()
        .sort_values(["a0", "a1"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_join_lineitem_orders_matches_duckdb(spark, tpch):
    li, o = tpch
    out_df, cap = inner_join_lineage(
        o.withColumnRenamed("o_orderkey", "k"),
        li.withColumnRenamed("l_orderkey", "k"),
        "k",
    )
    assert_equivalent(
        out_df.select("k", "o_totalprice", "l_quantity"),
        "SELECT o.o_orderkey AS k, o.o_totalprice AS o_totalprice, "
        "li.l_quantity AS l_quantity FROM o JOIN li ON o.o_orderkey = li.l_orderkey",
        o=o,
        li=li,
    )
    assert cap.out_shape[0] == out_df.count()
