"""Spark relational capture operators: result correctness (DuckDB oracle)
and lineage sanity.
"""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.capture.relational import groupby_lineage, inner_join_lineage
from repro.core import provrc
from repro.core.model import backward_schema
from repro.insitu.theta_join import chain_query, intervals_to_cells
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def imdb(spark):
    return synth_data.imdb_like(spark, n_titles=400, n_episodes=700, seed=3)


class TestGroupBy:
    def test_result_matches_duckdb(self, spark, imdb):
        basics, _ = imdb
        out_df, _ = groupby_lineage(basics, "isAdult", ["genre_id"])
        assert_equivalent(
            out_df.select("isAdult", "genre_id"),
            "SELECT isAdult, SUM(genre_id) AS genre_id FROM b GROUP BY isAdult",
            b=basics,
        )

    def test_lineage_covers_all_input_rows(self, spark, imdb):
        basics, _ = imdb
        _, cap = groupby_lineage(basics, "isAdult", ["genre_id"])
        rel = cap.relation(0)
        n = basics.count()
        # Every input row's key cell contributes to some output key cell.
        key_rows = rel[rel["b1"] == 0]["a0"].nunique()
        assert key_rows == n
        assert cap.out_shape[1] == 2
        assert rel["b0"].nunique() == cap.out_shape[0]

    def test_backward_query_returns_group_rows(self, spark, imdb):
        """Backward lineage of one output cell = the group's input rows."""
        basics, _ = imdb
        out_df, cap = groupby_lineage(basics, "isAdult", ["genre_id"])
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


class TestInnerJoin:
    def test_result_matches_duckdb(self, spark, imdb):
        basics, episodes = imdb
        out_df, _ = inner_join_lineage(basics, episodes, "tconst")
        assert_equivalent(
            out_df.select("tconst", "startYear", "seasonNumber"),
            "SELECT b.tconst AS tconst, b.startYear AS startYear, "
            "e.seasonNumber AS seasonNumber FROM b JOIN e USING (tconst)",
            b=basics,
            e=episodes,
        )

    def test_lineage_shapes(self, spark, imdb):
        basics, episodes = imdb
        out_df, cap = inner_join_lineage(basics, episodes, "tconst")
        n_out = out_df.count()
        assert cap.out_shape[0] == n_out
        rel_l, rel_r = cap.relations
        # Each output row contributes len(left cols) left cells and
        # len(right cols) right cells.
        assert len(rel_l) == n_out * 4
        assert len(rel_r) == n_out * 3
        assert rel_l["b0"].nunique() == n_out

    def test_sorted_key_lineage_compresses_well(self, spark, imdb):
        """Join on sorted tconst -> run-structured lineage (Table VII)."""
        basics, episodes = imdb
        _, cap = inner_join_lineage(basics, episodes, "tconst")
        rel = cap.relation(0)
        schema = backward_schema(2, 2)
        cdf = provrc.compress(rel, schema)
        assert len(cdf) < len(rel) / 3


class TestExplainCapture:
    def test_lime_structure(self):
        from repro.capture.explain import lime_capture

        cap = lime_capture(64, 64, 3, block=16, keep_frac=0.5, seed=0)
        rel = cap.relation(0)
        assert (rel["b0"] == 0).all()
        assert rel[["a0", "a1", "a2"]].duplicated().sum() == 0
        schema = backward_schema(1, 3)
        cdf = provrc.compress(rel, schema)
        # Contiguous blocks compress far below the raw cell count.
        assert len(cdf) < len(rel) / 50
        back = provrc.decompress(cdf, schema)
        assert len(back) == len(rel)

    def test_drise_structure(self):
        from repro.capture.explain import drise_capture

        cap = drise_capture(52, 52, 3, grid=13, n_masks=50, keep_frac=0.25, seed=1)
        rel = cap.relation(0)
        assert len(rel) > 0
        schema = backward_schema(1, 3)
        cdf = provrc.compress(rel, schema)
        assert len(cdf) < len(rel) / 10


class TestSynthData:
    def test_imdb_properties(self, spark, imdb):
        basics, episodes = imdb
        b = basics.toPandas()
        assert (np.diff(b["tconst"]) > 0).all()  # sorted unique key
        assert (np.diff(b["startYear"]) >= 0).all()  # sorted
        assert b["isAdult"].nunique() == 2  # unsorted low cardinality
        e = episodes.toPandas()
        assert (np.diff(e["tconst"]) >= 0).all()
