"""Fast (test-scale) checks of the experiment harnesses themselves."""
import pandas as pd
import pytest

from repro.capture import numpy_ops as nops
from repro.experiments import latency, table7, table9


class TestTable7Harness:
    def test_all_kernel_ops_measured(self, tmp_path):
        df = table7.run_table7(tmp_path, scale="test")
        assert set(df["op"]) == set(table7.PAPER_REL) - {"Group By", "Inner Join"}
        assert set(df["format"]) == set(table7.FORMATS)
        assert (df["bytes"] > 0).all()
        raw = df[df["format"] == "Raw"]
        assert (raw["rel_pct"] == 100.0).all()

    def test_relational_ops_with_spark(self, tmp_path, spark):
        df = table7.run_table7(
            tmp_path, scale="test", spark=spark, ops=["Group By", "Inner Join"]
        )
        assert set(df["op"]) == {"Group By", "Inner Join"}
        ij = df[(df["op"] == "Inner Join") & (df["format"] == "ProvRC")].iloc[0]
        assert ij["rel_pct"] < 100

    def test_structured_ops_compress_below_baselines(self, tmp_path):
        df = table7.run_table7(
            tmp_path, scale="test", ops=["Negative", "Aggregate", "Matrix*Matrix"]
        )
        for op, sub in df.groupby("op"):
            s = sub.set_index("format")
            assert s.loc["ProvRC", "bytes"] < s.loc["Parquet", "bytes"], op

    def test_format_table_renders(self, tmp_path):
        df = table7.run_table7(tmp_path, scale="test", ops=["Negative"])
        text = table7.format_table(df)
        assert "Negative" in text and "ProvRC" in table7.FORMATS[5]


class TestTable9Harness:
    def test_subset_evaluation(self):
        ops = [nops.OPS[n] for n in ["negative", "add", "sum", "sort", "matmul", "cross", "tile"]]
        df = table9.run_table9(n_runs=10, ops=ops)
        by = df.set_index("op")
        assert by.loc["negative", "provrc"] and by.loc["negative", "gen_sig"]
        assert by.loc["sum", "dim_sig"] and by.loc["sum", "gen_sig"]
        assert not by.loc["sort", "dim_sig"] and not by.loc["sort", "provrc"]
        assert by.loc["matmul", "gen_sig"]
        assert by.loc["cross", "error"]
        assert by.loc["tile", "provrc"] and not by.loc["tile", "gen_sig"]

    def test_summary_totals(self):
        ops = [nops.OPS[n] for n in ["negative", "sum", "sort"]]
        df = table9.run_table9(n_runs=6, ops=ops)
        s = table9.summarize(df)
        assert s[s["category"] == "total"].iloc[0]["total"] == 3


class TestLatencyHarness:
    def test_all_systems_agree_small(self, tmp_path):
        df = latency.run_latency(
            tmp_path, n_ops=3, shape=(200, 20), query_rows=(2, 10), seed=5
        )
        assert df["agrees"].all()
        assert set(df["system"]) == set(latency.SYSTEMS)
        assert (df["seconds"] > 0).all()

    @pytest.mark.parametrize("tamper", ["drop", "corrupt"])
    def test_agrees_compares_cells_not_counts(self, tmp_path, monkeypatch, tamper):
        """One system missing a cell, or answering one wrong cell with the
        right count, disagrees with the first system's answer."""
        run_one = latency.run_one

        def tampered(system, *args):
            secs, cells = run_one(system, *args)
            if system == "Parquet":
                cells = cells.iloc[1:].copy() if tamper == "drop" else cells.copy()
                if tamper == "corrupt":
                    cells.iloc[0, -1] += 10**6
            return secs, cells

        monkeypatch.setattr(latency, "run_one", tampered)
        df = latency.run_latency(
            tmp_path, n_ops=2, shape=(50, 8), query_rows=(3,), seed=5,
            systems=["DSLog", "Raw", "Parquet", "Array"],
        )
        by = df.set_index("system")
        assert by["agrees"].tolist() == [True, True, False, True]
        same_count = by.loc["Parquet", "result_cells"] == by.loc["DSLog", "result_cells"]
        assert same_count == (tamper == "corrupt")

    def test_query_block_shape(self):
        q = latency.make_query((100, 7), 4, seed=0)
        assert len(q) == 4 * 7
        assert q["a0"].nunique() == 4
        assert sorted(q["a1"].unique()) == list(range(7))
