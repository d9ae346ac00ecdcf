"""Table X benchmark: simulated Kaggle workflow study (10 notebooks per
dataset profile)."""
from repro.workflows.kaggle_sim import format_table, run_study


def test_table10_study(benchmark):
    df = benchmark.pedantic(lambda: run_study(10, seed=0), rounds=1, iterations=1)
    print("\n" + format_table(df))
    flight = df[df["dataset"] == "Flight"].iloc[0]
    netflix = df[df["dataset"] == "Netflix"].iloc[0]
    assert flight["pct_mean"] > netflix["pct_mean"] > 55
    assert 5 < flight["chain_mean"] < 40
