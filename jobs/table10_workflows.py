"""Entrypoint: reproduce Table X (Kaggle workflow statistics, simulated).

Usage: python jobs/table10_workflows.py [--notebooks 10]
"""
import argparse

from repro.workflows.kaggle_sim import format_table, run_study


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--notebooks", type=int, default=10)
    args = ap.parse_args()
    print(format_table(run_study(args.notebooks, seed=0)))


if __name__ == "__main__":
    main()
