"""Simulated Kaggle-notebook workflow study (paper §VII.F, Table X).

The paper *manually* inspected 20 trending notebooks for two Kaggle
datasets and estimated, per notebook: total array ops, how many have
ProvRC-compressible lineage, and the longest operation chain. We ground
the same statistic in executed code instead of manual labels:

- a catalogue of notebook-typical operation kinds, each with a real
  small-instance lineage generator;
- compressibility decided by *running ProvRC* on that instance and
  comparing its binary size against the raw CSV (the <0.5 criterion of
  Table IX), not by annotation;
- two notebook profiles whose exploration/ML mix mirrors the paper's
  description (Flight notebooks lean ML-ish / more compressible,
  Netflix notebooks lean exploratory). The mix weights are calibrated
  synthetic inputs — documented as such in EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pandas as pd

from repro.baselines.formats import provrc_compressible
from repro.capture import patterns as pt


def _value_filter_rel(n: int, seed: int) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    keep = np.flatnonzero(g.random(n) < 0.5)
    return pd.DataFrame({"b0": np.arange(len(keep)), "a0": keep})


def _sort_rel(n: int, seed: int) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame({"b0": np.arange(n), "a0": g.permutation(n)})


def _groupby_rel(n: int, seed: int) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    grp = g.integers(0, 8, n)
    return pd.DataFrame({"b0": grp, "a0": np.arange(n)})


# kind -> (small-instance lineage builder, pool membership)
CATALOG: dict[str, callable] = {
    "elementwise": lambda: pt.identity((40, 8)),
    "aggregate": lambda: pt.reduce_axis((40, 8), 1),
    "cumulative": lambda: pt.cumulative((160,), 0),
    "select_columns": lambda: pt.index_map((40, 4), lambda o: [o[0], o[1] * 2]),
    "slice_head": lambda: pt.index_map((20, 8), lambda o: [o[0], o[1]]),
    "matmul": lambda: pt.matmul(12, 8, 10)[0],
    "join_sorted": lambda: pt.index_map((200,), lambda o: [o[0] // 8]),
    "one_hot": lambda: pt.index_map((40, 6), lambda o: [o[0], np.zeros_like(o[1])]),
    "value_filter": lambda: _value_filter_rel(200, 0),
    "sort_values": lambda: _sort_rel(200, 1),
    "group_by": lambda: _groupby_rel(200, 2),
}

# Exploration-leaning vs ML-leaning op mixes (weights over CATALOG kinds).
PROFILES = {
    # Flight notebooks: heavier modeling/feature chains.
    "Flight": {
        "elementwise": 0.31, "aggregate": 0.14, "cumulative": 0.04,
        "select_columns": 0.10, "slice_head": 0.06, "matmul": 0.06,
        "join_sorted": 0.04, "one_hot": 0.04,
        "value_filter": 0.13, "sort_values": 0.04, "group_by": 0.04,
    },
    # Netflix notebooks: heavier exploration (filters/sorts/group-bys).
    "Netflix": {
        "elementwise": 0.26, "aggregate": 0.14, "cumulative": 0.02,
        "select_columns": 0.08, "slice_head": 0.06, "matmul": 0.02,
        "join_sorted": 0.03, "one_hot": 0.03,
        "value_filter": 0.18, "sort_values": 0.09, "group_by": 0.09,
    },
}


@lru_cache(maxsize=None)
def kind_is_compressible(kind: str) -> bool:
    """Run ProvRC on the kind's small instance; apply the <0.5 criterion."""
    return provrc_compressible([CATALOG[kind]()])


@dataclass
class NotebookStats:
    total_ops: int
    compressible: int
    longest_chain: int

    @property
    def pct(self) -> float:
        return 100.0 * self.compressible / self.total_ops


def simulate_notebook(profile: str, seed: int | tuple[int, ...]) -> NotebookStats:
    """One synthetic notebook: op count ~ the paper's spread (~55 +/- 37),
    chains drawn geometrically, kinds drawn from the profile mix. ``seed``
    is any ``np.random.default_rng`` seed."""
    g = np.random.default_rng(seed)
    kinds = list(PROFILES[profile])
    weights = np.array([PROFILES[profile][k] for k in kinds])
    weights = weights / weights.sum()
    total = int(np.clip(g.lognormal(mean=3.8, sigma=0.7), 8, 200))
    chains: list[int] = []
    remaining = total
    # ML-leaning notebooks chain longer before starting a fresh array.
    p_continue = 0.90 if profile == "Flight" else 0.87
    while remaining > 0:
        length = 1
        while remaining - length > 0 and g.random() < p_continue:
            length += 1
        chains.append(length)
        remaining -= length
    drawn = g.choice(kinds, size=total, p=weights)
    compressible = int(sum(kind_is_compressible(k) for k in drawn))
    return NotebookStats(total, compressible, max(chains))


def _summary_row(dataset: str, stats: list[NotebookStats]) -> dict:
    row = {"dataset": dataset}
    for name, values in (
        ("total", [s.total_ops for s in stats]),
        ("compress", [s.compressible for s in stats]),
        ("pct", [s.pct for s in stats]),
        ("chain", [s.longest_chain for s in stats]),
    ):
        row[f"{name}_mean"] = np.mean(values)
        row[f"{name}_std"] = np.std(values)
    return row


def run_study(n_notebooks: int = 10, *, seed: int = 0) -> pd.DataFrame:
    """Table X: per-dataset mean +/- std of total ops, compressible ops,
    compressible %, and longest chain over simulated notebooks. Notebook
    ``i`` of profile ``k`` draws from seed ``(seed, k, i)``, so no two
    notebooks, in one profile or across profiles, share a stream."""
    stats = {
        profile: [simulate_notebook(profile, (seed, k, i)) for i in range(n_notebooks)]
        for k, profile in enumerate(PROFILES)
    }
    rows = [_summary_row(profile, s) for profile, s in stats.items()]
    rows.append(_summary_row("Total", [n for s in stats.values() for n in s]))
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame) -> str:
    """Paper-style Table X rows: mean ± std per statistic."""
    lines = [f"{'Dataset':<9}{'Total Op.':>18}{'Compress Abs':>18}{'(%)':>16}{'Longest Chain':>18}"]
    for _, r in df.iterrows():
        lines.append(
            f"{r['dataset']:<9}"
            f"{r['total_mean']:>9.1f} ± {r['total_std']:<6.1f}"
            f"{r['compress_mean']:>9.1f} ± {r['compress_std']:<6.1f}"
            f"{r['pct_mean']:>8.1f} ± {r['pct_std']:<5.1f}"
            f"{r['chain_mean']:>9.1f} ± {r['chain_std']:<6.1f}"
        )
    return "\n".join(lines)
