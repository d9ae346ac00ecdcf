"""Synthetic relational tables for the relational-capture experiments.

Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def imdb_like(
    spark: SparkSession, *, n_titles: int = 50_000, n_episodes: int = 80_000, seed: int = 7
) -> tuple[DataFrame, DataFrame]:
    """Synthetic stand-ins for IMDB title.basics / title.episode (paper §VII).

    Preserves the structural properties the paper's relational experiments
    depend on (DESIGN.md §4): ``tconst`` and ``startYear`` are sorted in
    the base table, ``isAdult`` is unsorted and low-cardinality, and
    episodes reference a sorted parent ``tconst``. Absolute sizes are
    scaled down; compression *ratios* are what Table VII compares.
    """
    g = np.random.default_rng(seed)
    basics = pd.DataFrame(
        {
            "tconst": np.arange(n_titles, dtype="int64"),
            "startYear": np.sort(g.integers(1950, 2023, n_titles)).astype("int64"),
            "isAdult": g.integers(0, 2, n_titles).astype("int64"),
            "genre_id": g.integers(0, 28, n_titles).astype("int64"),
        }
    )
    episodes = pd.DataFrame(
        {
            "tconst": np.sort(g.integers(0, n_titles, n_episodes)).astype("int64"),
            "seasonNumber": g.integers(1, 15, n_episodes).astype("int64"),
            "episodeNumber": g.integers(1, 30, n_episodes).astype("int64"),
        }
    )
    return spark.createDataFrame(basics), spark.createDataFrame(episodes)
