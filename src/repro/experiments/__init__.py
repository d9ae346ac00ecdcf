"""Harnesses that regenerate the paper's evaluation tables.

- ``table7``: compression size/ratio for 12 ops x 7 storage formats;
- ``table9``: numpy API coverage of compression and reuse;
- ``latency``: query-latency comparison (Figures 8/9 shape check).

Each module exposes ``run_*`` returning a DataFrame plus the paper's
reference numbers, and ``format_table`` printing paper-style rows. Table X
(Kaggle workflow statistics) lives in ``repro.workflows.kaggle_sim``, with
the same ``run_study`` / ``format_table`` pair. The ``jobs/`` entrypoints
and ``benchmarks/`` wrap these.
"""
