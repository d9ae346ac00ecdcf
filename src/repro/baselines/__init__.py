"""DPSM baseline storage formats evaluated against ProvRC (paper §VII.B).

- ``formats``: Raw (row-oriented uncompressed CSV, Ground-style), Array
  (numpy ``.npy``), Parquet (default encodings + snappy), Parquet-GZip,
  the writer of all five baselines, and the compressibility rule.
- ``turborc``: a custom columnar format applying run-length encoding plus
  an integer entropy-coding stage per column — the paper's Turbo-RC
  stand-in. It must be explicitly decompressed before querying, which is
  what gives it its large query-latency overhead in the paper.
"""
