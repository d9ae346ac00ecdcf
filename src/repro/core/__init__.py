"""Core contribution of the paper: the ProvRC compression algorithm.

Modules:

- ``ranges``:  vectorized interval / run-scan primitives shared by the
  compression kernel and the in-situ query processor.
- ``model``:   naming conventions for lineage relations and their
  compressed representation (lo/hi pairs, rep codes).
- ``provrc``:  the numpy ProvRC kernel — multi-attribute range
  encoding and the relative value transformation on matrices (pandas
  only at its frame-in, frame-out boundary), decompression, and query
  encoding. Exact per-paper semantics; unit-tested against the paper's
  worked examples (Tables I-VI).
- ``spark_provrc``: Spark-parallel compression built on the kernel
  (``provrc.chunk`` per hash partition of the primary key,
  ``provrc.stitch`` once).
- ``storage``: the on-disk binary format for compressed tables and its
  GZip variant (ProvRC / ProvRC-GZip in Table VII).
"""
