"""In-situ query processing over compressed lineage (paper §V).

- ``theta_join``: the θ-join kernel on int64 matrices — a sort-based
  interval join on the primary key, de-relativization, projection, and
  the merge (row-reduction) optimization (``theta_join``,
  ``merge_intervals``), chained along a path by ``chain_query``.
- ``spark_query``: chained forward/backward queries over a pipeline of
  compressed lineage tables, in Spark: one task per partition of a store
  scan filtered on the query's primary-key hull runs the same
  ``theta_join`` for every step, the later tables collected once to the
  driver and shipped to the task; no shuffle.
- ``store``: compressed tables persisted as Parquet sorted on the primary
  key axis; a query step's key predicate pushes down to row-group stats.
- ``baseline_query``: the DPSM baselines' query path (decompress +
  equality joins, served by DuckDB or Spark).
"""
