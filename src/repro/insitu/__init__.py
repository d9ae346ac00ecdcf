"""In-situ query processing over compressed lineage (paper §V).

- ``theta_join``: the θ-join kernel, int64 numpy behind a pandas
  interface — a sort-based interval join on the primary key,
  de-relativization, projection, and the merge (row-reduction)
  optimization.
- ``spark_query``: chained forward/backward queries over a pipeline of
  compressed lineage tables, in Spark: the same kernel per partition of
  a store scan filtered on the query's primary-key hull, no shuffle.
- ``store``: compressed tables persisted as Parquet sorted on the primary
  key axis; a query step's key predicate pushes down to row-group stats.
- ``baseline_query``: the DPSM baselines' query path (decompress +
  equality joins, served by DuckDB or Spark).
"""
from repro.insitu.theta_join import chain_query, merge_intervals  # noqa: F401
