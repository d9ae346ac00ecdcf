"""In-situ query processing over compressed lineage (paper §V).

- ``theta_join``: the pandas θ-join kernel — range join on key
  intervals, de-relativization, projection, and the merge (row-reduction)
  optimization.
- ``range_join``: a bucketed band join that runs the range join on
  Spark's shuffle path (broadcast joins are disabled session-wide).
- ``spark_query``: chained forward/backward queries over a pipeline of
  compressed lineage tables, in Spark.
- ``store``: compressed tables persisted as Parquet sorted on the primary
  key axis; backward-query predicates push down to row-group stats.
- ``baseline_query``: the DPSM baselines' query path (decompress +
  equality joins, served by DuckDB or Spark).
"""
from repro.insitu.theta_join import chain_query, merge_intervals  # noqa: F401
