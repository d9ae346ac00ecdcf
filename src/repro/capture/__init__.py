"""Lineage capture substrates (paper §VII.A).

DSLog is agnostic to capture methodology; the paper ships three prototype
capture methods, all rebuilt here:

- ``numpy_ops``: the 136-operation numpy registry (75 element-wise + 61
  complex, paper Table IX) with analytic lineage generators for
  value-independent ops and executed capture for value-dependent ones
  (the tracked_cell role).
- ``tracked``: perturbation-based ground-truth capture — runs the real
  numpy op and observes which outputs change when an input cell is
  perturbed. Used in tests to validate every analytic generator on small
  shapes (this is the same mechanism as the paper's explainable-AI
  capture, applied as an oracle).
- ``relational``: custom group-by and inner-join operators (Spark SQL)
  that record cell-level lineage on execution.
- ``explain``: LIME / D-RISE-style saliency capture over a synthetic
  detector (see DESIGN.md substitutions).
"""
