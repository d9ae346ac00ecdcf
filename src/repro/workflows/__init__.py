"""Evaluation workflows (paper §VII.D, Table VIII) and the Kaggle
notebook simulation (§VII.F, Table X)."""
