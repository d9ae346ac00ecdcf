"""Lineage reuse (paper §VI): operation signatures, index reshaping, and
automatic reuse prediction."""
