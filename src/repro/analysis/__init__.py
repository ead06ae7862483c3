"""Partition analysis: the per-partition diagnostics behind ``--detail``."""
