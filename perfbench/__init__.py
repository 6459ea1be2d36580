"""Benchmark of the paper's three user paths (see README.md)."""
