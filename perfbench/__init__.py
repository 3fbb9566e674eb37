"""Benchmark of the four-level flow: see ``run.py`` and ``NOTES.md``."""
