"""Benchmark for the ufbwiener package; the entry point is `perfbench/run.py`."""
