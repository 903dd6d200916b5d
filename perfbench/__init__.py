"""Benchmark of the exploration flow (see ``perfbench/run.py``)."""
