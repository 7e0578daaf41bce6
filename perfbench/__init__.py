"""Benchmark of the simulation step and the join service (see ``perfbench/run.py``)."""
