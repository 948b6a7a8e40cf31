"""Benchmark for streamcc; run it with ``python3 bench/run.py``."""
