"""End-to-end and per-layer benchmark of verisim; run it as ``python3 perfbench/run.py``."""
