"""Benchmark of the multisection package: see README.md and run.py."""
