"""Benchmark of the relaycm CLI sweeps; see README.md."""
