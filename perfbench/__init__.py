"""Benchmark of the trie-hashing stack; run ``python3 perfbench/run.py --help``."""
