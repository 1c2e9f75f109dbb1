"""The repo benchmark (see README.md); run with ``python3 bench/run.py``."""
