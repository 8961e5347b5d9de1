"""The decision benchmark (see run.py)."""
