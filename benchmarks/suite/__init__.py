"""End-to-end benchmark suite (see README.md; entry point: run.py)."""
