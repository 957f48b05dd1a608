"""The repository benchmark: four workloads, one command (``run.py``)."""
