"""Pipeline benchmark of the JECB reproduction; entry point ``run.py``."""
