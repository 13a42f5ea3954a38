"""Modules of the end-to-end QMC benchmark driven by ``perfbench/run.py``."""
