"""Fixed-work benchmark for the ``repro`` co-scheduling engine.

Run it through ``perfbench/run.py``; see ``perfbench/README.md``.
"""
