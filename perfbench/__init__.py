"""The repository benchmark: four closed-loop workloads, timed from outside.

``perfbench/run.py`` is the command; :mod:`perfbench.workloads` defines
what each workload runs and checks; :mod:`perfbench.spans` records the
per-layer spans of a traced run.  See ``perfbench/README.md``.
"""
