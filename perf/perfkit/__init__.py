"""The repository's benchmark: workloads, load generators, checks, tracing.

``perf/run.py`` is the one entry point.  It never imports :mod:`repro`
itself; every workload runs in a fresh child process (``perfkit.child``) so
that ``setup_s`` includes the import and no run inherits another's heap.
"""
