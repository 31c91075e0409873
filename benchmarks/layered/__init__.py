"""Layered benchmark: five named workloads, end-to-end and per-layer metrics.

The harness drives only public functions of ``repro.core``, ``repro.engine``,
``repro.ivm``, ``repro.obs``, ``repro.tpcr`` and ``repro.workloads`` and times
them from outside; it changes nothing under ``src/``.  ``BENCHMARK.json`` at
the repository root names the single-run entry point (``run.py``); ``python -m
benchmarks.layered`` runs every workload and prints every metric.  See
``README.md`` in this directory for the metric catalogue.
"""
