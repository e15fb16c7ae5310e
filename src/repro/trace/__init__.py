"""Workload profiles, synthetic trace generation and trace file I/O.

The package imports nothing: import the submodule you need
(``repro.trace.workloads``, ``repro.trace.synthetic``,
``repro.trace.trace_io``).
"""
