"""Trace-driven CPU model: cores, multicore wrapper, rollback accounting.

The package imports nothing: import the submodule you need
(``repro.cpu.core``, ``repro.cpu.multicore``, ``repro.cpu.rollback``).
"""
