"""PCMap: the paper's contribution — RoW, WoW, rotation, fine-grained writes.

The package imports nothing: import the submodule you need
(``repro.core.systems``, ``repro.core.row``, ...).  A run loads each
policy module when :func:`repro.core.systems.build_policies` puts it in
the chain, and the fine write engine only on a system with fine-grained
writes, so a baseline run never loads the engine, RoW or WoW.
"""
