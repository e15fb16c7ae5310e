"""DDR3-style PCM main-memory substrate (DRAMSim2-equivalent, from scratch).

The package imports nothing: import the submodule you need
(``repro.memory.memsys``, ``repro.memory.request``, ...).  The functional
store, the energy model and the wear model load only where they are used.
"""
