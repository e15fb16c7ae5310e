"""Cache substrate: functional L1/L2/DRAM stack plus the timed DRAM tier.

The package imports nothing: import the submodule you need.  The tier's
configuration (:mod:`repro.cache.config`) imports no cache
implementation, so a run without a tier loads neither the tier
(:mod:`repro.cache.frontend`) nor the set-associative cache behind it.
"""
