"""End-to-end and per-layer benchmark of the opmeans command line.

Nothing in this package imports numpy at import time: the entry points pin
the BLAS/OpenMP thread variables first (see ``pinning``).
"""

WORKLOAD_NAMES = ("suite-default", "suite-large-dim", "pair-files", "explore-scan")
