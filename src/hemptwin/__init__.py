"""hemptwin: stochastic digital twin of a ledger-backed hemp supply chain.

The package simulates lots moving from seed to finished CBD oil through a
queueing network of field, lab, drying, and processing resources, records
every hand-off on a simulated proof-of-authority ledger (two-layer sharded,
single-chain, or disabled), and decomposes the variance of final-product
quality across the random inputs with Shapley values.
"""

from .config import default_config
from .simulation import run_replication

__version__ = "0.1.0"
