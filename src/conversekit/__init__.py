"""Minimax-risk lower bounds from binary hypothesis testing.

The library computes error floors for M-ary identification via a
change-of-measure strong converse, derives the risk floors they imply for
three worked estimation problems, compares them against Fano-type baselines,
and cross-checks everything against exact brute-force oracles on small
instances.
"""

__version__ = "0.1.0"

from . import applications, converse, divergence, oracle, packing
from .applications import *
from .converse import *
from .divergence import *
from .oracle import *
from .packing import *

__all__ = [
    "__version__",
    *applications.__all__,
    *converse.__all__,
    *divergence.__all__,
    *oracle.__all__,
    *packing.__all__,
]
