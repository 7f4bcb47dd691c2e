"""Exact simulation and schedule optimization for blockwise Grover search.

A database of n items is split into k equal blocks and the task is to
find the block holding the single marked item, not the item itself.
The algorithm alternates global Grover iterations over the whole
database with local iterations confined to each block, then applies one
last global iteration.  Done right this undercuts a full search by a
constant times sqrt(block size) queries.

Two engines are provided: a closed 3-amplitude recursion (`model`) that
is exact for any size, and a literal state-vector simulator
(`statevector`) used to cross-check it.  `optimizer` picks iteration
counts, `analysis` compares costs against the natural baselines, and
`cli` wraps everything in a command-line tool.
"""

from . import analysis, errors, model, optimizer, statevector
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .statevector import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *model.__all__,
    *statevector.__all__,
    *optimizer.__all__,
    *analysis.__all__,
    "__version__",
]
