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
`cli` wraps everything in a command-line tool.  All of these but
`statevector` are pure Python; `statevector`, the one module with a
third-party dependency, is imported on first use of it or of its names.
"""

import importlib

from . import analysis, errors, model, optimizer
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.1.0"

#: ``statevector.__all__``, listed here so that naming them imports nothing.
_STATEVECTOR_ALL = (
    "DEFAULT_AMPLITUDE_CAP", "AMPLITUDE_QUERY_CAP", "PGSV_MAGIC", "PGSV_VERSION",
    "FullState",
    "sv_uniform", "sv_run_schedule", "sv_reduce", "measure_block_distribution",
    "save_state", "load_state",
)

__all__ = [
    *errors.__all__,
    *model.__all__,
    *_STATEVECTOR_ALL,
    *optimizer.__all__,
    *analysis.__all__,
    "__version__",
]


def __getattr__(name: str):
    """Resolve ``statevector`` and its public names on each lookup (PEP 562).

    Nothing is cached here, so a name rebound in ``statevector`` after
    import is what ``pgsearch.<name>`` returns.
    """
    if name == "statevector" or name in _STATEVECTOR_ALL:
        statevector = importlib.import_module(".statevector", __name__)
        return statevector if name == "statevector" else getattr(statevector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
