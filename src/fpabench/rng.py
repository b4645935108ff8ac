"""Counter-based random streams.

Every consumer of randomness gets its own Philox stream keyed by
(master seed, purpose, actor), so replications can run in any order or in
parallel and still reproduce byte-identical traces.
"""

from __future__ import annotations

import numpy as np

from .grids import check_integer

ADVERSARY = 1
VALUES = 2
RANKING = 3
TESTING = 4


def stream_rng(master_seed: int, purpose: int, actor: int = 0) -> np.random.Generator:
    """Independent generator for one (purpose, actor) pair under a master seed."""
    if not 0 <= check_integer(master_seed, "master seed") < 2**64:
        raise ValueError("master seed must fit in 64 bits")
    key = np.array([master_seed, (purpose << 32) + actor], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
