"""Random-number-generator plumbing.

Every stochastic entry point in this library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an integer, or an already-constructed
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps the
rest of the codebase free of ``isinstance`` checks and makes experiments
reproducible by passing a single integer at the top level.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so helper functions
    can thread a single stream through nested calls without reseeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def int_seed(seed: SeedLike) -> int:
    """An integer seed that yields the same streams every time it is used.

    Integers pass through; a generator, ``SeedSequence`` or ``None`` draws
    one.  For runners that record their seed, build a ``SeedSequence``
    for worker processes, or seed several stages alike: a generator's
    spawn counter advances on every use, so handing the same generator to
    two stages gives them different streams.
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(as_rng(seed).integers(2**63))


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Produce ``n`` statistically independent child generators.

    Used when an experiment runs several replicates (e.g. the nine seeds of
    Figs. 14 and 15) and wants each replicate independent yet reproducible
    from one master seed.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        return seed.spawn(n)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
