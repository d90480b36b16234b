"""Initial-preference vector generators.

EBA runs are parameterised by the vector of initial preferences; these helpers
produce the vectors used by the experiments:

* the two uniform vectors (all 0s / all 1s),
* "one dissenter" vectors,
* exhaustive enumeration (for the small systems fed to the model checker),
* reproducible random vectors.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Union

from ..core.types import PreferenceVector

#: Seed-like argument: an int seeds a fresh ``random.Random``; passing a
#: ``random.Random`` instance draws from that stream directly, which lets
#: parallel workers derive independent deterministic streams.
SeedLike = Union[int, random.Random]


def resolve_rng(seed: SeedLike) -> random.Random:
    """Turn a seed-like argument into a ``random.Random`` instance."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def all_zeros(n: int) -> PreferenceVector:
    """Every agent prefers 0."""
    return tuple(0 for _ in range(n))


def all_ones(n: int) -> PreferenceVector:
    """Every agent prefers 1."""
    return tuple(1 for _ in range(n))


def single_zero(n: int, holder: int = 0) -> PreferenceVector:
    """All agents prefer 1 except ``holder``, who prefers 0."""
    return tuple(0 if agent == holder else 1 for agent in range(n))


def enumerate_preferences(n: int) -> Iterator[PreferenceVector]:
    """All ``2^n`` preference vectors (smallest-index agent varies fastest last)."""
    for combo in itertools.product((0, 1), repeat=n):
        yield tuple(combo)


def random_preferences(n: int, count: int, seed: SeedLike = 0,
                       zero_probability: float = 0.5) -> List[PreferenceVector]:
    """``count`` random preference vectors drawn i.i.d. with the given 0-probability.

    ``seed`` may be an int or a ``random.Random`` instance (see :data:`SeedLike`).
    """
    rng = resolve_rng(seed)
    vectors: List[PreferenceVector] = []
    for _ in range(count):
        vectors.append(tuple(0 if rng.random() < zero_probability else 1 for _ in range(n)))
    return vectors
