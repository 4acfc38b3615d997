"""Deterministic RNG derivation.

All randomness in the package flows from one user-supplied root seed.
Sub-streams are derived by hashing the root seed together with a scope
path (component name, trial index, ...), so independent components and
parallel trials get decorrelated, reproducible streams regardless of
execution order or worker count.

The seeded label-set draw, frozenset(rng.sample(range(k), sigma)), also
lives here, in a form that makes the same draws for less
(label_sampler); BLLL and the Monte-Carlo trials both draw through it.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable


def derive_seed(root: int, *scope: object) -> int:
    """Hash (root, scope...) into a 64-bit stream seed."""
    text = ":".join([str(root), *(str(part) for part in scope)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(root: int, *scope: object) -> random.Random:
    """A fresh random.Random seeded from the derived stream seed."""
    return random.Random(derive_seed(root, *scope))


# most label-draw sequences one sampler may tabulate (one frozenset each);
# beyond it draws call random.sample
LABEL_TABLE_LIMIT = 32_768


def label_sampler(
    k: int, sigma: int
) -> Callable[[random.Random], Callable[..., frozenset[int]]]:
    """bind(rng) -> draw, where draw() returns frozenset(rng.sample(range(k), sigma)).

    draw(avoid) draws again, in the same way, while the drawn set equals
    avoid, so it makes the draws of a loop that calls sample until the
    set differs; avoid must not be the only exactly-sigma set.

    random.sample draws from a pool list whenever k <= 21: it picks
    j_i = randrange(k - i) for i < sigma and moves the pool's last free
    entry into the gap. randrange(r) is Random._randbelow_with_getrandbits
    (Python 3.10 to 3.13): getrandbits(r.bit_length()), drawn again
    while >= r. draw() makes those draws, reads them as one mixed-radix
    index and looks the label set up in a table that replays the pool
    swap for each index on first use. Each entry is built in draw order,
    as frozenset(sample(...)) is, so it iterates in the same order too.
    The table belongs to this sampler and is shared by every rng bound to
    it, so a caller that draws with many rngs (one per trial) fills it
    once. Above k = 21, or when the table could hold more than
    LABEL_TABLE_LIMIT draw sequences, draw() calls sample.
    """
    if k > 21 or math.perm(k, sigma) > LABEL_TABLE_LIMIT:

        def bind_sample(rng: random.Random) -> Callable[..., frozenset[int]]:
            sample = rng.sample

            def draw(avoid: frozenset[int] | None = None) -> frozenset[int]:
                labels = frozenset(sample(range(k), sigma))
                while labels == avoid:
                    labels = frozenset(sample(range(k), sigma))
                return labels

            return draw

        return bind_sample

    radices = range(k, k - sigma, -1)
    radix_bits = tuple((r, r.bit_length()) for r in radices)
    table: dict[int, frozenset[int]] = {}

    def decode(index: int) -> frozenset[int]:
        draws = []
        for r in reversed(radices):
            index, j = divmod(index, r)
            draws.append(j)
        pool = list(range(k))
        picked = []
        for r, j in zip(radices, reversed(draws)):
            picked.append(pool[j])
            pool[j] = pool[r - 1]
        return frozenset(picked)

    def bind(rng: random.Random) -> Callable[..., frozenset[int]]:
        getrandbits = rng.getrandbits

        def draw(avoid: frozenset[int] | None = None) -> frozenset[int]:
            while True:
                index = 0
                for r, bits in radix_bits:
                    j = getrandbits(bits)
                    while j >= r:
                        j = getrandbits(bits)
                    index = index * r + j
                labels = table.get(index)
                if labels is None:
                    labels = table[index] = decode(index)
                # the identity test first keeps draw() as fast as a draw without avoid
                if avoid is None or labels != avoid:
                    return labels

        return draw

    return bind
