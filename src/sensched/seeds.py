"""Deterministic RNG derivation.

All randomness in the package flows from one user-supplied root seed.
Sub-streams are derived by hashing the root seed together with a scope
path (component name, trial index, ...), so independent components and
parallel trials get decorrelated, reproducible streams regardless of
execution order or worker count.

The seeded label-set draw, frozenset(rng.sample(range(k), sigma)), and
randrange(n) also live here, in forms that make the same draws for
less (label_sampler, randbelow); BLLL and the Monte-Carlo trials both
draw through them.
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


def randbelow(rng: random.Random) -> Callable[[int], int]:
    """A below(n) that returns rng.randrange(n) for n >= 1, with its draws.

    randrange(n) is Random._randbelow_with_getrandbits(n) (Python 3.10 to
    3.13): r = getrandbits(n.bit_length()), drawn again while r >= n.
    below(n) runs that loop without randrange's argument handling.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    return below


def label_sampler(
    k: int, sigma: int
) -> Callable[[random.Random], Callable[[], frozenset[int]]]:
    """bind(rng) -> draw(), where draw() returns frozenset(rng.sample(range(k), sigma)).

    random.sample draws from a pool list whenever k <= 21: it picks
    j_i = randbelow(k - i) for i < sigma and moves the pool's last free
    entry into the gap. draw() makes those draws (the getrandbits loop of
    randbelow), reads them as one mixed-radix index and looks the label
    set up in a table that replays the pool swap for each index on first
    use. Each entry is built in draw order, as frozenset(sample(...)) is,
    so it iterates in the same order too. The table belongs to this
    sampler and is shared by every rng bound to it, so a caller that
    draws with many rngs (one per trial) fills it once. Above k = 21, or
    when the table could hold more than LABEL_TABLE_LIMIT draw sequences,
    draw() calls sample.
    """
    if k > 21 or math.perm(k, sigma) > LABEL_TABLE_LIMIT:

        def bind_sample(rng: random.Random) -> Callable[[], frozenset[int]]:
            return lambda: frozenset(rng.sample(range(k), sigma))

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

    def bind(rng: random.Random) -> Callable[[], frozenset[int]]:
        getrandbits = rng.getrandbits

        def draw() -> frozenset[int]:
            index = 0
            for r, bits in radix_bits:
                j = getrandbits(bits)
                while j >= r:
                    j = getrandbits(bits)
                index = index * r + j
            labels = table.get(index)
            if labels is None:
                labels = table[index] = decode(index)
            return labels

        return draw

    return bind
