"""Deterministic seed derivation so every stage is reproducible from one root seed."""
from __future__ import annotations

import hashlib
import random


def _key(root: int, parts: tuple) -> bytes:
    """The key a seed is hashed from: the root and every label part, joined by ':'."""
    return ":".join([str(root), *(str(p) for p in parts)]).encode("utf-8")


def derive_seed(root: int, *parts: object) -> int:
    """Stable 64-bit sub-seed for a labelled stage under a root seed.

    Uses blake2b on the label path rather than hash(), which is salted
    per process and would break cross-run determinism.
    """
    return int.from_bytes(hashlib.blake2b(_key(root, parts), digest_size=8).digest(), "big")


def rng_for(root: int, *parts: object) -> random.Random:
    """Fresh RNG for a labelled stage; independent of draw order elsewhere."""
    return random.Random(derive_seed(root, *parts))


class Draws:
    """One seeded stream per item under a shared label, for many items.

    `reseed(*item)` starts the stream `rng_for(root, *parts, *item)` starts,
    hashing the shared label once per Draws rather than once per item, and
    reseeds one Random rather than making one per item. `below(n)` draws the
    index that stream's `choice` of an n-item sequence would, and `shuffle`
    makes the swaps its `shuffle` would; both read `getrandbits` as
    `Random._randbelow` does, without its per-call overhead.
    """

    __slots__ = ("_prefix", "_rng", "_bits")

    def __init__(self, root: int, *parts: object):
        self._prefix = hashlib.blake2b(_key(root, parts) + b":", digest_size=8)
        self._rng = random.Random(0)  # reseeded before each item's draws
        self._bits = self._rng.getrandbits

    def reseed(self, *item: object) -> None:
        key = self._prefix.copy()
        key.update(":".join(map(str, item)).encode("utf-8"))
        self._rng.seed(int.from_bytes(key.digest(), "big"))

    def below(self, n: int) -> int:
        """A draw in [0, n); an empty range raises IndexError, as choice of
        an empty sequence does (getrandbits(0) is 0, which never falls below 0)."""
        if n <= 0:
            raise IndexError("cannot choose from an empty sequence")
        bits, k = self._bits, n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def shuffle(self, items: list) -> None:
        below = self.below
        for i in range(len(items) - 1, 0, -1):
            j = below(i + 1)
            items[i], items[j] = items[j], items[i]
