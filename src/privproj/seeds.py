"""Deterministic 64-bit seed derivation.

All randomness in the package flows from a single master seed through
``mix``, a splitmix64 chain over typed tokens. Strings are folded in via an
8-byte blake2b digest, floats via their IEEE-754 bit pattern, so derived
seeds are stable across platforms and runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["mix", "rng_from"]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _token(value: int | float | str) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value) & _MASK64
    if isinstance(value, (float, np.floating)):
        return int(np.float64(value).view(np.uint64))
    if isinstance(value, str):
        digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    raise TypeError(f"cannot derive a seed token from {type(value).__name__}")


def mix(seed: int, *parts: int | float | str) -> int:
    """Chain `seed` and `parts` through splitmix64; returns an unsigned 64-bit seed."""
    state = splitmix64(_token(seed))
    for part in parts:
        state = splitmix64(state ^ _token(part))
    return state


def rng_from(seed: int, *parts: int | float | str) -> np.random.Generator:
    """PCG64 generator seeded from a mix chain."""
    return np.random.Generator(np.random.PCG64(mix(seed, *parts)))
