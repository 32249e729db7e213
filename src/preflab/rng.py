"""Deterministic named random streams.

Every stochastic component owns a stream derived from (seed, *tags). Tags are
hashed with blake2b, not Python's ``hash``, so streams are stable across
processes and platforms.
"""

import hashlib

import numpy as np

from .errors import ConfigurationError


def check_seed(seed: int, name: str) -> None:
    """ConfigurationError naming ``name`` unless 0 <= seed < 2**64: no two such seeds alias."""
    if not 0 <= seed < 1 << 64:
        raise ConfigurationError(f"{name} must lie in [0, 2**64), got {seed}")


def _tag_entropy(tag: str) -> int:
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(seed: int, *tags: str) -> np.random.Generator:
    """Independent PCG64 generator keyed by an integer seed and string tags."""
    entropy = [int(seed)] + [_tag_entropy(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def mix_seeds(a: int, b: int) -> int:
    """Fold two seeds into one 64-bit seed; order-sensitive."""
    payload = f"{int(a)}:{int(b)}".encode("ascii")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
