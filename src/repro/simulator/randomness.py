"""Deterministic named random-number streams.

Every stochastic component in the library draws from its own named stream
derived from a single root seed.  This keeps experiments reproducible and
— more importantly — *decoupled*: adding draws to one component does not
perturb the sequence seen by any other component, so ablations compare
like with like.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A family of independent :class:`random.Random` streams.

    Example
    -------
    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("traces")
    >>> b = streams.get("placement")
    >>> a is streams.get("traces")
    True
    >>> a is b
    False
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this family was created from."""
        return self._seed

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self._seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:
        return f"<RngStreams seed={self._seed} streams={sorted(self._streams)}>"
