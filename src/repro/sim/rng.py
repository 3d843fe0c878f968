"""Seeded random-number streams for reproducible simulations.

Different parts of a simulation (arrivals, traceroute loss, random baseline,
churn) must not share one RNG: adding a draw in one component would otherwise
shift every other component's randomness and silently change results.  The
:class:`RandomStreams` factory derives an independent, deterministic
:class:`random.Random` per named stream from a single experiment seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional

from .._validation import coerce_seed


def derive_seed(base_seed: Optional[int], stream_name: str) -> int:
    """Derive a deterministic 63-bit seed for ``stream_name`` from ``base_seed``."""
    material = f"{base_seed if base_seed is not None else 'none'}::{stream_name}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RandomStreams:
    """A factory of named, independently seeded random streams."""

    def __init__(self, base_seed: Optional[int] = None) -> None:
        self.base_seed = coerce_seed(base_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.base_seed, name))
        return self._streams[name]

    def seed_for(self, name: str) -> int:
        """Return the derived integer seed for ``name`` (for APIs that take seeds)."""
        return derive_seed(self.base_seed, name)

    def __repr__(self) -> str:
        return f"RandomStreams(base_seed={self.base_seed}, streams={sorted(self._streams)})"
