"""Synthetic peer paths: a landmark tree's shape without a router map.

A three-level access hierarchy (region, PoP, access router) under one core
router reproduces the fan-out of a real landmark tree, so plane-level tests
and the protocol experiment can populate a management plane at any size
without paying for a full router-map build.
"""

from __future__ import annotations

import random
from typing import List

from ..core.path import RouterPath


def synthetic_paths(
    count: int,
    seed: int = 3,
    landmark: str = "lmk",
    prefix: str = "peer",
) -> List[RouterPath]:
    """``count`` synthetic peer paths over a three-level access hierarchy."""
    rng = random.Random(seed)
    paths: List[RouterPath] = []
    for index in range(count):
        region = rng.randrange(12)
        pop = rng.randrange(30)
        access = rng.randrange(60)
        routers = [
            f"access-{region}-{pop}-{access}",
            f"pop-{region}-{pop}",
            f"region-{region}",
            "core",
            landmark,
        ]
        paths.append(RouterPath.from_routers(f"{prefix}{index}", landmark, routers))
    return paths
