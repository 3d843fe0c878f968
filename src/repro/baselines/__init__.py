"""The two references the paper's figure measures the scheme against.

* :class:`~repro.baselines.random_selection.RandomSelection` draws ``k``
  neighbours uniformly (``D_random``);
* :class:`~repro.baselines.brute_force.BruteForceOracle` returns the ``k``
  truly closest peers (``D_closest``).
"""

from .random_selection import RandomSelection
from .brute_force import BruteForceOracle

__all__ = [
    "RandomSelection",
    "BruteForceOracle",
]
