"""Packaging metadata; there is no pyproject.toml, this file is all of it.

`pip install -e . --no-build-isolation` puts `src/repro` on the path and
installs the `repro-experiments` console script, which is `python -m
repro.cli` under its advertised name.  The library imports only the standard
library, so nothing is fetched where setuptools is present.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing the package would run its import graph at
# build time.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src/repro/__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description='Reproduction of "A quicker way to discover nearby peers" (CoNEXT 2007)',
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro-experiments = repro.cli:main"]},
)
