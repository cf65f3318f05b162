"""Package metadata for ``repro``.

All metadata lives here; there is deliberately no ``pyproject.toml``.
Without one, ``pip install -e .`` takes the classic ``setup.py develop``
path, which works where the ``wheel`` package is not installed and a
PEP 517 build would fail.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One source of truth for the version: the package itself.
INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
