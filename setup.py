"""Setup shim for environments whose pip/setuptools cannot build editable
installs through PEP 517 (no `wheel` available offline).  This file is the
package's only metadata; the version is read from `src/repro/__init__.py`,
its one source."""
import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-null-relations",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
