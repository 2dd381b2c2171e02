"""Setuptools entry point.

The only packaging file (there is no pyproject.toml), so
`pip install -e .` works in offline environments without the `wheel`
package (legacy editable install).

The version is single-sourced from ``src/repro/__init__.py`` — read
textually so the package (and its dependencies) need not be importable
at install time.
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    init_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "src", "repro", "__init__.py"
    )
    with open(init_path, "r", encoding="utf-8") as handle:
        match = re.search(
            r"^__version__\s*=\s*[\"']([^\"']+)[\"']", handle.read(), re.M
        )
    if match is None:
        raise RuntimeError(f"__version__ not found in {init_path}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "Subgraph pattern matching over uncertain graphs with identity "
        "linkage uncertainty (ICDE 2014 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
