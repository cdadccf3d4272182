"""Setuptools entry point.

A bare ``setup()``: the repository carries no ``pyproject.toml`` or
``setup.cfg``, so no project metadata is declared anywhere.  Tests, examples
and the benchmark all run from the checkout with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
