"""Setup shim for environments without the `wheel` package.

All metadata lives in pyproject.toml; this file only enables legacy
editable installs (`pip install -e .`) on offline machines where PEP 660
wheel building is unavailable.
"""
from setuptools import setup

setup()
