"""Setup shim: enables `python setup.py develop` in offline environments
where pip's PEP-660 editable route is unavailable (no `wheel` package).

Lint/format configuration lives in pyproject.toml ([tool.ruff]); the
`dev` extra mirrors requirements-dev.txt for pip-based setups."""
from setuptools import setup

setup(
    extras_require={
        "dev": [
            "pytest",
            "hypothesis",
            "pytest-benchmark",
            "ruff",
        ],
    },
)
