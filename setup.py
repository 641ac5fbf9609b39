"""Legacy setup shim: the offline environment lacks `wheel`, so pip's
PEP 517 editable path is unavailable; `pip install -e .` falls back to
`setup.py develop` through this file, which holds all the metadata
there is (the repo has no pyproject.toml).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
