"""Setup script.

The execution environment is offline and has no ``wheel`` package, so PEP
517 editable installs (which need ``bdist_wheel``) fail.  This script lets
``pip install -e . --no-use-pep517 --no-build-isolation`` (and plain
``python setup.py develop``) work with the legacy setuptools code path.
There is no ``pyproject.toml``: the project metadata is stated here.
"""

from setuptools import find_packages, setup

setup(
    name="adsala-repro",
    version="1.6.0",  # repro.__version__
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["adsala = repro.cli:main"]},
)
