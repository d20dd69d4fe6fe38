"""Package metadata for the `repro` reproduction.

Kept as a plain setup.py (no build-system requirements beyond
setuptools) so offline `pip install -e .` / `python setup.py develop`
workflows keep working in hermetic environments.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Scaling Superconducting Quantum Computers with "
        "Chiplet Architectures' (MICRO 2022): collision-limited yield, "
        "chiplet/MCM architecture evaluation, parallel experiment engine, "
        "adaptive Monte-Carlo statistics"
    ),
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        # Floor = the version CI's oldest-numpy leg pins: the fabrication
        # draw reproduces the goldens only while Generator.normal ==
        # sigma * standard_normal bitwise (state included), verified there.
        "numpy>=1.24",
        "scipy",
        "networkx",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "pytest-cov",
            "hypothesis",
        ],
    },
)
