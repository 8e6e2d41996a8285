"""Packaging metadata for the Morpheus reproduction.

numpy backs the vectorized batch-scoring path (``repro.sim.vector_model``)
and is a required dependency.
"""

from setuptools import find_packages, setup

setup(
    name="morpheus-repro",
    version="0.6.0",
    description=(
        "Analytic reproduction of Morpheus: extending the GPU LLC with "
        "idle-core scratch capacity (MICRO 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "pytest-cov"],
    },
)
