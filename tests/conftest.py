"""pytest setup shared by the test modules."""

import os

import numpy as np

_ENVIRONMENT = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")


def pytest_report_header(config):
    """numpy's version and its X86_V3/X86_V4 SIMD dispatch flags, and the
    variables that pick OpenBLAS's kernel and thread count and numpy's CPU
    features, where set. A pinned digest that fails on another machine then
    shows which layer moved: BLAS/LAPACK or numpy's vectorized loops."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    flags = " ".join(f"{name}={features.get(name, 'unknown')}" for name in ("X86_V3", "X86_V4"))
    lines = [f"numpy {np.__version__}, {flags}"]
    settings = [f"{name}={os.environ[name]}" for name in _ENVIRONMENT if name in os.environ]
    if settings:
        lines.append(" ".join(settings))
    return lines
