"""pytest setup shared by the test modules."""

import os
import platform

import numpy as np
import scipy

_ENVIRONMENT = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")


def _lapack(module) -> str:
    """The LAPACK a package was built against, as its build config names it."""
    try:
        lapack = module.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (AttributeError, KeyError, TypeError):  # no dict config in this build
        return "LAPACK unknown"
    return f"LAPACK {lapack.get('name', 'unknown')} {lapack.get('version', 'unknown')}"


def pytest_report_header(config):
    """numpy's version, LAPACK and X86_V3/X86_V4 SIMD dispatch flags,
    scipy's version and LAPACK, the C library's name and version, and the
    variables that pick OpenBLAS's kernel and thread count and numpy's CPU
    features, where set, and numpy's long double: its dtype and nmant. rho
    and the comparator's Newton steps call numpy's LAPACK; the stream's
    ndtri, the CSR gossip product and the comparator's linprog come from
    scipy; the stream's math.sin, and the log and sqrt inside ndtri, come
    from the C library's libm; the LIBSVM parse reads values with the C
    library's strtold into that long double. A pinned digest that fails on
    another machine then shows which layer moved: BLAS/LAPACK, numpy's
    vectorized loops, scipy, libm or the long double."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    flags = " ".join(f"{name}={features.get(name, 'unknown')}" for name in ("X86_V3", "X86_V4"))
    lines = [f"numpy {np.__version__}, {_lapack(np)}, {flags}",
             f"scipy {scipy.__version__}, {_lapack(scipy)}",
             "C library " + (" ".join(filter(None, platform.libc_ver())) or "unknown")
             + f", long double {np.dtype(np.longdouble).name} nmant={np.finfo(np.longdouble).nmant}"]
    settings = [f"{name}={os.environ[name]}" for name in _ENVIRONMENT if name in os.environ]
    if settings:
        lines.append(" ".join(settings))
    return lines
