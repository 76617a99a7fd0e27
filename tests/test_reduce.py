import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dogsim
from dogsim.reduce import node_sums, row_sums

_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                     np.inf, -np.inf, np.nan, 1e300, -1e300])


def _values(seed, shape, special_share):
    """Normals scaled over e^+-15, a share of them replaced by _SPECIAL's
    zeros, subnormals, infinities, NaN and 1e300."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * np.exp(rng.uniform(-15.0, 15.0, shape))
    pick = rng.random(shape) < special_share
    a[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
    return a


def _same_bits(got, want):
    """Equal values, NaN where numpy has NaN, and the same sign off NaN:
    IEEE 754 gives a NaN's sign no meaning."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


_shares = st.sampled_from([0.0, 0.05, 0.3, 1.0])


@settings(max_examples=80, deadline=None)
@given(lead=st.integers(0, 3), rows=st.integers(1, 600), d=st.integers(1, 40),
       share=_shares, seed=st.integers(0, 2**32 - 1))
@example(lead=0, rows=600, d=10, share=0.3, seed=1)  # slices, numpy's 8 running sums
@example(lead=0, rows=600, d=7, share=0.3, seed=2)  # slices, index order
@example(lead=0, rows=600, d=1, share=0.3, seed=3)
@example(lead=2, rows=500, d=18, share=0.3, seed=4)  # the LIBSVM width: numpy
@example(lead=0, rows=50, d=10, share=0.3, seed=5)  # too few rows: numpy
def test_row_sums_are_numpys_last_axis_sums(lead, rows, d, share, seed):
    # A prefix of a (lead + 1, rows + 3, d) buffer, as the round loop reads
    # models[:k] and grads[:k], then the same sums written through out=.
    block = _values(seed, (lead + 1, rows + 3, d), share)
    a = block[0, :rows] if lead == 0 else block[:lead]
    with np.errstate(over="ignore", invalid="ignore"):
        want = a.sum(axis=-1)
        _same_bits(row_sums(a), want)
        out = np.full(a.shape[:-1], np.nan)
        assert row_sums(a, out=out) is out
    _same_bits(out, want)


@settings(max_examples=80, deadline=None)
@given(lead=st.integers(0, 3), n=st.integers(1, 600), d=st.integers(1, 40),
       share=_shares, seed=st.integers(0, 2**32 - 1))
@example(lead=0, n=500, d=10, share=0.3, seed=1)  # the complete graph's gossip: einsum
@example(lead=3, n=50, d=10, share=0.3, seed=2)  # a tile's models: einsum
@example(lead=3, n=1, d=18, share=0.3, seed=3)  # cog's one-row stack: numpy
@example(lead=2, n=300, d=1, share=0.3, seed=4)  # numpy sums d = 1 pairwise
def test_node_sums_are_numpys_node_axis_sums(lead, n, d, share, seed):
    block = _values(seed, (lead + 1, n, d), share)
    x = block[0] if lead == 0 else block[:lead]
    with np.errstate(over="ignore", invalid="ignore"):
        _same_bits(node_sums(x), x.sum(axis=-2))


def test_non_contiguous_input_keeps_numpys_order():
    # Transposed, the two axes swap strides and numpy's orders swap with
    # them; both helpers then leave the sum to numpy.
    a = _values(7, (12, 900), 0.05).T
    with np.errstate(over="ignore", invalid="ignore"):
        _same_bits(row_sums(a), a.sum(axis=-1))
        _same_bits(node_sums(a), a.sum(axis=-2))


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return features


_AVX2_CHILD = """
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__
assert __cpu_features__["X86_V4"] is False, "AVX-512 still enabled"
from dogsim.reduce import node_sums, row_sums
rng = np.random.default_rng(5)
shapes = [(8, 500, 10), (81, 50, 10), (600, 7), (600, 15), (50, 10), (40, 300, 1), (100, 1, 18), (9, 200, 40)]
for shape in shapes:
    a = rng.standard_normal(shape) * np.exp(rng.uniform(-15.0, 15.0, shape))
    a[rng.random(shape) < 0.2] = -0.0
    a[..., :1, :] = -0.0  # rows whose sum is -0.0 before numpy's +0.0
    for got, want in ((row_sums(a), a.sum(axis=-1)), (node_sums(a), a.sum(axis=-2))):
        assert got.tobytes() == want.tobytes(), shape
print("ok")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled features are x86-64 ones")
@pytest.mark.skipif("X86_V4" not in _cpu_features(),
                    reason="this numpy has no X86_V4 feature group to disable")
def test_sums_match_numpys_on_its_avx2_loops():
    # numpy ignores feature names it does not know without a word, so the
    # child first checks that AVX-512 (X86_V4) really is off.
    src = str(Path(dogsim.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _AVX2_CHILD], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
