"""kernelkit.lapack against scipy.linalg: the same bits."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack as scipy_lapack

from kernelkit import lapack

N, W = 12, 2


def same(left, right):
    """Two results, tuples of arrays and scalars, equal bit for bit."""
    left = left if isinstance(left, tuple) else (left,)
    right = right if isinstance(right, tuple) else (right,)
    assert len(left) == len(right)
    for a, b in zip(left, right):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def spd(rng):
    a = rng.standard_normal((N, N))
    return a @ a.T + N * np.eye(N)


def test_banded_lu_routines_match_scipy(rng):
    # A general banded matrix of half-width W in dgbtrf's storage, whose W
    # top rows hold the fill-in.
    band = np.zeros((3 * W + 1, N), order="F")
    band[W:] = rng.standard_normal((2 * W + 1, N))
    rhs = rng.standard_normal((N, 3))
    factored = lapack.dgbtrf(band.copy(order="F"), W, W)
    same(factored, scipy_lapack.dgbtrf(band.copy(order="F"), W, W))
    lu, pivots, info = factored
    assert info == 0
    same(lapack.dgbtrs(lu, W, W, rhs, pivots), scipy_lapack.dgbtrs(lu, W, W, rhs, pivots))
    anorm = np.abs(band[W:]).sum(axis=0).max()
    same(lapack.dgbcon(W, W, lu, pivots, anorm), scipy_lapack.dgbcon(W, W, lu, pivots, anorm))
    same(lapack.dgbsv(W, W, band.copy(order="F"), rhs), scipy_lapack.dgbsv(W, W, band.copy(order="F"), rhs))


def test_spd_routines_match_scipy(rng, spd):
    rhs = rng.standard_normal((N, 3))
    # The lower band of the SPD matrix, in dpbsv's storage.
    lower = np.array([np.concatenate([np.diagonal(spd, -k), np.zeros(k)]) for k in range(W + 1)])
    same(lapack.dpbsv(lower, rhs, lower=1), scipy_lapack.dpbsv(lower, rhs, lower=1))
    factor = lapack.dpotrf(spd, lower=1, clean=1)
    same(factor, scipy_lapack.dpotrf(spd, lower=1, clean=1))
    same(lapack.dpotrs(factor[0], rhs, lower=1), scipy_lapack.dpotrs(factor[0], rhs, lower=1))


def test_triangular_product_matches_scipy(rng, spd):
    # dtrmm, loaded on first use, is scipy's own wrapper routine.
    factor = np.linalg.cholesky(spd)
    block = rng.standard_normal((N, 5))
    same(lapack.dtrmm(1.0, factor, block, lower=1), blas.dtrmm(1.0, factor, block, lower=1))
    assert lapack._fblas is blas._fblas


def test_a_missing_wrapper_names_the_scipy_version():
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no compiled wrapper"):
        lapack._wrapper("_no_such_wrapper")


def test_a_later_scipy_linalg_takes_the_loaded_wrappers():
    # An extension module loaded twice would be two module objects.
    # _fblas loads on first use of dtrmm, so the script uses it first.
    script = (
        "import sys\n"
        "import kernelkit.lapack as ours\n"
        "assert 'scipy.linalg._fblas' not in sys.modules\n"
        "ours.dtrmm\n"
        "loaded = sys.modules['scipy.linalg._fblas']\n"
        "from scipy.linalg import blas, lapack\n"
        "assert lapack._flapack is ours._flapack and blas._fblas is ours._fblas is loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
