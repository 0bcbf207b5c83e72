"""The compiled LAPACK and BLAS routines the library calls, from scipy, and
the layout of LAPACK's band storage that the FEM operators share
(:class:`BandLayout`).

Only the PDE pipelines (:mod:`kernelkit.pde`) and dense kernel fits
(``kernels._factor_gram`` and ``kernels._solve_spd``, the Cholesky path)
call them, and each run plan that can take those paths imports this module
when it is made, so its cost stays in start-up and an ``interp`` run of
packet grids never maps it.  Only scipy's f2py wrappers are loaded
(``scipy.linalg._flapack`` and ``_fblas``), by an import spec found under
scipy's package directory (``importlib.util.find_spec("scipy")``, which
runs no scipy code), so neither the top-level ``scipy`` package nor
``scipy.linalg``, whose ``__init__`` pulls in scipy's array-API layer,
``numpy.testing`` and ``unittest``, ever runs.  ``_flapack`` loads with
this module.  ``_fblas`` loads on first use of ``dtrmm`` (a module
``__getattr__``), since only the ``ouu`` field draws call BLAS
(``pde.GaussianFieldSampler``); an ``ouu`` run plan takes it at parse
time (``uq.ouu_sample_specs``), and no other run maps it.  If scipy has
already loaded a wrapper, that module is taken; a wrapper loaded here is
entered in ``sys.modules`` under its full name before it runs, so a later
``import scipy.linalg`` takes it too and each is loaded once.  Every
routine is called raw, and each caller checks the ``info`` it returns.
No numpy submodule is loaded here: ``numpy.random`` loads when an ``ouu``
run is planned (``uq.ouu_sample_specs``, for its field draws),
``numpy.polynomial`` when kernel quadrature first calls ``leggauss``, and
no run calls ``numpy.ma`` code.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _wrapper(name: str):
    """The compiled module ``scipy.linalg.<name>``, loaded without its
    package."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    package = importlib.util.find_spec("scipy").submodule_search_locations
    path = [os.path.join(entry, "linalg") for entry in package]
    spec = importlib.machinery.PathFinder.find_spec(full, path)
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no compiled wrapper {full}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


_flapack = _wrapper("_flapack")
dgbsv, dpbsv, dpotrf, dpotrs = _flapack.dgbsv, _flapack.dpbsv, _flapack.dpotrf, _flapack.dpotrs


class BandLayout:
    """Positions of the entries of an ``n x n`` matrix in LAPACK band storage.

    Entry ``(i, j)`` lives at ``[diagonal + i - j, j]`` of a Fortran-ordered
    ``(rows, n)`` array: ``dgbsv`` storage has ``diagonal = 2p`` for ``p``
    sub- and superdiagonals, the ``p`` rows above the band holding the
    fill-in of the row interchanges; lower ``dpbsv`` storage has ``diagonal
    = 0``.
    """

    def __init__(self, rows: int, diagonal: int, n: int):
        self.rows = rows
        self.diagonal = diagonal
        self.n = n

    def index(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Flat positions of the entries ``(i, j)``, raveled."""
        return (j * self.rows + self.diagonal + i - j).ravel()

    def scatter(self, index: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """Band array holding, at each position, the sum of its entries."""
        flat = np.bincount(index, weights=entries.ravel(), minlength=self.rows * self.n)
        return flat.reshape(self.n, self.rows).T


def __getattr__(name: str):
    """``_fblas`` and its ``dtrmm``, loaded on first use and then kept as
    module attributes."""
    if name not in ("_fblas", "dtrmm"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global _fblas, dtrmm
    _fblas = _wrapper("_fblas")
    dtrmm = _fblas.dtrmm
    return globals()[name]

