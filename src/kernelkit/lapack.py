"""The compiled LAPACK and BLAS routines the library calls, from scipy.

Only scipy's f2py wrappers are loaded (``scipy.linalg._flapack`` and
``_fblas``), by an import spec found under scipy's package directory
(``importlib.util.find_spec("scipy")``, which runs no scipy code), so
neither the top-level ``scipy`` package nor ``scipy.linalg``, whose
``__init__`` pulls in scipy's array-API layer, ``numpy.testing`` and
``unittest``, ever runs.  ``_flapack`` loads with this module.  ``_fblas``
loads on first use of ``dtrmm`` (a module ``__getattr__``), since only
the ``ouu`` field draws call BLAS (``pde.GaussianFieldSampler``); an
``ouu`` run plan takes it at parse time (``uq.ouu_sample_specs``), so its
cost stays in start-up, and no other run maps it.  If scipy has already
loaded a wrapper, that module is taken; a wrapper loaded here is entered
in ``sys.modules`` under its full name before it runs, so a later
``import scipy.linalg`` takes it too and each is loaded once.  Every
routine is called raw, and each caller checks the ``info`` it returns.

Importing ``scipy.linalg`` also freed a mapped block, which raised glibc
malloc's mmap threshold (128 KiB at start; freeing a mapped block raises
it to that block's size).  Below the threshold a run's arrays are reused
from the heap; above it each is mapped afresh and its pages faulted in
again.  One 1 MiB array, never touched, is allocated and freed here at
import for that, so its cost stays in start-up.  No numpy submodule is
loaded here: ``numpy.random`` loads when an ``ouu`` run is planned
(``uq.ouu_sample_specs``, for its field draws), ``numpy.polynomial``
when kernel quadrature first calls ``leggauss``, and no run calls
``numpy.ma`` code.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

np.empty(1 << 17)


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
dgbcon, dgbsv, dgbtrf, dgbtrs = _flapack.dgbcon, _flapack.dgbsv, _flapack.dgbtrf, _flapack.dgbtrs
dpbsv, dpotrf, dpotrs = _flapack.dpbsv, _flapack.dpotrf, _flapack.dpotrs


def __getattr__(name: str):
    """``_fblas`` and its ``dtrmm``, loaded on first use and then kept as
    module attributes."""
    if name not in ("_fblas", "dtrmm"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global _fblas, dtrmm
    _fblas = _wrapper("_fblas")
    dtrmm = _fblas.dtrmm
    return globals()[name]

