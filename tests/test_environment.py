"""The suite's own environment: `conftest.py` pins BLAS to one thread."""

import ctypes
import glob
import os

import numpy as np
import pytest

# OpenBLAS builds name the query by their symbol prefix and integer width
THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def test_openblas_runs_one_thread():
    chosen = os.environ["OPENBLAS_NUM_THREADS"]
    if chosen != "1":
        pytest.skip(f"the caller chose OPENBLAS_NUM_THREADS={chosen}")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    queries = [getattr(ctypes.CDLL(path), name, None)
               for path in libs for name in THREAD_QUERIES]
    queries = [q for q in queries if q is not None]
    if not queries:
        pytest.skip("no OpenBLAS thread query found beside numpy")
    for query in queries:
        query.restype = ctypes.c_int
        query.argtypes = []
        assert query() == 1
