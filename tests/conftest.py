"""Suite-wide pytest hooks."""

import ctypes
import glob
import itertools
import os

import numpy
import scipy


def _openblas(package):
    """Core name and thread count of the OpenBLAS bundled with `package`,
    or None where that library cannot be asked."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        package.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"),
                                                ("64_", "")):
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return core().decode(), threads()
    return None


def pytest_report_header(config):
    """The BLAS behind numpy (dot, matvec) and behind scipy's LAPACK (the
    Cholesky solves): the bit-identity tests depend on their arithmetic."""
    lines = []
    for package in (numpy, scipy):
        info = package.show_config(mode="dicts").get("Build Dependencies", {})
        blas = info.get("blas", {})
        line = (f"{package.__name__} {package.__version__} BLAS: "
                f"{blas.get('name')} {blas.get('version')}")
        runtime = _openblas(package)
        if runtime is not None:
            line += f", core {runtime[0]}, {runtime[1]} threads"
        lines.append(line)
    return lines
