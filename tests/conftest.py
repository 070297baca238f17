"""Suite-wide pytest hooks."""

import numpy
import scipy

from blockprox.linalg import blas_runtime


def pytest_report_header(config):
    """The BLAS behind numpy (dot, matvec) and behind scipy's LAPACK (the
    Cholesky solves): the bit-identity tests depend on their arithmetic."""
    lines = []
    for package in (numpy, scipy):
        info = package.show_config(mode="dicts").get("Build Dependencies", {})
        blas = info.get("blas", {})
        line = (f"{package.__name__} {package.__version__} BLAS: "
                f"{blas.get('name')} {blas.get('version')}")
        runtime = blas_runtime(package)
        if runtime["threads"] is not None:
            line += f", core {runtime['core']}, {runtime['threads']} threads"
        lines.append(line)
    return lines
