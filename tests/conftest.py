"""Test session set-up shared by every test module."""
import numpy as np


def pytest_report_header(config):
    """Name numpy and its BLAS: the bit-for-bit tests pin that library's float order."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (KeyError, TypeError, ValueError):  # a build that reports no BLAS section
        name = "unknown"
    return f"numpy {np.__version__}, BLAS {name}"
