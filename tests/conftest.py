"""Test-session setup shared by every test module."""

import pytest

from ddmod import harness


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the in-process sweeps on one BLAS thread per library, as the CLI does.

    ``_pin_blas`` sets no environment variable, so subprocesses the tests
    start still choose their own thread counts.
    """
    harness._pin_blas()
