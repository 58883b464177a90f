"""Test-session setup shared by every test module."""

import pytest

from ddmod import harness


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the in-process sweeps on one BLAS thread per library, as the CLI does.

    The CLI sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads; here numpy
    and scipy are already loaded, so ``_pin_blas`` sets each loaded OpenBLAS
    to one thread instead.  It sets no environment variable, so subprocesses
    the tests start still choose their own thread counts.

    In-process ``run_sweep`` calls spread their grid points over a fork pool
    by default, one worker per usable CPU.  A test that counts or inspects
    work inside the sweep through this process's state (a monkeypatched
    counter, a cache) sets ``DDMOD_THREADS=1``, because a worker's calls
    never reach the parent's state.
    """
    harness._pin_blas()
