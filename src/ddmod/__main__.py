"""``python -m ddmod`` and the ``ddmod`` console script.

numpy starts OpenBLAS's worker threads when it is imported, and a thread
count set afterwards leaves them running.  :func:`main` therefore sets
``OPENBLAS_NUM_THREADS=1`` before anything imports numpy, unless the user set
one of :data:`~ddmod.config.BLAS_THREAD_VARS`; the pool workers of a sweep
inherit it.  Only then does it import the harness.
"""

import os

from .config import BLAS_THREAD_VARS


def main(argv=None) -> int:
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .harness import main as run

    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
