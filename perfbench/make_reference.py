"""Write the committed reference outputs that the benchmark checks against.

Run from the root of a checkout whose library output is the accepted one::

    python3 perfbench/make_reference.py --seeds 0 1 2 --workloads desk-sweep

Each (workload, seed) runs ``ddmod`` once and stores its cells under
``perfbench/reference/<workload>/<seed>.csv``; a ``psd`` run also stores its
spectrum CSV, as the CLI wrote it, in ``<seed>.psd.csv.gz``.  A run that fails, or whose
cells are out of range, writes nothing and makes the script exit 1.
"""

from __future__ import annotations

import argparse
import gzip
import shutil
import sys
import tempfile
from pathlib import Path

from run import WORK_DIR, child_env, spawn
from workloads import (REFERENCE_DIR, WORKLOADS, child_rows, failed_keys,
                       spectrum_reference_path, to_reference_csv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    env = child_env(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    status = 0
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            work = Path(tempfile.mkdtemp(prefix=f"ref-{name}-{seed}-", dir=root / WORK_DIR))
            try:
                config, out = work / "exp.cfg", work / "out.csv"
                config.write_text(workload.config_text(seed), encoding="utf-8")
                argv = [sys.executable, "-m", "ddmod", *workload.cli_args(str(config), str(out))]
                child = spawn(argv, env, work)
                out_text = out.read_text() if out.is_file() else ""
                rows = child_rows(workload, child.stdout, out_text)
                bad = failed_keys(workload, rows, None)
                if child.code != 0 or bad:
                    print(f"{name} seed {seed}: exit {child.code}, bad cells {bad[:5]}", file=sys.stderr)
                    status = 1
                    continue
                target = REFERENCE_DIR / name / f"{seed}.csv"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(to_reference_csv(workload, rows), encoding="utf-8")
                if workload.kind == "psd":
                    spectrum = spectrum_reference_path(workload, seed)
                    spectrum.write_bytes(gzip.compress(out_text.encode(), mtime=0))
                print(f"{name} seed {seed}: {len(rows)} cells, {child.wall_s:.1f} s -> {target}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
