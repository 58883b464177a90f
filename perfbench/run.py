"""End-to-end benchmark of the ``ddmod`` command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload full-cell --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

It writes the workload's config from ``--seed`` and runs ``python3 -m ddmod``
on it as a child process against the checkout's ``src/``, once per
measurement, timing each child from spawn to exit and taking its CPU time and
peak RSS from that child's own rusage.  Every child's outputs are checked
(see ``workloads.py``), and children of one run must agree exactly.  ``--trace 1`` instead runs one untraced and one traced
child and reports per-layer metrics from the tracer's spans (``tracer.py``).

BLAS and pool thread settings are removed from the children's environment so
the library's own threading is what gets measured.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload, child_rows, failed_keys, load_reference

WORK_DIR = ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DDMOD_THREADS")
# Set-up children run in batches of this many before the first ddmod child and
# after each one.  On a shared machine whose speed drifts from second to second,
# set-up times taken in one burst follow the state of that moment; spread over
# the run they sample the same stretch of time as the ddmod children.
SETUP_BATCH = 3
CHILD_TIMEOUT_S = 150.0

# name -> unit, in print order; fail_ratio is printed but not part of the JSON
# metrics because it is 0 on a correct run (attempted/failed carry it).
END_TO_END = {"wall_s": "s", "cells_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

SETUP_CODE = "import sys; from ddmod import harness; harness.load_config(sys.argv[1])"
# Warm-up child: compiles .pyc files, and reports where ddmod was imported
# from and the BLAS thread counts the libraries chose for themselves.
PROBE_CODE = r"""
import ctypes, json, os, sys
import numpy, scipy
import ddmod
from ddmod import harness
harness.load_config(sys.argv[1])
blas = {}
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            blas[os.path.basename(lib)] = fn()
            break
print(json.dumps({"ddmod": os.path.abspath(ddmod.__file__), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas_threads": blas}))
"""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv, env, cwd: Path, timeout_s: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; resources come from its own rusage."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout_s, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # reaped by wait4 above, so Popen must not try to wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def source_digest(root: Path) -> str:
    """SHA-256 over the library sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Measurement:
    """Children of one workload and seed, and the failures found in their outputs."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.workload, self.seed, self.root, self.work = workload, seed, root, work
        self.env = child_env(root)
        self.config = work / "exp.cfg"
        self.config.write_text(workload.config_text(seed), encoding="utf-8")
        self.out = work / "out.csv"
        self.reference = load_reference(workload, seed)
        self.first_output = None
        self.attempted = 0
        self.failed = 0

    def probe(self) -> dict:
        child = spawn([sys.executable, "-c", PROBE_CODE, str(self.config)], self.env, self.work)
        if child.code != 0:
            raise RuntimeError(f"ddmod import failed:\n{child.stderr[-2000:]}")
        info = json.loads(child.stdout.splitlines()[-1])
        if not Path(info["ddmod"]).is_relative_to(self.root / "src"):
            raise RuntimeError(f"ddmod imported from {info['ddmod']}, not from {self.root / 'src'}")
        return info

    def setup(self) -> float:
        child = spawn([sys.executable, "-c", SETUP_CODE, str(self.config)], self.env, self.work)
        if child.code != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr[-2000:]}")
        return child.wall_s

    def ddmod(self, prefix: list[str]) -> tuple[Child, int]:
        """One checked ``ddmod`` child; returns it and its count of passing cells."""
        self.out.unlink(missing_ok=True)
        argv = [sys.executable, *prefix, *self.workload.cli_args(str(self.config), str(self.out))]
        child = spawn(argv, self.env, self.work)
        out_text = self.out.read_text(errors="replace") if self.out.is_file() else ""
        rows = child_rows(self.workload, child.stdout, out_text)
        bad = set(failed_keys(self.workload, rows, self.reference))
        if self.first_output is None:
            self.first_output = (rows, out_text)
        elif out_text != self.first_output[1]:
            # a repeat of the same seed must reproduce the first output exactly
            first_rows = self.first_output[0]
            differing = {k for k in rows.keys() | first_rows.keys() if rows.get(k) != first_rows.get(k)}
            bad |= differing or set(self.workload.expected_keys())
        expected = len(self.workload.expected_keys())
        n_bad = min(len(bad) or int(child.code != 0), expected)
        if n_bad:
            sys.stderr.write(f"{self.workload.name}: exit {child.code}, {n_bad} failed cells\n"
                             f"{child.stderr[-2000:]}")
        self.attempted += expected
        self.failed += n_bad
        return child, expected - n_bad


def measure(m: Measurement, seconds: float) -> tuple[dict[str, float], list[float], list[float]]:
    """End-to-end metrics: medians over ddmod children, run until their wall
    times add up to ``seconds`` (at least one), and over set-up children, run
    in batches before and after each ddmod child."""
    setups = [m.setup() for _ in range(SETUP_BATCH)]
    children, rates = [], []
    while not children or sum(c.wall_s for c in children) < seconds:
        child, passed = m.ddmod(["-m", "ddmod"])
        children.append(child)
        rates.append(passed / child.wall_s)
        setups += [m.setup() for _ in range(SETUP_BATCH)]
    med = statistics.median
    return {
        "wall_s": med(c.wall_s for c in children),
        "cells_per_s": med(rates),
        "cpu_s": med(c.cpu_s for c in children),
        "peak_rss_mb": med(c.rss_mb for c in children),
        "setup_s": med(setups),
    }, [c.wall_s for c in children], setups


def measure_traced(m: Measurement) -> tuple[dict[str, float], list[str]]:
    plain, _ = m.ddmod(["-m", "ddmod"])
    spans_path = m.work.parent / f"spans-{m.workload.name}-{m.seed}.json"
    spans_path.unlink(missing_ok=True)
    traced, _ = m.ddmod([str(Path(tracer.__file__).resolve()), str(spans_path)])
    data = json.loads(spans_path.read_text()) if spans_path.is_file() else {"spans": [], "absent": []}
    return tracer.layer_metrics(data["spans"], traced.wall_s, plain.wall_s), data["absent"]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=root / WORK_DIR))
    try:
        m = Measurement(workload, seed, root, work)
        info = m.probe()
        info.update(workload=workload.name, seed=seed, nproc=os.cpu_count(),
                    python=platform.python_version(), git=git_revision(root),
                    src_sha256=source_digest(root))
        print("env " + json.dumps(info, sort_keys=True))
        if trace:
            values, absent = measure_traced(m)
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
            if absent:
                print("absent (reported as 0): " + ", ".join(absent))
        else:
            values, walls, setups = measure(m, seconds)
            units = END_TO_END
            print(f"{workload.name}: seed {seed}, {len(walls)} measured runs "
                  f"({' '.join(f'{w:.2f}' for w in walls)} s), {len(setups)} set-up runs "
                  f"({' '.join(f'{s:.2f}' for s in setups)} s)")
        for name, unit in units.items():
            print(f"  {name:<48} {values[name]:>14.6g} {unit}")
        if not trace:
            print(f"  {'fail_ratio':<48} {m.failed / max(m.attempted, 1):>14.6g} -"
                  f"  ({m.failed}/{m.attempted})")
        return {
            "correct": m.failed == 0,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "ddmod" / "__init__.py").is_file():
        print(f"no ddmod sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), root)
                   for n in names}
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
