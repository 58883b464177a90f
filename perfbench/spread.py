"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload full-cell --seeds 10 11 12 13 14

Runs the benchmark command once per seed, in turn, and prints for each
end-to-end metric its median, quartiles and inter-quartile distance as a share
of the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound.  Exits 1 when a run fails or is incorrect, or a spread exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement length; defaults to run_seconds")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    status = 0
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last) if done.returncode == 0 else {}
        if not result.get("correct"):
            print(f"seed {seed}: exit {done.returncode}, result {last}\n{done.stderr[-2000:]}")
            status = 1
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({elapsed:.0f} s): " + "  ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)

    print(f"{args.workload}: {len(args.seeds)} seeds, {seconds} s runs")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        verdict = "ok" if share <= metric["bound"] / 3 else ("wide" if share <= metric["bound"] else "OVER")
        print(f"  {metric['name']:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:7.2%}  bound {metric['bound']:.0%}  {verdict}")
        if verdict == "OVER":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
