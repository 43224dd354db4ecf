#!/usr/bin/env python3
"""Runs the benchmark on seeds 1..10 and prints each end-to-end metric's
median and run-to-run spread (interquartile distance over median), next to
the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload serve-ladder
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reduce  # noqa: E402

SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: NOT CORRECT {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        s = reduce.spread(vals) if len(vals) > 1 else 0.0
        bound = bounds.get(name, float("nan"))
        print(f"{args.workload:13s} {name:12s} median {reduce.median(vals):.6g}"
              f"  spread {s:.4f}  bound {bound}  (bound/3 {bound / 3:.4f})")


if __name__ == "__main__":
    main()
