#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload, checks it
and prints the result.

    python3 perfbench/run.py --workload ssgd-train|serve-ladder|sched-trace \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (see perfbench/README.md). Build output and the human-readable report
go to standard error. Everything the run writes stays under the build
directory ($CARGO_TARGET_DIR, default .bench_build, inside the checkout), in
a tree of its own for each source checkout.

Exit codes: 0 result printed (check failures show as correct=false),
1 build or run failure, 2 usage error or not a source checkout.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reduce  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("ssgd-train", "serve-ladder", "sched-trace")
# A first run that builds must end within FIRST_RUN_BUDGET_S; the build gets
# what the measuring binary's own budget leaves of it.
FIRST_RUN_BUDGET_S = 900.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_timeout(seconds):
    """Whole-run budget of the measuring binary: the measured seconds plus
    set-up, warm-up and output checks, which can take as long again."""
    return 2.0 * seconds + 120.0


def build_dir():
    """The build tree of this checkout. It is keyed by the source root, so
    checkouts that share one $CARGO_TARGET_DIR never build or measure each
    other's sources."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    root_key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:16]
    return base / "perfbench" / root_key


def source_key():
    """Hash of every file the binary is built from (src/ and perfbench/).
    Runs of the same code share a simulated-bit ledger; a code change starts
    a new one."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def child_env(bdir):
    """Environment of every child: temporaries stay inside the build dir."""
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def build(bdir, budget_s):
    """Configures (once) and builds the perfbench binary; returns its path."""
    bdir.mkdir(parents=True, exist_ok=True)
    env = child_env(bdir)
    cmake_dir = bdir / "cmake"
    deadline = time.monotonic() + budget_s
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            left = deadline - time.monotonic()
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                           timeout=max(1.0, left))
    return cmake_dir / "perfbench"


def guard_sim(bdir, workload, seed, sim):
    """Simulated-bit guard: every sim.* value must be finite and equal, bit
    for bit, what earlier runs of the same code, workload and seed (traced
    or not) recorded. Returns the failure messages."""
    path = bdir / "simguard" / source_key() / f"{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    seen = json.loads(path.read_text()) if path.exists() else {}
    bad, changed, ledger = reduce.sim_guard(seen, sim)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return ([f"{k} is not finite" for k in bad]
            + [f"{k} changed" for k in changed])


def report(result, trace):
    log(f"attempted {result['attempted']}, failed {result['failed']}")
    section = "per_layer" if trace else "end_to_end"
    for name, m in result[section].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        log(f"  {name:32s} {value:>16s} {m['unit']:8s} n={m['n']}")
    if not trace:
        layer = result["per_layer"]
        log(f"  ({result['throughput_name']} = "
            f"{layer['host.ops_per_s']['value']:.6g} per host s; reference "
            f"kernel {layer['host.ref_s']['value']:.4g} s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no simulator sources under {ROOT / 'src'}; "
            "run from a full source checkout")
        return 2

    bdir = build_dir()
    timeout_s = run_timeout(args.seconds)
    try:
        binary = build(bdir, max(60.0, FIRST_RUN_BUDGET_S - timeout_s - 20.0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    out = bdir / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.parent.mkdir(parents=True, exist_ok=True)
    raw = out.with_suffix(".raw.json")
    if raw.exists():
        raw.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace), "--out", str(raw)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, env=child_env(bdir),
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if proc.returncode != 0 or not raw.exists():
        log(f"perfbench: run failed with exit code {proc.returncode}")
        return 1

    record = json.loads(raw.read_text())
    result = reduce.reduce(record)
    for what in record["failures"]:
        log(f"FAILED {what}")
    guard = guard_sim(bdir, args.workload, args.seed, result["sim"])
    result["attempted"] += 1  # the simulated-bit guard is one more op
    if guard:
        result["failed"] += 1
        log(f"FAILED simulated-bit guard: {', '.join(guard)}")
    result["per_layer"]["failed_ratio"]["value"] = reduce.ratio(
        result["failed"], result["attempted"])
    result["per_layer"]["failed_ratio"]["n"] = result["attempted"]
    out.with_suffix(".json").write_text(json.dumps(result, indent=1))
    report(result, args.trace)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in result[section].items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
