#!/usr/bin/env python3
"""The dcbatt benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The simulator is compiled from the
checkout's src/ tree into .bench_build/perfbench (Release), then the
measuring program (perfbench/cpp) runs in fresh processes:

  --trace 0  one timed process (end-to-end metrics, tracing off), plus
             four more set-up-only processes: setup_s is the median of
             the five cold set-ups.
  --trace 1  one traced process (per-layer metrics).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Without a full checkout (no src/ next to
perfbench/) the build fails and the script exits non-zero without
printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dcbatt_perfbench"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper_sweep", "region_day", "region_day_serial")
DEFAULT_SEED = 42
# Fresh set-up-only processes launched next to the timed one.
SETUP_PROCESSES = 4
# Per-process limit, inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Raises on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def child_env():
    # Execution switches of the simulator must not leak in from the
    # caller's environment: the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("DCBATT_")}


def run_binary(args):
    """Run the measuring program; return its result object."""
    cmd = [str(BINARY)] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=child_env(), start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{' '.join(cmd)} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed no result")
    return json.loads(lines[-1])


def declared_metrics(trace):
    spec = json.loads(SPEC_FILE.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns the contract's result object."""
    base = ["--workload", workload, "--seed", seed, "--seconds", seconds,
            *extra]
    if trace:
        result = run_binary(base + ["--mode", "trace"])
    else:
        result = run_binary(base + ["--mode", "timed"])
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES):
            setups.append(
                run_binary(base + ["--mode", "setup"])
                ["metrics"]["setup_s"]["value"])
        log("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def contract_line(result, names):
    """The last output line: exactly the declared metrics, in order."""
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not emitted: {missing}")
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    })


def self_test():
    """Short-mode check of the benchmark itself; True when it passes."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        log(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    short = ("--short",)
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, DEFAULT_SEED, 1, trace, short)
            names = declared_metrics(trace)
            emitted = result["metrics"]
            kind = "per-layer" if trace else "end-to-end"
            expect(all(n in emitted and emitted[n].get("unit")
                       for n in names),
                   f"{workload}: every {kind} metric emitted with a unit")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload}: {kind} run correct")
        corrupt = run_binary(["--workload", workload, "--seed",
                              DEFAULT_SEED, "--seconds", 1, "--mode",
                              "timed", "--short", "--corrupt-reference"])
        expect(not corrupt["correct"] and corrupt["failed"] >= 1,
               f"{workload}: corrupted reference digest counted as a "
               "failed operation")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
        if args.self_test:
            passed = self_test()
            log("self-test " + ("passed" if passed else "FAILED"))
            return 0 if passed else 1
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        line = contract_line(result, declared_metrics(bool(args.trace)))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
