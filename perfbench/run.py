#!/usr/bin/env python3
"""Builds the traversal benchmark from source and runs one workload.

    python3 perfbench/run.py --workload rmat-query --seed 1 --seconds 25 --trace 0

Run it from the repository root. The build goes to .bench_build (or
$CARGO_TARGET_DIR when set) and the graphs to .bench_work, both under the
root. The benchmark's output is relayed; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
Chrome trace-event file of the run is left in .bench_work/traces.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; None on failure."""
    commands = []
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    commands.append(["cmake", "--build", str(build_dir), "-j", "4",
                     "--target", "perfbench_traversal"])
    for command in commands:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(command))
            return None
    return build_dir / "perfbench_traversal"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        traces = work_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-file",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        log(f"perfbench: benchmark exited with code {result.returncode}")
        return result.returncode or 1
    try:
        outcome = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(result.stdout)
        log("perfbench: the last output line is not a result object")
        return 1
    declared = declared_metrics(args.trace)
    if declared is not None and set(outcome["metrics"]) != declared:
        log("perfbench: metrics differ from BENCHMARK.json: missing "
            f"{sorted(declared - set(outcome['metrics']))}, undeclared "
            f"{sorted(set(outcome['metrics']) - declared)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
