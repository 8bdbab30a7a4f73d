#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. The first call builds the benchmark and
the dspot libraries it links from ../src into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls reuse that build. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer ones.
Per-layer metrics of layers a workload does not exercise read 0.
`--workload all` runs every workload untraced and prints a table of each
one's named metrics instead of a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fit_tensor", "serve_mixed", "serve_hot_tcp", "stream_ingest"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", "4"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, raw result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return [], None
    lines = out.rstrip("\n").split("\n") if out else []
    if not lines or not lines[-1].startswith("{"):
        log("perfbench: %s printed no result (exit %d)" %
            (workload, proc.returncode))
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def result_line(raw, trace):
    """Shapes the binary's raw metrics into the benchmark's result object."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = raw["layer"] if trace else raw["e2e"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source and not trace:
            log("perfbench: workload did not report", m["name"])
            return None
        metrics[m["name"]] = {"value": source.get(m["name"], 0.0),
                              "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    binary = build()
    if binary is None:
        return 3

    if args.workload == "all":
        ok = True
        rows = []
        for workload in WORKLOADS:
            lines, raw = run_binary(binary, workload, args.seed,
                                    args.seconds, 0)
            print("\n".join(lines), flush=True)
            ok = ok and raw is not None and raw["correct"]
            rows += [(workload, line.split()[1], line.split()[2],
                      line.split()[3]) for line in lines
                     if line.strip().startswith("metric ")]
        print("\n%-14s %-22s %16s  %s" % ("workload", "metric", "value",
                                          "unit"))
        for row in rows:
            print("%-14s %-22s %16s  %s" % row)
        return 0 if ok else 1

    lines, raw = run_binary(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    print("\n".join(lines), flush=True)
    if raw is None:
        return 4
    result = result_line(raw, args.trace)
    if result is None:
        return 5
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
