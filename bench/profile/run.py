#!/usr/bin/env python3
"""Builds bench_profile from source and runs one workload.

Run from the root of a checkout:

    python3 bench/profile/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to .bench_build/profile. bench_profile's own metric lines are
echoed, and the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list and with --trace 1 its per_layer list (the
traced run also writes .bench_build/traces/<workload>-<seed>.json). Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "profile")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources under %s/src" % ROOT)
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "bench_profile", "-j", "4"],
    ):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: %s" % " ".join(cmd))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    result_path = os.path.join(work, tag + ".json")
    cmd = [
        os.path.join(BUILD, "bench_profile"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--json=" + result_path,
        "--workdir=" + work,
    ]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace=" + os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed)))
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: bench_profile exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    if not os.path.isfile(result_path):
        sys.exit("run.py: bench_profile exited %d without a result"
                 % run.returncode)
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)

    emitted = {m["name"]: m for m in result["metrics"]
               if m["workload"] == args.workload}
    metrics = {}
    for m in wanted:
        if m["name"] not in emitted:
            sys.exit("run.py: metric %s missing" % m["name"])
        metrics[m["name"]] = {"value": emitted[m["name"]]["value"],
                              "unit": m["unit"]}
    correct = bool(result["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
