#!/usr/bin/env python3
"""The repository benchmark (see BENCHMARK.json at the repository root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/main.exe from source with dune, runs it once in a fresh
process (so its peak RSS is the process high-water mark), prints a
summary and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--self-test builds perfbench/selftest.exe and runs it: every workload
runs twice on one seed and must pass its checks with identical
fingerprints. Exits non-zero, without a result line, when the build or
the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_build", "default", "perfbench")

# A run must end well inside the three minutes it is given.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    # --root pins the project to this checkout; the shared dune cache is
    # off so nothing is written outside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/" + target],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        log("perfbench: build of %s failed" % target)
        sys.exit(2)
    return os.path.join(BUILD, target)


def run_process(argv):
    """Run argv to completion; return (stdout, exit status, peak RSS in MB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()

    # Stopped from outside, stop the child too and leave without a result.
    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        timer.cancel()
        proc.stdout.close()
    # ru_maxrss is in KiB on Linux.
    return out.decode(), os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def bench(args):
    exe = build("main.exe")
    out, code, peak_rss_mb = run_process(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
    )
    if code != 0:
        log("perfbench: main.exe exited with %d" % code)
        sys.exit(3)
    lines = out.strip().splitlines()
    if not lines:
        log("perfbench: main.exe printed no result")
        sys.exit(3)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    summary = {k: v for k, v in result.items() if k != "metrics"}
    print("perfbench: " + json.dumps(summary, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


def self_test():
    exe = build("selftest.exe")
    out, code, _ = run_process([exe])
    sys.stdout.write(out)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        bench(args)


if __name__ == "__main__":
    main()
