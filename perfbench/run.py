#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload zones|refine|service \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the worker (``perfbench/``, a cargo
package of its own) and the ``transyt`` binary into ``$CARGO_TARGET_DIR``
(default ``.bench_build``), then runs the workload in fresh worker
processes. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.

For the in-process workloads this script measures ``setup_s`` and
``peak_rss_mb`` from outside the worker: set-up is the time from spawning a
worker to its ``READY`` line (2 to 10 set-ups per run, median reported) and
peak memory is the worker's maximum resident set size as reported by
``wait4``. The ``service`` worker measures both on the server process it
starts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Set-up probes per in-process run: at least MIN, then more until their
# time adds up to PROBE_SECONDS or there are MAX of them. Cheap set-ups are
# sampled more often, so their median steadies.
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 2, 9, 3.0
# Worker time allowed beyond --seconds (set-up, checks, the traced run's
# extra passes) before it is killed.
SLACK_SECONDS = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for command in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "transyt-cli", "--bin", "transyt"],
    ):
        try:
            done = subprocess.run(command, env=env, stdout=sys.stderr)
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")


def spawn(argv):
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)


def reap(proc, deadline):
    """Waits for ``proc`` (killing it past ``deadline``); returns its
    exit status and peak resident set size in MiB."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return -9, usage.ru_maxrss / 1024.0
        time.sleep(0.005)


def run_worker(argv, deadline):
    """Runs one worker to completion. Returns (seconds to READY or None,
    stdout lines, exit status, peak RSS MiB)."""
    started = time.monotonic()
    proc = spawn(argv)
    ready = None
    lines = []
    for line in proc.stdout:
        line = line.rstrip("\n")
        if line == "READY" and ready is None:
            ready = time.monotonic() - started
        else:
            lines.append(line)
        if time.monotonic() > deadline:
            break
    proc.stdout.close()
    status, peak = reap(proc, deadline)
    return ready, lines, status, peak


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (have {', '.join(workloads)})")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    worker = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    argv = [worker, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", work,
            "--transyt", os.path.join(target, "release", "transyt")]
    deadline = time.monotonic() + args.seconds + SLACK_SECONDS

    setups = []
    if args.workload != "service" and not args.trace:
        while len(setups) < MAX_PROBES and (
                len(setups) < MIN_PROBES or sum(setups) < PROBE_SECONDS):
            ready, _, status, _ = run_worker(argv + ["--setup-only"], deadline)
            if status != 0 or ready is None:
                fail("a set-up probe failed")
            setups.append(ready)

    ready, lines, status, peak = run_worker(argv, deadline)
    if status != 0 or not lines:
        fail(f"the worker exited with status {status}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the worker printed no result line")
    found = result["metrics"]
    if args.workload != "service" and not args.trace:
        setups.append(ready)
        found["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        found["peak_rss_mb"] = {"value": peak, "unit": "MB"}

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in found:
            fail(f"the worker reported no {name}")
        metrics[name] = {"value": found[name]["value"], "unit": metric["unit"]}
    for extra in ("bench.tail_percentile", "bench.samples"):
        if extra in found and extra not in metrics:
            print(f"{extra} = {found[extra]['value']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
