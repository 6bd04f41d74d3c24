#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `perfbench`
package (release, offline; into $CARGO_TARGET_DIR, default `.bench_build`)
and runs one workload. The last line of standard output is the result:
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.

`--trace 0` splits `--seconds` over three processes run one after the
other and reports each end-to-end metric as the median of the three, so
that one process's luck in memory placement cannot move the result; the
modeled `sim_*` values must agree exactly between them. `--trace 1` runs
one process for the whole time, prints the per-layer metrics and writes
its spans as Chrome trace-event JSON to
`.bench_out/<workload>-seed<n>.trace.json`.

Workloads: class-churn, bypass-churn, remote-mixed, serve (see
perfbench/README.md). The exit code is 0 when every output check passed,
1 when a check or the build failed, 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("class-churn", "bypass-churn", "remote-mixed", "serve")
# Processes an untraced run is split over.
PROCESSES = 3
# Seconds a process may overrun its share (the last rep, the output)
# before it is stopped as hung.
GRACE_S = 100


def run_process(cmd, root, env, seconds):
    """Runs one benchmark process; returns (exit code, stdout lines, result)."""
    with subprocess.Popen(cmd + ["--seconds", repr(seconds)], cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("perfbench: run timed out", file=sys.stderr)
            return 1, [], None
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1, lines, None
    return proc.returncode, lines[:-1], result


def combine(results):
    """Median of each metric over the processes; modeled values must agree."""
    correct = all(r["correct"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name.startswith("sim_") and len(set(values)) != 1:
            print(f"perfbench: check failed: modeled {name} differs between processes: {values}",
                  file=sys.stderr)
            correct = False
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(root, env["CARGO_TARGET_DIR"], "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", args.trace]
    if args.trace == "1":
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
        shares = [args.seconds]
    else:
        shares = [args.seconds / PROCESSES] * PROCESSES

    results = []
    for i, seconds in enumerate(shares):
        code, notes, result = run_process(cmd, root, env, seconds)
        for line in notes:
            print(f"# process {i}: {line.lstrip('# ')}")
        if result is None:
            return 1
        results.append(result)
        if code != 0:
            print(json.dumps(result))
            return code
    print(json.dumps(combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
