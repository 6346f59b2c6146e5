#!/usr/bin/env python3
"""Replication benchmark entry point (see perfbench/WORKLOADS.md).

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Builds the perfbench package from source on first use (into $CARGO_TARGET_DIR,
default .bench_build, under the repository root), runs one workload and
prints, as the last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports every end-to-end
metric of BENCHMARK.json; `--trace 1` runs the workload untraced and then
traced, and reports every per-layer metric, including the tracing overhead on
each end-to-end metric. Every run is kept: its full record (environment,
all metrics, per-chunk series) goes to .bench_runs/ under the repository root.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 1000003  # Reserved for confirming claims; never tune on it.
RUN_TIMEOUT_S = 85  # Per binary run; a traced run makes two.
# Above this share of host CPU stolen by other guests, TPC-C p99 lag was
# already about twice a quiet run's (WORKLOADS.md, "Host noise").
NOISY_STEAL_PCT = 3.0
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no txrep sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_binary(binary, workload, args, dump_prefix):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    cmd += ["--trace", "1", "--dump-prefix", dump_prefix] if dump_prefix else ["--trace", "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with %d" % proc.returncode, 1)
    return json.loads(lines[-1])


def run_workload(spec, binary, args, workload):
    """Runs one workload (twice when traced), writes its run record and the
    stderr summary, and returns its result object."""
    runs_dir = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    stem = os.path.join(runs_dir, "%s-%s-seed%d-trace%d" % (
        stamp, workload, args.seed, args.trace))

    untraced = run_binary(binary, workload, args, None)
    runs = [untraced]
    if args.trace:
        runs.append(run_binary(binary, workload, args, stem))
    last = runs[-1]

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.trace:
        # Tracing overhead per end-to-end metric: how much worse the traced
        # run read than the untraced one, in percent (negative = better).
        values = dict(last["layer"])
        for m in spec["end_to_end"]:
            base, traced = untraced["e2e"][m["name"]], last["e2e"][m["name"]]
            worse = traced - base if m["better"] == "lower" else base - traced
            values["overhead.%s_pct" % m["name"]] = 100.0 * worse / base if base else 0.0
        units = layer_units
    else:
        values = untraced["e2e"]
        units = e2e_units
    missing = [n for n in units if n not in values]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing), 1)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs) and failed == 0
    record = {
        "env": dict(last["env"], git_commit=git_commit(),
                    source_digest=source_digest(),
                    kv_service_overshoot_us=last["layer"]["kv.service_overshoot_us"],
                    cpu_steal_pct=[r["info"].get("cpu_steal_pct") for r in runs]),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "runs": runs,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    # Human-readable summary on stderr: every end-to-end metric by name and
    # unit (failed_frac included), the environment, and any gate failure.
    print("perfbench %s seed=%d trace=%d  env=%s" % (
        workload, args.seed, args.trace, json.dumps(record["env"], sort_keys=True)),
        file=sys.stderr)
    for r, label in zip(runs, ("untraced", "traced")):
        for name in sorted(e2e_units):
            print("  %-8s %-18s %14.4f %s" % (label, name, r["e2e"][name], e2e_units[name]),
                  file=sys.stderr)
        print("  %-8s %-18s %14.6f fraction" % (
            label, "failed_frac", r["failed"] / r["attempted"] if r["attempted"] else 0.0),
            file=sys.stderr)
        for problem in r["problems"]:
            print("  %-8s GATE FAILED: %s" % (label, problem), file=sys.stderr)
        steal = r["info"].get("cpu_steal_pct", 0)
        if steal > NOISY_STEAL_PCT:
            print("  %-8s WARNING: host CPU steal %.1f %% during the run; its numbers "
                  "are not comparable with a quiet run's" % (label, steal), file=sys.stderr)

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; %d is held out for "
                        "confirming claims)" % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float,
                        help="open-loop window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.selftest:
        out = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_test")]).returncode)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("--workload must be 'all' or one of: " + ", ".join(names))

    binary = os.path.join(build(["perfbench"]), "perfbench")
    if args.workload != "all":
        print(json.dumps(run_workload(spec, binary, args, args.workload)))
        return
    # Every workload in turn; the last line then carries one result per
    # workload plus the totals.
    results = {name: run_workload(spec, binary, args, name) for name in names}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


if __name__ == "__main__":
    main()
