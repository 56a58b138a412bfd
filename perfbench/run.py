#!/usr/bin/env python3
"""Repository benchmark for IMPRESS: build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call builds perfbench/ (the
IMPRESS libraries from src/ plus the C++ harness) into .bench_build/, or
into $CARGO_TARGET_DIR when that is set. Every call then runs the harness
and prints the table of everything it measured, the machine, and, as the
last line, one JSON object with exactly the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json; with --trace 1 they are its per_layer
metrics, and the spans go to <build dir>/spans/ as Chrome-trace JSON.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark cannot run (no sources, no BENCHMARK.json, failed build).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Per-layer metrics each workload reaches, by name prefix. A per-layer
# metric no prefix of a workload matches is reported as 0 on that workload
# (its layer does not run there); one that matches must be measured.
REACHES = {
    "campaign_scale": ("core.", "rp.", "mpnn.", "fold.", "science.",
                       "bench."),
    "fabric_failover": ("core.pipeline", "core.subpipelines",
                        "core.completion", "rp.", "mpnn.", "fold.",
                        "checkpoint.", "net.", "fabric.", "science.",
                        "bench."),
    "service_overload": ("service.", "bench."),
}
# Seed of --self-check; the benchmark was developed on seeds 1 to 12.
SELF_CHECK_SEED = 424242


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no BENCHMARK.json at {path}")
    with open(path) as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env():
    """Environment for the build and the harness: temporary files stay in
    the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configure once, then bring the harness up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no IMPRESS sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target",
                  "impress_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=child_env(),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-6000:])
            fail("build failed: " + " ".join(step))
    return out / "impress_perfbench"


def run_harness(binary, workload, seed, seconds, trace, tiny=False):
    """Run the C++ harness; returns (its result object, its other lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{workload}-seed{seed}.trace.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"harness timed out after {HARNESS_TIMEOUT_S} s"]
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode == 2:
        return None, lines + ["harness refused to run (exit 2)"]
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return None, lines + [f"harness exit {done.returncode}, no result"]
    return result, lines[:-1]


def result_line(spec, result, trace):
    """The last output line: exactly the metric set BENCHMARK.json lists."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    failures = list(result.get("failures", []))
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                failures.append(f"end-to-end metric {m['name']} missing")
                continue
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            failures.append(f"{m['name']}: unit {got['unit']} is not "
                            f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {
        "correct": bool(result["correct"]) and not failures,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }, failures


def report(spec, workload, result, lines, trace):
    for line in lines:
        print(line)
    if result is None:
        return False
    print(f"workload {workload}: {len(result['metrics'])} metrics measured")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>22.10g} {m['unit']}")
    print("machine: " + json.dumps(result.get("machine", {})))
    line, failures = result_line(spec, result, trace)
    for f in failures:
        print(f"FAILED CHECK: {f}")
    print(json.dumps(line))
    return line["correct"]


def self_check(spec, binary):
    """Tiny runs of every workload, traced and not, on a seed the benchmark
    was not developed on: each must pass its output checks and emit every
    end-to-end metric and every per-layer metric of the layers it reaches."""
    problems = []
    names = [m["name"] for m in spec["per_layer"]]
    for prefix_set in REACHES.values():
        names = [n for n in names if not n.startswith(prefix_set)]
    problems += [f"per-layer metric {n} is reached by no workload"
                 for n in names]
    for w in spec["workloads"]:
        workload = w["name"]
        for trace in (False, True):
            result, lines = run_harness(binary, workload, SELF_CHECK_SEED, 1,
                                       trace, tiny=True)
            label = f"{workload} trace={int(trace)}"
            if result is None:
                problems.append(f"{label}: {lines[-1]}")
                continue
            measured = result["metrics"]
            if trace:
                wanted = [m["name"] for m in spec["per_layer"]
                          if m["name"].startswith(REACHES[workload])]
            else:
                wanted = [m["name"] for m in spec["end_to_end"]]
                problems += [f"{label}: {n} is 0" for n in wanted
                             if measured.get(n, {}).get("value") == 0]
            problems += [f"{label}: {n} not emitted" for n in wanted
                         if n not in measured]
            _, failures = result_line(spec, result, trace)
            problems += [f"{label}: {f}" for f in failures]
            print(f"self-check {label}: {len(measured)} metrics measured")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check " + ("passed" if not problems else "failed"))
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.self_check:
        sys.exit(0 if self_check(spec, binary) else 1)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else [args.workload]
    if any(w not in known for w in workloads):
        parser.error(f"unknown workload; choose from {', '.join(known)}, all")
    ok = True
    for workload in workloads:
        result, lines = run_harness(binary, workload, args.seed, seconds,
                                   bool(args.trace))
        ok = report(spec, workload, result, lines, bool(args.trace)) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
