#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload grid|analyze|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. It builds the `mlc-serve` daemon and
the `mlc-perfbench` package from source (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, passes
its report through, and ends with one JSON line holding the metrics
`BENCHMARK.json` names: the `end_to_end` ones with `--trace 0`, the
`per_layer` ones with `--trace 1`. It exits non-zero, printing no
result, when the build fails or a named metric is missing.

`--self-test` runs the package's unit tests (the correctness gates
against corrupted outputs), then every workload on tiny inputs in both
modes, checking that every metric the benchmark promises is printed
with its unit (or listed as dropped, with the reason) and that a
deliberately corrupted output fails the run's correctness gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

# Metrics named beside BENCHMARK.json's: the per-workload figures each
# workload prints under its own name (the end-to-end JSON carries them
# under the workload-neutral names).
NAMED = {
    "grid": ["setup_s", "sweep_s", "sweep_narrow_s", "sweep_cell_rec_per_s", "peak_rss_mb"],
    "analyze": ["setup_s", "analyze_s", "analyze_s.ultrix", "peak_rss_mb"],
    "serve": ["setup_s", "cold_p50_ms", "hit_p50_ms", "hit_p90_ms", "hit_per_s", "peak_rss_mb"],
}


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo(args):
    """Runs cargo with its output on stderr; False on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        return subprocess.run(["cargo"] + args, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"run.py: cargo: {e}", file=sys.stderr)
        return False


def build():
    return cargo(["build", "--release", "--offline", "-q", "-p", "mlc-cli", "--bin", "mlc-serve"]) and cargo(
        ["build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"]
    )


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def source_digest():
    """SHA-256 over the sources that build the measured binaries."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock", os.path.join(".cargo", "config.toml")]
    for top in ["crates", "perfbench"]:
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.relpath(os.path.join(d, f), ROOT) for f in sorted(files) if f.endswith((".rs", ".toml", ".lock"))]
    for p in paths:
        full = os.path.join(ROOT, p)
        if os.path.isfile(full):
            h.update(p.encode())
            with open(full, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (report lines, result dict or None)."""
    env = dict(
        os.environ,
        PERFBENCH_GIT_REV=output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        PERFBENCH_SOURCE_DIGEST=source_digest(),
        PERFBENCH_RUSTC=output(["rustc", "--version"]),
    )
    release = os.path.join(target_dir(), "release")
    cmd = [
        os.path.join(release, "mlc-perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work", os.path.join(WORK, workload),
        "--daemon", os.path.join(release, "mlc-serve"),
    ] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {workload} exited with {proc.returncode}", file=sys.stderr)
        return lines, None
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        print("run.py: the last line is not a result", file=sys.stderr)
        return lines, None


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def printed(lines):
    """Metric names printed with a unit, and names listed as dropped."""
    shown, dropped = {}, set()
    for line in lines:
        words = line.split()
        if len(words) >= 4 and words[0] == "metric":
            shown[words[1]] = words[3]
        elif len(words) >= 2 and words[0] == "dropped":
            dropped.add(words[1])
    return shown, dropped


def measure(args):
    spec = contract()
    if not build():
        return 1
    lines, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print("\n".join(lines))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"run.py: metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    print(json.dumps(result))
    return 0


def self_test():
    spec = contract()
    if not build():
        return 1
    problems = []
    if not cargo(["test", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"]):
        problems.append("unit tests failed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in NAMED:
        for trace in (0, 1):
            lines, result = run_binary(workload, 1, 1, trace, ["--quick"])
            if result is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            shown, dropped = printed(lines)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]] + NAMED[workload]
            for name in names:
                if name in dropped:
                    print(f"{workload}: {name} dropped: " + next(l for l in lines if l.split()[:2] == ["dropped", name]))
                elif name not in shown:
                    problems.append(f"{workload} trace={trace}: {name} neither printed nor dropped")
                elif name in units and shown[name] != units[name]:
                    problems.append(f"{workload}: {name} printed in {shown[name]}, BENCHMARK.json says {units[name]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: correctness gate failed on clean inputs")
        lines, result = run_binary(workload, 1, 1, 0, ["--quick", "--corrupt"])
        if result is None or result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: a corrupted output did not fail the correctness gate")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(NAMED))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
