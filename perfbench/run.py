#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the repository root. The benchmark package in this directory is
built from source with cargo (into $CARGO_TARGET_DIR, default
.bench_build), then run once. Its last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}.

--all runs every workload untraced and traced, prints each metric by
name and unit, writes the results to <target dir>/perfbench/results.json,
and exits non-zero if any run failed a correctness gate.

Serving rates and the p99 limit are passed through to the benchmark
(--light-rps, --heavy-rps, --ladder-rps, --p99-limit-ms); BENCHMARK.json
fixes them in its command. --all takes them, and any run without
--seconds its run length, from BENCHMARK.json.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import traceback

WORKLOADS = ["train_r1", "train_r2_ovl", "train_epochs_r2_proc", "serve_open"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the benchmark; return the binary path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if res.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def fingerprint():
    """rustc version and the target-cpu the build uses."""
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    flags = os.environ.get("RUSTFLAGS", "")
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            flags += " " + f.read()
    except OSError:
        pass
    m = re.search(r"target-cpu=([\w.-]+)", flags)
    return rustc or "unknown", m.group(1) if m else "default"


def bench_env():
    """The environment minus the library's tuning knobs: every benchmark
    setting comes from the command line."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("CGNN_") and k != "RAYON_NUM_THREADS"}


def run_once(binary, args):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    rustc, cpu = fingerprint()
    out = os.path.join(target_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    cmd = [binary] + args + ["--out", out, "--rustc", rustc, "--target-cpu", cpu]
    # Its own process group, so that rank processes a failed launch left
    # behind are stopped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=bench_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc.pid)
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4, []
    stop_group(proc.pid)
    return proc.returncode, stdout.splitlines()


def stop_group(pgid):
    """Kill every process left in the group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def result_of(lines):
    """The result object on the last line, or None."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def run_all(binary, args, passthrough):
    results = {}
    ok = True
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run_once(binary, ["--workload", w, "--seed", str(args.seed),
                                            "--seconds", str(args.seconds), "--trace", trace]
                                   + passthrough)
            res = result_of(lines)
            info = {ln.split(" ", 1)[0]: json.loads(ln.split(" ", 1)[1])
                    for ln in lines[:-1] if ln.startswith(("host ", "detail "))}
            results[f"{w}/trace{trace}"] = {"exit": code, "result": res, **info}
            ok = ok and code == 0 and res is not None and res["correct"]
            print(f"\n== {w} (trace {trace}): exit {code}, "
                  + (f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"
                     if res else "no result"))
            for name, m in (res or {}).get("metrics", {}).items():
                print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    path = os.path.join(target_dir(), "perfbench", "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=2)
    print(f"\nwrote {path}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--light-rps")
    p.add_argument("--heavy-rps")
    p.add_argument("--ladder-rps")
    p.add_argument("--p99-limit-ms")
    args = p.parse_args()
    if not args.all and not args.workload:
        p.error("give --workload or --all")
    passthrough = []
    for flag in ("light_rps", "heavy_rps", "ladder_rps", "p99_limit_ms"):
        v = getattr(args, flag)
        if v is not None:
            passthrough += ["--" + flag.replace("_", "-"), v]
    if (args.all and not passthrough) or args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        if args.all and not passthrough:
            passthrough = bench["command"][2:]
        if args.seconds is None:
            args.seconds = bench["run_seconds"]

    binary = build()
    if binary is None:
        return 3
    if args.all:
        return run_all(binary, args, passthrough)
    code, lines = run_once(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", args.trace]
                           + passthrough)
    res = result_of(lines)
    for ln in lines[:-1] if res else lines:
        print(ln if res else "run.py: " + ln, file=sys.stdout if res else sys.stderr)
    if res is None:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return code or 5
    print(lines[-1])
    return code


if __name__ == "__main__":
    try:
        code = main()
    except Exception:  # report and fail with a code of our own, never Python's 1
        traceback.print_exc()
        code = 6
    sys.exit(code)
