#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 kbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 kbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  The first call builds kbench/main.exe
with dune (into _build, with dune's shared cache disabled so nothing is
written outside the checkout); later calls reuse the build.  One workload
prints its metrics, the last line of standard output being one JSON
object with the keys correct, attempted, failed and metrics.  `all` runs
every workload untraced and then traced, prints everything, and exits
non-zero if any run failed.  See kbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "kbench", "main.exe")
WORKLOADS = ["fastpath-gen32", "churn-rnp28", "serve-gen32", "verify-rnp28"]
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", "./kbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        sys.exit("kbench: dune not found")
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("kbench: build failed (run from the root of a complete checkout)")


def run(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stdout.flush()
        print(f"kbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    return proc.returncode, out


def check_schema(out, trace):
    """The metrics of a run must be exactly those BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = out.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    have = {k: v["unit"] for k, v in got.items()}
    if have != want:
        print("kbench: metrics differ from BENCHMARK.json: "
              + ", ".join(f"{k} [{u}]" for k, u in sorted(set(have.items()) ^ set(want.items()))),
              file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload != "all":
        code, out = run(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        if code == 0 and not check_schema(out, args.trace):
            code = 4
        sys.exit(code)
    failed = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run(w, args.seed, args.seconds, trace)
            # keep the table; the JSON line only summarises a single run
            sys.stdout.write("".join(l for l in out.splitlines(True) if not l.startswith("{")))
            if code != 0:
                failed.append(f"{w} (trace {trace}, exit {code})")
    if failed:
        print("failed: " + ", ".join(failed))
        sys.exit(1)
    print("all workloads passed their checks")


if __name__ == "__main__":
    main()
