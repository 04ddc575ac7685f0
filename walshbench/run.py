#!/usr/bin/env python3
"""Build and run the walshcheck benchmark.

Run from the repository root:

    python3 walshbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0
    python3 walshbench/run.py --smoke       # every workload once, minimal size
    python3 walshbench/run.py --self-test   # harness unit tests, then --smoke
    python3 walshbench/run.py --spread --workload daemon-mix --seeds 1,2,3,4,5

It builds `walshbench` (this directory's package) and the `walshcheck` CLI
from source into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload in a process of its own. The last line of standard output is the
result object. `--spread` runs a workload once per seed and prints each
end-to-end metric's interquartile range as a share of its median.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1", "beyond-order", "daemon-mix"]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo(args, cwd):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Cargo's own output goes to stderr: stdout carries only the result.
    return subprocess.run(["cargo"] + args, cwd=cwd, env=env, stdout=sys.stderr).returncode


def build():
    if cargo(["build", "--release", "--offline", "--manifest-path",
              os.path.join(HERE, "Cargo.toml")], ROOT) != 0:
        sys.exit("walshbench: building the benchmark failed")
    if cargo(["build", "--release", "--offline", "-p", "walshcheck",
              "--bin", "walshcheck"], ROOT) != 0:
        sys.exit("walshbench: building the walshcheck CLI failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "walshbench"), os.path.join(release, "walshcheck")


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def provenance():
    return {
        "git_rev": capture(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "rustc": capture(["rustc", "-V"]),
        "profile": "release",
    }


def run_one(bench, cli, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--walshcheck", cli,
           "--provenance", json.dumps(provenance(), sort_keys=True)]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if out.returncode == 0 and lines else None)


def smoke(bench, cli):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(bench, cli, workload, 1, 1, trace, smoke=True)
            good = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}", file=sys.stderr)
    return ok


def spread(bench, cli, workload, seeds, seconds):
    values = {}
    for seed in seeds:
        code, result = run_one(bench, cli, workload, seed, seconds, 0)
        if code != 0 or result is None:
            sys.exit(f"walshbench: {workload} seed {seed} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4)
        print(f"{workload} {name}: median {med:.6g} iqr/median {(q[2] - q[0]) / med if med else 0:.4f}")


def main(argv):
    opts = {"--workload": None, "--seed": "0", "--seconds": "30", "--trace": "0", "--seeds": None}
    flags = set()
    it = iter(argv)
    for arg in it:
        if arg in opts:
            opts[arg] = next(it, None)
            if opts[arg] is None:
                sys.exit(f"walshbench: {arg} needs a value")
        elif arg in ("--smoke", "--self-test", "--spread"):
            flags.add(arg)
        else:
            sys.exit(f"walshbench: unknown argument {arg}")
    if "--self-test" in flags:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
        tests = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path",
                                os.path.join(HERE, "Cargo.toml")], cwd=ROOT, env=env)
        if tests.returncode != 0:
            return 1
    bench, cli = build()
    if flags & {"--smoke", "--self-test"}:
        return 0 if smoke(bench, cli) else 1
    if opts["--workload"] not in WORKLOADS:
        sys.exit(f"walshbench: --workload must be one of {', '.join(WORKLOADS)}")
    if "--spread" in flags:
        seeds = [int(s) for s in (opts["--seeds"] or "1,2,3,4,5").split(",")]
        spread(bench, cli, opts["--workload"], seeds, opts["--seconds"])
        return 0
    cmd = [bench, "--workload", opts["--workload"], "--seed", opts["--seed"],
           "--seconds", opts["--seconds"], "--trace", opts["--trace"], "--walshcheck", cli,
           "--provenance", json.dumps(provenance(), sort_keys=True)]
    # The benchmark's stdout is ours: its last line is the result.
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
