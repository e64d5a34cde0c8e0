#!/usr/bin/env python3
"""Simulator benchmark: build from source, run one workload, print the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload grow_mini|smoke_tiny|serve_zoo \
        --seed N --seconds S --trace 0|1

The simulator and the in-process driver are built into the directory named
by $CARGO_TARGET_DIR (default `.bench_build`). The last line of stdout is
the JSON result: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set. `--capture 1` re-records the reference
outputs of the given seed under perfbench/reference/ instead of checking
them. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the driver and bench_suite; return paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("simulator sources (CMakeLists.txt, src/) not found beside "
             "the benchmark; nothing to build")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(BENCH_DIR):
            shutil.rmtree(out)  # configured for another tree
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target",
           "perfbench_driver", "bench_suite"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "grow", "bench_suite"))


def driver_args(driver, suite, workload, seed, seconds, trace,
                ref_dir=None, capture=False):
    return [driver, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--suite-bin", suite,
            "--ref-dir", ref_dir or os.path.join(BENCH_DIR, "reference"),
            "--out-dir", os.path.join(build_dir(), "perfbench_out"),
            "--capture", "1" if capture else "0"]


def check_result(line, spec, trace):
    """The result line must carry exactly the metric set of BENCHMARK.json."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise ValueError(f"metric set differs from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
    return res


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload '{a.workload}' (known: {', '.join(names)})")

    driver, suite = build()
    cmd = driver_args(driver, suite, a.workload, a.seed, a.seconds, a.trace,
                      capture=bool(a.capture))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}", proc.returncode or 1)
    if not a.capture:
        try:
            check_result(lines[-1], spec, a.trace)
        except (ValueError, KeyError, json.JSONDecodeError) as e:
            sys.stderr.write(proc.stdout)
            fail(f"malformed result line: {e}", 3)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
