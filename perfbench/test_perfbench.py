#!/usr/bin/env python3
"""Tests of the simulator benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks the nearest-rank
percentile and the seeded request stream (the driver's --selftest), the
metric names against BENCHMARK.json, that a perturbed reference counts as
a failed operation, and that a malformed suite report counts as a failed
operation instead of crashing the run. About a minute on a 4-core host.
"""
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver, cls.suite = run.build()
        cls.spec = run.load_spec()
        cls.tmp = os.path.join(run.build_dir(), "perfbench_test")
        shutil.rmtree(cls.tmp, ignore_errors=True)
        os.makedirs(cls.tmp)

    def drive(self, workload, trace, ref_dir=None, suite=None, seed=1):
        cmd = run.driver_args(self.driver, suite or self.suite, workload,
                              seed, 0, trace, ref_dir=ref_dir)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=run.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return proc.stdout.rstrip("\n").split("\n")[-1]

    def test_selftest(self):
        """Nearest-rank percentile, request stream, result line."""
        proc = subprocess.run([self.driver, "--selftest"],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_declared_names(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)

    def test_perturbed_reference_fails_and_names_match(self):
        refs = os.path.join(self.tmp, "refs")
        shutil.copytree(os.path.join(run.BENCH_DIR, "reference"), refs)
        path = os.path.join(refs, "serve_zoo.ref")
        with open(path) as f:
            lines = f.readlines()
        first = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        fields = lines[first].split()
        fields[1] = str(int(fields[1]) + 1)  # one cycle off
        lines[first] = " ".join(fields) + "\n"
        with open(path, "w") as f:
            f.writelines(lines)

        res = run.check_result(self.drive("serve_zoo", 0, ref_dir=refs),
                               self.spec, 0)
        self.assertGreater(res["failed"], 0)
        self.assertFalse(res["correct"])
        for name in res["metrics"]:
            self.assertRegex(name, NAME)

    def test_traced_names_match(self):
        res = run.check_result(self.drive("serve_zoo", 1), self.spec, 1)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        for name in res["metrics"]:
            self.assertRegex(name, NAME)

    def test_malformed_suite_report_is_a_failed_operation(self):
        fake = os.path.join(self.tmp, "fake_suite.sh")
        with open(fake, "w") as f:
            f.write("#!/bin/sh\n"
                    "for a in \"$@\"; do case $a in out=*) out=${a#out=};;"
                    " esac; done\n"
                    "[ -n \"$out\" ] && printf '{\"schema\": 1, \"rec' "
                    "> \"$out\"\nexit 0\n")
        os.chmod(fake, os.stat(fake).st_mode | stat.S_IEXEC)
        res = json.loads(self.drive("smoke_tiny", 0, suite=fake))
        self.assertEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 1)
        self.assertFalse(res["correct"])


if __name__ == "__main__":
    unittest.main()
