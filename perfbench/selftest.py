"""Self-test of the benchmark: failing children are counted, never dropped.

    python3 perfbench/selftest.py

Runs in a few seconds.  It shows that a non-zero exit, a timeout and a
corrupted stdout each count as a failed attempt, and that every output check
accepts the program's real output and rejects a corrupted copy of it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import unittest

import run

PYTHON = sys.executable


def springerq(*argv: str) -> run.Child:
    child = run.run_child([PYTHON, "-m", "springerq", *argv], 60)
    assert not child.problems, child.problems
    return child


def dump(obj) -> bytes:
    """The CLI's JSON encoding, so an unchanged object re-encodes byte for byte."""
    return (json.dumps(obj, indent=2) + "\n").encode()


def pinned(check, stdout: bytes) -> run.Workload:
    """A workload whose pinned digest is that of ``stdout``."""
    return run.Workload((), check, hashlib.sha256(stdout).hexdigest())


def problems(workload: run.Workload, stdout: bytes) -> list[str]:
    return run.judge(workload, run.Child(1.0, 1.0, 1.0, stdout, b"")).problems


class ChildFailures(unittest.TestCase):
    def test_nonzero_exit_is_a_failed_attempt(self):
        result = run.Result()
        child = run.run_child([PYTHON, "-c", "import sys; sys.exit(3)"], 30)
        result.record("run", run.judge(run.WORKLOADS["fano"], child))
        self.assertEqual(child.problems, ["exit code 3"])
        self.assertEqual((result.attempted, result.failed), (1, 1))

    def test_timeout_is_a_failed_attempt_and_the_child_is_reaped(self):
        child = run.run_child([PYTHON, "-c", "import time; time.sleep(60)"], 0.5)
        self.assertEqual(child.problems, ["timed out after 0.5 s"])
        self.assertLess(child.wall_s, 10)

    def test_corrupted_stdout_of_a_workload_is_a_failed_attempt(self):
        workload = run.WORKLOADS["fano"]
        good = springerq(*workload.argv).stdout
        self.assertEqual(problems(workload, good), [])
        out = json.loads(good)
        out["rows"][5]["betti"] += 1
        bad = dump(out)
        result = run.Result()
        child = result.record("run", run.judge(workload, run.Child(1.0, 1.0, 1.0, bad, b"")))
        self.assertIn("stdout differs from the pinned digest", child.problems)
        self.assertEqual((result.attempted, result.failed), (1, 1))
        # The output check fails on its own, without the digest.
        self.assertTrue(problems(pinned(workload.check, bad), bad))
        self.assertTrue(problems(workload, good[:-100]))
        self.assertTrue(problems(workload, b""))


class OutputChecks(unittest.TestCase):
    """Each check passes the real output at a small size and fails corruptions."""

    def assert_check(self, check, argv, corrupt):
        good = springerq(*argv).stdout
        self.assertEqual(problems(pinned(check, good), good), [])
        out = json.loads(good)
        corrupt(out)
        bad = dump(out)
        self.assertTrue(problems(pinned(check, bad), bad))

    def test_stalks(self):
        def corrupt(out):
            out["f"][1] = [[-3, "2"]]
        self.assert_check(lambda out: run.check_stalks(3, out),
                          ("stalks", "--n", "3", "--check", "--format", "json"), corrupt)

    def test_verify(self):
        def corrupt(out):
            out["suites"][1]["cases"] -= 1
        self.assert_check(lambda out: run.check_verify(6, out),
                          ("verify", "--n-max", "6", "--format", "json"), corrupt)

    def test_verify_not_ok(self):
        self.assert_check(lambda out: run.check_verify(6, out),
                          ("verify", "--n-max", "6", "--format", "json"),
                          lambda out: out.update(ok=False))

    def test_orbits_count(self):
        def corrupt(out):
            del out["rows"][3]
            out["count"] -= 1
        self.assert_check(lambda out: run.check_orbits(4, out),
                          ("orbits", "--n", "4", "--format", "json"), corrupt)

    def test_orbits_order(self):
        def corrupt(out):
            rows = out["rows"]
            rows[0], rows[-1] = rows[-1], rows[0]
        self.assert_check(lambda out: run.check_orbits(4, out),
                          ("orbits", "--n", "4", "--format", "json"), corrupt)

    def test_fano_symmetry(self):
        def corrupt(out):
            top, mid = out["rows"][0], out["rows"][len(out["rows"]) // 2]
            top["betti"], mid["betti"] = mid["betti"], top["betti"]
        self.assert_check(lambda out: run.check_fano(5, 2, out),
                          ("fano", "--n", "5", "--i", "2", "--format", "json"), corrupt)

    def test_partition_count(self):
        self.assertEqual([run.partition_count(m) for m in range(8)], [1, 1, 2, 3, 5, 7, 11, 15])
        self.assertEqual(run.partition_count(41), 44583)


if __name__ == "__main__":
    unittest.main()
