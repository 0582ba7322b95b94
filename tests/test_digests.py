"""Output digests: each argv in golden/digests.json, run in-process through
cli.main, gives the exit code, stdout and stderr it was pinned with.
golden/large_digests.json pins the largest outputs the same way; they take
about 15 s, so they are replayed only with SPRINGERQ_LARGE_DIGESTS=1 set, as
CI sets it; three of them are replayed again through a python -m springerq child.

    PYTHONPATH=src python tests/test_digests.py          # rewrite digests.json
    PYTHONPATH=src python tests/test_digests.py large    # rewrite large_digests.json

A digest changes only with a CHANGES.md entry that names it and says why.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from springerq.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
LARGE_DIGESTS = Path(__file__).parent / "golden" / "large_digests.json"
SRC = str(Path(__file__).resolve().parents[1] / "src")
FORMATS = ("json", "tsv", "pretty")
PARTITIONS_OF_6 = ["6", "5,1", "4,2", "4,1,1", "3,3", "3,2,1", "3,1,1,1", "2,2,2", "2,2,1,1",
                   "2,1,1,1,1", "1,1,1,1,1,1"]
ARGVS = ([f"verify --n-max {n} --format {fmt}" for n in range(1, 15) for fmt in FORMATS]
         + [f"stalks --n {n}{check} --format {fmt}" for n in range(1, 8)
            for check in ("", " --check") for fmt in FORMATS]
         + [f"orbits --n {n} --format {fmt}" for n in range(1, 10) for fmt in FORMATS]
         + [f"fano --n {n} --i {i} --format {fmt}" for n in range(1, 8) for i in range(1, n + 2)
            for fmt in FORMATS]
         + [f"{cmd} --n {n} --format {fmt}" for cmd in ("euler", "ft-table") for n in range(1, 8)
            for fmt in FORMATS]
         + [f"kostka --shape {shape} --weight {weight} --format {fmt}"
            for shape in PARTITIONS_OF_6 for weight in PARTITIONS_OF_6 for fmt in FORMATS]
         + [f"orbits --n {n} --format {fmt}" for n in range(10, 15) for fmt in FORMATS])
# fano near MAX_FANO_COST, the largest accepted euler, ft-table and verify, the
# solver at its limit (--check prints what plain stalks prints; its pretty has the
# widest lines) and the benchmark's orbits table beside the largest accepted one
LARGE_ARGVS = ([f"{argv} --format {fmt}" for argv in ("fano --n 120 --i 60", "euler --n 600",
                                                       "ft-table --n 1600", "stalks --n 42")
                for fmt in FORMATS]
               + ["stalks --n 42 --check --format json"]
               + [f"orbits --n {n} --format {fmt}" for n in (18, 22) for fmt in FORMATS]
               + ["verify --n-max 34 --format json"])


def digest(argv):
    """{exit, stdout_sha256, stdout_bytes, stderr_sha256} of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    stdout = out.getvalue().encode()
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_bytes": len(stdout),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def pinned_large():
    return json.loads(LARGE_DIGESTS.read_text())


def test_the_digests_pin_exactly_these_argvs(pinned, pinned_large):
    assert len(ARGVS) == 636 and list(pinned) == ARGVS
    assert len(LARGE_ARGVS) == 20 and list(pinned_large) == LARGE_ARGVS


@pytest.mark.parametrize("argv", ARGVS)
def test_output_matches_its_pinned_digest(argv, pinned):
    assert digest(argv) == pinned[argv]


large = pytest.mark.skipif(not os.environ.get("SPRINGERQ_LARGE_DIGESTS"),
                           reason="the largest outputs replay only with SPRINGERQ_LARGE_DIGESTS=1")


@large
@pytest.mark.parametrize("argv", LARGE_ARGVS)
def test_large_output_matches_its_pinned_digest(argv, pinned_large):
    assert digest(argv) == pinned_large[argv]


@large
@pytest.mark.parametrize("argv", ["fano --n 120 --i 60 --format json", "orbits --n 22 --format json",
                                  "stalks --n 42 --format json"])
def test_large_output_of_a_child_on_a_pipe_matches_its_pinned_digest(argv, pinned_large):
    # python -m springerq ends through os._exit, which skips the interpreter's
    # teardown: only a real process shows that every byte is written first
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "springerq", *argv.split()],
                          capture_output=True, env=env, timeout=120)
    assert {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stdout_bytes": len(proc.stdout),
            "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest()} == pinned_large[argv]


if __name__ == "__main__":
    path, argvs = (LARGE_DIGESTS, LARGE_ARGVS) if sys.argv[1:] == ["large"] else (DIGESTS, ARGVS)
    path.write_text(json.dumps({argv: digest(argv) for argv in argvs}, indent=2) + "\n")
