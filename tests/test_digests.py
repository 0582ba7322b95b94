"""Output digests: each argv in golden/digests.json, run in-process through
cli.main, gives the exit code, stdout and stderr it was pinned with.

    PYTHONPATH=src python tests/test_digests.py    # rewrite digests.json

A digest changes only with a CHANGES.md entry that names it and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from springerq.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
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
            for shape in PARTITIONS_OF_6 for weight in PARTITIONS_OF_6 for fmt in FORMATS])


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


def test_the_digests_pin_exactly_these_argvs(pinned):
    assert len(ARGVS) == 621 and list(pinned) == ARGVS


@pytest.mark.parametrize("argv", ARGVS)
def test_output_matches_its_pinned_digest(argv, pinned):
    assert digest(argv) == pinned[argv]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({argv: digest(argv) for argv in ARGVS}, indent=2) + "\n")
