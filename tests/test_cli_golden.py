"""CLI documents that must keep their recorded JSON byte for byte.

The README examples compare with `perfbench/cli_expected.json` through
`perfbench/cli_capture.py`. Five more sandwiches, covering an unresolved
radical step, the unit ideal, an uncertified artifact, a certified
generator beside an artifact and a commutative center, compare with
`tests/sandwich_golden.json`. Neither file is re-recorded here.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from skewpbw import cli

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

with open(os.path.join(ROOT, "tests", "sandwich_golden.json"), encoding="utf-8") as fh:
    SANDWICHES = json.load(fh)


def test_cli_examples_match_recording(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.chdir(ROOT)
    import cli_capture
    captured = cli_capture.capture()
    recorded = cli_capture.expected()
    for now, then in zip(captured, recorded):
        assert now == then, "changed: skewpbw " + " ".join(now["argv"])
    assert len(captured) == len(recorded)


def _name(recorded) -> str:
    """algebra:gens, as in qplane_m1:x^4."""
    argv = recorded["argv"]
    algebra = os.path.splitext(os.path.basename(argv[argv.index("--algebra") + 1]))[0]
    return f"{algebra}:{argv[argv.index('--gens') + 1].replace(' ', '')}"


@pytest.mark.parametrize("recorded", SANDWICHES, ids=_name)
def test_sandwich_documents_match_recording(recorded, monkeypatch):
    monkeypatch.chdir(ROOT)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(recorded["argv"])
    assert (code, stdout.getvalue(), stderr.getvalue()) == (
        recorded["exit"], recorded["stdout"], recorded["stderr"]
    )


def test_sandwich_documents_match_recording_in_either_order(monkeypatch):
    """Every recorded sandwich in one process, forward and then in
    reverse: an answer does not depend on what an earlier sandwich left in
    the center ring that descriptions over one field and arity share."""
    monkeypatch.chdir(ROOT)
    for recorded in SANDWICHES + SANDWICHES[::-1]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(recorded["argv"])
        assert (code, stdout.getvalue(), stderr.getvalue()) == (
            recorded["exit"], recorded["stdout"], recorded["stderr"]
        ), _name(recorded)
