"""The README CLI examples must keep their recorded JSON byte for byte.

Compares with `perfbench/cli_expected.json` through `perfbench/cli_capture.py`;
never re-records it.
"""

import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def test_cli_examples_match_recording(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.chdir(ROOT)
    import cli_capture
    captured = cli_capture.capture()
    recorded = cli_capture.expected()
    for now, then in zip(captured, recorded):
        assert now == then, "changed: skewpbw " + " ".join(now["argv"])
    assert len(captured) == len(recorded)
