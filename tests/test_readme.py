"""The README's examples must stay executable and truthful."""

import io
import os
import re
from contextlib import redirect_stdout

from conftest import algebra_path
from skewpbw.presentation import (
    load_presentation,
    load_presentation_file,
    presentation_hash,
)


def _readme():
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _presentation_blocks():
    section = _readme().split("## Presentation documents\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```\n(.*?)```", section, re.S)


def test_readme_api_example_runs():
    text = _readme()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S)
    assert block, "README lost its Python API example"
    buf = io.StringIO()
    with redirect_stdout(buf):
        exec(block.group(1), {})  # noqa: S102 - executing our own docs
    lines = buf.getvalue().strip().splitlines()
    assert lines == ["yes", "confirmed confirmed"]


def test_readme_presentation_block_is_witten():
    """The README's first presentation document is algebras/witten.alg,
    with comments: it loads and hashes like the file."""
    block = _presentation_blocks()[0]
    witten = load_presentation_file(algebra_path("witten.alg"))
    assert presentation_hash(load_presentation(block)) == presentation_hash(witten)
    assert presentation_hash(witten) == "c2c7fc4a0236aac3"


def test_readme_sigma_example_loads():
    block = _presentation_blocks()[1]
    assert "sigma:" in block
    P = load_presentation(block)
    assert P.sigma == (4, 2)  # conj = galois:4 on Q(z_5)
