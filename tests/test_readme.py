"""The README's examples must stay executable and truthful."""

import argparse
import importlib
import io
import os
import pkgutil
import re
from contextlib import redirect_stdout

from conftest import algebra_path
import skewpbw
from skewpbw import cli, geometry, groebner, nullstellensatz, poly, scalars
from skewpbw.presentation import (
    load_presentation,
    load_presentation_file,
    presentation_hash,
)


ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def _readme():
    return _read("README.md")


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


def test_readme_limits_table_matches_the_code():
    """Each default in the README's table of budgets and limits is the
    code's, and every MAX_ constant of the package appears in it."""
    section = _readme().split("## Budgets and limits\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)`[^|]*\| ([\d,]+) \|", section, re.M)
    table = {name: int(default.replace(",", "")) for name, default in rows}
    budget = groebner.Budget()
    assert table == {
        "groebner.Budget.max_degree": budget.max_degree,
        "groebner.Budget.max_pairs": budget.max_pairs,
        "groebner.Budget.max_rounds": budget.max_rounds,
        "nullstellensatz.MAX_CENTER_ORDER": nullstellensatz.MAX_CENTER_ORDER,
        "geometry.MAX_DOMAIN_POINTS": geometry.MAX_DOMAIN_POINTS,
        "scalars.MAX_FIELD_DEGREE": scalars.MAX_FIELD_DEGREE,
        "scalars.MAX_INVERSE_MEMO": scalars.MAX_INVERSE_MEMO,
        "poly.MAX_INSERT_CACHE": poly.MAX_INSERT_CACHE,
    }
    for info in pkgutil.iter_modules(skewpbw.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"skewpbw.{info.name}")
        for name in vars(module):
            if name.startswith("MAX_"):
                assert f"{info.name}.{name}" in table


def test_readme_flags_match_the_commands():
    """Every flag of the CLI appears in the README's CLI section, and its
    sentence on `--order` and the budget flags names exactly the
    subcommands that take them."""
    section = _readme().split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    top = cli.build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    takers = {}
    for name, parser in [("", top), *sub.choices.items()]:
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                for flag in action.option_strings:
                    takers.setdefault(flag, set()).add(name)
    missing = [f for f in takers if not re.search(re.escape(f) + r"(?![\w-])", section)]
    assert missing == []
    sentence = re.search(
        r"\. ([^.]*) take `--order`; ([^.]*) take `--budget-degree` and `--budget-pairs`\.",
        section,
    )
    assert sentence, "README lost its sentence on --order and the budget flags"
    ordered, budgeted = (set(re.findall(r"`([\w-]+)`", g)) for g in sentence.groups())
    assert ordered == takers["--order"]
    assert budgeted == takers["--budget-degree"] == takers["--budget-pairs"]


def test_readme_ci_steps_match_the_workflow():
    """README's "Install and test" names the Python versions, the pinned
    test tools and the commands of the CI workflow's one job: the install,
    tier-1 under `python -X dev`, the mutants and the smoke test. A pin or
    a step changed in one place and not the other fails here."""
    section = _readme().split("## Install and test\n", 1)[1].split("\n## ", 1)[0]
    workflow = _read(".github", "workflows", "tier1.yml")
    pins = re.compile(r"([\w-]+)==([\d.]+)")
    assert set(pins.findall(workflow)) == set(pins.findall(section)) != set()
    (matrix,) = re.findall(r"python-version: \[(.*)\]", workflow)
    pythons = set(re.findall(r'"([\d.]+)"', matrix))
    assert pythons == set(re.findall(r"Python (3\.\d+)", section)) == {"3.10", "3.11"}
    steps = re.findall(r"^ +run: ([^|\s].*)$", workflow, re.M)  # one-line steps
    assert len(steps) == 4 and "-X dev" in steps[1]
    assert [s for s in steps if s not in section] == []


def test_test_extra_pins_what_ci_and_readme_pin():
    """`pyproject.toml`'s `test` extra pins the same tools, at the same
    versions, as README's "Install and test" and the CI workflow, so
    `pip install -e .[test]` gets what CI runs with."""
    section = _readme().split("## Install and test\n", 1)[1].split("\n## ", 1)[0]
    workflow = _read(".github", "workflows", "tier1.yml")
    (extra,) = re.findall(r"^test = \[(.*)\]$", _read("pyproject.toml"), re.M)
    pins = re.compile(r"([\w-]+)==([\d.]+)")
    listed = re.findall(r'"([^"]*)"', extra)
    assert [p for p in listed if not pins.fullmatch(p)] == []
    assert set(pins.findall(extra)) == set(pins.findall(section)) == set(pins.findall(workflow))


def test_every_tier1_job_installs_every_pinned_tool():
    """The one CI job runs tier-1 on every Python of its matrix, installs
    every tool README pins, and lists its skips (`-rs`): a run without
    sympy would skip `test_product_criterion_agrees_with_sympy` and still
    pass. Only the mutants step is limited to one Python."""
    section = _readme().split("## Install and test\n", 1)[1].split("\n## ", 1)[0]
    pinned = set(re.findall(r"([\w-]+)==([\d.]+)", section))
    workflow = _read(".github", "workflows", "tier1.yml").split("\njobs:\n", 1)[1]
    jobs = re.split(r"^  (?=[\w-]+:$)", workflow, flags=re.M)[1:]
    tier1 = [job for job in jobs if " -m pytest " in job]
    assert len(tier1) == len(jobs) == 1
    limited = re.findall(r"^ +- name: (.*)\n(?: +#.*\n)* +if: ", jobs[0], re.M)
    assert limited == ["Registered mutants are killed"]
    for job in tier1:
        installs = re.findall(r"pip install (.*)$", job, re.M)
        assert pinned <= {tuple(p.split("==")) for line in installs for p in line.split()}, job
        assert all(" -rs " in line for line in re.findall(r".* -m pytest .*", job)), job
