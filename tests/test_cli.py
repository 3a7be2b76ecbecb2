"""Subcommand matrix: exit codes, document round-trips, error paths."""

import decimal
import json
import os
import random
import sys

import pytest

from conftest import ALGEBRA_DIR, algebra_path
from documents import GF7SPACE
from oracles import random_polynomial, random_scalar
from skewpbw.cli import COMMANDS, EXIT_INPUT, EXIT_OK, EXIT_UNKNOWN, main
from skewpbw.presentation import load_presentation_file


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, err = run(["--format", "json"] + argv, capsys)
    doc = json.loads(out) if out.strip() else {}
    return code, doc, err


WITTEN = algebra_path("witten.alg")
QPLANE = algebra_path("qplane_m1.alg")
WEYLZ = algebra_path("weyl_z.alg")
COMM = algebra_path("commutative_xy.alg")


def test_divide_witten(capsys):
    code, doc, _ = run_json(
        [
            "divide",
            "--algebra", WITTEN,
            "--f", "x^2*y + x*z + y*z",
            "--divisors", "x-1, y+2, z+3",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert doc["result"]["identity_verified"] is True
    assert len(doc["result"]["quotients"]) == 3


def test_divide_deep_power(capsys):
    """Cancelling x^1200 takes multiples of x - 1 up to degree 1199, deeper
    than the default recursion limit."""
    code, doc, _ = run_json(
        ["divide", "--algebra", QPLANE, "--f", "x^1200", "--divisors", "x - 1"],
        capsys,
    )
    assert code == EXIT_OK
    assert doc["result"]["remainder"] == "1"


def test_gb_improper_unit(capsys):
    code, doc, _ = run_json(
        ["gb", "--algebra", QPLANE, "--gens", "x-1, y-1"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["status"] == "unit"


def test_root_weyl_point(capsys):
    code, doc, _ = run_json(
        ["root", "--algebra", WEYLZ, "--f", "1", "--point", "1,0,0"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["root"] == "yes"


def test_member_no_is_exit_zero(capsys):
    code, doc, _ = run_json(
        ["member", "--algebra", COMM, "--f", "1", "--gens", "x, y"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["member"] == "no"


def test_unknown_exit_code(capsys):
    code, doc, _ = run_json(
        [
            "gb",
            "--algebra", WEYLZ,
            "--gens", "x^3*y + z, y^2*z - x",
            "--budget-degree", "2",
        ],
        capsys,
    )
    assert code == EXIT_UNKNOWN
    assert doc["status"] == "unknown"


def test_recursion_limit_is_input_error(capsys):
    """The parser recurses once per level of parentheses, so deep nesting
    ends at Python's recursion limit: one line, exit 1."""
    nested = "(" * 1000 + "x" + ")" * 1000
    code, out, err = run(["normalize", "--algebra", QPLANE, "--f", nested], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and "recursion limit" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_long_flat_sum_normalizes(capsys):
    """A sum of 1,200 terms is a left-nested chain, evaluated in a loop, so
    it is no recursion-limit input error."""
    flat = "+".join(["x"] * 1200)
    code, out, err = run(["normalize", "--algebra", QPLANE, "--f", flat], capsys)
    assert code == 0 and err == ""
    assert "result.normal_form: 1200*x" in out


def test_long_power_normalizes(capsys):
    """Normal ordering walks its chain of insertions in a loop, so moving y
    past x^1500 needs no recursion depth of 1500."""
    code, out, err = run(
        ["normalize", "--algebra", QPLANE, "--f", "y*x^1500"], capsys
    )
    assert code == 0 and err == ""
    assert "result.normal_form: x^1500*y" in out


def test_coefficient_past_int_str_limit_prints(capsys):
    """The coefficient 2^90000 of x^300*y^300*z has 27,093 digits, more than
    Python's default int-to-str limit; the CLI prints it and exits 0, and
    the caller's limit is the same afterwards."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(
        ["normalize", "--algebra", WITTEN, "--f", "z*y^300*x^300"], capsys
    )
    assert code == EXIT_OK and err == ""
    normal_form = out.split("result.normal_form: ", 1)[1].split("\n", 1)[0]
    coeff, rest = normal_form.split("*x^300*y^300*z", 1)
    with decimal.localcontext() as ctx:  # exact digits, free of the limit
        ctx.prec = 30_000
        assert coeff == str(decimal.Decimal(2) ** 90_000)
    assert rest.startswith(" + ") and rest.endswith("*x^300*y^300")
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_large_search_domain_is_input_error(tmp_path, capsys):
    alg = tmp_path / "big.alg"
    alg.write_text("field: gf:1000003\nvars: x, y\nrelation: y*x = 2*x*y\n")
    code, out, err = run(
        ["vanish", "--algebra", str(alg), "--polys", "x", "--domain", "gf"], capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: search domain has 1000006000009 points, above the limit of 100000\n"


def test_oversized_grid_range_is_refused_before_building(monkeypatch, capsys):
    """A range column is counted, not built: grid:0..10^12 on the plane is
    refused at once, with the field's from_int called only for the
    document and the polynomial."""
    from skewpbw.scalars import FieldSpec, get_field

    cls = type(get_field(FieldSpec.rationals()))
    from_int = cls.from_int
    calls = []

    def counting(self, k):
        calls.append(k)
        if len(calls) > 1000:
            raise AssertionError("the range column is being built")
        return from_int(self, k)

    monkeypatch.setattr(cls, "from_int", counting)
    code, out, err = run(
        ["vanish", "--algebra", QPLANE, "--polys", "x",
         "--domain", "grid:0..1000000000000"],
        capsys,
    )
    assert (code, out) == (EXIT_INPUT, "")
    points = (10**12 + 1) ** 2
    assert err == f"error: search domain has {points} points, above the limit of 100000\n"
    assert len(calls) < 1000


def test_parse_error_exit_code(capsys):
    code, out, err = run(
        ["normalize", "--algebra", WITTEN, "--f", "x*w"], capsys
    )
    assert code == EXIT_INPUT
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(
        ["normalize", "--algebra", "no-such-file.alg", "--f", "x"], capsys
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("flag", ["--budget-degree", "--budget-pairs"])
def test_negative_budget_is_input_error(flag, capsys):
    code, out, err = run(
        ["gb", "--algebra", QPLANE, "--gens", "x-1, y-1", flag, "-1"], capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and flag in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sandwich", "--algebra", QPLANE, "--gens", "x^4", "--domain", "grid:-1..1",
         "--max-power", "0"],
        ["points-ideal", "--algebra", QPLANE, "--points", "0,0", "--trunc-degree", "-1"],
    ],
    ids=["max-power", "trunc-degree"],
)
def test_out_of_range_flag_is_input_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and argv[-2] in err
    assert err.count("\n") == 1


def test_zero_to_negative_power_is_input_error(capsys):
    code, out, err = run(
        ["root", "--algebra", QPLANE, "--f", "x", "--point", "0^-1,0"], capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: division by zero\n"


def test_zero_to_negative_power_in_polynomial_is_division_by_zero(capsys):
    code, out, err = run(
        ["normalize", "--algebra", QPLANE, "--f", "0^-1*x"], capsys
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: division by zero\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["root", "--f", "x*y - 1", "--point", "2,3"],
        ["vanish", "--polys", "x*y", "--domain", "grid:-1..2"],
        ["points-ideal", "--points", "2,3; 0,1", "--trunc-degree", "2"],
    ],
    ids=["root", "vanish", "points-ideal"],
)
def test_point_commands_refuse_budgets(argv, capsys):
    """Points are decided by evaluation, so no budget can leave one
    unknown, and these subcommands take no budget flag: a usage error,
    exit 1, with nothing on stdout."""
    argv = [argv[0], "--algebra", QPLANE] + argv[1:]
    code, _, _ = run_json(argv, capsys)
    assert code == EXIT_OK
    for flag, value in (("--budget-degree", "0"), ("--budget-pairs", "1")):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == EXIT_INPUT
        assert capsys.readouterr().out == ""


def test_gb_certificates_index_generators_as_given(capsys):
    code, doc, _ = run_json(
        ["gb", "--algebra", QPLANE, "--gens", "0, x-1, y-1", "--certificates"],
        capsys,
    )
    assert code == EXIT_OK
    assert doc["result"]["status"] == "unit"
    indices = [i for cert in doc["result"]["certificates"] for _, i, _ in cert]
    assert sorted(indices) == [1, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "--algebra", QPLANE],
        ["gb", "--algebra", QPLANE, "--gens", "x", "--budget-degree", "abc"],
    ],
    ids=["missing-gens", "non-int-budget"],
)
def test_usage_error_exits_input(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gb", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--gens" in capsys.readouterr().out


def test_center_subcommand(capsys):
    code, doc, _ = run_json(["center", "--algebra", QPLANE], capsys)
    assert code == EXIT_OK
    assert doc["result"]["generators"] == ["x^2", "y^2"]


def test_center_unsupported_exits_1(capsys):
    code, _, err = run(["center", "--algebra", WITTEN], capsys)
    assert code == EXIT_INPUT


def test_saturate_and_vanish(capsys):
    code, doc, _ = run_json(
        ["saturate", "--algebra", QPLANE, "--gens", "x-1, y"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["status"] == "proper"

    code, doc, _ = run_json(
        [
            "vanish",
            "--algebra", QPLANE,
            "--polys", "x",
            "--domain", "grid:0..1",
        ],
        capsys,
    )
    assert code == EXIT_OK
    table = dict(tuple(row) for row in doc["result"]["table"])
    assert table["(1, 1)"] == "degenerate"
    assert table["(1, 0)"] == "non-root"


def test_points_ideal_and_witness(capsys):
    code, doc, _ = run_json(
        [
            "points-ideal",
            "--algebra", COMM,
            "--points", "0,0",
            "--trunc-degree", "1",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert sorted(doc["result"]["basis"]) == ["x", "y"]

    code, doc, _ = run_json(
        ["witness", "--algebra", COMM, "--points", "0,0; 1,1"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["witness"]


def test_witness_needs_no_budget(capsys):
    """A budget of one S-pair left the intersection fold unresolved: exit 2
    with a null witness. The product of the hyperplane sums reads no
    budget, so `witness` takes no budget flag, and gives the witness the
    fold found under the default one."""
    argv = [
        "witness",
        "--algebra", algebra_path("qspace3.alg"),
        "--points", "1,0,0; 0,1,0; 0,0,i",
    ]
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json"] + argv + ["--budget-pairs", "1"])
    assert exc.value.code == EXIT_INPUT
    assert capsys.readouterr().out == ""
    code, doc, err = run_json(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    assert doc["status"] == "ok"
    assert doc["result"] == {
        "witness": "x^2 + (1+2*i)*x*y + (1+3*i)*x*z + y^2 + (1-i)*y*z + z^2"
        " + (-1-i)*x + (-1-i)*y + (-1-i)*z + i",
        "note": "",
    }


def test_witness_on_a_variable_named_t(tmp_path, capsys):
    alg = tmp_path / "st.alg"
    alg.write_text("field: Q\nvars: s, t\n")
    code, doc, err = run_json(
        ["witness", "--algebra", str(alg), "--points", "0,0; 1,1"], capsys
    )
    assert (code, err) == (EXIT_OK, "")
    _, want, _ = run_json(["witness", "--algebra", COMM, "--points", "0,0; 1,1"], capsys)
    renamed = want["result"]["witness"].replace("x", "s").replace("y", "t")
    assert doc["result"]["witness"] == renamed


def test_sandwich_subcommand(capsys):
    code, doc, _ = run_json(
        [
            "sandwich",
            "--algebra", QPLANE,
            "--gens", "x^4",
            "--domain", "grid:-2..2",
            "--trunc-degree", "4",
            "--max-power", "4",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert doc["result"]["inclusion_radical"] == "confirmed"
    assert doc["result"]["inclusion_points"] == "confirmed"


def test_text_format_prints_lists_of_values_on_one_line(capsys):
    """--format text prints the command, hash and status, then one line per
    result key: a list of values on one line, joined by commas, and a list
    of lists or of dicts as one numbered entry per line."""
    code, out, _ = run(["gb", "--algebra", QPLANE, "--gens", "x^2 - y, x*y"], capsys)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "command: gb", "presentation: c3b01d9c56320f0c", "status: ok",
        "result.status: proper", "result.basis: y^2, x*y, x^2 - y", "result.note: ",
    ]
    code, out, _ = run(
        ["sandwich", "--algebra", QPLANE, "--gens", "x^4", "--domain", "grid:-1..1"], capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    for line in (
        "result.center.exponents: 2, 2",
        "result.J_center: u^2",
        "result.V_center.0: 0, -1",
        "result.V_center.2: 0, 1",
        "result.generators.1.lifted: y^6 - y^2",
        "result.generators.1.failed_roots: ",
        "result.generators.1.grid_artifact: True",
        "result.variety_points.7: (-1, 0), non-root",
        "result.notes: 1 generator(s) vanish on the grid trace but lie outside "
        "radical(J); reported as grid artifacts",
    ):
        assert line in lines
    assert len(lines) == 40


def test_order_flag_reaches_the_division(capsys):
    """Under --order degrevlex, y^3 leads x*z^2 - y^3 and divides y^3;
    under deglex, the default, x*z^2 leads and y^3 is its own remainder.
    The document names the order either way."""
    divide = ["divide", "--algebra", WITTEN, "--f", "y^3", "--divisors", "x*z^2 - y^3"]
    for flags, order, quotient, remainder in (
        ([], "deglex", "0", "y^3"),
        (["--order", "deglex"], "deglex", "0", "y^3"),
        (["--order", "degrevlex"], "degrevlex", "-1", "x*z^2"),
    ):
        code, doc, _ = run_json(divide + flags, capsys)
        assert code == EXIT_OK and doc["order"] == order
        assert doc["result"] == {
            "quotients": [quotient], "remainder": remainder, "identity_verified": True,
        }


def test_sandwich_without_checked_witness_is_inconclusive(capsys):
    """Radical membership of both generators runs out of budget, so the
    first inclusion is inconclusive; the second holds by the point-ideal
    lemma, with no witness to check."""
    code, doc, _ = run_json(
        [
            "sandwich",
            "--algebra", COMM,
            "--gens", "x*y - 1",
            "--domain", "grid:-2..2",
            "--trunc-degree", "8",
            "--max-power", "4",
            "--budget-degree", "3",
        ],
        capsys,
    )
    assert code == EXIT_UNKNOWN
    result = doc["result"]
    assert [g["in_radical_J"] for g in result["generators"]] == [None, None]
    assert result["inclusion_radical"] == "inconclusive"
    assert result["inclusion_points"] == "confirmed"
    assert result["notes"] == ["radical membership unresolved for some generator"]


def test_sandwich_reports_grid_artifacts_within_budget(capsys):
    """J of <x*y - 1> is its one generator u*v - 1, so at --budget-degree 4
    radical membership decides both generators of the grid trace's ideal:
    neither lies in radical(J), and both are reported as grid artifacts.
    With no generator certified the first inclusion is unchecked, so the
    verdict is inconclusive (exit 2), not confirmed."""
    code, doc, _ = run_json(
        [
            "sandwich",
            "--algebra", COMM,
            "--gens", "x*y - 1",
            "--domain", "grid:-2..2",
            "--trunc-degree", "8",
            "--max-power", "4",
            "--budget-degree", "4",
        ],
        capsys,
    )
    assert code == EXIT_UNKNOWN
    result = doc["result"]
    assert result["J_center"] == ["u*v - 1"]
    assert [g["in_radical_J"] for g in result["generators"]] == [False, False]
    assert [g["grid_artifact"] for g in result["generators"]] == [True, True]
    assert result["inclusion_radical"] == "inconclusive"
    assert result["notes"][0].startswith("2 generator(s) vanish on the grid trace")
    assert result["notes"][1] == (
        "no generator is certified in radical(J): first inclusion unchecked"
    )


def test_sandwich_with_no_certified_generator_is_inconclusive(capsys):
    """V(J) is {(9, 0)}, outside the grid, so the grid trace is empty and
    its ideal's one generator, 1, is a grid artifact. No generator is
    certified, so nothing of the first inclusion was checked."""
    code, doc, _ = run_json(
        ["sandwich", "--algebra", QPLANE, "--gens", "x^2 - 9, y^2",
         "--domain", "grid:-2..2", "--trunc-degree", "8", "--max-power", "4"],
        capsys,
    )
    assert code == EXIT_UNKNOWN
    result = doc["result"]
    assert [g["center"] for g in result["generators"]] == ["1"]
    assert [g["grid_artifact"] for g in result["generators"]] == [True]
    assert result["inclusion_radical"] == "inconclusive"
    assert result["notes"][-1] == (
        "no generator is certified in radical(J): first inclusion unchecked"
    )


def test_sandwich_nilpotency_cap_is_inconclusive(capsys):
    """The README's x^4 example certifies generators in radical(J) whose
    nilpotency exponents lie above --max-power 1."""
    code, doc, _ = run_json(
        ["sandwich", "--algebra", QPLANE, "--gens", "x^4", "--domain", "grid:-2..2",
         "--trunc-degree", "4", "--max-power", "1"],
        capsys,
    )
    assert code == EXIT_UNKNOWN
    result = doc["result"]
    assert any(g["in_radical_J"] for g in result["generators"])
    assert result["inclusion_radical"] == "inconclusive"
    assert result["notes"][-1] == (
        "some certified generator has no nilpotency exponent within the cap"
    )


def test_bare_value_error_is_an_internal_error(monkeypatch, capsys):
    """Only InputError (and OSError) is the user's fault: a bare ValueError
    from inside the engine is an engine fault, one `internal error:` line."""
    from skewpbw import geometry

    def broken(f, Z):
        raise ValueError("math domain error")

    monkeypatch.setattr(geometry, "evaluate", broken)
    code, out, err = run(
        ["root", "--algebra", QPLANE, "--f", "x", "--point", "0,0"], capsys
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "internal error: math domain error\n"


def test_engine_fault_is_one_internal_error_line(monkeypatch, capsys):
    """A certified witness that evaluates to nonzero at a character root is
    an engine fault: the sandwich's self-check raises, and the CLI reports
    one `internal error:` line with exit 1 and no traceback."""
    from skewpbw import geometry

    evaluate = geometry.evaluate

    def broken(f, Z):
        value = evaluate(f, Z)
        return value + value.field.one if str(Z) == "(0, 1)" else value

    monkeypatch.setattr(geometry, "evaluate", broken)
    code, out, err = run(
        ["sandwich", "--algebra", QPLANE, "--gens", "x^4", "--domain", "grid:-2..2",
         "--trunc-degree", "4", "--max-power", "4"],
        capsys,
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert err == (
        "internal error: certified witness x^2 does not vanish at the root (0, 1)\n"
    )


def test_failed_witness_root_check_is_an_internal_error(monkeypatch, capsys):
    """The witness checks that every given point is a root of its own
    product; a failure is an engine fault, not an input error."""
    from skewpbw import geometry

    evaluate = geometry.evaluate

    def broken(f, Z):
        value = evaluate(f, Z)
        return value + value.field.one if str(Z) == "(0, 0)" else value

    monkeypatch.setattr(geometry, "evaluate", broken)
    code, out, err = run(["witness", "--algebra", QPLANE, "--points", "0,0"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "internal error: witness fails root check at (0, 0)\n"


def test_failed_centrality_check_is_an_internal_error(monkeypatch, capsys):
    """The centrality check on each center generator is a self-check: its
    failure is an engine fault, reported as one `internal error:` line."""
    from skewpbw import nullstellensatz

    monkeypatch.setattr(nullstellensatz, "central_probe", lambda f: False)
    code, out, err = run(["center", "--algebra", QPLANE], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "internal error: generator x^2 failed the centrality check\n"


def test_field_above_degree_cap_is_input_error(tmp_path, capsys):
    alg = tmp_path / "c37.alg"
    alg.write_text("field: cyclotomic:37\nvars: x, y\n")
    code, out, err = run(["normalize", "--algebra", str(alg), "--f", "x"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == (
        "error: line 1: cyclotomic:37 has degree phi(37) above the limit of 32"
        " (scalars.MAX_FIELD_DEGREE)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--algebra", QPLANE, "--f", "x+"],
        ["mul", "--algebra", QPLANE, "--f", "x", "--g", "y*("],
        ["divide", "--algebra", WITTEN, "--f", "x", "--divisors", "x^"],
        ["gb", "--algebra", QPLANE, "--gens", "x, q*y"],
        ["member", "--algebra", QPLANE, "--f", "x", "--gens", "y)"],
        ["saturate", "--algebra", QPLANE, "--gens", "x", "--order", "lex"],
        ["root", "--algebra", QPLANE, "--f", "x", "--point", "1"],
        ["vanish", "--algebra", QPLANE, "--polys", "x", "--domain", "box:0..1"],
        ["points-ideal", "--algebra", QPLANE, "--points", "0,0,0", "--trunc-degree", "1"],
        ["witness", "--algebra", COMM, "--points", "0,w"],
        ["center", "--algebra", "no-such-file.alg"],
        ["sandwich", "--algebra", QPLANE, "--gens", "x^4", "--domain", "grid:a..b"],
        *(
            pytest.param(
                ["sandwich", "--algebra", QPLANE, "--gens", "x^4", "--domain", domain],
                id=f"sandwich-{domain}",
            )
            for domain in ("grid:-2..2;", "grid:2..-2", "grid:")
        ),
        ["normal", "--algebra", QPLANE, "--f", "x*"],
        pytest.param(
            ["gb", "--algebra", QPLANE, "--gens", "x", "--order", "block:w"],
            id="gb-block:w",
        ),
        ["consistency", "--algebra", "no-such-file.alg"],
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_input_is_one_error_line(argv, capsys):
    """Every subcommand reports a malformed argument or a missing algebra
    file as one `error:` line, exit 1, with no traceback."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("domain", ["grid:a..2", "grid:1..", "grid:0..1;2..y"])
def test_grid_bounds_must_be_integers(domain, capsys):
    code, out, err = run(
        ["vanish", "--algebra", QPLANE, "--polys", "x", "--domain", domain], capsys
    )
    assert (code, out) == (EXIT_INPUT, "")
    bad = domain.split(":", 1)[1].split(";")[-1]
    assert err == f"error: grid range {bad!r} needs integer bounds\n"


def test_non_utf8_document_is_input_error(tmp_path, capsys):
    alg = tmp_path / "latin1.alg"
    data = b"field: Q\nvars: x, y\n# caf\xe9\n"
    alg.write_bytes(data)
    code, out, err = run(["normalize", "--algebra", str(alg), "--f", "x"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {alg}: byte {data.index(0xE9)} is not UTF-8 text\n"


def test_sandwich_refuses_assumed_center(tmp_path, capsys):
    """x^6, y^6, z^6 are central here, but x*y*z^4 is too: the center is
    not the polynomial ring the sandwich needs."""
    alg = tmp_path / "gf7space.alg"
    alg.write_text(GF7SPACE)
    code, out, err = run(
        ["sandwich", "--algebra", str(alg), "--gens", "x^6", "--domain", "gf",
         "--trunc-degree", "12", "--max-power", "3"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and "x*y*z^4 is central" in err
    assert err.count("\n") == 1


def test_center_refuses_extra_central_monomial(tmp_path, capsys):
    alg = tmp_path / "gf7space.alg"
    alg.write_text(GF7SPACE)
    code, out, err = run(["center", "--algebra", str(alg)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error:") and "x*y*z^4 is central" in err
    assert err.count("\n") == 1


def test_center_refuses_twisting_sigma(tmp_path, capsys):
    alg = tmp_path / "conj_qplane.alg"
    alg.write_text("field: Q(i)\nvars: x, y\nsigma: x = conj\nrelation: y*x = i*x*y\n")
    code, out, err = run(["center", "--algebra", str(alg)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error:") and "sigma of x" in err


def test_center_mixed_trivial_constants(tmp_path, capsys):
    alg = tmp_path / "anti_xy.alg"
    alg.write_text("field: Q\nvars: x, y, z\nrelation: y*x = -x*y\n")
    code, doc, _ = run_json(["center", "--algebra", str(alg)], capsys)
    assert code == EXIT_OK
    assert doc["result"]["exponents"] == [2, 2, 1]
    assert doc["result"]["generators"] == ["x^2", "y^2", "z"]


def test_normal_subcommand(capsys):
    code, doc, _ = run_json(
        ["normal", "--algebra", QPLANE, "--f", "x+y"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["status"] == "not_normal"
    assert "counter_witness" in doc["result"]


def test_consistency_subcommand(capsys):
    code, doc, _ = run_json(
        ["consistency", "--algebra", WITTEN, "--degree-bound", "3"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["consistent"] is True
    assert doc["result"]["quasi_commutative"] is False


def test_mul_and_block_order(capsys):
    code, doc, _ = run_json(
        ["mul", "--algebra", WITTEN, "--f", "z", "--g", "x"], capsys
    )
    assert code == EXIT_OK
    assert doc["result"]["product"] == "x*z - x"

    code, doc, _ = run_json(
        [
            "gb",
            "--algebra", WITTEN,
            "--order", "block:x",
            "--gens", "x + z^2, y",
        ],
        capsys,
    )
    assert code == EXIT_OK


def test_deterministic_output(capsys):
    args = ["gb", "--algebra", QPLANE, "--gens", "x^2 - y, x*y + x"]
    code1, doc1, _ = run_json(args, capsys)
    code2, doc2, _ = run_json(args, capsys)
    assert code1 == code2 == EXIT_OK
    assert doc1 == doc2


def test_text_format(capsys):
    code, out, _ = run(
        ["normalize", "--algebra", QPLANE, "--f", "y*x"], capsys
    )
    assert code == EXIT_OK
    assert "normal_form: -x*y" in out


# one valid call of every subcommand
CALLS = {
    "normalize": ["--algebra", QPLANE, "--f", "y*x"],
    "mul": ["--algebra", WITTEN, "--f", "z", "--g", "x"],
    "divide": ["--algebra", WITTEN, "--f", "x^2*y + x*z", "--divisors", "x-1, y+2"],
    "gb": ["--algebra", QPLANE, "--gens", "x-1, y-1"],
    "member": ["--algebra", QPLANE, "--f", "x^2*y", "--gens", "y"],
    "saturate": ["--algebra", QPLANE, "--gens", "x-1, y"],
    "root": ["--algebra", WEYLZ, "--f", "1", "--point", "1,0,0"],
    "vanish": ["--algebra", QPLANE, "--polys", "x", "--domain", "grid:0..1"],
    "points-ideal": ["--algebra", COMM, "--points", "0,0", "--trunc-degree", "1"],
    "witness": ["--algebra", COMM, "--points", "0,0; 1,1"],
    "center": ["--algebra", QPLANE],
    "sandwich": ["--algebra", QPLANE, "--gens", "x^4", "--domain", "grid:-2..2"],
    "normal": ["--algebra", QPLANE, "--f", "x+y"],
    "consistency": ["--algebra", WITTEN, "--degree-bound", "3"],
}
READS_ORDER = {"divide", "gb", "member", "saturate", "sandwich"}
READS_BUDGET = {"gb", "member", "saturate", "sandwich"}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_subcommand_takes_only_the_flags_it_reads(command, capsys):
    """--order and the budget flags are accepted exactly where they are
    read; at their defaults they change nothing, and elsewhere they are a
    usage error, exit 1, with nothing on stdout. Every document has a
    status."""
    argv = [command] + CALLS[command]
    code, doc, err = run_json(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    assert doc["status"] == "ok" and doc["order"] == "deglex"
    for flag, value, readers in (
        ("--order", "deglex", READS_ORDER),
        ("--budget-degree", "12", READS_BUDGET),
        ("--budget-pairs", "100000", READS_BUDGET),
    ):
        if command in readers:
            assert run_json(argv + [flag, value], capsys) == (code, doc, err)
        else:
            with pytest.raises(SystemExit) as exc:
                main(["--format", "json"] + argv + [flag, value])
            assert exc.value.code == EXIT_INPUT
            assert capsys.readouterr().out == ""


STARVED = ["--gens", "x^2 - y, x*y + 1", "--budget-pairs", "0"]


@pytest.mark.parametrize(
    "algebra, domain, message",
    [
        ("qplane_m1.alg", "box:0..1", "error: unknown domain 'box:0..1' "),
        ("qplane_m1.alg", "grid:0..1000000",
         "error: search domain has 1000002000001 points,"),
        ("witten.alg", "grid:0..1",
         "error: the center rule needs a quasi-commutative presentation"),
    ],
    ids=["unknown-domain", "domain-size", "center"],
)
def test_sandwich_refuses_bad_input_whatever_the_budget(algebra, domain, message, capsys):
    """The domain and the center are checked before the saturation, so a
    budget that leaves the saturation unknown cannot hide a refusal."""
    code, out, err = run(
        ["sandwich", "--algebra", algebra_path(algebra), "--domain", domain] + STARVED,
        capsys,
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_sandwich_unknown_saturation_document(capsys):
    """An unknown saturation ends the sandwich with exit 2; its document
    echoes all four inputs and has a top-level status, like every other."""
    code, doc, err = run_json(
        ["sandwich", "--algebra", QPLANE, "--domain", "grid:0..1"] + STARVED, capsys
    )
    assert (code, err) == (EXIT_UNKNOWN, "")
    assert doc["status"] == "unknown"
    assert doc["inputs"] == {
        "gens": "x^2 - y, x*y + 1", "domain": "grid:0..1",
        "trunc_degree": 4, "max_power": 4,
    }
    assert doc["result"]["status"] == "unknown"


SHIPPED = sorted(name for name in os.listdir(ALGEBRA_DIR) if name.endswith(".alg"))


def _sweep_argvs(path, rng):
    """One argv for each of 13 subcommands, on well-formed inputs drawn
    from rng: polynomials of degree <= 2 with <= 3 terms, and points whose
    coordinates are often 0 or +-1, so that some are characters."""
    pres = load_presentation_file(path)

    def poly():
        return str(random_polynomial(pres, rng, 2, 3))

    def polys():
        return ", ".join(poly() for _ in range(rng.randint(1, 3)))

    def point():
        return ", ".join(
            str(rng.choice((0, 1, -1)) if rng.random() < 0.5 else random_scalar(pres.field, rng))
            for _ in range(pres.n)
        )

    def points():
        return "; ".join(point() for _ in range(rng.randint(1, 3)))

    # flag=value, so that a value with a leading minus sign is no flag
    budget, domain = "--budget-pairs=200", "--domain=grid:-1..1"
    return [
        ["normalize", f"--f={poly()}"],
        ["mul", f"--f={poly()}", f"--g={poly()}"],
        ["divide", f"--f={poly()}", f"--divisors={polys()}"],
        ["gb", f"--gens={polys()}", budget],
        ["saturate", f"--gens={polys()}", budget],
        ["member", f"--f={poly()}", f"--gens={polys()}", budget],
        ["root", f"--f={poly()}", f"--point={point()}"],
        ["witness", f"--points={points()}"],
        ["normal", f"--f={poly()}"],
        ["vanish", f"--polys={polys()}", domain],
        ["points-ideal", f"--points={points()}", "--trunc-degree=2"],
        ["center"],
        ["sandwich", f"--gens={polys()}", domain, budget],
    ]


@pytest.mark.parametrize("name", SHIPPED)
def test_seeded_sweep_finds_no_engine_fault(name, capsys):
    """Well-formed input gets an answer, an input error or `unknown`, and
    never an engine fault: six seeded rounds of 13 subcommands on each
    shipped algebra."""
    path = algebra_path(name)
    rng = random.Random(f"cli sweep {name}")
    codes = set()
    for _ in range(6):
        for command, *flags in _sweep_argvs(path, rng):
            argv = ["--format", "json", command, "--algebra", path, *flags]
            code, _, err = run(argv, capsys)
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_UNKNOWN), argv
            assert "internal error:" not in err and "Traceback" not in err, (argv, err)
            codes.add(code)
    assert EXIT_OK in codes
