"""Command-line interface: every engine operation as a subcommand.

Answers that were computed exactly (including "no" and "not_normal") exit
with 0; budget-exhausted/unknown results exit with 2; input errors exit
with 1, and so does an engine fault, reported as one "internal error:"
line. Output is human text or a JSON document (--format json) carrying
the echoed inputs, the presentation hash, the result payload and status.

`COMMANDS` declares each subcommand once: the parser, the reading of its
arguments, the echo of its inputs and its dispatch all read that table.
Each flag is one `_Arg`, which carries its reader, its default, its least
legal value and its help.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, NamedTuple, Optional, Tuple

from skewpbw import geometry, groebner, normality, nullstellensatz
from skewpbw.geometry import Point, SearchDomain
from skewpbw.groebner import Budget, UNKNOWN
from skewpbw.parsing import split_top_level
from skewpbw.poly import (
    DEGLEX, DEGREVLEX, MonomialOrder, Polynomial, parse_polynomial, parse_scalar,
)
from skewpbw.presentation import (
    Presentation, check_pbw_consistency, load_presentation_file, presentation_hash,
)
from skewpbw.scalars import InputError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNKNOWN = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, keeping 2 for `unknown`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _order_from_flag(text: str, pres: Presentation) -> MonomialOrder:
    if text == "deglex":
        return DEGLEX
    if text == "degrevlex":
        return DEGREVLEX
    if text.startswith("block:"):
        names = [v.strip() for v in text.split(":", 1)[1].split(",") if v.strip()]
        return MonomialOrder.block([pres.index(nm) for nm in names], pres.n)
    raise InputError(f"unknown order {text!r}")


def _budget_from_flags(a) -> Budget:
    return Budget(max_degree=a.budget_degree, max_pairs=a.budget_pairs)


def _polys(text: str, pres: Presentation) -> List[Polynomial]:
    return [parse_polynomial(p, pres) for p in split_top_level(text, ",")]


def _point(text: str, pres: Presentation) -> Point:
    coords = [parse_scalar(v, pres.field) for v in split_top_level(text, ",")]
    return Point.of(pres, coords)


def _points(text: str, pres: Presentation) -> List[Point]:
    return [_point(part, pres) for part in split_top_level(text, ";")]


def _column(part: str, pres: Presentation):
    part = part.strip()
    if ".." not in part:
        return [parse_scalar(v, pres.field) for v in split_top_level(part, ",")]
    lo, hi = part.split("..", 1)
    try:  # a range stays lazy, so the domain's size check comes first
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise InputError(f"grid range {part!r} needs integer bounds") from None


def _domain(text: str, pres: Presentation) -> SearchDomain:
    """The search domain, refused here if its arity, an empty column or
    its size does not fit pres, before any command computes."""
    text = text.strip()
    if text == "gf":
        domain = SearchDomain.full_prime_field()
    elif text.startswith("grid:"):
        body = text.split(":", 1)[1]
        domain = SearchDomain.grid([_column(part, pres) for part in body.split(";")])
    else:
        raise InputError(f"unknown domain {text!r} (use grid:<spec> or gf)")
    domain._raw_columns(pres)
    return domain


class _Arg(NamedTuple):
    """One flag, declared once: the parser registers it, `run_command`
    checks its bound and reads it, and a command's inputs echo it."""

    flag: str
    # (text, pres) -> value, or (text) -> pres for --algebra, which
    # run_command reads first; None: an int flag
    read: Optional[Callable] = None
    default: object = None  # None makes the flag required; False: a switch
    least: Optional[int] = None  # the least legal value of an int flag
    help: Optional[str] = None

    @property
    def name(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    """One subcommand: its help, its inputs in the order the JSON echoes
    them, and `compute`, which takes the read flags (with `pres` and
    `order`) and returns (result, whether it is unknown)."""

    help: str
    inputs: Tuple[_Arg, ...]
    compute: Callable
    flags: Tuple[_Arg, ...] = ()  # read but not echoed
    pinned: Tuple[tuple, ...] = ()  # (key, value) inputs echoed as they are


def _handle_result(handle) -> tuple:
    return {
        "status": handle.status,
        "basis": [str(g) for g in handle.basis],
        "note": handle.note,
    }, handle.status == UNKNOWN


def _divide(a):
    res = groebner.divide(a.f, a.divisors, a.order)
    return {
        "quotients": [str(q) for q in res.quotients],
        "remainder": str(res.remainder),
        "identity_verified": res.reconstruct(a.divisors) == a.f,
    }, False


def _gb(a):
    handle = groebner.left_groebner(
        a.gens, a.order, _budget_from_flags(a), track=a.certificates
    )
    result, unknown = _handle_result(handle)
    if a.certificates and handle.certificates:
        result["certificates"] = [
            [[str(p), i, str(q)] for p, i, q in cert] for cert in handle.certificates
        ]
    return result, unknown


def _member(a):
    close = groebner.two_sided_saturate if a.two_sided else groebner.left_groebner
    handle = close(a.gens, a.order, _budget_from_flags(a))
    verdict = groebner.is_member_left(a.f, handle)
    return {"member": verdict, "ideal_status": handle.status}, verdict == "unknown"


def _vanish(a):
    rep = geometry.vanishing_set(a.pres, a.polys, a.domain)
    return {
        "table": [[str(p), tag] for p, tag in rep.table()],
        "roots": len(rep.roots),
        "degenerate": len(rep.degenerate),
        "unknown": len(rep.unknown),
    }, False


def _points_ideal(a):
    basis = geometry.ideal_of_points(a.pres, a.points, a.trunc_degree)
    return {"basis": [str(g) for g in basis]}, False


def _witness(a):
    res = geometry.algebraic_witness(a.pres, a.points)
    return {"witness": str(res.witness), "note": res.note}, False


def _center_doc(C) -> dict:
    # center_generators raises unless every generator is central and the
    # center is decided, so `verified` is the constant true; the key stays
    # while perfbench/cli_expected.json pins it
    return {
        "exponents": list(C.exponents),
        "generators": [str(g) for g in C.generators],
        "case": C.case,
        "verified": True,
    }


def _center(a):
    C = nullstellensatz.center_generators(a.pres)
    # `case` first, as pinned; polynomial_center_assumed is the constant
    # false for the same reason as `verified`
    return {"case": C.case, **_center_doc(C), "polynomial_center_assumed": False}, False


def _sandwich(a):
    # the center refuses a presentation before the saturation runs
    C = nullstellensatz.center_generators(a.pres)
    budget = _budget_from_flags(a)
    handle = groebner.two_sided_saturate(a.gens, a.order, budget)
    if handle.status == UNKNOWN:
        return {"status": "unknown", "note": handle.note}, True
    rep = nullstellensatz.verify_sandwich(
        handle, C, a.domain, a.trunc_degree, a.max_power, budget
    )
    return {
        "ideal_generators": [str(g) for g in handle.generators],
        "center": _center_doc(C),
        "truncation_degree": a.trunc_degree,
        "max_power": a.max_power,
        "J_center": [str(g) for g in rep.j_center],
        "V_center": [[str(c) for c in p.coords] for p in rep.v_center],
        "generators": [
            {
                "center": str(v.center_poly),
                "lifted": str(v.lifted),
                "in_radical_J": v.in_radical_J,
                "nilpotency_exponent": v.nilpotency_m,
                # evaluation decides every root, so none fails or is
                # unknown; the keys stay while perfbench/cli_expected.json
                # pins them
                "failed_roots": [],
                "unknown_roots": [],
                "grid_artifact": v.grid_artifact,
            }
            for v in rep.generator_verdicts
        ],
        "variety_points": [[str(p), tag] for p, tag in rep.variety_report.table()],
        "inclusion_radical": rep.inclusion_radical,
        "inclusion_points": rep.inclusion_points,  # always confirmed, by the lemma
        "notes": rep.notes,
    }, rep.inclusion_radical == nullstellensatz.INCONCLUSIVE


def _normal(a):
    verdict = normality.is_normal(a.f)
    payload = {"status": verdict.status}
    if verdict.certificate:
        payload["witnesses"] = {
            a.pres.names[j]: {"g": str(g), "g_prime": str(gp)}
            for j, (g, gp) in verdict.certificate.items()
        }
    if verdict.counter_witness:
        direction, w = verdict.counter_witness
        payload["counter_witness"] = {
            "direction": direction,
            "witness": a.pres.names[w] if isinstance(w, int) else str(w),
        }
    return payload, False


def _consistency(a):
    rep = check_pbw_consistency(a.pres, a.degree_bound)
    return {
        "consistent": rep.consistent,
        "checked": rep.checked,
        "failure": None if rep.failure is None else [str(x) for x in rep.failure],
        "quasi_commutative": a.pres.quasi_commutative,
        # field coefficients force bijectivity: sigma invertible, c_ij units
        "bijective": True,
    }, False


# in no command's inputs or flags: its reader builds the pres theirs take
_ALGEBRA = _Arg("--algebra", load_presentation_file, help="presentation document")
_F = _Arg("--f", parse_polynomial)
_GENS = _Arg("--gens", _polys)
_POINTS = _Arg("--points", _points)
_DOMAIN = _Arg("--domain", _domain)
_ORDER_FLAG = _Arg("--order", _order_from_flag, default="deglex")
_BUDGET_FLAGS = (
    _Arg(
        "--budget-degree", default=Budget().max_degree, least=0,
        help="skip S-pairs whose lcm has a higher total degree (result "
        "unknown); pairs pruned by the chain criterion never count",
    ),
    _Arg(
        "--budget-pairs", default=Budget().max_pairs, least=0,
        help="most S-elements one completion forms (else unknown); "
        "pairs pruned by the chain criterion are not formed or counted",
    ),
)

COMMANDS = {
    "normalize": _Command(
        "parse and normal-order a polynomial", (_F,),
        lambda a: ({"normal_form": str(a.f), "degree": a.f.degree()}, False),
    ),
    "mul": _Command(
        "product of two polynomials", (_F, _Arg("--g", parse_polynomial)),
        lambda a: ({"product": str(a.f * a.g)}, False),
    ),
    "divide": _Command(
        "division with quotients and reduced remainder",
        (_F, _Arg("--divisors", _polys)), _divide, (_ORDER_FLAG,),
    ),
    "gb": _Command(
        "left Groebner basis of a left ideal", (_GENS,), _gb,
        (_Arg("--certificates", default=False), _ORDER_FLAG, *_BUDGET_FLAGS),
    ),
    "member": _Command(
        "left-ideal membership", (_F, _GENS), _member,
        (_Arg("--two-sided", default=False), _ORDER_FLAG, *_BUDGET_FLAGS),
    ),
    "saturate": _Command(
        "two-sided saturation of generators", (_GENS,),
        lambda a: _handle_result(
            groebner.two_sided_saturate(a.gens, a.order, _budget_from_flags(a))
        ),
        (_ORDER_FLAG, *_BUDGET_FLAGS),
    ),
    "root": _Command(
        "is the point a root of f", (_F, _Arg("--point", _point)),
        lambda a: ({"root": geometry.is_root(a.f, a.point)}, False),
    ),
    "vanish": _Command(
        "vanishing set over a finite domain", (_Arg("--polys", _polys), _DOMAIN),
        _vanish,
    ),
    "points-ideal": _Command(
        "degree-truncated ideal of points", (_POINTS, _Arg("--trunc-degree", least=0)),
        _points_ideal,
    ),
    "witness": _Command(
        "nonzero polynomial vanishing on given points", (_POINTS,), _witness
    ),
    "center": _Command("central generators x_i^(L_i)", (), _center),
    "sandwich": _Command(
        "verify both radical-sandwich inclusions",
        (_GENS, _DOMAIN, _Arg("--trunc-degree", default=4, least=0),
         _Arg("--max-power", default=4, least=1)),
        _sandwich, (_ORDER_FLAG, *_BUDGET_FLAGS),
    ),
    # witnesses have degree 1, so there is no slack to set; the key stays
    # while perfbench/cli_expected.json pins it
    "normal": _Command(
        "normal-element test Af = fA", (_F,), _normal, pinned=(("slack", 0),)
    ),
    # the library refuses a degree bound below 3
    "consistency": _Command(
        "associativity scan of the presentation", (_Arg("--degree-bound", default=4),),
        _consistency,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="skewpbw",
        description="exact Groebner machinery for bijective skew PBW extensions",
    )
    top.add_argument("--format", choices=["text", "json"], default="text")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in (_ALGEBRA, *command.inputs, *command.flags):
            if arg.default is False:
                p.add_argument(arg.flag, action="store_true", help=arg.help)
            else:
                p.add_argument(
                    arg.flag, type=None if arg.read else int, help=arg.help,
                    required=arg.default is None, default=arg.default,
                )
    return top


def run_command(args) -> tuple:
    """Execute a parsed command; returns (document, exit_code). Every
    flag is checked against its bound, then read, before anything is
    computed, an order or budget flag before an input; without --order the
    document names deglex, the order polynomials print in."""
    command = COMMANDS[args.command]
    flags = command.flags + command.inputs
    for arg in flags:
        if arg.least is not None and getattr(args, arg.name) < arg.least:
            raise InputError(f"{arg.flag} must be >= {arg.least}")
    pres = _ALGEBRA.read(args.algebra)
    a = argparse.Namespace(**vars(args))
    a.pres, a.order = pres, DEGLEX
    for arg in flags:
        if arg.read:
            setattr(a, arg.name, arg.read(getattr(args, arg.name), pres))
    doc = {
        "command": args.command,
        "algebra": args.algebra,
        "presentation": presentation_hash(pres),
        "order": a.order.kind,
    }
    inputs = {arg.name: getattr(args, arg.name) for arg in command.inputs}
    inputs.update(command.pinned)
    if inputs:
        doc["inputs"] = inputs
    doc["result"], unknown = command.compute(a)
    doc["status"] = "unknown" if unknown else "ok"
    return doc, EXIT_UNKNOWN if unknown else EXIT_OK


def _print_text(doc: dict, out) -> None:
    def emit(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)):
                    emit(f"{prefix}{k}.", v)
                else:
                    out.write(f"{prefix}{k}: {v}\n")
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                out.write(f"{prefix[:-1]}: {', '.join(str(v) for v in value)}\n")
            else:
                for idx, v in enumerate(value):
                    emit(f"{prefix}{idx}.", v)
        else:
            out.write(f"{prefix[:-1]}: {value}\n")

    for key in ("command", "presentation", "status"):
        out.write(f"{key}: {doc[key]}\n")
    emit("", {"result": doc["result"]})


def main(argv: Optional[list] = None) -> int:
    # exact coefficients can outgrow Python's int-to-str digit limit (4,300
    # digits by default): lift it for this run only, so in-process callers
    # keep theirs; 0 is no limit, as on interpreters that have none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv: Optional[list]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = run_command(args)
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except RecursionError:
        sys.stderr.write(
            "error: the input needs deeper recursion than Python's recursion "
            f"limit ({sys.getrecursionlimit()}) allows\n"
        )
        return EXIT_INPUT
    except Exception as exc:  # an engine fault, reported without a traceback
        message = " ".join(str(exc).split()) or type(exc).__name__
        sys.stderr.write(f"internal error: {message}\n")
        return EXIT_INPUT
    try:
        if args.format == "json":
            json.dump(doc, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            _print_text(doc, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the flush at exit to devnull, so
        # it raises nothing more (the SIGPIPE note in the `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
