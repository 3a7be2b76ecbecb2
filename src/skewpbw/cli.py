"""Command-line interface: every engine operation as a subcommand.

Answers that were computed exactly (including "no" and "not_normal") exit
with 0; budget-exhausted/unknown results exit with 2; input errors exit
with 1, and so does an engine fault, reported as one "internal error:"
line. Output is human text or a JSON document (--format json) carrying
the echoed inputs, the presentation hash, the result payload and status.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from skewpbw import geometry, groebner, normality, nullstellensatz
from skewpbw.geometry import Point, SearchDomain
from skewpbw.groebner import Budget, UNKNOWN
from skewpbw.parsing import split_top_level
from skewpbw.poly import (
    DEGLEX,
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    parse_polynomial,
    parse_scalar,
)
from skewpbw.presentation import (
    Presentation,
    check_pbw_consistency,
    load_presentation_file,
    presentation_hash,
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


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="skewpbw",
        description="exact Groebner machinery for bijective skew PBW extensions",
    )
    top.add_argument("--format", choices=["text", "json"], default="text")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--algebra", required=True, help="presentation document")
        p.add_argument("--order", default="deglex")
        p.add_argument(
            "--budget-degree", type=int, default=None,
            help="skip S-pairs whose lcm has a higher total degree (result "
            "unknown); pairs pruned by the chain criterion never count",
        )
        p.add_argument(
            "--budget-pairs", type=int, default=None,
            help="most S-elements one completion forms (else unknown); "
            "pairs pruned by the chain criterion are not formed or counted",
        )
        return p

    p = cmd("normalize", help="parse and normal-order a polynomial")
    p.add_argument("--f", required=True)

    p = cmd("mul", help="product of two polynomials")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = cmd("divide", help="division with quotients and reduced remainder")
    p.add_argument("--f", required=True)
    p.add_argument("--divisors", required=True)

    p = cmd("gb", help="left Groebner basis of a left ideal")
    p.add_argument("--gens", required=True)
    p.add_argument("--certificates", action="store_true")

    p = cmd("member", help="left-ideal membership")
    p.add_argument("--f", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--two-sided", action="store_true")

    p = cmd("saturate", help="two-sided saturation of generators")
    p.add_argument("--gens", required=True)

    p = cmd("root", help="is the point a root of f")
    p.add_argument("--f", required=True)
    p.add_argument("--point", required=True)

    p = cmd("vanish", help="vanishing set over a finite domain")
    p.add_argument("--polys", required=True)
    p.add_argument("--domain", required=True)

    p = cmd("points-ideal", help="degree-truncated ideal of points")
    p.add_argument("--points", required=True)
    p.add_argument("--trunc-degree", type=int, required=True)

    p = cmd("witness", help="nonzero polynomial vanishing on given points")
    p.add_argument("--points", required=True)

    cmd("center", help="central generators x_i^(L_i)")

    p = cmd("sandwich", help="verify both radical-sandwich inclusions")
    p.add_argument("--gens", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--trunc-degree", type=int, default=4)
    p.add_argument("--max-power", type=int, default=4)

    p = cmd("normal", help="normal-element test Af = fA")
    p.add_argument("--f", required=True)

    p = cmd("consistency", help="associativity scan of the presentation")
    p.add_argument("--degree-bound", type=int, default=4)

    return top


def _order_from_flag(text: str, pres: Presentation) -> MonomialOrder:
    if text == "deglex":
        return DEGLEX
    if text == "degrevlex":
        return DEGREVLEX
    if text.startswith("block:"):
        names = [v.strip() for v in text.split(":", 1)[1].split(",") if v.strip()]
        return MonomialOrder.block([pres.index(nm) for nm in names], pres.n)
    raise InputError(f"unknown order {text!r}")


# the least legal value of each integer flag that has one
_FLAG_MINIMUMS = {
    "budget_degree": 0,
    "budget_pairs": 0,
    "trunc_degree": 0,
    "max_power": 1,
}


def _check_flags(args) -> None:
    for attr, least in _FLAG_MINIMUMS.items():
        value = getattr(args, attr, None)
        if value is not None and value < least:
            raise InputError(f"--{attr.replace('_', '-')} must be >= {least}")


def _budget_from_flags(args) -> Budget:
    b = Budget()
    if args.budget_degree is not None:
        b = b._replace(max_degree=args.budget_degree)
    if args.budget_pairs is not None:
        b = b._replace(max_pairs=args.budget_pairs)
    return b


def _polys(text: str, pres: Presentation) -> List[Polynomial]:
    return [parse_polynomial(p, pres) for p in split_top_level(text, ",")]


def _point(text: str, pres: Presentation) -> Point:
    coords = [parse_scalar(v, pres.field) for v in split_top_level(text, ",")]
    return Point.of(pres, coords)


def _points(text: str, pres: Presentation) -> List[Point]:
    return [_point(part, pres) for part in split_top_level(text, ";")]


def _domain(text: str, pres: Presentation) -> SearchDomain:
    text = text.strip()
    if text == "gf":
        return SearchDomain.full_prime_field()
    if not text.startswith("grid:"):
        raise InputError(f"unknown domain {text!r} (use grid:<spec> or gf)")
    body = text.split(":", 1)[1]
    columns = []
    for part in body.split(";"):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            try:  # a range stays lazy, so the domain's size check comes first
                col = range(int(lo), int(hi) + 1)
            except ValueError:
                raise InputError(f"grid range {part!r} needs integer bounds") from None
        else:
            col = [parse_scalar(v, pres.field) for v in split_top_level(part, ",")]
        columns.append(col)
    return SearchDomain.grid(columns)


def run_command(args) -> tuple:
    """Execute a parsed command; returns (document, exit_code)."""
    _check_flags(args)
    pres = load_presentation_file(args.algebra)
    order = _order_from_flag(args.order, pres)
    budget = _budget_from_flags(args)
    doc = {
        "command": args.command,
        "algebra": args.algebra,
        "presentation": presentation_hash(pres),
        "order": order.kind,
    }
    code = EXIT_OK
    cmd = args.command

    if cmd == "normalize":
        f = parse_polynomial(args.f, pres)
        doc["inputs"] = {"f": args.f}
        doc["result"] = {"normal_form": str(f), "degree": f.degree()}

    elif cmd == "mul":
        f, g = parse_polynomial(args.f, pres), parse_polynomial(args.g, pres)
        doc["inputs"] = {"f": args.f, "g": args.g}
        doc["result"] = {"product": str(f * g)}

    elif cmd == "divide":
        f = parse_polynomial(args.f, pres)
        divisors = _polys(args.divisors, pres)
        res = groebner.divide(f, divisors, order)
        identity = res.reconstruct(divisors) == f
        doc["inputs"] = {"f": args.f, "divisors": args.divisors}
        doc["result"] = {
            "quotients": [str(q) for q in res.quotients],
            "remainder": str(res.remainder),
            "identity_verified": identity,
        }

    elif cmd == "gb":
        gens = _polys(args.gens, pres)
        handle = groebner.left_groebner(gens, order, budget, track=args.certificates)
        doc["inputs"] = {"gens": args.gens}
        doc["result"] = _handle_doc(handle)
        if args.certificates and handle.certificates:
            doc["result"]["certificates"] = [
                [[str(p), i, str(q)] for p, i, q in cert]
                for cert in handle.certificates
            ]
        code = EXIT_UNKNOWN if handle.status == UNKNOWN else EXIT_OK

    elif cmd == "member":
        f = parse_polynomial(args.f, pres)
        gens = _polys(args.gens, pres)
        if args.two_sided:
            handle = groebner.two_sided_saturate(gens, order, budget)
        else:
            handle = groebner.left_groebner(gens, order, budget)
        verdict = groebner.is_member_left(f, handle)
        doc["inputs"] = {"f": args.f, "gens": args.gens}
        doc["result"] = {"member": verdict, "ideal_status": handle.status}
        code = EXIT_UNKNOWN if verdict == "unknown" else EXIT_OK

    elif cmd == "saturate":
        gens = _polys(args.gens, pres)
        handle = groebner.two_sided_saturate(gens, order, budget)
        doc["inputs"] = {"gens": args.gens}
        doc["result"] = _handle_doc(handle)
        code = EXIT_UNKNOWN if handle.status == UNKNOWN else EXIT_OK

    elif cmd == "root":
        f = parse_polynomial(args.f, pres)
        Z = _point(args.point, pres)
        doc["inputs"] = {"f": args.f, "point": args.point}
        doc["result"] = {"root": geometry.is_root(f, Z)}

    elif cmd == "vanish":
        polys = _polys(args.polys, pres)
        dom = _domain(args.domain, pres)
        rep = geometry.vanishing_set(pres, polys, dom)
        doc["inputs"] = {"polys": args.polys, "domain": args.domain}
        doc["result"] = {
            "table": [[str(p), tag] for p, tag in rep.table()],
            "roots": len(rep.roots),
            "degenerate": len(rep.degenerate),
            "unknown": len(rep.unknown),
        }

    elif cmd == "points-ideal":
        pts = _points(args.points, pres)
        basis = geometry.ideal_of_points(pres, pts, args.trunc_degree)
        doc["inputs"] = {"points": args.points, "trunc_degree": args.trunc_degree}
        doc["result"] = {"basis": [str(g) for g in basis]}

    elif cmd == "witness":
        pts = _points(args.points, pres)
        res = geometry.algebraic_witness(pres, pts)
        doc["inputs"] = {"points": args.points}
        doc["result"] = {"witness": str(res.witness), "note": res.note}

    elif cmd == "center":
        C = nullstellensatz.center_generators(pres)
        doc["result"] = {
            "case": C.case,
            "exponents": list(C.exponents),
            "generators": [str(g) for g in C.generators],
            # constants: center_generators raises unless every generator is
            # central and the center is decided; the keys stay while
            # perfbench/cli_expected.json pins them
            "verified": True,
            "polynomial_center_assumed": False,
        }

    elif cmd == "sandwich":
        gens = _polys(args.gens, pres)
        handle = groebner.two_sided_saturate(gens, order, budget)
        if handle.status == UNKNOWN:
            doc["inputs"] = {"gens": args.gens}
            doc["result"] = {"status": "unknown", "note": handle.note}
            return doc, EXIT_UNKNOWN
        C = nullstellensatz.center_generators(pres)
        dom = _domain(args.domain, pres)
        rep = nullstellensatz.verify_sandwich(
            handle, C, dom, args.trunc_degree, args.max_power, budget
        )
        doc["inputs"] = {
            "gens": args.gens,
            "domain": args.domain,
            "trunc_degree": args.trunc_degree,
            "max_power": args.max_power,
        }
        doc["result"] = rep.to_doc()
        # inclusion_points is always confirmed, by the lemma
        code = EXIT_UNKNOWN if rep.inclusion_radical == "inconclusive" else EXIT_OK

    elif cmd == "normal":
        f = parse_polynomial(args.f, pres)
        verdict = normality.is_normal(f)
        # witnesses have degree 1, so there is no slack to set; the key
        # stays while perfbench/cli_expected.json pins it
        doc["inputs"] = {"f": args.f, "slack": 0}
        payload = {"status": verdict.status}
        if verdict.certificate:
            payload["witnesses"] = {
                pres.names[j]: {"g": str(g), "g_prime": str(gp)}
                for j, (g, gp) in verdict.certificate["per_generator"].items()
            }
        if verdict.counter_witness:
            direction, w = verdict.counter_witness
            payload["counter_witness"] = {
                "direction": direction,
                "witness": pres.names[w] if isinstance(w, int) else str(w),
            }
        doc["result"] = payload

    elif cmd == "consistency":
        rep = check_pbw_consistency(pres, args.degree_bound)
        doc["inputs"] = {"degree_bound": args.degree_bound}
        doc["result"] = {
            "consistent": rep.consistent,
            "checked": rep.checked,
            "failure": None if rep.failure is None else [str(x) for x in rep.failure],
            "quasi_commutative": pres.quasi_commutative,
            # field coefficients force bijectivity: sigma invertible, c_ij units
            "bijective": True,
        }

    else:  # pragma: no cover
        raise RuntimeError(f"unmapped command {cmd!r}")

    doc["status"] = "unknown" if code == EXIT_UNKNOWN else "ok"
    return doc, code


def _handle_doc(handle) -> dict:
    return {
        "status": handle.status,
        "basis": [str(g) for g in handle.basis],
        "note": handle.note,
    }


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
        if key in doc:
            out.write(f"{key}: {doc[key]}\n")
    if "result" in doc:
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
    if args.format == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_text(doc, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
