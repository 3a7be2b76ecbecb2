"""Capture the README's CLI examples as JSON, in-process, and digest them.

The examples run against the shipped `algebras/` with `--format json`; the
digest of their exit codes and output is the byte-identical "same
behaviour" oracle. Run from the repository root:

    PYTHONPATH=src python3 perfbench/cli_capture.py           # compare
    PYTHONPATH=src python3 perfbench/cli_capture.py --write   # re-record

Comparing exits 1 and names the first example whose output changed.
"""

import argparse
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_expected.json")

EXAMPLES = (
    ("divide", "--algebra", "algebras/witten.alg",
     "--f", "x^2*y + x*z + y*z", "--divisors", "x-1, y+2, z+3"),
    ("gb", "--algebra", "algebras/qplane_m1.alg", "--gens", "x-1, y-1"),
    ("saturate", "--algebra", "algebras/qplane_m1.alg", "--gens", "x-1, y"),
    ("root", "--algebra", "algebras/weyl_z.alg", "--f", "1", "--point", "1,0,0"),
    ("vanish", "--algebra", "algebras/qplane_m1.alg", "--polys", "x", "--domain", "grid:0..1"),
    ("points-ideal", "--algebra", "algebras/commutative_xy.alg",
     "--points", "0,0", "--trunc-degree", "1"),
    ("witness", "--algebra", "algebras/commutative_xy.alg", "--points", "0,0; 1,1"),
    ("center", "--algebra", "algebras/qplane_i.alg"),
    ("sandwich", "--algebra", "algebras/qplane_m1.alg", "--gens", "x^4",
     "--domain", "grid:-2..2", "--trunc-degree", "4", "--max-power", "4"),
    ("normal", "--algebra", "algebras/qplane_m1.alg", "--f", "x+y"),
    ("consistency", "--algebra", "algebras/witten.alg"),
    ("normalize", "--algebra", "algebras/qspace3.alg", "--f", "y*x"),
    ("member", "--algebra", "algebras/qplane_m1.alg", "--f", "x^2*y", "--gens", "y"),
    ("mul", "--algebra", "algebras/witten.alg", "--f", "z", "--g", "x"),
)


def capture():
    """[{argv, exit, stdout, stderr}] for every example, run in-process."""
    from skewpbw import cli

    out = []
    for argv in EXAMPLES:
        argv = ["--format", "json", *argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        out.append({"argv": argv, "exit": code, "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue()})
    return out


def digest_of(captured):
    text = json.dumps(captured, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def capture_digest():
    """(digest of this checkout's output, recorded digest)."""
    return digest_of(capture()), digest_of(expected())


def main(argv=None):
    parser = argparse.ArgumentParser(description="README CLI examples as JSON")
    parser.add_argument("--write", action="store_true", help="re-record the expected output")
    args = parser.parse_args(argv)
    captured = capture()
    if args.write:
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(captured, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(captured)} examples, digest {digest_of(captured)}")
        return 0
    recorded = expected()
    for now, then in zip(captured, recorded):
        if now != then:
            print("changed: skewpbw " + " ".join(now["argv"]))
            return 1
    if len(captured) != len(recorded):
        print(f"{len(captured)} examples now, {len(recorded)} recorded")
        return 1
    print(f"{len(captured)} examples unchanged, digest {digest_of(captured)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
