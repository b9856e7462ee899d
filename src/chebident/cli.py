"""Command-line interface.

Subcommands:

  poly               render one family member (pretty text, JSON triples, CSV)
  triangle           emit the coefficient triangle rows
  verify             certify identities over an (n, N) grid; a cell passes
                     only when its residual is the zero Laurent polynomial
  defining-relation  certify the series defining relation for N = 1..N_max

Exit codes: 0 success, 1 at least one verification cell failed, 2 usage
error or an --output file that cannot be written.  Output is
byte-deterministic for identical inputs; wall-clock timings are only
included when --timings is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from chebident.families import Family, FamilySpec, family_poly
from chebident.report import VerificationReport
from chebident.triangle import triangle_recurrence, verify_defining_relation
from chebident.verify import IdentityId, _select, run_suite

_FORMATS = ["pretty", "json", "csv"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebident",
        description=(
            "Exact Chebyshev/Legendre generating-function toolkit: "
            "polynomial families, the derivative-expansion coefficient "
            "triangle, and exact identity certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="render one polynomial family member")
    poly.add_argument(
        "--family", required=True, choices=[f.value for f in Family], help="family kind"
    )
    poly.add_argument("--n", type=int, required=True, help="polynomial index (>= 0)")
    poly.add_argument(
        "--alpha", type=int, default=1, help="convolution order (default 1)"
    )
    poly.add_argument("--format", choices=_FORMATS, default="pretty")
    poly.add_argument("--output", help="write to this path instead of stdout")

    tri = sub.add_parser("triangle", help="emit coefficient-triangle rows")
    tri.add_argument("--n-max", type=int, required=True, help="last row N to emit")
    tri.add_argument("--format", choices=_FORMATS, default="pretty")
    tri.add_argument("--output", help="write to this path instead of stdout")

    ver = sub.add_parser(
        "verify", help="certify identities exactly (zero residual) over a grid"
    )
    ver.add_argument(
        "identity",
        choices=["all"] + [i.value for i in IdentityId],
        help="identity to certify, or 'all'",
    )
    ver.add_argument("--n-max", type=int, required=True, help="largest n")
    ver.add_argument("--N-max", type=int, required=True, help="largest N (or alpha)")
    ver.add_argument(
        "--first-kind",
        choices=["gf", "classical"],
        default="gf",
        help="first-kind normalization used inside thm7",
    )
    ver.add_argument("--timings", action="store_true", help="include wall-clock ms")
    ver.add_argument("--format", choices=_FORMATS, default="pretty")
    ver.add_argument("--output", help="write to this path instead of stdout")

    rel = sub.add_parser(
        "defining-relation", help="certify the series defining relation"
    )
    rel.add_argument("--N-max", type=int, required=True, help="check N = 1..N_max")
    rel.add_argument(
        "--order", type=int, default=24, help="series order, >= 3 * N-max (default 24)"
    )
    rel.add_argument("--timings", action="store_true", help="include wall-clock ms")
    rel.add_argument("--format", choices=_FORMATS, default="pretty")
    rel.add_argument("--output", help="write to this path instead of stdout")

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"chebident: error: cannot write --output: {exc}\n")
            raise SystemExit(2) from None
    else:
        sys.stdout.write(text)


def _cmd_poly(args, parser) -> int:
    if args.n < 0:
        parser.error("--n must be >= 0")
    try:
        spec = FamilySpec(Family(args.family), args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    p = family_poly(spec, args.n)
    if args.format == "pretty":
        text = f"{p}\n"
    elif args.format == "json":
        triples = [[e, str(num), str(den)] for e, num, den in p.to_triples()]
        text = json.dumps(triples, separators=(",", ":")) + "\n"
    else:
        lines = [f"{e},{num},{den}" for e, num, den in p.to_triples()]
        text = "\n".join(lines) + "\n" if lines else "\n"
    _emit(text, args.output)
    return 0


def _cmd_triangle(args, parser) -> int:
    if args.n_max < 1:
        parser.error("--n-max must be >= 1")
    tri = triangle_recurrence(args.n_max)
    if args.format == "pretty":
        lines = [
            f"N={N}: " + " ".join(str(a) for a in tri.row(N))
            for N in range(1, tri.n_max + 1)
        ]
        text = "\n".join(lines) + "\n"
    elif args.format == "json":
        rows = [
            {"N": N, "a": [str(a) for a in tri.row(N)]}
            for N in range(1, tri.n_max + 1)
        ]
        text = json.dumps(rows, separators=(",", ":")) + "\n"
    else:
        lines = [",".join(str(a) for a in tri.row(N)) for N in range(1, tri.n_max + 1)]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_verify(args, parser) -> int:
    if args.identity == "all":
        identities = list(IdentityId)
    else:
        identities = [IdentityId(args.identity)]
    try:
        _select(identities, args.n_max, args.N_max)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_suite(identities, args.n_max, args.N_max, args.first_kind)
    _emit(report.render(args.format, timings=args.timings), args.output)
    return 0 if report.all_passed else 1


def _cmd_defining_relation(args, parser) -> int:
    if args.N_max < 1:
        parser.error("--N-max must be >= 1")
    if args.order < 3 * args.N_max:
        parser.error("--order must be >= 3 * --N-max")
    report = VerificationReport(
        [verify_defining_relation(N, args.order) for N in range(1, args.N_max + 1)]
    )
    _emit(report.render(args.format, timings=args.timings), args.output)
    return 0 if report.all_passed else 1


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "poly":
            return _cmd_poly(args, parser)
        if args.command == "triangle":
            return _cmd_triangle(args, parser)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        return _cmd_defining_relation(args, parser)
    except SystemExit as exc:  # parser.error() inside a command
        return int(exc.code) if exc.code is not None else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
