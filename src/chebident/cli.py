"""Command-line interface.

Subcommands:

  poly               render one family member (pretty text, JSON triples, CSV)
  triangle           emit the coefficient triangle rows
  verify             certify identities over an (n, N) grid; a cell passes
                     only when its residual is the zero Laurent polynomial
  defining-relation  certify the series defining relation for N = 1..N_max

Every subcommand takes --format (pretty, json or csv) and --output (a file
path in place of stdout); verify and defining-relation also take --timings.
These flags are declared once, in `build_parser`, for every subcommand it
defines.  Each command returns its text and its exit code, and `run` writes
the text once, so no command touches stdout or a file itself.  poly and
triangle pick their format in one helper, `_render`; the two report
commands let `VerificationReport.render` build only the format asked for.

Exit codes: 0 success, 1 at least one verification cell failed, 2 usage
error or an --output file that cannot be written.  Output is
byte-deterministic for identical inputs; wall-clock timings are only
included when --timings is given.
"""

from __future__ import annotations

import argparse
import sys

from chebident.families import Family, FamilySpec, family_poly
from chebident.report import VerificationReport
from chebident.triangle import triangle_recurrence, verify_defining_relation
from chebident.verify import IdentityId, run_suite

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

    tri = sub.add_parser("triangle", help="emit coefficient-triangle rows")
    tri.add_argument("--n-max", type=int, required=True, help="last row N to emit")

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

    rel = sub.add_parser(
        "defining-relation", help="certify the series defining relation"
    )
    rel.add_argument("--N-max", type=int, required=True, help="check N = 1..N_max")
    rel.add_argument(
        "--order", type=int, default=24, help="series order, >= 3 * N-max (default 24)"
    )

    # The output flags, last on every subcommand; only the reports are timed.
    for cmd in sub.choices.values():
        if cmd in (ver, rel):
            cmd.add_argument("--timings", action="store_true", help="include wall-clock ms")
        cmd.add_argument("--format", choices=_FORMATS, default="pretty")
        cmd.add_argument("--output", help="write to this path instead of stdout")

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"chebident: error: cannot write --output: {exc}\n")
            raise SystemExit(2) from None
    else:
        sys.stdout.write(text)


def _render(fmt: str, rows: list, pretty, record) -> str:
    """poly's and triangle's one format switch over ``rows``, tuples of ints.

    pretty text is the lines ``pretty()`` returns, CSV one comma-joined
    line per row, and JSON one array of ``record(i, row)`` for the rows
    i = 1, 2, ...; only the format asked for is built.
    """
    if fmt == "json":
        import json  # only the JSON format needs it; keeps it off the import path

        records = [record(i, row) for i, row in enumerate(rows, 1)]
        return json.dumps(records, separators=(",", ":")) + "\n"
    lines = pretty() if fmt == "pretty" else (",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_poly(args):
    p = family_poly(FamilySpec(args.family, args.alpha), args.n)
    return _render(
        args.format, p.to_triples(), lambda: [str(p)], lambda _, t: [t[0], str(t[1]), str(t[2])]
    ), 0


def _cmd_triangle(args):
    rows = triangle_recurrence(args.n_max).rows
    return _render(
        args.format,
        rows,
        lambda: [f"N={N}: " + " ".join(map(str, row)) for N, row in enumerate(rows, 1)],
        lambda N, row: {"N": N, "a": [str(a) for a in row]},
    ), 0


def _report(args, report: VerificationReport):
    """The report in the format asked for, and exit 1 when a cell failed."""
    return report.render(args.format, timings=args.timings), 0 if report.all_passed else 1


def _cmd_verify(args):
    identities = list(IdentityId) if args.identity == "all" else [args.identity]
    return _report(args, run_suite(identities, args.n_max, args.N_max, args.first_kind))


def _cmd_defining_relation(args):
    # --N-max 0 would print an empty report that passes.  Each N checks its
    # own order too; this message names the flags.
    if args.N_max < 1:
        raise ValueError("--N-max must be >= 1")
    if args.order < 3 * args.N_max:
        raise ValueError("--order must be >= 3 * --N-max")
    return _report(
        args,
        VerificationReport(
            [verify_defining_relation(N, args.order) for N in range(1, args.N_max + 1)]
        ),
    )


_COMMANDS = {
    "poly": _cmd_poly,
    "triangle": _cmd_triangle,
    "verify": _cmd_verify,
    "defining-relation": _cmd_defining_relation,
}


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code.

    Each command returns (text, exit code); the text is written here, once.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            text, code = _COMMANDS[args.command](args)
            _emit(text, args.output)
            return code
        except ValueError as exc:  # the library rejected an argument: a usage error
            parser.error(str(exc))
    except SystemExit as exc:  # argparse, parser.error() or an unwritable --output
        return int(exc.code) if exc.code is not None else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
