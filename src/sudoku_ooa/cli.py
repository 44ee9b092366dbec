"""Command-line front end: construct, verify, check-family, gen-sudoku, info.

Exit codes: 0 on success/PASS, 1 on a verification FAIL, 2 on parse or
domain errors and on running out of memory, 130 on an interrupt (Ctrl-C).
All output is deterministic: identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .families import construct_family, max_guaranteed_s
from .files import (
    array_from_text,
    array_to_text,
    decode_text,
    flags_from_text,
    flags_to_text,
    grid_to_text,
    parse_int,
)
from .gf import _quote, find_generator, make_field
from .ooa import VerifyResult, assemble, check_size, verify
from .strong import check_algebraic, check_combinatorial
from .sudoku import FlagData, generate


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _grid_paths(out: str | None, count: int) -> list[str | None]:
    if out is None or count == 1:
        return [out] * count
    base = Path(out)
    return [str(base.with_name(f"{base.stem}_{t}{base.suffix}")) for t in range(1, count + 1)]


def _print_verdict(result: VerifyResult) -> int:
    """Print ``PASS`` or ``FAIL <witness>``; return the matching exit code."""
    print("PASS" if result.ok else f"FAIL {result.witness_text()}")
    return 0 if result.ok else 1


def _cmd_construct(args) -> int:
    check_size(args.q, args.s)
    fam = construct_family(args.q, args.s)
    grids = [generate(d.flag()) for d in fam.data]
    array = assemble(grids)
    result = verify(array, "ooa")
    if not result.ok:
        return _print_verdict(result)
    if args.emit == "flags":
        _write(args.out, flags_to_text(fam.data))
    elif args.emit == "grids":
        for path, grid in zip(_grid_paths(args.out, len(grids)), grids):
            _write(path, grid_to_text(grid))
    else:
        _write(args.out, array_to_text(array))
    print(f"CONSTRUCTED q={args.q} s={args.s} method={fam.method}")
    return 0


def _cmd_verify(args) -> int:
    array = array_from_text(decode_text(Path(args.path).read_bytes()))
    return _print_verdict(verify(array, args.mode))


def _cmd_check_family(args) -> int:
    data = flags_from_text(decode_text(Path(args.path).read_bytes()))
    if args.level == "algebraic":
        report = check_algebraic(data)
    else:
        check_size(data[0].field.q, len(data) + 2)
        array = assemble(generate(d.flag()) for d in data)
        if args.level == "exhaustive":
            return _print_verdict(verify(array, "ooa"))
        report = check_combinatorial(array)
    if not args.quiet:
        print(report.to_text())
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_gen_sudoku(args) -> int:
    field = make_field(args.q)
    try:
        a, b, c, d, beta = map(parse_int, args.flag.split(","))
    except ValueError:
        raise ValueError(f"--flag needs 5 comma-separated integers, got {_quote(args.flag)}")
    datum = FlagData(field, a, b, c, d, beta)
    check_size(args.q, 3)  # the array of a one-member family, as `construct --s 3`
    _write(args.out, grid_to_text(generate(datum.flag())))
    return 0


def _cmd_info(args) -> int:
    field = make_field(args.q)
    print(f"q={field.q}")
    print(f"p={field.p}")
    print(f"k={field.k}")
    print("modulus=" + ",".join(str(c) for c in field.modulus))
    print(f"generator={find_generator(field)}")
    print(f"max_s={max_guaranteed_s(args.q)}")
    return 0


def _int(text: str) -> int:
    """An option's integer, read as the file parsers read one (files.parse_int)."""
    return parse_int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: '...'"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sudoku-ooa",
        description="Construct and verify ordered orthogonal arrays OOA(4,s,2,q) "
        "built from linear sudoku solutions over GF(q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="construct a family and emit an artifact")
    p.add_argument("--q", type=_int, required=True, help="alphabet size (prime power)")
    p.add_argument("--s", type=_int, required=True, help="number of bands")
    p.add_argument(
        "--emit",
        choices=("flags", "grids", "array"),
        default="array",
        help="artifact to write (default: array)",
    )
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify an array file exhaustively")
    p.add_argument("path", help="array file")
    p.add_argument("--mode", choices=("ooa", "sa"), default="ooa")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-family", help="run a condition checker on a flags file")
    p.add_argument("path", help="flags file")
    p.add_argument(
        "--level",
        choices=("algebraic", "combinatorial", "exhaustive"),
        default="algebraic",
    )
    p.add_argument(
        "--quiet", action="store_true", help="print only the final verdict"
    )
    p.set_defaults(func=_cmd_check_family)

    p = sub.add_parser("gen-sudoku", help="generate one sudoku grid from a flag datum")
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--flag", required=True, metavar="a,b,c,d,beta")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen_sudoku)

    p = sub.add_parser("info", help="print field and construction parameters")
    p.add_argument("--q", type=_int, required=True)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
