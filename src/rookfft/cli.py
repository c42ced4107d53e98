"""Command-line surface: enumeration, transforms, inversion, convolution,
spectral analysis, and bound-checking benchmarks.

Exit codes: 0 success, 2 usage, 3 parse failure, 4 math-consistency
failure (an oracle or bound check failed, treated as a bug signal), 5 out
of memory or too large.  Every error path prints a single line
"ERR:<KIND>: message" to stderr.

The parser is built once per process (``build_parser`` is cached), so a
caller running many commands in one process, such as a benchmark or a
notebook, pays for it once.

All JSON is read and written by ``orjson``.  A result holding inf or nan
(float64 overflowed on huge but finite input) is refused with exit 3
before anything is written, as JSON has no number for it; numpy's
floating-point warnings are silenced, since the refusal says it all.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from functools import cache

import numpy as np
import orjson

from . import __version__
from .algebra import (
    GROUPOID,
    SEMIGROUP,
    AlgebraElement,
    BasisMismatch,
    convolve_groupoid,
    convolve_semigroup,
    from_json_dict as element_from_json,
    random_element,
    to_groupoid,
    to_json_dict as element_to_json,
    to_semigroup,
)
from .core import (
    DimensionMismatch,
    ParseError,
    check_n,
    enumerate_rn,
    print_cycle_link,
    size,
    size_recursive,
)
from .spectral import Dataset, analyze, ingest, report_to_csv, report_to_json_dict, to_function
from .transforms import (
    HALVERSON,
    STEIN,
    fourier_invert,
    from_json_dict as fc_from_json,
    naive_transform,
    naive_bound,
    recursive_bound,
    recursive_fft,
    stein_bound,
    stein_fft,
    stein_fft_semigroup,
    stein_semigroup_bound,
    to_json_dict as fc_to_json,
)

BENCH_GUARD = 6


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise CliError(2, "USAGE", message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every
    ``main`` call: nothing mutates it once built, and ``parse_args`` returns
    a fresh Namespace per call, so no call sees another's arguments."""
    parser = _Parser(
        prog="rookfft",
        description="Harmonic analysis on the rook monoid R_n.",
    )
    parser.add_argument("--version", action="version", version=f"rookfft {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="list all elements of R_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("transform", help="Fourier transform of a function on R_n")
    p.add_argument("--input", action="append", required=True,
                   help="AlgebraElement JSON or ballot CSV")
    p.add_argument("--algorithm", choices=("naive", "stein", "recursive"), default="naive")
    p.add_argument("--association", choices=(SEMIGROUP, GROUPOID), default=GROUPOID,
                   help="basis for ballot-CSV input")
    p.add_argument("--convert", action="store_true",
                   help="allow a change of basis when the algorithm needs the other one")
    p.add_argument("--n", type=int, help="ambient size for ballot-CSV input")
    p.add_argument("--output")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("invert", help="Fourier inversion of a block set")
    p.add_argument("--input", action="append", required=True,
                   help="FourierCoefficients JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("convolve", help="convolution of two algebra elements")
    p.add_argument("--input", action="append", required=True,
                   help="AlgebraElement JSON (give twice)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("analyze", help="isotypic energy spectrum of a ballot file")
    p.add_argument("--input", action="append", required=True, help="ballot CSV")
    p.add_argument("--association", choices=(SEMIGROUP, GROUPOID), default=GROUPOID)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="run all algorithms on seeded random inputs")
    p.add_argument("--n", type=int, default=4, help="largest ambient size (rows 1..n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=cmd_bench)

    return parser


def _one_input(args: argparse.Namespace) -> str:
    if len(args.input) != 1:
        raise CliError(2, "USAGE",
                       f"{args.subcommand} takes exactly one --input, got {len(args.input)}")
    return args.input[0]


def _emit(args: argparse.Namespace, out: str | bytes) -> None:
    """Write ``out`` as UTF-8 to --output or stdout.  ``_dump_json``'s bytes
    go out as they are, never decoded to a str and encoded back."""
    if isinstance(out, str):
        out = out.encode("utf-8")
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(out)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(out)
        sys.stdout.buffer.flush()


def _read_json(path: str):
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _dump_json(data) -> bytes:
    """Compact UTF-8 JSON (``{"n":6,...}``, one line) by orjson, floats in
    their shortest round-trip spelling (``0.00001``, ``1e22``).  Numbers
    must be plain ints and floats, not numpy scalars, and finite
    (``_finite``): orjson writes a nan or an inf as null."""
    return orjson.dumps(data, option=orjson.OPT_APPEND_NEWLINE)


def _finite(*arrays) -> None:
    """Refuse a result holding inf or nan.  Every input coefficient was
    finite (the readers refuse the rest), so float64 overflowed."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ParseError("coefficients overflow float64: the result holds inf or nan")


# ---------------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    check_n(n)
    elems = enumerate_rn(n)
    total = size(n)
    recursive_ok = total == size_recursive(n)
    if args.format == "json":
        _emit(args, _dump_json({
            "n": n,
            "size": total,
            "recursive_check": recursive_ok,
            "elements": [{"cycle_link": print_cycle_link(s), "flat": s.to_flat()} for s in elems],
        }))
    else:
        lines = ["cycle_link,flat"]
        lines += [f"{print_cycle_link(s)},{s.to_flat()}" for s in elems]
        lines.append(f"# size={total} recursive={size_recursive(n)} ok={str(recursive_ok).lower()}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _load_dataset(args: argparse.Namespace) -> Dataset:
    if args.n is not None:  # refuse a given n before the file is opened
        check_n(args.n)
    return ingest(_one_input(args), args.n)


def _load_element(args: argparse.Namespace) -> AlgebraElement:
    path = _one_input(args)
    if path.lower().endswith(".csv"):
        return to_function(_load_dataset(args), args.association)
    return element_from_json(_read_json(path))


def cmd_transform(args: argparse.Namespace) -> int:
    f = _load_element(args)
    algorithm = args.algorithm
    if algorithm == "naive":
        ops = f.support() * size(f.n)
        if ops > naive_bound(BENCH_GUARD):
            raise CliError(5, "RESOURCE", f"naive transform needs {ops} multiply-adds, over "
                           f"|R_{BENCH_GUARD}|² = {naive_bound(BENCH_GUARD)}; use --algorithm "
                           "stein --convert or --algorithm recursive --convert")
        family = HALVERSON if f.basis == SEMIGROUP else STEIN
        F = naive_transform(f, family)
        bound = naive_bound(f.n)
        bound_name = "naive"
    elif algorithm == "stein":
        if f.basis == SEMIGROUP:
            if not args.convert:
                raise CliError(2, "USAGE",
                               "stein needs the groupoid basis; pass --convert to change basis")
            F = stein_fft_semigroup(f)
            bound = stein_semigroup_bound(f.n)
            bound_name = "stein_semigroup"
        else:
            F = stein_fft(f)
            bound = stein_bound(f.n)
            bound_name = "stein"
    else:
        if f.basis == GROUPOID:
            if not args.convert:
                raise CliError(2, "USAGE",
                               "recursive needs the semigroup basis; pass --convert to change basis")
            f = to_semigroup(f)
        F = recursive_fft(f)
        bound = recursive_bound(f.n)
        bound_name = "recursive"
    _finite(*F.blocks.values())
    ok = Fraction(F.ops.multiply_adds) <= Fraction(bound)
    data = fc_to_json(F)
    data["algorithm"] = algorithm
    data["bound"] = float(bound)
    data["bound_name"] = bound_name
    data["within_bound"] = ok
    _emit(args, _dump_json(data))
    if not ok:
        print(f"ERR:MATH: measured ops {F.ops.multiply_adds} exceed bound {bound}", file=sys.stderr)
        return 4
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    F = fc_from_json(_read_json(_one_input(args)))
    f = fourier_invert(F)
    _finite(f.values)
    _emit(args, _dump_json(element_to_json(f)))
    return 0


def cmd_convolve(args: argparse.Namespace) -> int:
    if len(args.input) != 2:
        raise CliError(2, "USAGE", "convolve needs exactly two --input files")
    f, g = (element_from_json(_read_json(path)) for path in args.input)
    h = convolve_semigroup(f, g) if f.basis == SEMIGROUP else convolve_groupoid(f, g)
    _finite(h.values)
    _emit(args, _dump_json(element_to_json(h)))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(_load_dataset(args), args.association)
    _finite(report.total, report.parseval_residual, list(report.energies.values()))
    if args.format == "csv":
        _emit(args, report_to_csv(report))
    else:
        _emit(args, _dump_json(report_to_json_dict(report)))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    top = args.n
    if top < 1:
        raise CliError(2, "USAGE", "bench needs n >= 1")
    if top > BENCH_GUARD:
        raise CliError(2, "USAGE", f"bench refused for n > {BENCH_GUARD}")
    rng = random.Random(args.seed)
    rows = []
    all_agree = True
    for n in range(1, top + 1):
        f = random_element(n, SEMIGROUP, rng)
        naive_h = naive_transform(f, HALVERSON)
        rec = recursive_fft(f)
        stein_pipe = stein_fft_semigroup(f)
        naive_s = naive_transform(to_groupoid(f), STEIN)
        agree = rec.allclose(naive_h, 1e-9) and stein_pipe.allclose(naive_s, 1e-9)
        all_agree = all_agree and agree
        rows.append({
            "n": n,
            "size": size(n),
            "ops_naive": naive_h.ops.multiply_adds,
            "ops_stein": stein_pipe.ops.multiply_adds,
            "ops_recursive": rec.ops.multiply_adds,
            "bound_naive": naive_bound(n),
            "bound_stein": float(stein_semigroup_bound(n)),
            "bound_recursive": recursive_bound(n),
            "agree": agree,
        })
    if args.format == "json":
        _emit(args, _dump_json(rows))
    else:
        header = ["n", "size", "ops_naive", "ops_stein", "ops_recursive",
                  "bound_naive", "bound_stein", "bound_recursive", "agree"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                str(row[h]).lower() if h == "agree" else repr(row[h]) if isinstance(row[h], float) else str(row[h])
                for h in header
            ))
        _emit(args, "\n".join(lines) + "\n")
    if not all_agree:
        print("ERR:MATH: fast transforms disagree with the naive oracle", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except CliError as exc:
        print(f"ERR:{exc.kind}: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"ERR:PARSE: {exc}", file=sys.stderr)
        return 3
    except (BasisMismatch, DimensionMismatch) as exc:
        print(f"ERR:USAGE: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERR:USAGE: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ERR:PARSE: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = " ".join(str(exc).split()) or "an allocation failed"
        print(f"ERR:RESOURCE: out of memory: {detail}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
