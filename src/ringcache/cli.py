"""Command-line front end.

Subcommands: ``rate`` (closed forms for one memory point), ``simulate``
(run delivery for a demand vector and check decodability), ``sweep``
(rate/bound grid as CSV or JSON), ``verify`` (census oracle harness),
``man-check`` (dedicated-cache reduction cross-check) and ``layout-dump``
(cache contents as JSON). ``rate`` and ``sweep`` only render the points of
:func:`ringcache.analysis.sweep`, ``rate`` a sweep of one point.
``simulate`` and ``layout-dump`` get the subset placement at L = 1 from
:func:`ringcache.placement.build`, the placement whose rate ``rate`` and
``sweep`` report there, and the ring one otherwise.

Arguments are parsed once. The whole parser classifies every argument
before it hands a command's arguments to the command's own parser, which
classifies them again; so when ``argv[0]`` names a command, :func:`main`
hands the rest straight to that command's parser. Any other argv, and a
command's argv with arguments left over, goes through the whole parser,
because it is the whole parser that reports a leftover ("unrecognized
arguments"), under its own usage line.

Exit codes: 0 success, 1 usage or validation error, 2 decodability or
oracle failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .model import RegimeError, SystemParams, params_from_gammas
from .placement import build, layout_to_json, preflight
from .delivery import (
    check_demand,
    deliver,
    format_log,
    format_report,
    random_demand,
    verify_decodability,
    worst_case_demand,
)
from .analysis import achievable_rate, sweep
from .verify import count_vs_formula, man_crosscheck, sweep_grid

# most rows one sweep writes; rows stream, so this bounds time, not memory:
# 50,000 rows take 0.25 to 0.55 s up to K = 64, the most at Ma = 0, where every
# cut-set line is kept (10 Ma x 5,000 Mp at L = 2, K in {8, 16, 32, 64}, Ma = 0
# ten times or ten Ma spread over [0, K/2), written to /dev/null by an
# in-process main, best of 3; 2-core x86-64 Xeon host, Python 3.11.7).
# The commands that build a layout are bounded by placement.preflight instead.
SWEEP_ROW_BUDGET = 50_000

# most digits, and largest exponent, of a memory size, and most digits of an
# integer flag: the numbers they make a command print stay under the 4,300
# digits Python turns into text (~3,000 at most)
SIZE_DIGITS = 500

# the integer flags, by argparse dest: argparse keeps them as text, and
# main reads each one given through _integer, before any work
INTEGER_FLAGS = {
    "K": "-K", "L": "-L", "N": "-N", "kmin": "--kmin", "kmax": "--kmax",
    "ga": "--ga", "gp": "--gp", "t": "-t", "seed": "--seed",
}

CSV_HEADER = (
    "K,L,N,Ma,Mp,gamma_a,gamma_p,rate_num,rate_den,rate,"
    "bound_num,bound_den,bound,optimal,note"
)


def _rational(text: str, flag: str) -> Fraction:
    """Exact rational from '3/2', '1.5' or '2', the one reader of every
    command's memory sizes; malformed or overlong text is reported against ``flag``."""
    exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)", text)
    if sum(map(str.isdigit, text)) > SIZE_DIGITS or exponent and int(exponent[1]) > SIZE_DIGITS:
        raise ValueError(
            f"{flag}: {text!r} has over {SIZE_DIGITS} digits or an exponent over {SIZE_DIGITS}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not a rational number") from None


def _integer(text: str, flag: str, entry: str = "") -> int:
    """An integer flag, or an ``entry`` of one, read as ``int`` reads it; overlong
    text is refused by its digit count, before any number is built from it."""
    digits = sum(map(str.isdigit, text))
    if digits > SIZE_DIGITS:
        raise ValueError(f"{flag}: {digits} digits, over the limit of {SIZE_DIGITS}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: {entry}{text!r} is not an integer") from None


def dec6(x: Fraction) -> str:
    """Decimal rendering to 6 places by exact rounding, ties to even (no floats)."""
    return _dec6(x.numerator, x.denominator)


def _dec6(num: int, den: int) -> str:
    """:func:`dec6` of num/den (den > 0, not necessarily reduced)."""
    scaled, rest = divmod(num * 10**6, den)
    if 2 * rest > den or 2 * rest == den and scaled & 1:
        scaled += 1
    whole, part = divmod(abs(scaled), 10**6)
    return f"{'-' if scaled < 0 else ''}{whole}.{part:06d}"


def _params(args: argparse.Namespace) -> SystemParams:
    ma, mp = _rational(args.ma, "--ma"), _rational(args.mp, "--mp")
    return SystemParams(k=args.K, l=args.L, ma=ma, mp=mp, n=args.N)


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-K", required=True, help="users / shared caches on the ring")
    p.add_argument("-L", required=True, help="access degree")
    p.add_argument("--ma", required=True, help="shared-cache size in files")
    p.add_argument("--mp", required=True, help="private-cache size in files")
    p.add_argument("-N", required=True, help="library size in files")


@contextlib.contextmanager
def _sink(path: str | None) -> Iterator[Callable[[str], object]]:
    """``write`` of the ``-o`` file, or of stdout without one; a file that
    cannot be opened or written is a validation error."""
    if not path:
        yield sys.stdout.write
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh.write
    except OSError as exc:
        raise ValueError(f"-o: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rate(args: argparse.Namespace) -> int:
    ma, mp = _rational(args.ma, "--ma"), _rational(args.mp, "--mp")
    [(gamma_a, gamma_p, rate, bound, corners, note)] = sweep(
        args.K, args.L, args.N, (ma,), (mp.as_integer_ratio(),)
    )
    if note:
        raise ValueError(note)
    rate, bound = Fraction(*rate), Fraction(*bound)
    optimal = rate == bound
    # only a mix of corners is listed, each weight over the gammas' denominators
    q = gamma_a[1] * gamma_p[1]
    corners = [(a, p, _ratio(w, q), r) for a, p, w, r in corners] if len(corners) > 1 else ()
    if args.json:
        payload = {
            "K": args.K,
            "L": args.L,
            "N": args.N,
            "Ma": str(ma),
            "Mp": str(mp),
            "gamma_a": _ratio(*gamma_a),
            "gamma_p": _ratio(*gamma_p),
            "rate": f"{rate.numerator}/{rate.denominator}",
            "rate_decimal": dec6(rate),
            "bound": f"{bound.numerator}/{bound.denominator}",
            "bound_decimal": dec6(bound),
            "optimal": optimal,
        }
        if corners:
            payload["memory_sharing"] = [
                {"gamma_a": a, "gamma_p": p, "weight": w, "rate": str(r)}
                for a, p, w, r in corners
            ]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"rate  = {rate} ({dec6(rate)})")
    print(f"bound = {bound} ({dec6(bound)})")
    print(f"optimal = {'yes' if optimal else 'no'}")
    for a, p, w, r in corners:
        print(f"  corner gamma_a={a} gamma_p={p} weight={w} rate={r}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    # a bad demand is refused before the layout, seconds of work at large K, is built
    if args.demands is not None:
        demand = tuple(_integer(x, "--demands", "entry ") for x in args.demands.split(","))
    elif args.seed is not None:
        demand = random_demand(params, args.seed)
    else:
        demand = worst_case_demand(params.k)
    demand = check_demand(params, demand)
    if params.integral and not args.unchecked:
        # the point is refused where `rate` refuses it, before any layout is built
        try:
            achievable_rate(params)
        except RegimeError as exc:
            raise RegimeError(f"{exc}; pass --unchecked to run it anyway") from exc
    layout = build("simulate", params)
    delivery = deliver(layout)
    # one pass, a rotation at a time: each is written and checked as it
    # streams past, never kept; a refused run has opened no sink
    with _sink(args.output) as write:
        rotations = format_log(delivery.rotations(), layout, write)
        report = verify_decodability(layout, rotations=rotations)
        write(f"# demand={','.join(str(d) for d in demand)}\n{format_report(report)}\n")
    return 0 if report.ok else 2


def _parse_range(spec: str) -> tuple[Fraction, Fraction, int]:
    """'start:stop[:step]' inclusive, exact rational arithmetic: the start,
    the step and the number of points."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"--mp-range: {spec!r} is not start:stop[:step]")
    start, stop = _rational(parts[0], "--mp-range"), _rational(parts[1], "--mp-range")
    step = _rational(parts[2], "--mp-range") if len(parts) == 3 else Fraction(1)
    if step <= 0:
        raise ValueError(f"--mp-range: step {parts[2]!r} is not positive")
    return start, step, ((stop - start) // step + 1 if stop >= start else 0)


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, without the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _rows(
    cells: Iterable[tuple[tuple[str, ...], str]], points: Iterable[tuple]
) -> Iterator[tuple[str, ...]]:
    """Each :func:`ringcache.analysis.sweep` point as its row's 15 fields, in
    :data:`CSV_HEADER` order behind its cell, the head (K, L, N, Ma) and Mp;
    fields the point cannot fill are empty and ``note`` holds the reason.
    Every point of a column has the same gamma_a pair, rendered once."""
    last_a = text_a = None
    for (head, mp), (gamma_a, gamma_p, rate, bound, _, note) in zip(cells, points):
        head += (mp,)
        if gamma_a is None:
            yield head + ("",) * 9 + (note,)
            continue
        if gamma_a is not last_a:
            last_a, text_a = gamma_a, _ratio(*gamma_a)
        row = head + (text_a, _ratio(*gamma_p))
        if rate is None:
            yield row + ("",) * 7 + (note,)
            continue
        (num, den), (b_num, b_den) = rate, bound
        g, h = math.gcd(num, den), math.gcd(b_num, b_den)
        optimal = ("false", "true")[num * b_den == b_num * den]  # both dens > 0
        yield row + (str(num // g), str(den // g), _dec6(num, den),
                     str(b_num // h), str(b_den // h), _dec6(b_num, b_den), optimal, "")


# one row as json.dumps(rows, indent=2) lays out its dict; only the note may need escaping
_JSON_RECORD = "  {{\n" + "".join(f'    "{key}": "{{}}",\n' for key in CSV_HEADER.split(",")[:-1])
_JSON_RECORD += '    "note": {}\n  }}'


def cmd_sweep(args: argparse.Namespace) -> int:
    ma_list = [_rational(x, "--ma") for x in args.ma.split(",")]
    start, step, points = _parse_range(args.mp_range)
    # counted before any row is built; rows stream, so this bounds the time
    if len(ma_list) * points > SWEEP_ROW_BUDGET:
        raise ValueError(
            f"--mp-range: {len(ma_list)} Ma x {points} Mp values make"
            f" {len(ma_list) * points} rows, over the budget of {SWEEP_ROW_BUDGET}"
        )
    # Mp = u/v stepped in integers, each rendered once per sweep
    (a, b), (c, d) = start.as_integer_ratio(), step.as_integer_ratio()
    mps = [(u, b * d) for u in range(a * d, a * d + points * b * c, b * c)]
    heads = [(str(args.K), str(args.L), str(args.N), str(ma)) for ma in ma_list]
    cells = itertools.product(heads, [_ratio(u, v) for u, v in mps])
    rows = _rows(cells, sweep(args.K, args.L, args.N, ma_list, mps))
    with _sink(args.output) as write:  # row by row; a refused sweep opens no sink
        if args.format == "csv":
            write(CSV_HEADER + "\n")
            for *fields, note in rows:  # a note is always quoted, no other field needs to be
                write(",".join(fields) + (f',"{note}"\n' if note else ",\n"))
        else:
            lead, tail = "[\n", "[]\n"
            for *fields, note in rows:
                write(lead + _JSON_RECORD.format(*fields, json.dumps(note)))
                lead, tail = ",\n", "\n]\n"
            write(tail)
    return 0


def _refuse_flags(why: str, *flags: tuple[str, object]) -> None:
    """Refuse the first of ``flags`` that was given (is not None)."""
    for flag, value in flags:
        if value is not None:
            raise ValueError(f"{flag} {why}")


def cmd_verify(args: argparse.Namespace) -> int:
    # each mode refuses the other's flags rather than check something
    # nobody asked for
    if args.K is not None:
        _refuse_flags(
            "bounds the grid run and does not apply with -K",
            ("--kmin", args.kmin), ("--kmax", args.kmax),
        )
        if args.ga is None or args.gp is None:
            raise ValueError("explicit instances need --ga and --gp")
        l = 2 if args.L is None else args.L
        # count_vs_formula checks it by the size rule before building anything
        instances = [params_from_gammas(args.K, l, args.ga, args.gp, args.K)]
    else:
        _refuse_flags(
            "describes one instance and needs -K",
            ("-L", args.L), ("--ga", args.ga), ("--gp", args.gp),
        )
        kmin = 4 if args.kmin is None else args.kmin
        kmax = 10 if args.kmax is None else args.kmax
        instances = []
        for k in range(kmin, kmax + 1):  # no grid is built past the first K over a budget
            grid = sweep_grid(k, k)
            for params in grid:
                preflight("verify", params)
            instances += grid
        if not instances:
            raise ValueError(
                f"--kmin/--kmax: no counting-regime instance with {kmin} <= K <= {kmax}"
            )
    failures = 0
    reports = []  # only the --json dicts: a report holds its census's records
    for params in instances:
        report = count_vs_formula(params)
        if args.json:
            reports.append(report.to_json())
        tag = "PASS" if report.passed else "FAIL"
        t = report.table
        line = (
            f"{tag} K={params.k} L={params.l} gamma_a={params.ga} gamma_p={params.gp}"
            f" C={t.subsets} SC1={t.sc1} SC2={t.sc2} X={t.transmissions}"
        )
        if not report.passed:
            line += f" :: {report.divergence}"
            failures += 1
        print(line)
    if args.json:
        print(json.dumps(reports, indent=2))
    print(f"# {len(instances) - failures}/{len(instances)} instances agree")
    return 2 if failures else 0


def cmd_man(args: argparse.Namespace) -> int:
    if args.K >= 1 and not 0 <= args.t <= args.K:  # K < 1 is refused for its own reason
        raise ValueError(f"-t: replication t={args.t} outside [0, K={args.K}]")
    report = man_crosscheck(args.K, args.t)
    tag = "PASS" if report.passed else "FAIL"
    print(
        f"{tag} K={report.k} t={report.t} F={report.f} (expected {report.expected_f})"
        f" rate={report.rate} (expected {report.expected_rate})"
    )
    return 0 if report.passed else 2


def cmd_layout_dump(args: argparse.Namespace) -> int:
    params = _params(args)
    layout = build("layout-dump", params)
    # written cache by cache; a refused run has opened no sink
    with _sink(args.output) as write:
        layout_to_json(layout, write)
        write("\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``ringcache`` parser and its commands' own parsers by name, built
    once per process: parsing reads them and never changes them, so
    in-process :func:`main` calls share them."""
    parser = _Parser(prog="ringcache", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="closed-form rate, bound and optimality for one point")
    _add_system_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("simulate", help="run delivery and the decodability check")
    _add_system_args(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--worst-case", action="store_true", help="identity demands d_u = u (default)")
    group.add_argument("--demands", help="comma-separated file indices, one per user")
    group.add_argument("--seed", help="seeded random demands")
    p.add_argument("--unchecked", action="store_true", help="run outside the characterized regime")
    p.add_argument("-o", "--output", help="write the log to a file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="rate/bound grid over Mp for each Ma")
    p.add_argument("-K", required=True)
    p.add_argument("-L", required=True)
    p.add_argument("-N", required=True)
    p.add_argument("--ma", required=True, help="comma-separated Ma values")
    p.add_argument("--mp-range", required=True, help="Mp as start:stop[:step]")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="three-way count agreement harness")
    p.add_argument("--kmin", help="smallest K of the grid (defaults to 4)")
    p.add_argument("--kmax", help="largest K of the grid (defaults to 10)")
    p.add_argument("-K", help="check one explicit instance instead")
    p.add_argument("-L", help="access degree of the instance (defaults to 2)")
    p.add_argument("--ga")
    p.add_argument("--gp")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("man-check", help="dedicated-cache reduction cross-check")
    p.add_argument("-K", required=True)
    p.add_argument("-t", required=True)
    p.set_defaults(func=cmd_man)

    p = sub.add_parser("layout-dump", help="cache contents as JSON")
    _add_system_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_layout_dump)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The whole ``ringcache`` parser, built once per process."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the whole parser parses it; raises SystemExit where
    it would. A command's arguments go straight to its own parser, which the
    whole parser would run on them too, with ``command`` set first as the
    whole parser sets it. Only leftovers send argv through the whole parser
    again: its own parser would name them under the command's usage, the
    whole parser names them under its own."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (``sys.argv[1:]`` by default) names and return
    its exit code. argv is parsed once, by the command's own parser, unless
    it names no command or leaves arguments over (see :func:`_parse`)."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        for dest, flag in INTEGER_FLAGS.items():
            if getattr(args, dest, None) is not None:
                setattr(args, dest, _integer(getattr(args, dest), flag))
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"ringcache: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # final flush at exit cannot fail again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
