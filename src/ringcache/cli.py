"""Command-line front end.

Subcommands: ``rate`` (closed forms for one memory point), ``simulate``
(run delivery for a demand vector and check decodability), ``sweep``
(rate/bound grid as CSV or JSON), ``verify`` (brute-force oracle harness)
and ``layout-dump`` (cache contents as JSON). ``simulate`` and
``layout-dump`` use the subset placement at L = 1, the placement whose
rate ``rate`` and ``sweep`` report there, and the ring placement otherwise.

Exit codes: 0 success, 1 usage or validation error, 2 decodability or
oracle failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction

from .model import InvalidParameters, RegimeError, SystemParams
from .placement import CacheLayout, build_layout, build_subset_layout, layout_to_json
from .delivery import (
    DecodeCheck,
    UncharacterizedRegime,
    check_demand,
    format_footer,
    format_packet,
    format_report,
    plan_packets,
    random_demand,
    worst_case_demand,
)
from .analysis import cutset_bound, is_optimal, memory_share, rate_with_sharing
from .verify import count_vs_formula, man_crosscheck, sweep_grid

CSV_HEADER = (
    "K,L,N,Ma,Mp,gamma_a,gamma_p,rate_num,rate_den,rate,"
    "bound_num,bound_den,bound,optimal,note"
)


def fraction_arg(text: str) -> Fraction:
    """Exact rational from '3/2', '1.5' or '2'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _rational(text: str, flag: str) -> Fraction:
    """``Fraction(text)``, with malformed text reported against ``flag``."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not a rational number") from None


def _demand_entry(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--demands: entry {text!r} is not an integer") from None


def dec6(x: Fraction) -> str:
    """Decimal rendering to 6 places via exact rounding (no floats)."""
    scaled = round(x * 10**6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


def _params(args: argparse.Namespace) -> SystemParams:
    return SystemParams(k=args.K, l=args.L, ma=args.ma, mp=args.mp, n=args.N)


def _layout(params: SystemParams) -> CacheLayout:
    """The placement the reported rate belongs to: subset placement at L = 1,
    ring placement otherwise."""
    return build_subset_layout(params) if params.l == 1 else build_layout(params)


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-K", type=int, required=True, help="users / shared caches on the ring")
    p.add_argument("-L", type=int, required=True, help="access degree")
    p.add_argument("--ma", type=fraction_arg, required=True, help="shared-cache size in files")
    p.add_argument("--mp", type=fraction_arg, required=True, help="private-cache size in files")
    p.add_argument("-N", type=int, required=True, help="library size in files")


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rate(args: argparse.Namespace) -> int:
    params = _params(args)
    rate = rate_with_sharing(params)
    bound = cutset_bound(params)
    optimal = is_optimal(params)
    if args.json:
        payload = {
            "K": params.k,
            "L": params.l,
            "N": params.n,
            "Ma": str(params.ma),
            "Mp": str(params.mp),
            "gamma_a": str(params.gamma_a),
            "gamma_p": str(params.gamma_p),
            "rate": f"{rate.numerator}/{rate.denominator}",
            "rate_decimal": dec6(rate),
            "bound": f"{bound.numerator}/{bound.denominator}",
            "bound_decimal": dec6(bound),
            "optimal": optimal,
        }
        if not params.integral:
            payload["memory_sharing"] = [
                {
                    "gamma_a": pt.gamma_a,
                    "gamma_p": pt.gamma_p,
                    "weight": str(pt.weight),
                    "rate": str(pt.rate),
                }
                for pt in memory_share(params).points
            ]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"rate  = {rate} ({dec6(rate)})")
    print(f"bound = {bound} ({dec6(bound)})")
    print(f"optimal = {'yes' if optimal else 'no'}")
    if not params.integral:
        for pt in memory_share(params).points:
            print(
                f"  corner gamma_a={pt.gamma_a} gamma_p={pt.gamma_p}"
                f" weight={pt.weight} rate={pt.rate}"
            )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    layout = _layout(params)
    if args.demands is not None:
        demand = tuple(_demand_entry(x) for x in args.demands.split(","))
    elif args.seed is not None:
        demand = random_demand(params, args.seed)
    else:
        demand = worst_case_demand(params.k)
    demand = check_demand(params, demand)
    try:
        packets = plan_packets(layout, unchecked=args.unchecked)
    except UncharacterizedRegime as exc:
        raise RegimeError(f"{exc.reason}; pass --unchecked to run it anyway") from exc
    # each packet is rendered and checked as it streams past, never kept
    check = DecodeCheck()
    counts: Counter[str] = Counter()
    lines = []
    for case, keys in packets:
        lines.append(format_packet(case, keys))
        counts[case] += 1
        check.add(keys)
    report = check.report(layout)
    lines += [
        format_footer(counts, layout.f),
        f"# demand={','.join(str(d) for d in demand)}",
        format_report(report),
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if report.ok else 2


def _sweep_row(
    k: int, l: int, n: int, ma: Fraction, mp: Fraction, with_bound: bool, with_optimal: bool
) -> tuple[str, ...]:
    """The 15 field values of one sweep row, in :data:`CSV_HEADER` order;
    fields a row cannot fill are empty and ``note`` holds the reason."""
    base = (str(k), str(l), str(n), str(ma), str(mp))
    try:
        params = SystemParams(k=k, l=l, ma=ma, mp=mp, n=n)
    except InvalidParameters as exc:
        return base + ("",) * 9 + (str(exc),)
    gammas = (str(params.gamma_a), str(params.gamma_p))
    try:
        rate = rate_with_sharing(params)
    except RegimeError as exc:
        return base + gammas + ("",) * 7 + (str(exc),)
    cells = (str(rate.numerator), str(rate.denominator), dec6(rate))
    if with_bound:
        bound = cutset_bound(params)
        cells += (str(bound.numerator), str(bound.denominator), dec6(bound))
    else:
        cells += ("", "", "")
    optimal = ("true" if is_optimal(params) else "false") if with_optimal else ""
    return base + gammas + cells + (optimal, "")


def _csv_line(row: tuple[str, ...]) -> str:
    """One CSV line; a non-empty note is always quoted, the other fields
    never need to be."""
    *fields, note = row
    return ",".join(fields + [f'"{note}"' if note else ""])


def _parse_range(spec: str) -> list[Fraction]:
    """'start:stop[:step]' inclusive, exact rational arithmetic."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"--mp-range: {spec!r} is not start:stop[:step]")
    start, stop = _rational(parts[0], "--mp-range"), _rational(parts[1], "--mp-range")
    step = _rational(parts[2], "--mp-range") if len(parts) == 3 else Fraction(1)
    if step <= 0:
        raise ValueError(f"--mp-range: step {parts[2]!r} is not positive")
    out = []
    x = start
    while x <= stop:
        out.append(x)
        x += step
    return out


def cmd_sweep(args: argparse.Namespace) -> int:
    ma_list = [_rational(x, "--ma") for x in args.ma.split(",")]
    mp_list = _parse_range(args.mp_range)
    rows = [
        _sweep_row(args.K, args.L, args.N, ma, mp, args.bound, args.optimal)
        for ma in ma_list
        for mp in mp_list
    ]
    if args.format == "json":
        keys = CSV_HEADER.split(",")
        payload = [dict(zip(keys, row)) for row in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit("\n".join([CSV_HEADER] + [_csv_line(row) for row in rows]) + "\n", args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.K is not None:
        if args.ga is None or args.gp is None:
            print("explicit instances need --ga and --gp", file=sys.stderr)
            return 1
        instances = [
            SystemParams(
                k=args.K,
                l=args.L,
                ma=Fraction(args.N * args.ga, args.K),
                mp=Fraction(args.N * args.gp, args.K),
                n=args.N,
            )
        ]
    else:
        instances = sweep_grid(args.kmin, args.kmax)
    failures = 0
    reports = []
    for params in instances:
        report = count_vs_formula(params)
        reports.append(report)
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
        print(json.dumps([r.to_json() for r in reports], indent=2))
    print(f"# {len(instances) - failures}/{len(instances)} instances agree")
    return 2 if failures else 0


def cmd_man(args: argparse.Namespace) -> int:
    report = man_crosscheck(args.K, args.t, args.N)
    tag = "PASS" if report.passed else "FAIL"
    print(
        f"{tag} K={report.k} t={report.t} F={report.f} (expected {report.expected_f})"
        f" rate={report.rate} (expected {report.expected_rate})"
    )
    return 0 if report.passed else 2


def cmd_layout_dump(args: argparse.Namespace) -> int:
    params = _params(args)
    layout = _layout(params)
    _emit(json.dumps(layout_to_json(layout), indent=2) + "\n", args.output)
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
def build_parser() -> argparse.ArgumentParser:
    """The ``ringcache`` parser, built once per process: parsing reads it and
    never changes it, so in-process :func:`main` calls share it."""
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
    group.add_argument("--seed", type=int, help="seeded random demands")
    p.add_argument("--unchecked", action="store_true", help="run outside the characterized regime")
    p.add_argument("-o", "--output", help="write the log to a file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="rate/bound grid over Mp for each Ma")
    p.add_argument("-K", type=int, required=True)
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--ma", required=True, help="comma-separated Ma values")
    p.add_argument("--mp-range", required=True, help="Mp as start:stop[:step]")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-bound", dest="bound", action="store_false")
    p.add_argument("--no-optimal", dest="optimal", action="store_false")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="three-way count agreement harness")
    p.add_argument("--kmin", type=int, default=4)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("-K", type=int, help="check one explicit instance instead")
    p.add_argument("-L", type=int, default=2)
    p.add_argument("-N", type=int, default=0, help="library size (defaults to K)")
    p.add_argument("--ga", type=int)
    p.add_argument("--gp", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("man-check", help="dedicated-cache reduction cross-check")
    p.add_argument("-K", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-N", type=int, default=0, help="library size (defaults to K)")
    p.set_defaults(func=cmd_man)

    p = sub.add_parser("layout-dump", help="cache contents as JSON")
    _add_system_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_layout_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if getattr(args, "N", None) == 0:
        args.N = args.K
    try:
        return args.func(args)
    except (InvalidParameters, RegimeError) as exc:
        print(f"ringcache: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ringcache: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
