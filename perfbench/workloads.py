"""Workloads: the op list each one runs, and the check applied to each op.

An op is one ``ringcache`` CLI command. The seed fixes the op order and the
random demand vectors; the program only ever sees the generated argv.
Expected values (grid sizes, row counts, cache sizes) are computed here
from the parameters, independently of the program.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple


class Op(NamedTuple):
    """One CLI command plus what its checks need to know about it."""

    argv: tuple[str, ...]
    k: int
    l: int
    n: int
    ga: int
    gp: int
    demand: tuple[int, ...] = ()


# (K, L, gamma_a, gamma_p) with N = K, smallest to largest. Ma = 0 at K=16
# L=1 is the dedicated-cache (Maddah-Ali--Niesen) regime. An odd number of
# instances keeps op_p50_ms on one instance rather than between two.
SIMULATE_LADDER = (
    (8, 2, 1, 1),
    (10, 2, 2, 1),
    (12, 2, 2, 2),
    (14, 3, 1, 2),
    (16, 1, 0, 4),
    (18, 3, 1, 2),
    (16, 2, 2, 3),
)

VERIFY_KMAX = 12

# (K, L, gamma_a, gamma_p) with N = 4K: a large library, so every file
# index multiplies the cached objects the dump renders.
LAYOUT_DUMPS = (
    (8, 2, 1, 1),
    (10, 3, 1, 2),
    (12, 2, 2, 2),
    (16, 2, 2, 2),
    (14, 2, 2, 3),
)

SWEEP_KS = (16, 24, 32, 40)

CSV_HEADER = [
    "K", "L", "N", "Ma", "Mp", "gamma_a", "gamma_p", "rate_num", "rate_den", "rate",
    "bound_num", "bound_den", "bound", "optimal", "note",
]


def _system_argv(k: int, l: int, n: int, ga: int, gp: int) -> tuple[str, ...]:
    ma, mp = Fraction(n * ga, k), Fraction(n * gp, k)
    return ("-K", str(k), "-L", str(l), "--ma", str(ma), "--mp", str(mp), "-N", str(n))


def demand_with_repeat(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    """Random demand vector in [1, n]^k in which at least two users want the
    same file."""
    demand = [rng.randint(1, n) for _ in range(k)]
    i, j = rng.sample(range(k), 2)
    demand[j] = demand[i]
    return tuple(demand)


def counting_grid(kmin: int, kmax: int) -> list[tuple[int, int, int, int]]:
    """Every integral (K, L, gamma_a, gamma_p) of the counting regime with
    L <= 3: gamma_p < span = gamma_a * L and 1 + span + gamma_p <= K."""
    grid = []
    for k in range(kmin, kmax + 1):
        for l in range(1, min(3, k) + 1):
            for ga in range(1, k // l + 1):
                span = ga * l
                for gp in range(0, min(span, k - span)):
                    if 1 + span + gp > k:
                        break
                    grid.append((k, l, ga, gp))
    return grid


def simulate_ladder(rng: random.Random) -> list[Op]:
    ops = []
    for k, l, ga, gp in SIMULATE_LADDER:
        base = ("simulate",) + _system_argv(k, l, k, ga, gp)
        ops.append(Op(base + ("--worst-case",), k, l, k, ga, gp, tuple(range(1, k + 1))))
        demand = demand_with_repeat(rng, k, k)
        ops.append(Op(base + ("--demands", ",".join(map(str, demand))), k, l, k, ga, gp, demand))
    rng.shuffle(ops)
    return ops


def verify_grid(rng: random.Random) -> list[Op]:
    ops = [
        Op(("verify", "-K", str(k), "-L", str(l), "--ga", str(ga), "--gp", str(gp)), k, l, k, ga, gp)
        for k, l, ga, gp in counting_grid(4, VERIFY_KMAX)
    ]
    rng.shuffle(ops)
    return ops


def rate_sweep(rng: random.Random) -> list[Op]:
    ops = []
    for k in SWEEP_KS:
        for l in (1, 2, 3):
            for twice_ma in range(k + 1):
                ma = Fraction(twice_ma, 2)
                argv = ("sweep", "-K", str(k), "-L", str(l), "-N", str(k),
                        "--ma", str(ma), "--mp-range", f"0:{k // 2}:1/2")
                ops.append(Op(argv, k, l, k, 0, 0))
    rng.shuffle(ops)
    return ops


def layout_dump(rng: random.Random) -> list[Op]:
    ops = [
        Op(("layout-dump",) + _system_argv(k, l, 4 * k, ga, gp), k, l, 4 * k, ga, gp)
        for k, l, ga, gp in LAYOUT_DUMPS
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "simulate-ladder": simulate_ladder,
    "verify-grid": verify_grid,
    "rate-sweep": rate_sweep,
    "layout-dump": layout_dump,
}


def build_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))


# ---------------------------------------------------------------------------
# per-op checks
# ---------------------------------------------------------------------------

class Outcome(NamedTuple):
    """What one op's output showed: problems found, plus exact counts."""

    problems: list[str]
    transmissions: int = 0
    terms: int = 0
    checked: int = 0


class Checker:
    """Checks one op's exit code and stdout.

    ``achievable_rate``, ``SystemParams`` and ``RegimeError`` come from the
    program under test. Checks run between ops, where the tracer records no
    spans.
    """

    def __init__(self, achievable_rate, system_params, regime_error) -> None:
        self.achievable_rate = achievable_rate
        self.system_params = system_params
        self.regime_error = regime_error

    def check(self, op: Op, code: int, out: str) -> Outcome:
        if code != 0:
            return Outcome([f"exit code {code}"])
        command = op.argv[0]
        if command == "simulate":
            return self._simulate(op, out)
        if command == "verify":
            return self._verify(out)
        if command == "sweep":
            return self._sweep(op, out)
        return self._layout_dump(op, out)

    def _expected_rate(self, op: Op) -> Fraction | None:
        params = self.system_params(
            op.k, op.l, Fraction(op.n * op.ga, op.k), Fraction(op.n * op.gp, op.k), op.n
        )
        try:
            return self.achievable_rate(params)
        except self.regime_error:
            return None

    def _simulate(self, op: Op, out: str) -> Outcome:
        problems = []
        lines = out.splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        footer = {}
        for ln in lines:
            if ln.startswith("# "):
                key = ln[2:].split("=", 1)[0].split(" ", 1)[0]
                footer[key] = ln
        terms = sum(ln.count(" ^ ") + 1 for ln in body)
        if "decodability" not in footer or not footer["decodability"].startswith("# decodability PASS"):
            problems.append("no '# decodability PASS' footer")
        if any(ln.startswith("# decodability FAIL") for ln in lines):
            problems.append("decodability FAIL")
        try:
            total = int(footer["total"].split()[1].split("=")[1])
            rate = Fraction(footer["F"].split("rate=")[1])
            demand = tuple(int(x) for x in footer["demand"].split("=", 1)[1].split(","))
            checked = int(footer["decodability"].split("(")[1].split()[0])
        except (KeyError, IndexError, ValueError) as exc:
            return Outcome(problems + [f"unparseable footer: {exc!r}"])
        if total != len(body):
            problems.append(f"footer total={total} but {len(body)} transmission lines")
        if demand != op.demand:
            problems.append(f"demand echoed as {demand}, sent {op.demand}")
        expected = self._expected_rate(op)
        if expected is not None and rate != expected:
            problems.append(f"footer rate {rate} != achievable_rate {expected}")
        return Outcome(problems, total, terms, checked)

    @staticmethod
    def _verify(out: str) -> Outcome:
        lines = out.splitlines()
        problems = [ln for ln in lines if ln.startswith("FAIL")]
        if not lines or lines[-1] != "# 1/1 instances agree":
            problems.append(f"summary line {lines[-1] if lines else None!r}")
        transmissions = sum(
            int(field[2:]) for ln in lines if ln.startswith("PASS")
            for field in ln.split() if field.startswith("X=")
        )
        return Outcome(problems, transmissions)

    @staticmethod
    def _sweep(op: Op, out: str) -> Outcome:
        rows = list(csv.reader(out.splitlines()))
        problems = []
        if not rows or rows[0] != CSV_HEADER:
            return Outcome(["missing CSV header"])
        if len(rows) - 1 != op.k + 1:
            problems.append(f"{len(rows) - 1} rows, expected {op.k + 1}")
        for row in rows[1:]:
            if len(row) != len(CSV_HEADER):
                problems.append(f"row has {len(row)} fields: {row}")
                continue
            if not row[7]:
                continue  # out-of-regime point: the reason is in `note`
            rate = Fraction(int(row[7]), int(row[8]))
            bound = Fraction(int(row[10]), int(row[11]))
            if rate < bound:
                problems.append(f"rate {rate} < bound {bound} at Ma={row[3]} Mp={row[4]}")
        return Outcome(problems)

    @staticmethod
    def _layout_dump(op: Op, out: str) -> Outcome:
        try:
            dump = json.loads(out)
        except json.JSONDecodeError as exc:
            return Outcome([f"invalid JSON: {exc}"])
        k, n, ga, gp = op.k, op.n, op.ga, op.gp
        span = ga * op.l
        f = k * math.comb(k - span, gp) if ga else math.comb(k, gp)
        if gp == 0:
            per_user = 0
        elif ga == 0:
            per_user = n * math.comb(k - 1, gp - 1)
        else:
            per_user = n * (k - span) * math.comb(k - span - 1, gp - 1)
        problems = []
        if (dump.get("K"), dump.get("L"), dump.get("N"), dump.get("F")) != (k, op.l, n, f):
            problems.append(f"header K/L/N/F {dump.get('K')}/{dump.get('L')}/{dump.get('N')}/{dump.get('F')}")
        access, private = dump.get("access", {}), dump.get("private", {})
        if sorted(access, key=int) != [str(c) for c in range(1, k + 1)]:
            problems.append("shared caches are not 1..K")
        if sorted(private, key=int) != [str(u) for u in range(1, k + 1)]:
            return Outcome(problems + ["private caches are not 1..K"])
        if any(len(cell) != n * ga for cell in access.values()):
            problems.append(f"a shared cache does not hold N*gamma_a = {n * ga} subfiles")
        for u, cell in private.items():
            if len(cell) != per_user:
                problems.append(f"user {u} caches {len(cell)} mini-subfiles, expected {per_user}")
            # spot-check the ends: a private mini-subfile's T contains its user
            for label in cell[:1] + cell[-1:]:
                if u not in label.split(":")[2].split(","):
                    problems.append(f"user {u} caches {label} without being in T")
        return Outcome(problems)
