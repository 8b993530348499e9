"""Command-line surface: outputs, exit codes, determinism."""

import ast
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import SRC
import ringcache.cli
import ringcache.placement
import ringcache.verify
from ringcache import analysis
from ringcache.cli import build_parser, dec6, main
from ringcache.delivery import deliver, format_report, verify_decodability
from ringcache.model import RegimeError, SystemParams, params_from_gammas
from ringcache.placement import LAYOUT_BUDGET, OUTPUT_BUDGET, RING, SUBSET, build, build_layout
from ringcache.placement import build_subset_layout, preflight
from ringcache.verify import count_vs_formula, sweep_grid
from fractions import Fraction

from helpers import PacketStream, cutset_bound_reference, dec6_reference, drop_transmission
from helpers import materialize, memory_share_reference, sweep_reference, whole_parse


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_dec6_exact_rendering():
    assert dec6(Fraction(2, 3)) == "0.666667"
    assert dec6(Fraction(1, 30)) == "0.033333"
    assert dec6(Fraction(8, 5)) == "1.600000"
    assert dec6(Fraction(0)) == "0.000000"


def test_dec6_rounds_ties_to_even_as_round_did():
    assert dec6(Fraction(1, 2_000_000)) == "0.000000"
    assert dec6(Fraction(3, 2_000_000)) == "0.000002"
    assert dec6(Fraction(-1, 2_000_000)) == "0.000000"
    assert dec6(Fraction(-3, 2_000_000)) == "-0.000002"
    # exact ties, small denominators and large ones, both signs
    rng = random.Random(14)
    negative = 0
    for i in range(120_000):
        if i % 3 == 0:
            x = Fraction(2 * rng.randint(-10**8, 10**8) + 1, 2_000_000 * rng.choice((1, 3, 5)))
        elif i % 3 == 1:
            x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 64))
        else:
            x = Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))
        negative += x < 0
        assert dec6(x) == dec6_reference(x), x
    assert negative > 50_000


def test_rate_command():
    code, out, _ = run_cli("rate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5")
    assert code == 0
    assert "rate  = 2/3 (0.666667)" in out
    assert "bound = 2/5 (0.400000)" in out
    assert "optimal = no" in out


def test_rate_command_optimal_point():
    code, out, _ = run_cli("rate", "-K", "30", "-L", "3", "--ma", "6", "--mp", "11", "-N", "30")
    assert code == 0
    assert "rate  = 1/30" in out
    assert "optimal = yes" in out


@pytest.mark.parametrize(
    "ma,rate,bound,optimal",
    [
        # memory sharing halfway between gamma_a = 1 and 2: the paper's
        # large-memory condition holds, but the shared rate is above the bound
        ("3/2", "1/2", "1/4", False),
        # no memory at all: every user needs its whole file, and so does the bound
        ("0", "4", "4", True),
    ],
)
def test_rate_optimal_is_the_rate_meeting_the_bound(ma, rate, bound, optimal):
    system = ("rate", "-K", "4", "-L", "2", "--ma", ma, "--mp", "0", "-N", "4")
    code, out, err = run_cli(*system)
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == [
        f"rate  = {rate} ({dec6(Fraction(rate))})",
        f"bound = {bound} ({dec6(Fraction(bound))})",
        f"optimal = {('no', 'yes')[optimal]}",
    ]
    code, out, err = run_cli(*system, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert Fraction(payload["rate"]) == Fraction(rate)
    assert Fraction(payload["bound"]) == Fraction(bound)
    assert payload["optimal"] is optimal


def test_rate_command_worked_instance_7():
    code, out, _ = run_cli("rate", "-K", "7", "-L", "2", "--ma", "1", "--mp", "1", "-N", "7")
    assert code == 0
    assert "rate  = 8/5 (1.600000)" in out


def test_rate_json_with_sharing():
    code, out, _ = run_cli(
        "rate", "-K", "10", "-L", "3", "--ma", "1", "--mp", "1.5", "-N", "10", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_p"] == "3/2"
    assert len(payload["memory_sharing"]) == 2


def test_rate_json_with_sharing_is_pinned():
    # N != K, unequal corner weights: the whole payload, memory_sharing included
    code, out, _ = run_cli(
        "rate", "-K", "12", "-L", "2", "--ma", "11/3", "--mp", "7/4", "-N", "15", "--json"
    )
    assert code == 0
    assert len(json.loads(out)["memory_sharing"]) == 4
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8c20fa8a5ddefc5b47b5925662aff29b5a839438226bf05ba3769eb8ccb5685d"
    )


def test_rate_command_rejects_bad_params():
    code, _, err = run_cli("rate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "9", "-N", "5")
    assert code == 1
    assert "mp" in err


def test_usage_error_exit_code():
    code, _, _ = run_cli("rate", "-K", "5")
    assert code == 1
    code, _, _ = run_cli("frobnicate")
    assert code == 1


def test_simulate_worked_instance(tmp_path):
    code, out, _ = run_cli(
        "simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5", "--worst-case"
    )
    assert code == 0
    lines = out.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == 10
    assert all(ln.startswith("GENERAL ") for ln in body)
    assert "# total=10 general=10 sc1=0 sc2=0" in lines
    assert "# decodability PASS (30 mini-subfiles)" in out


def test_simulate_footer_counts_instance_7():
    code, out, _ = run_cli("simulate", "-K", "7", "-L", "2", "--ma", "1", "--mp", "1", "-N", "7")
    assert code == 0
    assert "# total=56 general=42 sc1=7 sc2=7" in out
    assert out.count("\n") == 60  # 56 transmissions + counts, F/rate, demand, decodability


def test_simulate_explicit_and_seeded_demands():
    code, out, _ = run_cli(
        "simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5",
        "--demands", "1,1,1,1,1",
    )
    assert code == 0
    assert "# decodability PASS" in out
    code, out1, _ = run_cli(
        "simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5", "--seed", "7"
    )
    code2, out2, _ = run_cli(
        "simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5", "--seed", "7"
    )
    assert code == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "extra",
    [
        ("-K", "7", "-L", "2", "--ma", "1", "--mp", "1", "-N", "7"),
        ("-K", "8", "-L", "1", "--ma", "3", "--mp", "1", "-N", "8", "--seed", "5"),
        ("-K", "9", "-L", "3", "--ma", "1", "--mp", "2", "-N", "9", "--demands", "2,2,1,4,5,6,7,8,9"),
        # in the band where no rate is claimed: it still decodes (a PASS report)
        ("-K", "8", "-L", "2", "--ma", "1", "--mp", "3", "-N", "8", "--unchecked"),
    ],
)
def test_simulate_file_is_stdout(tmp_path, extra):
    code, out, err = run_cli("simulate", *extra)
    target = tmp_path / "simulate.log"
    assert run_cli("simulate", *extra, "-o", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "extra",
    [
        ("-K", "8", "-L", "2", "--ma", "1", "--mp", "3", "-N", "8"),
        ("-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5", "--demands", "1,2,3"),
        ("-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5", "--demands", "1,x,2,3,4"),
    ],
)
def test_a_refused_simulate_creates_no_file(tmp_path, extra):
    # the sink is opened once delivery has started, after every refusal
    target = tmp_path / "simulate.log"
    code, out, err = run_cli("simulate", *extra, "-o", str(target))
    assert (code, out) == (1, "") and err.startswith("ringcache: ")
    assert not target.exists()


def test_simulate_streams_its_log(tmp_path):
    # K=24 L=2 gamma_a=3 gamma_p=2 writes a 1.6 MB log; written line by line
    # as the packets stream, the run peaks no higher than the delivery and its
    # check alone, where holding the lines and joining them takes twice the
    # log more. The parser is built first, as any earlier command builds it,
    # and a full collection before each phase empties the free lists, so
    # neither phase reuses objects the other (or an earlier test) freed.
    params = params_from_gammas(24, 2, 3, 2, 24)
    target = tmp_path / "k24.log"
    build_parser()
    gc.collect()
    tracemalloc.start()
    try:
        layout = build_layout(params)
        assert verify_decodability(layout, deliver(layout)).ok
        del layout
        gc.collect()
        alone = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = main(["simulate", "-K", "24", "-L", "2", "--ma", "3", "--mp", "2", "-N", "24",
                     "-o", str(target)])
        streamed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    log = target.read_bytes()
    assert code == 0 and log.endswith(b"\n# decodability PASS (58752 mini-subfiles)\n")
    assert streamed - alone < len(log) / 4, (streamed, alone, len(log))


def test_a_closed_stdout_stops_simulate_quietly():
    # unbuffered, every log line is written as it streams, so the pipe that
    # the reader closes after the first line fails the next write
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "ringcache", "simulate",
         "-K", "18", "-L", "3", "--ma", "1", "--mp", "2", "-N", "18"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline().startswith(b"GENERAL d1:")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize(
    "system, reason",
    [
        # a fractional gamma_a: the placement needs memory sharing
        (("-K", "5", "-L", "2", "--ma", "1/2", "--mp", "1", "-N", "5"), "; use memory sharing"),
        # gamma_p = 4 beyond the K - span = 3 users outside a window
        (("-K", "5", "-L", "2", "--ma", "1", "--mp", "4", "-N", "5"),
         "gamma_p = 4 exceeds the 3 users outside a window"),
    ],
)
def test_a_refused_layout_dump_creates_no_file(tmp_path, system, reason):
    # the sink is opened once the layout is built, after every refusal
    target = tmp_path / "layout.json"
    code, out, err = run_cli("layout-dump", *system, "-o", str(target))
    assert (code, out) == (1, "") and err.startswith("ringcache: ")
    assert err.endswith(f"{reason}\n") and err.count("\n") == 1
    assert not target.exists()


def test_layout_dump_streams(tmp_path):
    # K=20 L=2 gamma_a=2 gamma_p=2 N=28 dumps 3.7 MB of JSON; written cache by
    # cache, the run peaks less than a quarter of the dump above building
    # the layout alone, where rendering the whole text first holds it several
    # times over. The parser is built and the collector run first, as in
    # test_simulate_streams_its_log.
    params = params_from_gammas(20, 2, 2, 2, 28)
    target = tmp_path / "k20.json"
    build_parser()
    gc.collect()
    tracemalloc.start()
    try:
        build_layout(params)
        gc.collect()
        alone = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = main(["layout-dump", "-K", "20", "-L", "2", "--ma", "14/5", "--mp", "14/5",
                     "-N", "28", "-o", str(target)])
        streamed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dump = target.read_bytes()
    assert code == 0 and dump.endswith(b"\n  }\n}\n") and len(dump) > 3_000_000
    assert streamed - alone < len(dump) / 4, (streamed, alone, len(dump))


def test_an_empty_dump_holds_nothing_per_file(tmp_path):
    # at gamma_a = gamma_p = 0 every cache is empty and the dump is a few
    # hundred bytes at any N; building two labels per file before the first
    # cache peaked at 636 MB RSS at N = 3,000,000
    target = tmp_path / "empty.json"
    build_parser()
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["layout-dump", "-K", "4", "-L", "1", "--ma", "0", "--mp", "0",
                     "-N", str(10**7), "-o", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dump = json.loads(target.read_text())
    assert code == 0 and dump["F"] == 1 and dump["N"] == 10**7
    assert all(cell == [] for part in ("access", "private") for cell in dump[part].values())
    assert peak < 2_000_000, peak


def test_a_dump_holds_one_chunk_of_files_at_a_time(tmp_path):
    # K=1 gamma_p=1 at N = 200,000: one private entry per file, a 3.7 MB
    # dump. Two labels per file built for all N files, and the cache's
    # whole text held twice, peaked at 50 MB; chunks of DUMP_CHUNK_FILES
    # files hold a few hundred kB
    target = tmp_path / "files.json"
    build_parser()
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["layout-dump", "-K", "1", "-L", "1", "--ma", "0", "--mp", "200000",
                     "-N", "200000", "-o", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dump = json.loads(target.read_text())
    assert code == 0 and dump["F"] == 1 and dump["access"] == {"1": []}
    assert dump["private"]["1"][::99_999] == ["1::1", "100000::1", "199999::1"]
    assert len(dump["private"]["1"]) == 200_000
    assert peak < 2_000_000, peak


SWEEP_48K = ("sweep", "-K", "12", "-L", "2", "-N", "12", "--ma", "1,3/2,2,5/2,3",
             "--mp-range", "0:12:1/800", "--format", "json")


def test_sweep_streams(tmp_path):
    # 5 Ma x 9,601 Mp values write 48,005 JSON records, 17.3 MB; written row
    # by row, the run lifts the peak RSS of a process that has already built
    # the parser by less than a quarter of the file, where holding every row,
    # a dict per row and the encoder's text lifted it by about 210 MB. The
    # child reads its own ru_maxrss: tracemalloc, as in
    # test_layout_dump_streams, would take seconds over the rows' small
    # allocations.
    target = tmp_path / "sweep.json"
    probe = (
        "import resource, sys\n"
        "from ringcache.cli import build_parser, main\n"
        "build_parser()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = main(sys.argv[1:])\n"
        "print(code, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *SWEEP_48K, "-o", str(target)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.stderr == ""
    code, before, after = map(int, done.stdout.split())
    rise = (after - before) * (1 if sys.platform == "darwin" else 1024)  # ru_maxrss in KiB on Linux
    text = target.read_bytes()
    assert code == 0 and text.startswith(b"[\n  {\n") and text.endswith(b"\n  }\n]\n")
    assert text.count(b'\n    "K": "12",\n') == 48_005 and len(text) > 17_000_000
    assert rise < len(text) / 4, (rise, len(text))


def test_a_closed_stdout_stops_sweep_quietly():
    # unbuffered, each row is written as it is built, so the pipe that the
    # reader closes after the header fails a later write
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "ringcache", "sweep",
         "-K", "12", "-L", "2", "-N", "12", "--ma", "1,2", "--mp-range", "0:12:1/100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline() == (ringcache.cli.CSV_HEADER + "\n").encode()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_verify_holds_no_report_past_its_instance():
    # without --json, a grid run over K = 11 and 12 (121 instances) peaks
    # near its largest single count_vs_formula; holding every report with
    # its census's records peaked at about three times that
    build_parser()
    gc.collect()
    tracemalloc.start()
    try:
        single = 0
        for params in sweep_grid(11, 12):
            tracemalloc.reset_peak()
            count_vs_formula(params)
            single = max(single, tracemalloc.get_traced_memory()[1])
        gc.collect()
        tracemalloc.reset_peak()
        code, out, _ = run_cli("verify", "--kmin", "11", "--kmax", "12")
        run = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.endswith("# 121/121 instances agree\n")
    assert run < 2 * single, (run, single)


def test_a_closed_stdout_stops_layout_dump_quietly():
    # unbuffered, each cache is written as it is rendered, so the pipe that
    # the reader closes after the first line fails a later write
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "ringcache", "layout-dump",
         "-K", "14", "-L", "2", "--ma", "8", "--mp", "12", "-N", "56"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_simulate_rejects_bad_demand():
    code, _, err = run_cli(
        "simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5",
        "--demands", "1,2,3",
    )
    assert code == 1


@pytest.mark.parametrize(
    "system,demands,message",
    [
        ((5, 1, 1), "1,2,3", "demand vector has 3 entries, need K=5"),
        ((5, 1, 1), "1,x,2,3,4", "--demands: entry 'x' is not an integer"),
        ((5, 1, 1), "1,2,3,4,6", "user 5 demands file 6 outside [1, N=5]"),
        # the point is refused too, but only once the demand has passed
        ((8, 1, 3), "1,2", "demand vector has 2 entries, need K=8"),
    ],
)
def test_simulate_refuses_a_bad_demand_before_building_the_layout(
    monkeypatch, system, demands, message
):
    def no_layout(params):
        raise AssertionError("built a layout before refusing the demand")

    monkeypatch.setattr(ringcache.placement, "build_layout", no_layout)
    monkeypatch.setattr(ringcache.placement, "build_subset_layout", no_layout)
    k, ma, mp = map(str, system)
    argv = ("simulate", "-K", k, "-L", "2", "--ma", ma, "--mp", mp, "-N", k, "--demands", demands)
    assert run_cli(*argv) == (1, "", f"ringcache: {message}\n")


class _Built(Exception):
    """Raised in place of building a layout."""


def _no_layout(params):
    raise _Built(params)


_HINT = "; pass --unchecked to run it anyway"


def test_simulate_refuses_the_band_before_building_the_layout(monkeypatch):
    # F = 28 * C(26, 5) = 1,841,840 mini-subfiles per file if it built the layout
    _only_built(monkeypatch)
    argv = ("simulate", "-K", "28", "-L", "2", "--ma", "1", "--mp", "5", "-N", "28")
    message = "rate uncharacterized for gamma_p = 5 >= span = 2 below the large-memory regime"
    assert run_cli(*argv) == (1, "", f"ringcache: {message}{_HINT}\n")
    # run anyway, it is over the layout budget, and still nothing is built
    assert run_cli(*argv, "--unchecked") == (1, "", (
        "ringcache: refusing simulate at K=28 L=2 gamma_a=1 gamma_p=5:"
        " F=1841840 mini-subfiles per file, over the budget of 750000\n"
    ))


@pytest.mark.parametrize(
    "argv,message",
    [
        (("simulate", "--ma", "1/2", "--mp", "3"), "gamma_a = 1/2 is not integral"),
        (("simulate", "--ma", "1/2", "--mp", "3", "--unchecked"), "gamma_a = 1/2 is not integral"),
        (("simulate", "--ma", "1", "--mp", "3/2"), "gamma_p = 3/2 is not integral"),
        (("simulate", "--ma", "1", "--mp", "3/2", "--unchecked"), "gamma_p = 3/2 is not integral"),
        (("layout-dump", "--ma", "1/2", "--mp", "1"), "gamma_a = 1/2 is not integral"),
    ],
)
def test_a_fractional_point_is_refused_without_the_unchecked_hint(argv, message):
    argv = (*argv, "-K", "8", "-L", "2", "-N", "8")
    assert run_cli(*argv) == (1, "", f"ringcache: {message}; use memory sharing\n")


def _subpacketization(k, l, ga, gp):
    """F of the placement simulate and layout-dump build: the subset one at
    L = 1 or without a shared layer, the ring one otherwise."""
    if l == 1 or ga == 0:
        return math.comb(k, ga) * math.comb(k - ga, gp)
    return k * math.comb(k - ga * l, gp)


def test_simulate_refuses_exactly_where_rate_refuses(monkeypatch):
    # every integral point a ring layout exists for: span + gamma_p <= K; a
    # point with a rate is refused only when its packets, or else its F, are
    # over their budget
    _only_built(monkeypatch)
    points, refused, oversized = 0, 0, Counter()
    for k in range(1, 25):
        for l in range(1, k + 1):
            for ga in range(k // l + 1):
                for gp in range(k - ga * l + 1):
                    try:
                        rate = analysis.achievable_rate(params_from_gammas(k, l, ga, gp, k))
                        want = None
                        f = _subpacketization(k, l, ga, gp)
                        for size, budget, told in (
                            (rate * f, OUTPUT_BUDGET, f"{rate * f} packets"),
                            (f, LAYOUT_BUDGET, f"F={f} mini-subfiles per file"),
                        ):
                            if size > budget:
                                oversized[budget] += 1
                                want = (1, "", (
                                    f"ringcache: refusing simulate at K={k} L={l} gamma_a={ga}"
                                    f" gamma_p={gp}: {told}, over the budget of {budget}\n"
                                ))
                                break
                    except RegimeError as exc:
                        want = (1, "", f"ringcache: {exc}{_HINT}\n")
                    argv = (
                        "simulate", "-K", str(k), "-L", str(l), "--ma", str(ga),
                        "--mp", str(gp), "-N", str(k),
                    )
                    try:
                        got = run_cli(*argv)
                    except _Built:
                        got = None
                    assert got == want, argv
                    points += 1
                    refused += want is not None
    assert points == 12344
    assert refused > 0 and oversized[OUTPUT_BUDGET] > 0 and oversized[LAYOUT_BUDGET] > 0


def _only_built(monkeypatch):
    """Patch both layout builders to raise :class:`_Built`, where
    :func:`ringcache.placement.build` calls them for the CLI and the
    ``verify`` oracles."""
    monkeypatch.setattr(ringcache.placement, "build_layout", _no_layout)
    monkeypatch.setattr(ringcache.placement, "build_subset_layout", _no_layout)


@pytest.mark.parametrize(
    "argv,size",
    [
        # the band, which claims no rate: F = 40 * C(38, 8) pairs per file
        (("simulate", "-K", "40", "-L", "2", "--ma", "1", "--mp", "8", "-N", "40", "--unchecked"),
         "1956139680 mini-subfiles per file, with no rate"),
        # the dedicated scheme at t = 13: C(26, 14) packets
        (("simulate", "-K", "26", "-L", "1", "--ma", "0", "--mp", "13", "-N", "26"),
         "9657700 packets"),
        (("layout-dump", "-K", "40", "-L", "2", "--ma", "1", "--mp", "8", "-N", "40"),
         "625964699200 cache entries"),
        (("layout-dump", "-K", "20", "-L", "1", "--ma", "5", "--mp", "5", "-N", "20"),
         "4657401600 cache entries"),
        # 875,160 packets, but F = C(20, 10) * C(10, 8) pairs per file
        (("simulate", "-K", "20", "-L", "1", "--ma", "10", "--mp", "8", "-N", "20"),
         "F=8314020 mini-subfiles per file"),
        (("simulate", "-K", "24", "-L", "1", "--ma", "0", "--mp", "12", "-N", "24"),
         "F=2704156 mini-subfiles per file"),
        # F = 22 * C(18, 4) = 67,320 pairs per file, each private one cached 4 times
        (("layout-dump", "-K", "22", "-L", "2", "--ma", "2", "--mp", "4", "-N", "22"),
         "5925128 cache entries"),
        # the count law's X at F = 34 * C(28, 4) = 696,150
        (("verify", "-K", "34", "-L", "2", "--ga", "3", "--gp", "4"), "4778020 packets"),
        # the verify grid's first refusal: X = 2,714,023 at F = 26 * C(18, 7)
        (("verify", "-K", "26", "-L", "1", "--ga", "8", "--gp", "7"),
         "F=827424 mini-subfiles per file"),
    ],
)
def test_an_oversized_run_is_refused_before_its_layout_is_built(monkeypatch, argv, size):
    # what a run streams is checked first, then the F of its layout
    _only_built(monkeypatch)
    command, k, l, ma, mp = argv[0], argv[2], argv[4], argv[6], argv[8]
    budget = LAYOUT_BUDGET if size.startswith("F=") else OUTPUT_BUDGET
    message = (
        f"ringcache: refusing {command} at K={k} L={l} gamma_a={ma} gamma_p={mp}:"
        f" {size}, over the budget of {budget}\n"
    )
    assert (LAYOUT_BUDGET, OUTPUT_BUDGET) == (750_000, 4_000_000)
    assert run_cli(*argv) == (1, "", message)


def test_a_layout_dump_over_the_layout_budget_is_refused(monkeypatch):
    # a dump writes at least K entries per mini-subfile, so any F over the
    # layout budget puts its entries over the output budget, which is checked
    # first; with that budget lifted the F is what refuses it
    _only_built(monkeypatch)
    monkeypatch.setattr(ringcache.placement, "OUTPUT_BUDGET", 10**12)
    assert run_cli("layout-dump", "-K", "24", "-L", "1", "--ma", "0", "--mp", "12", "-N", "24") == (
        1, "", "ringcache: refusing layout-dump at K=24 L=1 gamma_a=0 gamma_p=12:"
        " F=2704156 mini-subfiles per file, over the budget of 750000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # the CI's K = 24 simulate, X = 323,232, and K = 28, X = 3,689,742
        ("simulate", "-K", "24", "-L", "2", "--ma", "3", "--mp", "4", "-N", "24"),
        ("simulate", "-K", "28", "-L", "2", "--ma", "3", "--mp", "5", "-N", "28"),
        # the band at F = 30 * C(28, 4) = 614,250
        ("simulate", "-K", "30", "-L", "2", "--ma", "1", "--mp", "4", "-N", "30", "--unchecked"),
        ("layout-dump", "-K", "14", "-L", "2", "--ma", "8", "--mp", "12", "-N", "56"),
        # F = 28 * C(22, 5) = 737,352 under the layout budget
        ("verify", "-K", "28", "-L", "2", "--ga", "3", "--gp", "5"),
    ],
)
def test_a_run_within_the_output_budget_builds_its_layout(monkeypatch, argv):
    _only_built(monkeypatch)
    with pytest.raises(_Built):
        run_cli(*argv)


@pytest.mark.parametrize(
    "system",
    [
        ("-K", "7", "-L", "2", "--ma", "2", "--mp", "2", "-N", "14"),  # ring
        ("-K", "6", "-L", "1", "--ma", "2", "--mp", "1", "-N", "6"),  # subset
        ("-K", "6", "-L", "3", "--ma", "0", "--mp", "2", "-N", "12"),  # no shared layer
        ("-K", "8", "-L", "2", "--ma", "1", "--mp", "3", "-N", "8", "--unchecked"),  # the band
    ],
)
def test_the_predicted_output_size_is_the_size_written(monkeypatch, system):
    # with a budget one below what a run writes (packets, or F in the band,
    # and a dump's entries) or the F it builds, the run is refused naming
    # that size; at that size it runs
    code, log, _ = run_cli("simulate", *system)
    total, f = (int(line.split("=")[1].split()[0]) for line in log.splitlines()[-4:-2])
    banded = "--unchecked" in system
    code, dump, _ = run_cli("layout-dump", *system[:10])
    cells = json.loads(dump)
    entries = sum(len(cell) for part in ("access", "private") for cell in cells[part].values())
    for command, budget, size in (
        ("simulate", "OUTPUT_BUDGET", f if banded else total),
        ("simulate", "LAYOUT_BUDGET", f),
        ("layout-dump", "OUTPUT_BUDGET", entries),
        ("layout-dump", "LAYOUT_BUDGET", cells["F"]),
    ):
        argv = (command, *system) if command == "simulate" else (command, *system[:10])
        with monkeypatch.context() as patch:
            patch.setattr(ringcache.placement, budget, size)
            assert run_cli(*argv)[0] == 0
            patch.setattr(ringcache.placement, budget, size - 1)
            code, out, err = run_cli(*argv)
        assert (code, out) == (1, "") and f": {'F=' * (budget == 'LAYOUT_BUDGET')}{size} " in err
        assert err.endswith(f"over the budget of {size - 1}\n"), err


def _predicted(monkeypatch, argv):
    """The stream and the F the size rule predicts for ``argv``, read off its
    refusals with each budget set below any size in turn."""
    sizes = []
    for budget, other in (("OUTPUT_BUDGET", "LAYOUT_BUDGET"), ("LAYOUT_BUDGET", "OUTPUT_BUDGET")):
        with monkeypatch.context() as patch:
            patch.setattr(ringcache.placement, budget, -1)
            patch.setattr(ringcache.placement, other, 10**30)
            code, out, err = run_cli(*argv)
        assert (code, out) == (1, "") and err.endswith(", over the budget of -1\n"), err
        sizes.append(int(err.split(": ")[-1].split()[0].removeprefix("F=")))
    return sizes


def test_the_predicted_sizes_are_the_logged_sizes_on_a_seeded_grid(monkeypatch):
    # K <= 10: the ring placement, the subset placement at L = 1, no shared
    # layer, span = K, and the band with --unchecked; the predicted F is the
    # log's F, and the predicted packets its total (F in the band) and the
    # dump's entries. Each command's layout, verify's in the counting regime
    # and man-check's without a shared layer included, is built by
    # placement.build as the placement the size rule sized, at the F it
    # predicted
    families = {name: [] for name in ("ring", "subset", "no shared layer", "span = K", "band")}
    for k in range(1, 11):
        for l in range(1, k + 1):
            for ga in range(k // l + 1):
                for gp in range(k - ga * l + 1):
                    params = params_from_gammas(k, l, ga, gp, k)
                    try:
                        analysis.achievable_rate(params)
                        name = ("no shared layer" if ga == 0 else "span = K" if ga * l == k
                                else "subset" if l == 1 else "ring")
                    except RegimeError:
                        name = "band"
                    families[name].append((k, l, ga, gp))
    rng = random.Random(24)
    checked, built = 0, Counter()
    for name, points in families.items():
        for k, l, ga, gp in rng.sample(points, 6):
            system = ("-K", str(k), "-L", str(l), "--ma", str(ga), "--mp", str(gp), "-N", str(k))
            extra = ("--unchecked",) * (name == "band")
            code, log, _ = run_cli("simulate", *system, *extra)
            total, f = (int(line.split("=")[1].split()[0]) for line in log.splitlines()[-4:-2])
            assert code == 0 and _predicted(monkeypatch, ("simulate", *system, *extra)) == [
                f if name == "band" else total, f
            ], (name, system)
            code, dump, _ = run_cli("layout-dump", *system)
            cells = json.loads(dump)
            entries = sum(len(c) for part in ("access", "private") for c in cells[part].values())
            assert code == 0 and _predicted(monkeypatch, ("layout-dump", *system)) == [
                entries, f
            ], (name, system)
            params = params_from_gammas(k, l, ga, gp, k)
            runs = [("simulate", params, f), ("layout-dump", params, f)]
            if ga and gp < ga * l < k - gp:
                argv = ("verify", "-K", str(k), "-L", str(l), "--ga", str(ga), "--gp", str(gp))
                runs.append(("verify", params, _predicted(monkeypatch, argv)[1]))
            if ga == 0:
                argv = ("man-check", "-K", str(k), "-t", str(gp))
                runs.append(("man-check", params_from_gammas(k, 1, 0, gp, k),
                             _predicted(monkeypatch, argv)[1]))
            for command, point, predicted in runs:
                layout = build(command, point)
                assert layout.placement == preflight(command, point), (command, name, system)
                assert layout.f == predicted, (command, name, system)
                built[command, layout.placement, point.l == 1] += 1
            checked += 1
    assert checked == 30
    # by (command, placement, L = 1): verify keeps the ring placement at
    # L = 1, and a point with no shared layer is built on the subset one
    assert set(built) == {
        (command, placement, l1)
        for command in ("simulate", "layout-dump")
        for placement, l1 in ((RING, False), (SUBSET, False), (SUBSET, True))
    } | {("verify", RING, False), ("verify", RING, True), ("man-check", SUBSET, True)}


def test_simulate_names_a_bad_demand_entry():
    # an empty --demands is parsed and refused, not taken as the worst case
    for demands, entry in (("1,x,2,3", "x"), ("", "")):
        code, out, err = run_cli(
            "simulate", "-K", "4", "-L", "2", "--ma", "1", "--mp", "0", "-N", "4",
            "--demands", demands,
        )
        assert (code, out) == (1, "")
        assert err == f"ringcache: --demands: entry {entry!r} is not an integer\n"


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    for target in (a, b):
        code, _, _ = run_cli(
            "simulate", "-K", "7", "-L", "2", "--ma", "1", "--mp", "1", "-N", "7",
            "-o", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "system,footer,digest",
    [
        # ring placement: 300 GENERAL, 70 SC1 and 15 SC2 transmissions
        (
            ("-K", "10", "-L", "3", "--ma", "1", "--mp", "2", "-N", "10"),
            "# total=385 general=300 sc1=70 sc2=15",
            "bf7d994aafae8761c8f554974cc835cc7a6b60a1bcf63646a53e2fda7da9d9d0",
        ),
        # subset placement at L = 1: 224 SC1 transmissions
        (
            ("-K", "8", "-L", "1", "--ma", "3", "--mp", "1", "-N", "8"),
            "# total=224 general=0 sc1=224 sc2=0",
            "ac9f05603965247d9253a8e7f4567be8c2d09e7adea1b603db36a50d0aea17c6",
        ),
        # the largest instance of the simulate benchmark ladder
        (
            ("-K", "16", "-L", "2", "--ma", "2", "--mp", "3", "-N", "16"),
            "# total=10984 general=7680 sc1=3248 sc2=56",
            "6db2c76e65430b80979e6a281885812dca5899c127c8caad831866c8bb02dded",
        ),
        # no shared layer: the dedicated-cache scheme at t = 4
        (
            ("-K", "16", "-L", "1", "--ma", "0", "--mp", "4", "-N", "16"),
            "# total=4368 general=0 sc1=4368 sc2=0",
            "2daa295384704e9742f6d9116259bdb561fe3babbaf446031ae23f42de48a494",
        ),
        # the two L = 3 instances of the simulate benchmark ladder
        (
            ("-K", "18", "-L", "3", "--ma", "1", "--mp", "2", "-N", "18"),
            "# total=9261 general=4212 sc1=4950 sc2=99",
            "a7ed26bfb428127578bc69d59b0a88f45f598d29a3800dd064f3ec956aaac177",
        ),
        (
            ("-K", "14", "-L", "3", "--ma", "1", "--mp", "2", "-N", "14"),
            "# total=2639 general=1512 sc1=1078 sc2=49",
            "b82e6b43750cd2c31fc8115a0f3359fbb6f5175046160d3693ac8ee8c43224e7",
        ),
        # span + gamma_p = K - 1: every union is the whole ring, 3 GENERAL packets
        (
            ("-K", "6", "-L", "3", "--ma", "1", "--mp", "2", "-N", "6"),
            "# total=3 general=3 sc1=0 sc2=0",
            "2574d679301dfb15fce064a336da373f1b635f64d510fc7301cc498da422f7cb",
        ),
        # span = K: every user reads every pair, and nothing is sent
        (
            ("-K", "5", "-L", "5", "--ma", "1", "--mp", "0", "-N", "5"),
            "# total=0 general=0 sc1=0 sc2=0",
            "d5de48fa3f0f45103386c57d6d0080e029a80e7d2faea6220162ae052deb4624",
        ),
    ],
)
def test_simulate_larger_logs_are_pinned(system, footer, digest):
    # whole worst-case logs, byte for byte, beyond the hand-checked K = 5, 7
    code, out, _ = run_cli("simulate", *system, "--worst-case")
    assert code == 0
    assert footer in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "system,digest",
    [
        # ring placement, N = 2K
        (
            ("-K", "10", "-L", "3", "--ma", "2", "--mp", "4", "-N", "20"),
            "ed1d9d7777c76762229736f95ed2ca60e25a310c68d23e5a24f4b7aa1e7110c1",
        ),
        # subset placement at L = 1, N = 2K
        (
            ("-K", "8", "-L", "1", "--ma", "6", "--mp", "2", "-N", "16"),
            "f2d5af866c14c7546adabebde740a45cdf5cbf2454cb7d0e36e06db84590a5f4",
        ),
        # no shared layer, N = 2K
        (
            ("-K", "7", "-L", "2", "--ma", "0", "--mp", "4", "-N", "14"),
            "b0bfcfc55145389877dc51aa4f827c9095ef4f0f56a0fa6f4e375887ec39c65c",
        ),
        # span = K, N = 2K: K equal whole-ring windows, each cache holding two
        (
            ("-K", "4", "-L", "2", "--ma", "2", "--mp", "0", "-N", "8"),
            "dbe9d878cc5647dc4343949ced120b48652522da9f2d815430bb5c63ab2a34c3",
        ),
        # the benchmark's five layout-dump systems, N = 4K
        (
            ("-K", "8", "-L", "2", "--ma", "4", "--mp", "4", "-N", "32"),
            "0f04d3cb65f7e350524a574d454e536fd31fde57cd5587e7e920eb916199ab3e",
        ),
        (
            ("-K", "10", "-L", "3", "--ma", "4", "--mp", "8", "-N", "40"),
            "f23633a3ec8dba3c5044c704795634b84fa0ab78994447a45b3536b78eaa4c89",
        ),
        (
            ("-K", "12", "-L", "2", "--ma", "8", "--mp", "8", "-N", "48"),
            "e34ca9b540dd785a25bba68df543c4c8ac2acb7517d913860e8d845a320a9380",
        ),
        (
            ("-K", "16", "-L", "2", "--ma", "8", "--mp", "8", "-N", "64"),
            "36e20826a67e3971ffd82307a8f51464c01aa1e9d15d6a92dcadbbfd5ad491e4",
        ),
        (
            ("-K", "14", "-L", "2", "--ma", "8", "--mp", "12", "-N", "56"),
            "dbad3bdd4defd3ce5b839af9c88388c0be47af98f5c5dca2e918234bb4e9e703",
        ),
        # N = 2,100 > DUMP_CHUNK_FILES: each cache in three chunks, on the
        # subset placement (12.9 MB) and the ring placement (11.1 MB)
        (
            ("-K", "9", "-L", "1", "--ma", "4200/9", "--mp", "2100/9", "-N", "2100"),
            "add9487b2090636b7347f335316f67962bc4cdfb9745d91c4be12c189313009e",
        ),
        (
            ("-K", "8", "-L", "2", "--ma", "525/2", "--mp", "525", "-N", "2100"),
            "3519396c986f128c1e5e5a75504c0fc700eecfd819acabdc703bc90bff3de925",
        ),
    ],
)
def test_layout_dumps_are_pinned(system, digest):
    # whole multi-file dumps, byte for byte: every file's entries, file-major
    code, out, _ = run_cli("layout-dump", *system)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SWEEP_MIXED = ("sweep", "-K", "8", "-L", "1", "-N", "8", "--ma", "0,1,2,17/2", "--mp-range", "0:9:1/2")


def test_sweep_csv_is_pinned():
    # in-regime, out-of-regime and invalid-parameter rows in one CSV
    code, out, _ = run_cli(*SWEEP_MIXED)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f731f9304d51543f72cdb3836ab60551b470dcfc59e641d660d431550aa5bd49"
    )


# sha256 of `sweep -K 40 -L l -N 40 --ma m --mp-range 0:20:1/2`, the largest
# columns of the rate-sweep benchmark, taken before its cut-set lines were pruned
RATE_SWEEP_PINS = {
    (1, "0"): "0d43f13e672e93e6f148fd65522293d3e0b028d5d9dc9a4d10f5f53e210954ca",
    (1, "1/2"): "5ed4d9c67b3ca11620b891b274a9889bcec295c272fc83fea6211d53cfdac681",
    (1, "13/2"): "1c98518c8cdce2f03655c92a2e90574022c35819282f5c8c852096fea7ff7454",
    (1, "20"): "0cbb7361650e526eecd1c58031ae77a010225451b91dc7dda41897ba66149aae",
    (2, "0"): "63ffc8443936c77057706fe062429614c8e2c8cfeb2ec09dde4d08dba43ea661",
    (2, "1/2"): "0900cb3ca073b02b082e014c5f334a18921d926cb4288ca465feb9cf552c1b6a",
    (2, "13/2"): "bb6288d2c25f9cd51fcc5e2104925443b29f6e34fad3fbccaea5ed04f9330e75",
    (2, "20"): "55c20740f47e590bb533d34f50b87632d7959fd9ba96040b5f60e17d7588d2f8",
    (3, "0"): "eda819f4a2be3e80c02e3979c0dbf8144dbfc393bb5ff26773a8738dda320022",
    (3, "1/2"): "254a569b907d0a694a47594577a49eecce291f3188aa21fccf4efdcf5f4ac778",
    (3, "13/2"): "138d3e7c5be62d21dc404806ff42d59bf3696086e93cab9c7602ed49cf10da55",
    (3, "20"): "c996dba92c955c4bb621ae6e6413436abdf73b96614591592c35bf3e6c66be6b",
}


@pytest.mark.parametrize("l,ma", sorted(RATE_SWEEP_PINS))
def test_rate_sweep_columns_are_pinned(l, ma):
    code, out, _ = run_cli(
        "sweep", "-K", "40", "-L", str(l), "-N", "40", "--ma", ma, "--mp-range", "0:20:1/2"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RATE_SWEEP_PINS[l, ma]


def test_sweep_bound_cells_are_the_bound_over_every_line():
    # seeded grid: K 1-64, L in {1, K, random}, N = K and N up to 3K + 5,
    # Ma in {0, N, fractional}, Mp in {0, N} and a stepped range whose start
    # and step have denominators up to 10^6; every bound of analysis.sweep is
    # the largest of all K cut-set lines, as is cutset_bound at that point
    rng = random.Random(31)
    rows = positive = 0
    for k in range(1, 65):
        for l in sorted({1, k, rng.randint(1, k)}):
            for n in (k, rng.randint(k, 3 * k + 5)):
                den = rng.randint(1, 10**6)
                mas = [Fraction(0), Fraction(n), Fraction(rng.randint(0, n * den // 4), den)]
                b, d = rng.randint(1, 10**6), rng.randint(1, 10**6)
                start = Fraction(rng.randint(0, n * b // 8), b)
                step = Fraction(rng.randint(d, 2 * d), d) * n / 5
                for first, by in ((Fraction(0), Fraction(n)), (start, step)):
                    mps = [first + i * by for i in range((n - first) // by + 1)]
                    points = analysis.sweep(k, l, n, mas, [mp.as_integer_ratio() for mp in mps])
                    for (ma, mp), point in zip(itertools.product(mas, mps), points):
                        params = SystemParams(k, l, ma, mp, n)
                        bound = analysis.cutset_bound(params)
                        assert bound == cutset_bound_reference(params), params
                        if point[3] is not None:
                            assert Fraction(*point[3]) == bound, params
                            rows += 1
                            positive += bound > 0
    assert rows > 5000 and positive > 1500, (rows, positive)


def test_sweep_csv_and_json_carry_the_same_rows():
    code, out, _ = run_cli(*SWEEP_MIXED)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    code, out, _ = run_cli(*SWEEP_MIXED, "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records == [dict(zip(header, row)) for row in rows]
    notes = {r["note"] for r in records}
    assert "private-cache size mp=9 outside [0, N=8]" in notes  # bare, no CSV quotes
    assert any(n.startswith("rate uncharacterized") for n in notes)
    assert "" in notes


def test_sweep_json_is_pinned():
    # N != K, fractional Ma: computed rows (true and false), memory-sharing
    # corner rejections and the bound columns
    code, out, _ = run_cli(
        "sweep", "-K", "9", "-L", "2", "-N", "13", "--ma", "0,5/3,7/2,13/2",
        "--mp-range", "0:13:1/3", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7e3af833f21ac2a658f896ceb7762df46e198a99f7711c7f6b4d5c09de94b265"
    )


def _sweep_case(rng, i):
    """One seeded sweep: (K, L, N, Ma list, start, step, points)."""
    k = rng.randint(1, 64)
    l = rng.randint(1, k)
    n = k if i % 5 == 0 else rng.randint(k, 3 * k + 5)  # N = K: integral gammas
    bad = i % 10  # a tenth of the sweeps each: K, L, N or an Ma out of range
    if bad == 1:
        k = rng.choice((0, -1, 65, 70))
    elif bad == 2:
        l = rng.choice((0, k + 1))
    elif bad == 3:
        n = rng.randint(0, k - 1)
    ma_list = []
    for _ in range(rng.randint(1, 3)):
        den = rng.choice((1, 1, 2, 3, 7))
        ma_list.append(Fraction(rng.randint(0, den * max(n, 1) // rng.randint(1, 4)), den))
    if bad == 4:
        ma_list.append(rng.choice((Fraction(-1, 2), Fraction(n + 1))))
    den = rng.choice((1, 2, 3, 5))
    step = Fraction(rng.randint(1, 3 * den), den) * rng.choice((1, Fraction(1, 7)))
    start = Fraction(rng.randint(0, max(n, 1) * den), den) if i % 3 else Fraction(0)
    if bad == 5:
        start = -step * rng.randint(1, 3)  # negative Mp first
    points = rng.randint(0 if i % 50 == 0 else 1, 8)
    if bad == 6:
        start = n - step * (points // 2)  # running past N
    return k, l, n, ma_list, start, step, points


def test_sweep_matches_the_per_row_reference():
    # 320 seeded sweeps, K <= 64, every L, K <= N <= 3K+5, fractional Ma and
    # step, a K, L, N or Ma out of range, Mp below 0 and above N: every CSV
    # and JSON text equals the per-row path
    rng = random.Random(17)
    seen = set()
    for i in range(320):
        k, l, n, ma_list, start, step, points = _sweep_case(rng, i)
        stop = start + step * (points - 1) + step / 2 if points else start - 1
        argv = ["sweep", "-K", str(k), "-L", str(l), "-N", str(n),
                f"--ma={','.join(map(str, ma_list))}", f"--mp-range={start}:{stop}:{step}"]
        for fmt in ("json", "csv"):
            expected = sweep_reference(k, l, n, ma_list, start, step, points, fmt)
            assert run_cli(*argv, "--format", fmt) == (0, expected, ""), argv
        for row in csv.DictReader(io.StringIO(expected)):
            seen.add(row["note"].split(" ")[0] or "computed")
    assert {"computed", "need", "K=65", "K=70", "access", "library", "shared-cache",
            "private-cache", "rate", "memory-sharing"} <= seen, seen


def test_rate_matches_a_one_point_sweep():
    # 1,200 seeded points, K from 1 to 20 plus K = 0 and K = 65, every L and
    # some outside [1, K], N in {K-1, K, K+1, 2K+1}, integral, fractional
    # and negative sizes, and integral band points: rate's three lines are
    # the row's cells, and a refused point is the row's note on stderr
    rng = random.Random(21)
    points = [(12, 2, 12, Fraction(1), Fraction(3)), (9, 2, 9, Fraction(2), Fraction(4))]
    for i in range(1200):
        k = {0: 0, 1: 65}.get(i % 50, rng.randint(1, 20))
        l = rng.randint(0, k + 1)
        n = rng.choice((k - 1, k, k + 1, 2 * k + 1))
        den_a, den_p = rng.choice((1, 1, 2, 3)), rng.choice((1, 1, 2, 5))
        ma = Fraction(rng.randint(0, (n + 1) * den_a), den_a)
        mp = Fraction(rng.randint(-1, (n + 1) * den_p), den_p)
        points.append((k, l, n, ma, mp))

    def shown(row, key):  # the row's cells as rate prints that value
        num, den = row[f"{key}_num"], row[f"{key}_den"]
        return f"{num if den == '1' else f'{num}/{den}'} ({row[key]})"

    seen, computed = set(), 0
    for k, l, n, ma, mp in points:
        system = ("-K", str(k), "-L", str(l), f"--ma={ma}", "-N", str(n))
        code, out, err = run_cli("sweep", *system, f"--mp-range={mp}:{mp}")
        assert (code, err) == (0, ""), system
        [row] = csv.DictReader(io.StringIO(out))
        seen.add(row["note"].split(" ")[0] or "computed")
        got = run_cli("rate", *system, f"--mp={mp}")
        if row["note"]:
            assert got == (1, "", f"ringcache: {row['note']}\n"), (system, mp)
            continue
        optimal = {"true": "yes", "false": "no"}[row["optimal"]]
        assert got[0] == 0 and got[1].splitlines()[:3] == [
            f"rate  = {shown(row, 'rate')}", f"bound = {shown(row, 'bound')}",
            f"optimal = {optimal}",
        ], (system, mp)
        computed += 1
    assert computed >= 500, computed
    assert {"computed", "need", "K=65", "access", "library", "shared-cache",
            "private-cache", "rate", "memory-sharing"} <= seen, seen


def test_sweep_optimal_is_the_rate_meeting_the_bound():
    # 240 seeded sweeps: at every computed point of analysis.sweep, the rate
    # meets the bound (one cross-multiplication, as the optimal cell reads
    # it) exactly where the Fraction references' rate equals their bound, at
    # zero memory, at fractional replication and with N > K alike
    rng = random.Random(22)
    seen = set()
    for i in range(240):
        k, l, n, ma_list, start, step, points = _sweep_case(rng, i)
        mps = [start + j * step for j in range(points)]
        got = analysis.sweep(k, l, n, ma_list, [mp.as_integer_ratio() for mp in mps])
        for (ma, mp), (gamma_a, gamma_p, rate, bound, _, note) in zip(
            itertools.product(ma_list, mps), got
        ):
            if note:
                continue
            params = SystemParams(k, l, ma, mp, n)
            optimal = rate[0] * bound[1] == bound[0] * rate[1]
            expected = memory_share_reference(params).rate == cutset_bound_reference(params)
            assert optimal is expected, params
            seen.add(("false", "true")[optimal])
            if ma == mp == 0:
                seen.add("zero memory")
            if gamma_a[1] * gamma_p[1] > 1:
                seen.add("fractional")
            if n > k:
                seen.add("N > K")
    assert seen == {"true", "false", "zero memory", "fractional", "N > K"}, seen


def test_rate_json_lists_the_memory_share_corners():
    # 400 seeded points, K <= 12, N in {K, 2K+1}, fractional sizes: rate
    # --json's memory_sharing list is memory_share's points, rendered, and
    # the rate memory_share's rate; a refused point is its message
    rng = random.Random(30)
    listed = refused = 0
    for _ in range(400):
        k = rng.randint(2, 12)
        l = rng.randint(1, k)
        n = rng.choice((k, 2 * k + 1))
        den_a, den_p = rng.choice((1, 2, 3)), rng.choice((2, 3, 5))
        ma = Fraction(rng.randint(0, n * den_a), den_a)
        mp = Fraction(rng.randint(0, n * den_p), den_p)
        got = run_cli("rate", "-K", str(k), "-L", str(l), f"--ma={ma}", f"--mp={mp}",
                      "-N", str(n), "--json")
        try:
            share = analysis.memory_share(SystemParams(k, l, ma, mp, n))
        except RegimeError as exc:
            assert got == (1, "", f"ringcache: {exc}\n")
            refused += 1
            continue
        assert got[::2] == (0, "")
        payload = json.loads(got[1])
        assert payload["rate"] == f"{share.rate.numerator}/{share.rate.denominator}"
        if len(share.points) == 1:
            assert "memory_sharing" not in payload
            continue
        assert payload["memory_sharing"] == [
            {"gamma_a": pt.gamma_a, "gamma_p": pt.gamma_p, "weight": str(pt.weight),
             "rate": str(pt.rate)}
            for pt in share.points
        ]
        listed += 1
    assert listed >= 250 and refused >= 10, (listed, refused)


def test_cli_imports_no_private_name_from_analysis():
    # cli renders what analysis computes; it reaches no kernel internals
    tree = ast.parse((SRC / "ringcache" / "cli.py").read_text(encoding="utf-8"))
    names = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "analysis"
        for alias in node.names
    ]
    assert "sweep" in names
    assert [name for name in names if name.startswith("_")] == []


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--ma", "1/0", "--mp-range", "0:1"), "ringcache: --ma: '1/0' has a zero denominator\n"),
        (
            ("--ma", "1", "--mp-range", "0:1:1/0"),
            "ringcache: --mp-range: '1/0' has a zero denominator\n",
        ),
    ],
)
def test_sweep_rejects_a_zero_denominator(flags, message):
    code, out, err = run_cli("sweep", "-K", "5", "-L", "2", "-N", "5", *flags)
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--ma", "abc", "--mp-range", "0:1"), "ringcache: --ma: 'abc' is not a rational number\n"),
        (("--ma", "1,", "--mp-range", "0:1"), "ringcache: --ma: '' is not a rational number\n"),
        (("--ma", "1", "--mp-range", "0"), "ringcache: --mp-range: '0' is not start:stop[:step]\n"),
        (
            ("--ma", "1", "--mp-range", "0:x"),
            "ringcache: --mp-range: 'x' is not a rational number\n",
        ),
        (
            ("--ma", "1", "--mp-range", "0:2:-1/2"),
            "ringcache: --mp-range: step '-1/2' is not positive\n",
        ),
        # counted from start, stop and step: the 10^9 points are never built
        (
            ("--ma", "1", "--mp-range", "0:1000000:1/1000"),
            "ringcache: --mp-range: 1 Ma x 1000000001 Mp values make 1000000001 rows,"
            " over the budget of 50000\n",
        ),
    ],
)
def test_sweep_names_the_flag_of_a_malformed_value(flags, message):
    code, out, err = run_cli("sweep", "-K", "5", "-L", "2", "-N", "5", *flags)
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("command", ["rate", "simulate", "layout-dump"])
@pytest.mark.parametrize(
    "sizes,message",
    [
        (("--ma", "1/0", "--mp", "0"), "ringcache: --ma: '1/0' has a zero denominator\n"),
        (("--ma", "1", "--mp", "abc"), "ringcache: --mp: 'abc' is not a rational number\n"),
    ],
)
def test_every_command_reads_a_malformed_size_as_sweep_does(command, sizes, message):
    code, out, err = run_cli(command, "-K", "8", "-L", "2", *sizes, "-N", "8")
    assert (code, out, err) == (1, "", message)


_LONG = "1" * 501


@pytest.mark.parametrize(
    "argv,flag,text",
    [
        (("rate", "--ma", "1e20000000", "--mp", "1"), "--ma", "1e20000000"),
        (("rate", "--ma", "1", "--mp", "1e-5000"), "--mp", "1e-5000"),
        (("simulate", "--ma", "1e-5000", "--mp", "1"), "--ma", "1e-5000"),
        (("simulate", "--ma", "1", "--mp", _LONG), "--mp", _LONG),
        (("layout-dump", "--ma", "1E+9_999_999", "--mp", "1"), "--ma", "1E+9_999_999"),
        (("layout-dump", "--ma", "1", "--mp", f"1/{_LONG}"), "--mp", f"1/{_LONG}"),
        (("sweep", "--ma", "1e-5000", "--mp-range", "0:1"), "--ma", "1e-5000"),
        (("sweep", "--ma", "1,1e20000000", "--mp-range", "0:1"), "--ma", "1e20000000"),
        (("sweep", "--ma", "1", "--mp-range", "1e-5000:1"), "--mp-range", "1e-5000"),
        (("sweep", "--ma", "1", "--mp-range", "0:1e20000000"), "--mp-range", "1e20000000"),
        (("sweep", "--ma", "1", "--mp-range", "0:1:1e-5000"), "--mp-range", "1e-5000"),
    ],
)
def test_a_memory_size_too_long_to_read_is_refused_at_once(argv, flag, text):
    # Fraction would build 10**20000000 for the first, for minutes; the
    # second used to fail printing a 5,000-digit number, a sweep after its
    # header
    start = time.perf_counter()
    got = run_cli(*argv, "-K", "5", "-L", "2", "-N", "5")
    assert time.perf_counter() - start < 1
    message = f"{flag}: {text!r} has over 500 digits or an exponent over 500"
    assert got == (1, "", f"ringcache: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("rate", "--ma", "1/7", "--mp", "1"),
        ("simulate", "--ma", "1", "--mp", "1"),
        ("layout-dump", "--ma", "1", "--mp", "1"),
        ("sweep", "--ma", "1/7", "--mp-range", "0:1"),
    ],
)
@pytest.mark.parametrize("digits", [501, 3_000, 5_000])
def test_an_overlong_library_size_is_refused_before_any_output(argv, digits):
    # 3,000 nines used to make a sweep write 18 kB of rows and then fail
    # printing a gamma_a of over 4,300 digits; 5,000 failed in argparse,
    # echoing the number; the refusal names the digit count instead
    got = run_cli(*argv, "-K", "5", "-L", "2", "-N", "9" * digits)
    assert got == (1, "", f"ringcache: -N: {digits} digits, over the limit of 500\n")


@pytest.mark.parametrize("command", ["rate", "simulate", "layout-dump", "sweep"])
def test_a_malformed_library_size_is_named(command):
    sizes = ("--mp-range", "0:1") if command == "sweep" else ("--mp", "1")
    got = run_cli(command, "-K", "5", "-L", "2", "--ma", "1", *sizes, "-N", "5.0")
    assert got == (1, "", "ringcache: -N: '5.0' is not an integer\n")


# an otherwise good command line of each command, and its integer flags but -N
INTEGER_FLAG_COMMANDS = {
    "rate": (("rate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5"), ("-K", "-L")),
    "simulate": (("simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5"), ("-K", "-L")),
    "layout-dump": (("layout-dump", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5"),
                    ("-K", "-L")),
    "sweep": (("sweep", "-K", "5", "-L", "2", "-N", "5", "--ma", "1", "--mp-range", "0:1"), ("-K", "-L")),
    "verify": (("verify", "-K", "5", "-L", "2", "--ga", "1", "--gp", "0"), ("-K", "-L", "--ga", "--gp")),
    "verify-grid": (("verify", "--kmin", "4", "--kmax", "5"), ("--kmin", "--kmax")),
    "man-check": (("man-check", "-K", "5", "-t", "2"), ("-K", "-t")),
}


def _with_flag(argv, flag, value):
    at = argv.index(flag) + 1
    return argv[:at] + (value,) + argv[at + 1 :]


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command, (_, flags) in INTEGER_FLAG_COMMANDS.items() for flag in flags],
)
@pytest.mark.parametrize("digits", [501, 3_000, 5_000])
def test_an_overlong_integer_flag_is_refused_before_any_output(command, flag, digits):
    # 5,000 nines used to fail in argparse, echoing the number, and a
    # 3,000-digit -L made a sweep write it twice into every row
    argv, _ = INTEGER_FLAG_COMMANDS[command]
    assert run_cli(*argv)[0] == 0
    got = run_cli(*_with_flag(argv, flag, "9" * digits))
    assert got == (1, "", f"ringcache: {flag}: {digits} digits, over the limit of 500\n")


@pytest.mark.parametrize("flag,value", [("--seed", "{}"), ("--demands", "{},1,2,3,4")])
@pytest.mark.parametrize("digits", [501, 3_000, 5_000])
def test_an_overlong_seed_or_demand_is_refused_before_any_output(flag, value, digits):
    # 5,000 nines of --seed used to fail in argparse, echoing the number,
    # and 3,000 nines of a --demands entry in the range check, echoing it
    # too; the refusal names the digit count instead
    system = ("simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5")
    code, out, err = run_cli(*system, flag, value.format("9" * digits))
    assert (code, out) == (1, "")
    assert err == f"ringcache: {flag}: {digits} digits, over the limit of 500\n"
    assert len(err.encode()) < 200


def test_a_malformed_seed_is_named():
    system = ("simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5")
    assert run_cli(*system, "--seed", "7.0") == (1, "", "ringcache: --seed: '7.0' is not an integer\n")


@pytest.mark.parametrize("flag", ["-K", "-L"])
def test_a_malformed_integer_flag_is_named(flag):
    argv, _ = INTEGER_FLAG_COMMANDS["rate"]
    got = run_cli(*_with_flag(argv, flag, "5.0"))
    assert got == (1, "", f"ringcache: {flag}: '5.0' is not an integer\n")


def test_an_integer_flag_at_the_digit_limit_is_read():
    # 500 digits are read, and the command refuses the value for its own reason
    nines = "9" * 500
    got = run_cli("man-check", "-K", "5", "-t", nines)
    assert got == (1, "", f"ringcache: -t: replication t={nines} outside [0, K=5]\n")


def test_memory_sizes_at_the_digit_limit_are_read_and_printed():
    # 500 digits with an exponent of 500: a denominator of 10^996, and a
    # sweep's Mp over the denominators of its start and step, at N = 64 and
    # at the 500-digit N = 10^500 - 1 that multiplies the gamma denominators;
    # every number printed stays under the 4,300 digits Python turns into text
    assert ringcache.cli.SIZE_DIGITS == 500
    rng = random.Random(5)
    ma, mp = (
        "0." + "".join(rng.choice("123456789") for _ in range(496)) + "e-500" for _ in range(2)
    )
    for n, shortest in (("64", 1_900), (str(10**500 - 1), 3_400)):
        for argv in (
            ("rate", "-K", "64", "-L", "3", "-N", n, "--ma", ma, "--mp", mp, "--json"),
            # three steps of 3^-1040 past a start of denominator 10^996
            ("sweep", "-K", "64", "-L", "3", "-N", n, "--ma", f"{ma},1",
             "--mp-range", f"{mp}:1/{3 ** 1039}:1/{3 ** 1040}"),
        ):
            code, out, err = run_cli(*argv)
            assert (code, err) == (0, ""), err[:200]
            longest = max(map(len, out.replace(",", " ").replace("/", " ").split()))
            assert 1_900 < longest < 4_300, longest
        assert longest > shortest, longest
    assert run_cli(*argv[:-3], "1" + ma, "--mp-range", "0:1")[:2] == (1, "")


def test_sweep_row_budget_counts_every_ma():
    budget = ringcache.cli.SWEEP_ROW_BUDGET
    base = ("sweep", "-K", "8", "-L", "2", "-N", "8")
    code, out, err = run_cli(*base, "--ma", "1,2", "--mp-range", f"1:{budget // 2}")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + budget
    code, out, err = run_cli(*base, "--ma", "1,2", "--mp-range", f"0:{budget // 2}")
    assert (code, out) == (1, "")
    assert f"make {budget + 2} rows" in err


def test_sweep_csv_shape_and_values():
    code, out, _ = run_cli(
        "sweep", "-K", "30", "-L", "3", "-N", "30", "--ma", "6", "--mp-range", "10:12"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("K,L,N,Ma,Mp,")
    assert len(lines) == 4
    row11 = lines[2].split(",")
    assert row11[4] == "11"
    assert row11[7:10] == ["1", "30", "0.033333"]
    assert row11[10:13] == ["1", "30", "0.033333"]
    assert row11[13] == "true"
    assert all(len(ln.split(",")) >= 15 for ln in lines[1:])


def test_sweep_fractional_and_skip_rows():
    code, out, _ = run_cli(
        "sweep", "-K", "8", "-L", "2", "-N", "8", "--ma", "1",
        "--mp-range", "1:3:1/2",
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 5  # 1, 3/2, 2, 5/2, 3
    noted = [ln for ln in lines if ln.rstrip().endswith('"')]
    assert noted, "out-of-regime rows carry a reason note"


def test_sweep_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run_cli(
            "sweep", "-K", "30", "-L", "3", "-N", "30", "--ma", "6,7,8,9",
            "--mp-range", "1:13", "-o", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_corner_rate_outlives_its_sweep(monkeypatch):
    # each sweep rates its corners afresh: once the closed form drifts from
    # the count law, the same sweep run again must see the divergence
    argv = ["sweep", "-K", "10", "-L", "3", "-N", "10", "--ma", "1,3/2", "--mp-range", "0:2:1/2"]
    assert run_cli(*argv)[0] == 0
    monkeypatch.setattr(analysis, "_closed_form", lambda k, w, gp: (1, 10**9))
    with pytest.raises(AssertionError, match="diverge"):
        run_cli(*argv)


def test_sweep_json_format():
    code, out, _ = run_cli(
        "sweep", "-K", "7", "-L", "2", "-N", "7", "--ma", "1", "--mp-range", "1:1",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["rate_num"] == "8" and rows[0]["rate_den"] == "5"


def test_verify_command_single_instance():
    code, out, _ = run_cli("verify", "-K", "7", "-L", "2", "--ga", "1", "--gp", "1")
    assert code == 0
    assert "PASS K=7 L=2 gamma_a=1 gamma_p=1 C=35 SC1=7 SC2=7 X=56" in out


def test_verify_command_grid():
    code, out, _ = run_cli("verify", "--kmin", "4", "--kmax", "6")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("instances agree")


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("--kmax", "12"), "9d08fd1458954ec4a523712c1c74d589080051d644137f3a34ab11d24d442516"),
        (("--kmax", "8", "--json"), "f46d517e15499e3a43aba145334fa9de1a986b3467ff382b6b3bc4a47d0789c7"),
    ],
)
def test_verify_grids_are_pinned(argv, digest):
    # whole grid reports, byte for byte: every instance's line and the tally
    code, out, err = run_cli("verify", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,message",
    [
        # instance flags without -K used to be dropped for the default grid
        (("--ga", "1", "--gp", "0"), "--ga describes one instance and needs -K"),
        (("--gp", "1"), "--gp describes one instance and needs -K"),
        (("-L", "3"), "-L describes one instance and needs -K"),
        # the counting regime refuses a point without a shared layer by its one rule
        (
            ("-K", "7", "--ga", "0", "--gp", "2"),
            "K=7 L=2 gamma_a=0 gamma_p=2 (span 0) is outside the counting regime"
            " 0 <= gamma_p < span < K - gamma_p",
        ),
        # an empty grid used to report "# 0/0 instances agree" and pass
        (
            ("--kmin", "9", "--kmax", "4"),
            "--kmin/--kmax: no counting-regime instance with 9 <= K <= 4",
        ),
        (
            ("--kmin", "1", "--kmax", "1"),
            "--kmin/--kmax: no counting-regime instance with 1 <= K <= 1",
        ),
        (("--kmin", "11"), "--kmin/--kmax: no counting-regime instance with 11 <= K <= 10"),
        # and -K used to drop the grid bounds
        (
            ("-K", "7", "--ga", "1", "--gp", "1", "--kmax", "4"),
            "--kmax bounds the grid run and does not apply with -K",
        ),
        # an instance without both replication factors
        (("-K", "7", "-L", "2", "--ga", "1"), "explicit instances need --ga and --gp"),
        # an empty grid past the budgets is still an empty grid
        (
            ("--kmin", "25", "--kmax", "22"),
            "--kmin/--kmax: no counting-regime instance with 25 <= K <= 22",
        ),
    ],
)
def test_verify_refuses_what_it_would_not_check(argv, message):
    code, out, err = run_cli("verify", *argv)
    assert (code, out, err) == (1, "", f"ringcache: {message}\n")


# the first instance over a budget at each K where a pinned refusal falls
REFUSED_AT = {
    26: "K=26 L=1 gamma_a=8 gamma_p=7: F=827424 mini-subfiles per file, over the budget of 750000",
    28: "K=28 L=2 gamma_a=4 gamma_p=6: 4529616 packets, over the budget of 4000000",
    30: "K=30 L=1 gamma_a=6 gamma_p=5: 6978255 packets, over the budget of 4000000",
}


@pytest.mark.parametrize(
    "argv,k",
    [
        (("--kmin", "25", "--kmax", "26"), 26),
        (("--kmin", "19", "--kmax", "26"), 26),
        (("-K", "28", "--ga", "4", "--gp", "6"), 28),
        # past the 64-user cap too: refused at the first K over a budget,
        # not by the cap once the grid is built
        (("--kmax", "100000"), 26),
        (("--kmin", "30", "--kmax", "70"), 30),
    ],
)
def test_verify_refuses_an_oversized_census_before_any_instance(monkeypatch, argv, k):
    # a grid that reaches past the budgets used to run every instance below
    # them (minutes at K = 22) and print their lines before refusing; each
    # K's grid is checked by the size rule before any instance runs, and no
    # grid is built past the first K with an instance over a budget
    built = []

    def no_instance(params):
        raise AssertionError(f"ran K={params.k} before refusing")

    def grid_by_k(kmin, kmax):
        built.append((kmin, kmax))
        return sweep_grid(kmin, kmax)

    # an instance that runs builds its census and layout after its own check
    monkeypatch.setattr(ringcache.verify, "enumerate_transmission_subsets", no_instance)
    monkeypatch.setattr(ringcache.placement, "build_layout", no_instance)
    monkeypatch.setattr(ringcache.placement, "build_subset_layout", no_instance)
    monkeypatch.setattr(ringcache.cli, "sweep_grid", grid_by_k)
    code, out, err = run_cli("verify", *argv)
    assert (code, out, err) == (1, "", f"ringcache: refusing verify at {REFUSED_AT[k]}\n")
    kmin = int(argv[argv.index("--kmin") + 1]) if "--kmin" in argv else 4
    assert built == ([] if "-K" in argv else [(j, j) for j in range(kmin, k + 1)])


def test_verify_library_size_zero_means_k():
    # verify takes no -N any more: nothing it prints involves N, so it builds N = K
    system = ("-K", "7", "-L", "2", "--ga", "1", "--gp", "1")
    for n in ("0", "7"):
        code, out, err = run_cli("verify", *system, "-N", n)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: unrecognized arguments: -N {n}\n")


def test_verify_refuses_a_whole_ring_point_by_the_counting_rule():
    # span + gamma_p = K - 1 has rate 1/K, but the census counts only below it
    system = ("-K", "7", "-L", "2")
    assert run_cli("verify", *system, "--ga", "1", "--gp", "4") == (
        1,
        "",
        "ringcache: K=7 L=2 gamma_a=1 gamma_p=4 (span 2) is outside the counting regime"
        " 0 <= gamma_p < span < K - gamma_p\n",
    )
    code, out, _ = run_cli("rate", *system, "--ma", "1", "--mp", "4", "-N", "7")
    assert code == 0 and out.startswith("rate  = 1/7 (0.142857)\n")


def test_man_check_command():
    code, out, _ = run_cli("man-check", "-K", "4", "-t", "2")
    assert code == 0
    assert "PASS" in out and "rate=2/3" in out


@pytest.mark.parametrize("flags", [("-K", "4", "-t", "9"), ("-K", "4", "-t", "-1")])
def test_man_check_refuses_t_outside_0_to_k(flags):
    # named against -t and in t, not as a private-cache size
    t = flags[3]
    assert run_cli("man-check", *flags) == (
        1, "", f"ringcache: -t: replication t={t} outside [0, K=4]\n"
    )


@pytest.mark.parametrize(
    "k,t,f,x",
    [
        (40, 20, 137846528820, 131282408400),
        (64, 32, 1832624140942590534, 1777090076065542336),
        (23, 11, 1352078, 1352078),
        (64, 4, 635376, 7624512),
    ],
)
def test_man_check_refuses_over_the_work_budget(monkeypatch, k, t, f, x):
    # X = C(K, t+1) packets over the output budget, or else F = C(K, t)
    # mini-subfiles over the layout budget, is refused before the layout is
    # built; C(40, 20) used to run until killed
    _only_built(monkeypatch)
    size = f"{x} packets, over the budget of 4000000" if x > 4_000_000 else (
        f"F={f} mini-subfiles per file, over the budget of 750000"
    )
    assert run_cli("man-check", "-K", str(k), "-t", str(t)) == (
        1, "", f"ringcache: refusing man-check at K={k} L=1 gamma_a=0 gamma_p={t}: {size}\n"
    )


def test_man_check_admits_the_largest_instance_under_the_budget(monkeypatch):
    # K = 22, t = 11: F = C(22, 11) = 705,432 under the layout budget
    _only_built(monkeypatch)
    with pytest.raises(_Built):
        run_cli("man-check", "-K", "22", "-t", "11")


def test_man_check_library_size_zero_means_k():
    # man-check takes no -N any more: neither F nor the rate involves N, so it builds N = K
    for n in ("0", "4"):
        code, out, err = run_cli("man-check", "-K", "4", "-t", "2", "-N", n)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: unrecognized arguments: -N {n}\n")


@pytest.mark.parametrize(
    "argv", [("verify", "-K", "0", "--ga", "0", "--gp", "0"), ("man-check", "-K", "0", "-t", "0")]
)
def test_no_users_is_refused(argv):
    # refused before the replication factors are divided by K
    assert run_cli(*argv) == (1, "", "ringcache: need at least one user, got K=0\n")


def test_a_closed_stdout_exits_quietly():
    # unbuffered, every verify line is written as it is made, so lines are
    # still due when the reader closes the pipe after the first
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "ringcache", "verify", "--kmax", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline().startswith(b"PASS K=4 ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("command", ["rate", "simulate", "layout-dump"])
def test_required_library_size_zero_is_refused(command):
    # -N is required here, so 0 is a library of no files, not "N = K"
    code, out, err = run_cli(command, "-K", "4", "-L", "2", "--ma", "1", "--mp", "1", "-N", "0")
    assert (code, out) == (1, "")
    assert err == "ringcache: library must cover distinct demands: N=0 < K=4\n"


SYSTEM_5 = ("-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5")


@pytest.mark.parametrize(
    "argv, target",
    [
        (("simulate", *SYSTEM_5), "."),
        (("layout-dump", *SYSTEM_5), "missing/dir/x.json"),
        (("sweep", "-K", "5", "-L", "2", "-N", "5", "--ma", "1", "--mp-range", "0:2"), "."),
    ],
)
def test_an_unwritable_output_path_is_a_validation_error(tmp_path, argv, target):
    # the work is done by then; a bad -o is reported like a bad flag, not a crash
    code, out, err = run_cli(*argv, "-o", str(tmp_path / target))
    assert (code, out) == (1, "")
    assert err.startswith("ringcache: -o: [Errno ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_sweep_library_size_zero_is_a_row_note():
    # sweep keeps an invalid point's row and gives the reason in `note`
    argv = ("-K", "4", "-L", "2", "-N", "0", "--ma", "1", "--mp-range", "0:1")
    code, out, err = run_cli("sweep", *argv)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["N"], row["Mp"]) for row in rows] == [("0", "0"), ("0", "1")]
    assert {row["note"] for row in rows} == {"library must cover distinct demands: N=0 < K=4"}
    assert {row["rate"] for row in rows} == {""}


def test_layout_dump(tmp_path):
    target = tmp_path / "layout.json"
    code, _, _ = run_cli(
        "layout-dump", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5",
        "-o", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["F"] == 15
    assert payload["access"]["1"] == [f"{n}:1,5" for n in range(1, 6)]
    assert payload["private"]["1"][0] == "1:2,3:1"


def test_simulate_decodability_failure_exit():
    # an out-of-range regime forces a validation error, not a crash
    code, _, err = run_cli(
        "simulate", "-K", "8", "-L", "2", "--ma", "1", "--mp", "3", "-N", "8"
    )
    assert code == 1
    assert "uncharacterized" in err
    assert "--unchecked" in err


@pytest.mark.parametrize(
    "system,dropped,miss",
    [
        # the first EX5 packet: GENERAL d1:2,3:4 ^ d2:3,4:1 ^ d4:1,2:3
        ((5, 2, 1, 1), 0, "#   user 1 misses S=2,3 T=4: never transmitted"),
        # EX7: an SC2 packet at user 1, and one sent at user 3 by rotation
        ((7, 2, 1, 1), 7, "#   user 3 misses S=1,7 T=4: never transmitted"),
        ((7, 2, 1, 1), 44, "#   user 7 misses S=3,4 T=6: never transmitted"),
        # subset placement at L = 1
        ((6, 1, 2, 1), 17, None),
    ],
)
def test_simulate_reports_a_dropped_packet(monkeypatch, system, dropped, miss):
    # simulate reports what verify_decodability finds in the stream without that packet
    k, l, ma, mp = system

    def deliver_without_one(layout):
        return PacketStream(packet for index, packet in enumerate(deliver(layout)) if index != dropped)

    monkeypatch.setattr(ringcache.cli, "deliver", deliver_without_one)
    argv = ("-K", str(k), "-L", str(l), "--ma", str(ma), "--mp", str(mp), "-N", str(k))
    code, out, _ = run_cli("simulate", *argv)
    assert code == 2
    params = SystemParams(k=k, l=l, ma=ma, mp=mp, n=k)
    layout = build_subset_layout(params) if l == 1 else build_layout(params)
    demand = tuple(range(1, k + 1))
    crippled = drop_transmission(materialize(layout, demand), dropped)
    report = verify_decodability(layout, crippled.packets())
    assert not report.ok
    lines = out.splitlines()
    start = lines.index(f"# decodability FAIL for users {report.failing_users()}")
    assert lines[start:] == format_report(report).splitlines()
    assert f"# total={crippled.total} " in out
    users = {f"#   user {f.user} misses" for f in report.failures}
    assert {ln.split(" S=")[0] for ln in lines[start + 1 :]} == users
    if miss is not None:
        assert miss in lines


def test_simulate_l1_reports_the_rate_command_rate():
    # at L = 1 simulate runs the subset placement, whose rate `rate` reports
    system = ("-K", "5", "-L", "1", "--ma", "2", "--mp", "0", "-N", "5")
    code, out, _ = run_cli("simulate", *system)
    assert code == 0
    lines = out.splitlines()
    assert "# total=10 general=0 sc1=10 sc2=0" in lines
    assert "# F=10 rate=1/1" in lines
    assert "# decodability PASS (30 mini-subfiles)" in lines
    code, out, _ = run_cli("rate", *system)
    assert code == 0
    assert "rate  = 1 (1.000000)" in out


def test_layout_dump_file_is_stdout(tmp_path):
    system = ("-K", "8", "-L", "2", "--ma", "4", "--mp", "6", "-N", "16")  # gamma_a=2, gamma_p=3
    code, out, _ = run_cli("layout-dump", *system)
    assert code == 0 and out.endswith("\n  }\n}\n")
    target = tmp_path / "layout.json"
    code, printed, _ = run_cli("layout-dump", *system, "-o", str(target))
    assert (code, printed) == (0, "")
    assert target.read_bytes() == out.encode()


def test_layout_dump_l1_subset_placement():
    code, out, _ = run_cli(
        "layout-dump", "-K", "5", "-L", "1", "--ma", "2", "--mp", "1", "-N", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["F"] == 30  # C(5, 2) * C(3, 1)
    assert payload["access"]["1"][:4] == ["1:1,2", "1:1,3", "1:1,4", "1:1,5"]
    assert payload["private"]["1"][:3] == ["1:2,3:1", "1:2,4:1", "1:2,5:1"]


# ---------------------------------------------------------------------------
# one parser per process: back-to-back in-process calls share no state
# ---------------------------------------------------------------------------

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_unchecked_does_not_carry_over():
    system = ("simulate", "-K", "8", "-L", "2", "--ma", "1", "--mp", "3", "-N", "8")
    code, _, _ = run_cli(*system, "--unchecked")
    assert code in (0, 2)  # it runs; whether it decodes is not the point here
    code, out, err = run_cli(*system)
    assert (code, out) == (1, "")
    assert "--unchecked" in err


def test_usage_error_then_command_matches_fresh_processes():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    commands = [
        ("rate", "-K", "5"),
        ("rate", "-K", "7", "-L", "2", "--ma", "1", "--mp", "1", "-N", "7"),
    ]
    for argv in commands:
        fresh = subprocess.run(
            [sys.executable, "-m", "ringcache", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run_cli(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


# ---------------------------------------------------------------------------
# argv parsed once: by the command's own parser, or by the whole parser
# ---------------------------------------------------------------------------

_SWEEP = ("sweep", "-K", "4", "-L", "2", "-N", "4", "--ma", "1", "--mp-range", "0:1")
_SIMULATE = ("simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5")

# every command, the argv the whole parser takes alone, help, abbreviations,
# leftovers and each kind of error a command's own parser raises
PARSE_CORPUS = [
    ("rate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5"),
    _SIMULATE,
    _SWEEP,
    ("verify", "-K", "5", "--ga", "1", "--gp", "0"),
    ("man-check", "-K", "4", "-t", "2"),
    ("layout-dump", "-K", "4", "-L", "2", "--ma", "1", "--mp", "1", "-N", "4"),
    (),
    ("-h",),
    ("--he",),
    ("-h", "sweep"),
    ("bogus",),
    ("swe",),
    ("sweep", "-h"),
    ("sweep", "--he"),
    ("rate", "-K", "5", "-L", "2", "--ma=1", "--mp", "1", "-N", "5"),
    ("sweep", "-K4", "-L", "2", "-N", "4", "--ma", "1", "--mp-range", "0:1"),
    ("sweep", "-K", "4", "-L", "2", "-N", "4", "--ma", "1", "--mp-r", "0:1"),
    ("sweep", "-K", "4", "-L", "2", "-N", "4", "--m", "1", "--mp-range", "0:1"),
    _SWEEP + ("--bogus",),
    _SWEEP + ("extra",),
    _SWEEP + ("--", "x"),
    _SWEEP + ("--format", "xml"),
    _SWEEP[:-2],
    ("sweep", "-K", "9") + _SWEEP[1:],
    _SIMULATE + ("--seed", "1", "--worst-case"),
]


def _main_parsed_by(monkeypatch, parse, argv):
    """``main(argv)`` with argv parsed by ``parse``: the exit code, stdout and
    stderr, and the fields of each namespace parsed, before main reads them."""
    parsed = []

    def recording(argv):
        args = parse(argv)
        parsed.append(dict(vars(args)))
        return args

    with monkeypatch.context() as patch:
        patch.setattr(ringcache.cli, "_parse", recording)
        return run_cli(*argv) + (parsed,)


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_parses_argv_as_the_whole_parser_does(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal's width
    got = _main_parsed_by(monkeypatch, ringcache.cli._parse, argv)
    assert got == _main_parsed_by(monkeypatch, whole_parse, argv)
    code, out, err, parsed = got
    # the run got past parsing, or argparse printed why it did not
    assert parsed or out.startswith("usage: ") or err.startswith("usage: ")


def test_a_command_with_no_leftover_is_parsed_by_its_own_parser_alone(monkeypatch):
    parser, commands = ringcache.cli._parsers()
    calls = Counter()

    def counting(name, parse):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return parse(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(parser, "parse_known_args", counting("whole", parser.parse_known_args))
    sweep = commands["sweep"]
    monkeypatch.setattr(sweep, "parse_known_args", counting("sweep", sweep.parse_known_args))
    assert run_cli(*_SWEEP)[0] == 0
    assert calls == {"sweep": 1}
    # a leftover goes back to the whole parser, which hands the arguments
    # to the command's parser once more before it names the leftover
    calls.clear()
    assert run_cli(*_SWEEP, "--bogus")[0] == 1
    assert calls == {"sweep": 2, "whole": 1}
