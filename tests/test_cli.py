"""Command-line surface: outputs, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import SRC
import ringcache.cli
from ringcache.cli import build_parser, dec6, main
from ringcache.delivery import deliver, format_report, plan_packets, verify_decodability
from ringcache.model import SystemParams
from ringcache.placement import build_layout, build_subset_layout
from fractions import Fraction

from helpers import drop_transmission


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


def test_simulate_rejects_bad_demand():
    code, _, err = run_cli(
        "simulate", "-K", "5", "-L", "2", "--ma", "1", "--mp", "1", "-N", "5",
        "--demands", "1,2,3",
    )
    assert code == 1


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
        "3d730c48e6c92ca768e10e8f0ce2a8662ebda1bce8cb6596f51b4356712539d5"
    )


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
        "2d02baf3d7cede7575e878da434942062191c010b4c112856ebce77d9d9bed15"
    )


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
    ],
)
def test_sweep_names_the_flag_of_a_malformed_value(flags, message):
    code, out, err = run_cli("sweep", "-K", "5", "-L", "2", "-N", "5", *flags)
    assert (code, out, err) == (1, "", message)


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


def test_man_check_command():
    code, out, _ = run_cli("man-check", "-K", "4", "-t", "2")
    assert code == 0
    assert "PASS" in out and "rate=2/3" in out


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
    # the streamed check is the one verify_decodability runs on whole results
    k, l, ma, mp = system

    def plan_without_one(layout, **kwargs):
        for index, packet in enumerate(plan_packets(layout, **kwargs)):
            if index != dropped:
                yield packet

    monkeypatch.setattr(ringcache.cli, "plan_packets", plan_without_one)
    argv = ("-K", str(k), "-L", str(l), "--ma", str(ma), "--mp", str(mp), "-N", str(k))
    code, out, _ = run_cli("simulate", *argv)
    assert code == 2
    params = SystemParams(k=k, l=l, ma=ma, mp=mp, n=k)
    layout = build_subset_layout(params) if l == 1 else build_layout(params)
    demand = tuple(range(1, k + 1))
    crippled = drop_transmission(deliver(layout, demand), dropped)
    report = verify_decodability(layout, demand, crippled.transmissions)
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


def test_no_bound_does_not_carry_over():
    sweep = ("sweep", "-K", "7", "-L", "2", "-N", "7", "--ma", "1", "--mp-range", "1:1")
    code, out, _ = run_cli(*sweep, "--no-bound")
    assert code == 0
    assert out.splitlines()[1].split(",")[10:13] == ["", "", ""]
    code, out, _ = run_cli(*sweep)
    assert code == 0
    assert out.splitlines()[1].split(",")[10:13] == ["4", "7", "0.571429"]


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
