"""Command-line surface: outputs, exit codes, determinism."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ringcache.cli import dec6, main
from fractions import Fraction


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
    ],
)
def test_simulate_larger_logs_are_pinned(system, footer, digest):
    # whole worst-case logs, byte for byte, beyond the hand-checked K = 5, 7
    code, out, _ = run_cli("simulate", *system, "--worst-case")
    assert code == 0
    assert footer in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
