"""Tests of the benchmark itself: op lists, metric names, tracing."""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


def small_ops(seed: int) -> list[workloads.Op]:
    """A few cheap ops of every command, in seeded order."""
    picked = []
    for name in WORKLOADS:
        ops = [op for op in workloads.build_ops(name, seed) if op.k <= 10]
        picked.extend(ops[:3])
    return picked


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda rng: small_ops(rng.randrange(1000)))
    monkeypatch.setattr(run, "OUT_DIR", BENCH_DIR.parent / ".perfbench_out" / "tests")
    monkeypatch.setattr(run, "SETUPS_PER_PASS", 1)
    return "tiny"


def loaded(workload):
    _, cli, ops = run.setup(workload, 3)
    model = sys.modules["ringcache.model"]
    checker = workloads.Checker(
        sys.modules["ringcache.analysis"].achievable_rate, model.SystemParams, model.RegimeError
    )
    return cli, ops, checker


def result_of(capsys, argv) -> tuple[dict, dict]:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_op_list_is_deterministic_per_seed(name):
    first = workloads.build_ops(name, 7)
    assert first == workloads.build_ops(name, 7)
    other = workloads.build_ops(name, 8)
    assert first != other
    # another seed reorders the same instances and redraws random demands
    instances = [(op.argv[0], op.k, op.l, op.n, op.ga, op.gp) for op in first]
    assert sorted(instances) == sorted((op.argv[0], op.k, op.l, op.n, op.ga, op.gp) for op in other)


def test_random_demands_repeat_a_file():
    for op in workloads.build_ops("simulate-ladder", 5):
        if "--demands" in op.argv:
            assert len(set(op.demand)) < op.k


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_declaration(tiny_workload, capsys, trace, kind):
    info, result = result_of(
        capsys, ["--workload", tiny_workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert info["RINGCACHE_JOBS"] == "unset" and info["seed"] == 1


def test_traced_and_untraced_outputs_agree(tiny_workload):
    cli, ops, checker = loaded(tiny_workload)
    plain = run.run_pass(cli, ops, checker)
    tracer = spans.Tracer()
    found, absent, undo = spans.install(spans.BOUNDARIES, tracer.wrap)
    try:
        with tracer:
            traced = run.run_pass(cli, ops, checker, tracer)
    finally:
        undo()
    assert absent == [] and found == list(spans.BOUNDARIES)
    assert plain.failed == traced.failed == 0
    assert plain.sha256 == traced.sha256
    assert cli.main is sys.modules["ringcache.cli"].main  # wrappers removed
    assert not getattr(cli.main, "__wrapped__", None)


def test_self_times_add_up_to_the_root_span_per_op(tiny_workload):
    cli, ops, checker = loaded(tiny_workload)
    tracer = spans.Tracer()
    _, _, undo = spans.install(spans.BOUNDARIES, tracer.wrap)
    try:
        with tracer:
            run.run_pass(cli, ops, checker, tracer)
    finally:
        undo()
    selfs = spans.self_times(tracer.spans)
    roots = {s[spans.OP]: s for s in tracer.spans if s[spans.PARENT] == -1}
    assert sorted(roots) == list(range(len(ops)))
    assert all(root[spans.NAME] == "cli.main" for root in roots.values())
    per_op = dict.fromkeys(roots, 0.0)
    for span, own in zip(tracer.spans, selfs):
        assert own >= 0
        per_op[span[spans.OP]] += own
    for op, root in roots.items():
        assert per_op[op] == pytest.approx(root[spans.END] - root[spans.START], abs=1e-9)


def test_missing_boundary_is_reported_absent(tiny_workload):
    loaded(tiny_workload)
    tracer = spans.Tracer()
    found, absent, undo = spans.install(
        ("model.position_sets", "model.no_such_function", "nomodule.f"), tracer.wrap
    )
    undo()
    assert found == ["model.position_sets"]
    assert absent == ["model.no_such_function", "nomodule.f"]
    assert spans.layer_metrics([], 0)["model.position_sets.calls"] == (0, "count")


def test_checker_counts_a_failing_op(tiny_workload):
    cli, ops, checker = loaded(tiny_workload)
    op = next(op for op in ops if op.argv[0] == "simulate")
    good = run.run_pass(cli, [op], checker)
    assert good.failed == 0 and good.transmissions > 0
    bad = op._replace(demand=tuple(reversed(op.demand)) + (0,))
    assert run.run_pass(cli, [bad], checker).failed == 1
    assert checker.check(op, 2, "").problems == ["exit code 2"]


def test_refuses_a_worker_pool(monkeypatch):
    monkeypatch.setenv("RINGCACHE_JOBS", "4")
    with pytest.raises(SystemExit, match="RINGCACHE_JOBS"):
        run.main(["--workload", "verify-grid", "--seed", "1", "--seconds", "1"])


def test_stretch_samples_inside_and_takes_the_handler_out():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Stretch(0.005) as stretch:
        began = perf_counter()
        while perf_counter() - began < 0.1:
            pass
    # before, after, and at least a few times inside
    assert len(stretch.samples) >= 5
    assert stretch.handler_s > 0
    assert stretch.wall == pytest.approx(perf_counter() - began - stretch.handler_s, abs=0.02)
    mean = sum(stretch.samples) / len(stretch.samples)
    assert stretch.scaled == pytest.approx(stretch.wall * hostspeed.REFERENCE_S / mean)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with hostspeed.Stretch(0) as quiet:
        began = perf_counter()
        while perf_counter() - began < 0.02:
            pass
    assert len(quiet.samples) == 2 and quiet.handler_s == 0
