"""ringcache benchmark: CLI commands run in-process as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's ops one after another through
``ringcache.cli.main``; stdout is captured in memory and every op is
checked. With ``--trace 0`` it runs whole passes over the op list while
the next pass is expected to end within ``--seconds`` (at least one), and
prints the end-to-end metrics: each op's time is its median over the
passes, at the fixed host speed of ``hostspeed``. With
``--trace 1`` it runs two untraced passes, one traced pass and, when the
workload builds layouts or delivers, one tracemalloc pass, and prints the
per-layer metrics. The last stdout line is the result object; the line
before it records the environment.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import hostspeed
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# set-ups timed before each pass; setup_s is the median over all of them,
# so that they are spread over the run as the ops are
SETUPS_PER_PASS = 3
# op failures spelled out on stderr per pass
REPORTED_FAILURES = 5


class PassResult(NamedTuple):
    times: list[float]  # wall seconds per op
    scaled: list[float]  # the same at the reference host speed
    failed: int
    sha256: str
    transmissions: int
    terms: int
    checked: int
    output_bytes: int


def run_pass(cli, ops: list[workloads.Op], checker: workloads.Checker,
             tracer: spans.Tracer | None = None,
             sample_every: float = hostspeed.SAMPLE_EVERY_S) -> PassResult:
    """Run every op once, in order, timing ``cli.main`` alone as a
    ``hostspeed.Stretch`` that samples the host speed every ``sample_every``
    seconds (0: only before and after each op)."""
    digest = hashlib.sha256()
    times: list[float] = []
    scaled: list[float] = []
    failed = transmissions = terms = checked = output_bytes = 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        raised = None
        # each op starts with an empty collector, as in a fresh CLI process,
        # so no op pays for garbage the ones before it left
        gc.collect()
        with hostspeed.Stretch(sample_every) as stretch:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op.argv))
            except Exception as exc:  # a crashing op counts as failed; the loop goes on
                raised = exc
        if tracer is not None:
            tracer.op = -1
        times.append(stretch.wall)
        scaled.append(stretch.scaled)
        text = out.getvalue()
        data = text.encode()
        digest.update(data + b"\0")
        output_bytes += len(data)
        if raised is not None:
            outcome = workloads.Outcome([f"raised {raised!r}"])
        else:
            outcome = checker.check(op, code, text)
        transmissions += outcome.transmissions
        terms += outcome.terms
        checked += outcome.checked
        if outcome.problems:
            failed += 1
            if failed <= REPORTED_FAILURES:
                stderr = err.getvalue().strip().splitlines()[-1:]
                print(f"perfbench: FAILED {' '.join(op.argv)}: {outcome.problems[:3]} {stderr}",
                      file=sys.stderr)
        # an output of megabytes held into the next op would add to its
        # peak RSS, by how the seed orders the ops
        del out, err, text, data
    return PassResult(times, scaled, failed, digest.hexdigest(), transmissions, terms, checked,
                      output_bytes)


def setup(workload: str, seed: int):
    """Import ringcache afresh and build the op list; returns (seconds at the
    reference host speed, cli, ops)."""
    with hostspeed.Stretch() as stretch:
        for name in [n for n in sys.modules if n == "ringcache" or n.startswith("ringcache.")]:
            del sys.modules[name]
        cli = importlib.import_module("ringcache.cli")
        ops = workloads.build_ops(workload, seed)
    return stretch.scaled, cli, ops


def take_jobs_setting() -> str:
    """Unset RINGCACHE_JOBS so that sweeps run without a worker pool; refuse
    a value above 1, which would start one."""
    value = os.environ.pop("RINGCACHE_JOBS", None)
    if value is None:
        return "unset"
    try:
        jobs = int(value)
    except ValueError:
        raise SystemExit(f"perfbench: RINGCACHE_JOBS={value!r} is not an integer") from None
    if jobs > 1:
        raise SystemExit(f"perfbench: refusing to run with RINGCACHE_JOBS={jobs} > 1")
    return f"unset (was {value!r})"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_times(passes: list[PassResult], field: str = "scaled") -> list[float]:
    """Each op's median time over the passes."""
    return [statistics.median(t) for t in zip(*(getattr(p, field) for p in passes))]


def timings(times: list[float]) -> dict:
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (percentile(times, 0.9) * 1000, "ms"),
    }


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> dict:
    return {
        **timings(op_times(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(cli, ops, checker, workload: str, seed: int, info: dict) -> tuple[list[PassResult], dict]:
    # no samples inside ops, as in the traced pass, so that the overhead
    # compares like with like
    plain = [run_pass(cli, ops, checker, sample_every=0) for _ in range(2)]

    tracer = spans.Tracer()
    found, absent, undo = spans.install(spans.BOUNDARIES, tracer.wrap)
    try:
        with tracer:
            traced = run_pass(cli, ops, checker, tracer, sample_every=0)
    finally:
        undo()
    metrics = spans.layer_metrics(tracer.spans, tracer.gen2_collections)

    probe = spans.AllocProbe()
    passes = plain + [traced]
    if any(metrics[f"{b}.calls"][0] for b in spans.ALLOC_BOUNDARIES):
        _, _, undo = spans.install(spans.ALLOC_BOUNDARIES, probe.wrap)
        try:
            passes.append(run_pass(cli, ops, checker, sample_every=0))
        finally:
            undo()
    for boundary in spans.ALLOC_BOUNDARIES:
        metrics[f"{boundary}.alloc_peak_mb"] = (probe.peak.get(boundary, 0) / 2**20, "MB")

    metrics["delivery.transmissions"] = (traced.transmissions, "count")
    metrics["delivery.terms"] = (traced.terms, "count")
    metrics["delivery.checked"] = (traced.checked, "count")
    metrics["cli.output_bytes"] = (traced.output_bytes, "bytes")
    untraced_rate = len(ops) / sum(op_times(plain))
    traced_rate = len(ops) / sum(traced.scaled)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "op", "gc_s"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    info.update(boundaries_found=found, boundaries_absent=absent,
                spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)))
    return passes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    jobs = take_jobs_setting()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        _, cli, ops = setup(args.workload, args.seed)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ringcache from {SRC}: {exc}") from None
    origin = Path(sys.modules["ringcache"].__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise SystemExit(f"perfbench: ringcache was imported from {origin}, not from {SRC}")

    model = sys.modules["ringcache.model"]
    checker = workloads.Checker(
        sys.modules["ringcache.analysis"].achievable_rate, model.SystemParams, model.RegimeError
    )
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "RINGCACHE_JOBS": jobs,
        "op_samples": len(ops),
    }

    if args.trace:
        passes, metrics = per_layer(cli, ops, checker, args.workload, args.seed, info)
    else:
        passes, setup_times = [], []
        began = perf_counter()
        while True:
            # a fresh import leaves `cli` and `checker` on the first one
            setup_times.extend(setup(args.workload, args.seed)[0] for _ in range(SETUPS_PER_PASS))
            pass_began = perf_counter()
            passes.append(run_pass(cli, ops, checker))
            now = perf_counter()
            if now - began + (now - pass_began) > args.seconds:
                break
        metrics = end_to_end(passes, setup_times)
        wall = timings(op_times(passes, "times"))
        info["wall"] = {name: value for name, (value, _) in wall.items()}

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    info.update(passes=len(passes), output_sha256=sorted({p.sha256 for p in passes}))
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
