"""bellpair benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload simulate-fit --seed 1 --seconds 60 --trace 0
    python3 bench/run.py            # every workload, each in a fresh process

One client calls ``bellpair.cli.main(argv)`` in-process and starts the next
call when the previous one returns; every output (written with ``--out``
into a temporary directory) is checked.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` replays a fixed prefix of the same plan, untraced and
traced in turn, and prints per-layer metrics derived from spans.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The timed loop makes passes over the distinct operations of the workload's
plan while another pass fits in ``--seconds`` (at least one); an
operation's latency is the fastest run of the same calls in the run.  The
set-up spawns are spread over the same loop.  On a shared host the speed of
Python and numpy code drifts by up to 2x, in spells of a tenth of a second
to over a minute, and no statistic within a run removes a spell that covers
all of it; a longer run is more likely to hold a fast stretch.  In
seven-minute recordings of simulate-fit passes on a 2-core Xeon host, the
ops_per_s of 60 s windows spread 20-40% less between windows than that of
40 s windows, hence two workloads of 60 s each.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

import tracing
from workloads import WORKLOADS, Call, Op, counts_digest, fixed_calls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WARMUP_OPS = 3
SETUP_SPAWNS = 9

# End-to-end metrics as (name, unit).  work_per_s counts the workload's unit
# of work: states (analyze-states) or events (simulate-fit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_cli():
    """Import bellpair from this checkout's src/, never from elsewhere."""
    if not (SRC / "bellpair" / "__init__.py").is_file():
        _fail(f"no bellpair sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellpair
    import bellpair.cli

    if Path(bellpair.__file__).resolve().parent != SRC / "bellpair":
        _fail(f"imported bellpair from {bellpair.__file__}, not from {SRC}")
    return bellpair


class _Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class Tally:
    """Calls attempted and failed; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{what}: {error}")


def run_call(call: Call, tally: Tally, tracer: tracing.Tracer | None = None) -> float:
    """One CLI call through ``bellpair.cli.main``; returns its wall time in s."""
    cli = sys.modules["bellpair.cli"]
    argv = [*call.argv, "--out", str(call.out)]
    call.out.unlink(missing_ok=True)
    if tracer is not None:
        tracer.call_id += 1
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    error = None
    if code != call.expect_exit:
        error = f"exit {code}, expected {call.expect_exit}"
    elif call.check is not None:
        try:
            call.check(call.out.read_text())
        except Exception as exc:
            error = f"output check: {type(exc).__name__}: {exc}"
    tally.record(call.argv[0], error)
    return elapsed


def run_op(op: Op, tally: Tally, tracer: tracing.Tracer | None = None) -> float:
    """Run the calls of one operation in order; stop at the first failure."""
    total = 0.0
    for call in op.calls:
        failed = tally.failed
        total += run_call(call, tally, tracer)
        if tally.failed > failed:
            break
    return total


def check_fixed(seed: int, tmp: Path, tally: Tally) -> None:
    """Untimed checks made once per run.

    Simulated counts must match the recorded digests bit for bit; ``table1``,
    ``fit --embedded`` and exact-data fits must give the paper's values.
    """
    for i, case in enumerate(json.loads(GOLDEN.read_text())["cases"]):
        state = tmp / f"golden{i}.json"
        state.write_text(json.dumps(case["state"]))
        settings = tmp / f"golden{i}.txt"
        settings.write_text("".join(", ".join(map(repr, row)) + "\n" for row in case["settings"]))
        out = tmp / f"golden{i}.counts"

        def check(text: str, want: str = case["sha256"]) -> None:
            got = counts_digest(text)
            if got != want:
                raise ValueError(f"counts digest {got} != golden {want}")

        argv = ("simulate", "--state", str(state), "--settings", str(settings),
                "--events", str(case["events"]), "--seed", str(case["seed"]))
        run_call(Call(argv, out, 0, check), tally)
    for call in fixed_calls(seed, tmp):
        run_call(call, tally)


def spawn_version(version: str, tally: Tally) -> float:
    """Wall time of one fresh ``python -m bellpair --version`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "bellpair", "--version"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and proc.stdout.strip() == f"bellpair {version}"
    tally.record("--version", None if ok else f"exit {proc.returncode}: {proc.stdout!r}")
    return elapsed


def machine_facts(seed: int) -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def repeat_within(seconds: float, one_pass: Callable[[], None]) -> None:
    """Call ``one_pass`` once, then again while another call fits in ``seconds``."""
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        one_pass()
        now = time.monotonic()
        if now - start + (now - begun) > seconds:
            return


def best_latencies(ops: list[Op], seconds: float, tally: Tally,
                   after_pass: Callable[[], None]) -> list[float]:
    """Per operation, the fastest run of its calls in the passes that fit in ``seconds``.

    Operations with identical calls do identical work and share their
    fastest run, so a pass runs each distinct operation once, in plan order.
    """
    keys = [tuple(call.argv for call in op.calls) for op in ops]
    distinct: dict[tuple, Op] = {}
    for key, op in zip(keys, ops):
        distinct.setdefault(key, op)
    best = dict.fromkeys(keys, math.inf)

    def one_pass() -> None:
        for key, op in distinct.items():
            best[key] = min(best[key], run_op(op, tally))
        after_pass()

    repeat_within(seconds, one_pass)
    return [best[key] for key in keys]


def end_to_end(workload, ops: list[Op], seconds: float, version: str, tally: Tally) -> dict:
    spawn_version(version, tally)  # may still be writing bytecode caches; not timed
    for op in ops[:WARMUP_OPS]:
        run_op(op, tally)
    setup: list[float] = []
    start = time.monotonic()

    def spread_spawns() -> None:
        # set-up spawns are spread evenly over the loop, at most one per pass,
        # so they meet the same speed of the host as the operations
        if len(setup) < SETUP_SPAWNS and time.monotonic() - start >= len(setup) * seconds / SETUP_SPAWNS:
            setup.append(spawn_version(version, tally))

    latencies = best_latencies(ops, seconds, tally, spread_spawns)
    while len(setup) < SETUP_SPAWNS:
        setup.append(spawn_version(version, tally))
    busy = sum(latencies)
    work = sum(getattr(op, workload.work) for op in ops)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / busy,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "work_per_s": work / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, ops: list[Op], seconds: float, tally: Tally, spans_path: Path, facts: dict) -> dict:
    """Alternate untraced and traced passes over a fixed plan prefix."""
    sample = ops[: workload.trace_ops]
    for op in sample[:WARMUP_OPS]:
        run_op(op, tally)
    plain: list[float] = []
    traced: list[float] = []
    passes: list[dict] = []
    spans: list[tracing.Span] = []

    def one_pair() -> None:
        plain.append(sum(run_op(op, tally) for op in sample))
        with tracing.Tracer() as tracer:
            traced.append(sum(run_op(op, tally, tracer) for op in sample))
        passes.append(tracing.summarize(tracer.spans))
        spans[:] = tracer.spans

    repeat_within(seconds, one_pair)
    calls = [{name: row["calls"] for name, row in p.items()} for p in passes]
    if any(c != calls[0] for c in calls):
        tally.record("trace", "call counts differ between identical passes")
    tracing.write_spans(spans_path, {**facts, "workload": workload.name}, spans)
    overhead = min(traced) / min(plain)
    return tracing.layer_metrics(passes, sum(op.states for op in sample),
                               sum(op.rows for op in sample), overhead)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    bellpair = _import_cli()
    workload = WORKLOADS[name]
    facts = machine_facts(seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as tmp:
        ops = workload.build(seed, Path(tmp))
        check_fixed(seed, Path(tmp), tally)
        if traced:
            spans = OUT / f"spans-{name}-seed{seed}.jsonl"
            metrics = per_layer(workload, ops, seconds, tally, spans, facts)
            units = dict(tracing.PER_LAYER)
        else:
            metrics = end_to_end(workload, ops, seconds, bellpair.__version__, tally)
            units = dict(END_TO_END)
    print(f"workload {name}  seed {seed}  trace {int(traced)}")
    print("machine " + json.dumps(facts))
    for msg in tally.messages:
        print(f"FAILED {msg}")
    for key, value in metrics.items():
        what = f"  ({workload.work} per second)" if key == "work_per_s" else ""
        print(f"  {key:40s} {value:14.6g} {units[key]}{what}")
    print(f"  {'error_ratio':40s} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed} of {tally.attempted} calls)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: int, traced: int) -> dict:
    """Each workload in a fresh process; combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(traced)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=180)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
