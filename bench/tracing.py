"""Span tracing of bellpair's layers from outside the package.

The tracer replaces selected public functions with timing wrappers in every
``bellpair`` module that holds a reference to them, so calls made through
``from .linalg import eig_hermitian`` style imports are caught too.  Spans
stay in memory until the run ends; per-layer metrics are derived from them.
Nothing under ``src/`` knows about the tracer.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from typing import Callable, NamedTuple

# Public functions wrapped per module.  ``cli`` is traced at ``main`` only,
# so its self time covers argparse, rendering and the ``--out`` write.
TRACED = {
    "linalg": ("eig_hermitian", "eig_symmetric3", "sqrt_psd"),
    "states": ("validate", "decompose", "compose", "werner"),
    "bell": ("tangle", "horodecki_max"),
    "protocol": ("chsh_value", "fit_gamma", "chi_square"),
    "simulate": ("simulate", "joint_probabilities"),
    "fileio": ("load_state", "load_data", "load_settings", "counts_text"),
    "cli": ("main",),
    "dataset": ("embedded_data",),
}


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _events(args, kwargs, result) -> int:
    cfg = args[0]
    return cfg.events_per_setting * len(cfg.settings)


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode())


# Work amounts recorded on a span after the wrapped call returns.
AMOUNTS: dict[str, Callable] = {
    "fileio.load_state": _file_bytes,
    "fileio.load_data": _file_bytes,
    "fileio.load_settings": _file_bytes,
    "fileio.counts_text": _text_bytes,
    "simulate.simulate": _events,
}

# Per-layer metrics as (name, unit); values come from :func:`layer_metrics`.
PER_LAYER = (
    ("linalg.eig_hermitian.calls", "count"),
    ("linalg.eig_hermitian.self_ms", "ms"),
    ("linalg.eig_hermitian.us_per_call", "us"),
    ("linalg.eig_symmetric3.calls", "count"),
    ("linalg.eig_symmetric3.self_ms", "ms"),
    ("linalg.sqrt_psd.self_ms", "ms"),
    ("states.validate.calls", "count"),
    ("states.validate.self_ms", "ms"),
    ("states.validate.rejects", "count"),
    ("states.decompose.calls", "count"),
    ("states.decompose.self_ms", "ms"),
    ("states.compose.self_ms", "ms"),
    ("states.werner.self_ms", "ms"),
    ("bell.tangle.self_ms", "ms"),
    ("bell.horodecki_max.self_ms", "ms"),
    ("bell.eig_per_state", "calls/state"),
    ("protocol.chsh_value.calls", "count"),
    ("protocol.chsh_value.self_ms", "ms"),
    ("protocol.fit_gamma.self_ms", "ms"),
    ("protocol.chi_square.calls", "count"),
    ("protocol.chi_square.self_ms", "ms"),
    ("protocol.decompose_per_row", "calls/row"),
    ("simulate.simulate.self_ms", "ms"),
    ("simulate.joint_probabilities.calls", "count"),
    ("simulate.joint_probabilities.self_ms", "ms"),
    ("simulate.events", "count"),
    ("simulate.ns_per_event", "ns"),
    ("fileio.load_state.self_ms", "ms"),
    ("fileio.load_data.self_ms", "ms"),
    ("fileio.load_settings.self_ms", "ms"),
    ("fileio.counts_text.self_ms", "ms"),
    ("fileio.bytes_read", "bytes"),
    ("fileio.bytes_written", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("dataset.embedded_data.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    span_id: int
    call_id: int
    error: bool
    amount: int


class Tracer:
    """Collects spans while installed; ``call_id`` groups spans of one CLI call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        amount = AMOUNTS.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock()
                stack.pop()
                size = amount(args, kwargs, result) if amount and not error else 0
                spans.append(Span(name, start, end, parent, span_id, self.call_id, error, size))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bellpair" or key.startswith("bellpair."))]
        for short, names in TRACED.items():
            # the package attribute ``bellpair.simulate`` is the function,
            # so reach each submodule through sys.modules
            home = sys.modules[f"bellpair.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, self time, errors and amounts per traced function name.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children nest inside their parent.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_ns": 0, "errors": 0, "amount": 0})
        row["calls"] += 1
        row["self_ns"] += (s.end_ns - s.start_ns) - child_ns.get(s.span_id, 0)
        row["errors"] += s.error
        row["amount"] += s.amount
    return out


def layer_metrics(passes: list[dict], states: int, rows: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from traced passes over the same calls.

    ``passes`` holds one :func:`summarize` result per pass; counts come from
    the first pass (they repeat exactly), times from the fastest pass of
    each function.
    ``states`` and ``rows`` are the states and CHSH rows one pass evaluates.
    """
    first = passes[0]

    def count(name: str, key: str = "calls") -> int:
        return int(first.get(name, {}).get(key, 0))

    def self_ms(name: str) -> float:
        return min(p.get(name, {}).get("self_ns", 0) for p in passes) / 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {"trace.overhead_ratio": overhead_ratio}
    for short, names in TRACED.items():
        for fname in names:
            full = f"{short}.{fname}"
            m[f"{full}.calls"] = count(full)
            m[f"{full}.self_ms"] = self_ms(full)
    m["linalg.eig_hermitian.us_per_call"] = ratio(
        1e3 * m["linalg.eig_hermitian.self_ms"], m["linalg.eig_hermitian.calls"])
    m["states.validate.rejects"] = count("states.validate", "errors")
    jacobi = m["linalg.eig_hermitian.calls"] + m["linalg.eig_symmetric3.calls"]
    m["bell.eig_per_state"] = ratio(jacobi, states)
    m["protocol.decompose_per_row"] = ratio(m["states.decompose.calls"], rows)
    m["simulate.events"] = count("simulate.simulate", "amount")
    m["simulate.ns_per_event"] = ratio(1e6 * m["simulate.simulate.self_ms"], m["simulate.events"])
    m["fileio.bytes_read"] = sum(
        count(f"fileio.{f}", "amount") for f in ("load_state", "load_data", "load_settings"))
    m["fileio.bytes_written"] = count("fileio.counts_text", "amount")
    return {name: m[name] for name, _ in PER_LAYER}


def write_spans(path, header: dict, spans: list[Span]) -> None:
    """One JSON line of run facts, then one JSON array per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")
