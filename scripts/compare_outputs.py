#!/usr/bin/env python3
"""Run one fixed corpus of ``bellpair`` CLI calls on two checkouts and compare them.

The corpus covers ``analyze`` in every format over the named states, Werner
states, a near-degenerate Pauli state, seeded random states of rank 1-4
(some with an eigenvalue just above or below the -1e-8 PSD floor) and
invalid files, plus ``sweep``, ``table1``, ``fit`` (on the embedded data, a
data file and a counts file), ``simulate``, and help, version and usage
errors on each route through the argument parsers.  The input files are written
once to a temporary directory; each checkout then runs every call through
``bellpair.cli.main`` in one subprocess, with that checkout's ``src`` first
on the path and the temporary directory as working directory, so both sides
see the same argv.

One line per call says whether the exit code, stderr and stdout match.  For
JSON and CSV outputs that differ, it also names each key (CSV: column) whose
value differs and the largest absolute difference of its numbers; the last
line lists every such key.  The exit code is 0 when every call matches, else 1.

Usage: python scripts/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT
"""
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Runs main on each argv of sys.argv[1]; prints [code, stdout, stderr] per call.
_RUNNER = """
import contextlib, io, json, sys, traceback
from bellpair.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException:
            code, err = None, io.StringIO(traceback.format_exc())
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

FORMATS = ("table", "json", "csv")
NAMED = ("singlet", "triplet0", "phi_plus", "phi_minus", "unpolarized")
GAMMAS = (0.0, 0.2, 1 / 3, 0.5, 2 ** -0.5, 0.8, 0.9, 0.99, 1.0)
DATA = "12.3456789, 0.1, 45, 135, 1.9, 0.2\n50, 0, 25, 75, 2.3, 0.3\n90, 0, 45, 135, 2.2, 0.25\n"
SETTINGS = "0, 45, 22.5, 67.5\n90, 0, 45, 135\n"
# simulate's counts for a Werner state (gamma = 0.8) at SETTINGS, 1e5 events per pair, seed 5;
# on rows 1, 3, 4 and 7, 1 - e*e rounds differently from the count quotient 4 N_same N_diff / N^2
COUNTS = """# format: counts
0.0, 22.5, 6586, 43281, 43610, 6523
0.0, 67.5, 17304, 32641, 32622, 17433
45.0, 22.5, 6547, 43260, 43625, 6568
45.0, 67.5, 6570, 43476, 43449, 6505
90.0, 45.0, 10752, 39407, 38961, 10880
90.0, 135.0, 11089, 39154, 38878, 10879
0.0, 45.0, 11024, 39384, 38795, 10797
0.0, 135.0, 39200, 10817, 10695, 39288
"""
# Help, version and usage errors: a missing, unknown or misplaced argument
# in front of, inside and after a command's own arguments.
PARSE_ROUTES = [
    [], ["--help"], ["--version"], ["bogus"], ["analyze", "--help"], ["analyze", "--state"],
    ["analyze", "--state", "named_singlet.json", "--bogus"], ["analyze", "--state", "named_singlet.json", "extra"],
    ["analyze", "--state", "named_singlet.json", "--=x"], ["sweep", "--step", "abc"], ["fit"],
    ["--format", "json", "analyze", "--state", "named_singlet.json"], ["analyze", "--", "--state", "named_singlet.json"],
]


def _matrix_doc(m: np.ndarray) -> dict:
    return {"kind": "matrix", "re": m.real.tolist(), "im": m.imag.tolist()}


def _states(rng: np.random.Generator) -> dict[str, dict]:
    docs = {f"named_{name}.json": {"kind": "named", "name": name} for name in NAMED}
    docs.update({f"werner_{k}.json": {"kind": "werner", "gamma": g} for k, g in enumerate(GAMMAS)})
    # D^T D has two eigenvalues 4e-13 apart, inside the 1e-12 run of the settings tie rule
    docs["near_degenerate.json"] = {"kind": "pauli", "A": [0, 0, 0], "P": [0, 0, 0],
                                    "D": [[-0.9, 0, 0], [0, -0.5, 0], [0, 0, -0.4999999999996]]}
    for rank in range(1, 5):
        for k in range(6):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            m = g @ g.conj().T
            docs[f"rank{rank}_{k}.json"] = _matrix_doc(m / np.trace(m).real)
    for k in range(12):  # one eigenvalue in [-1.2e-8, 0): about a sixth are rejected
        positive = 1 + k % 3
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        neg = -rng.uniform(0.0, 1.2e-8)
        w = np.concatenate([rng.dirichlet(np.ones(positive)) * (1.0 - neg), [neg], np.zeros(3 - positive)])
        docs[f"floor_{k}.json"] = _matrix_doc((q * w) @ q.conj().T)
    not_hermitian = np.eye(4, dtype=complex) / 4
    not_hermitian[0, 1] = 0.01j
    docs.update({
        "invalid_psd.json": _matrix_doc(np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex)),
        "invalid_trace.json": _matrix_doc(np.eye(4, dtype=complex) / 2),
        "invalid_hermitian.json": _matrix_doc(not_hermitian),
        "invalid_pauli.json": {"kind": "pauli", "A": [0, 0, 0], "P": [0, 0, 0], "D": [[-1.1, 0, 0], [0, -1, 0], [0, 0, -1]]},
    })
    return docs


def corpus(tmp: Path) -> list[list[str]]:
    """Writes the input files to ``tmp``; returns the argv of every call, paths relative to it."""
    (tmp / "data.txt").write_text(DATA)
    (tmp / "settings.txt").write_text(SETTINGS)
    (tmp / "counts.txt").write_text(COUNTS)
    calls = []
    for name, doc in _states(np.random.default_rng(20261020)).items():
        (tmp / name).write_text(json.dumps(doc))
        calls += [["analyze", "--state", name, "--format", fmt] for fmt in FORMATS]
    for command in (["sweep"], ["table1"], ["fit", "--embedded"], ["fit", "--data", "data.txt"],
                    ["fit", "--data", "counts.txt"],
                    ["simulate", "--state", "werner_6.json", "--settings", "settings.txt", "--events", "1000",
                     "--seed", "1"]):
        calls += [command + ["--format", fmt] for fmt in FORMATS]
    return calls + PARSE_ROUTES


def run(checkout: Path, tmp: Path, calls: list[list[str]]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(calls)], cwd=tmp, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _flatten(doc, key: str = "") -> dict[str, object]:
    if isinstance(doc, dict):
        return {k: v for name, value in doc.items() for k, v in _flatten(value, f"{key}.{name}".lstrip(".")).items()}
    if isinstance(doc, list):
        return {k: v for i, value in enumerate(doc) for k, v in _flatten(value, f"{key}[{i}]").items()}
    return {key: doc}


def _csv_fields(text: str) -> dict[str, object]:
    """Comment lines keyed by line number, and each data field as ``column[block,row]``."""
    fields: dict[str, object] = {}
    header, block = None, -1
    for n, line in enumerate(text.splitlines()):
        if line.startswith("#"):
            fields[f"#{n}"] = line
            header = None
        elif header is None:
            header, block, row = line.split(","), block + 1, 0
        else:
            for column, value in zip(header, line.split(",")):
                try:
                    fields[f"{column}[{block},{row}]"] = float(value)
                except ValueError:
                    fields[f"{column}[{block},{row}]"] = value
            row += 1
    return fields


def key_differences(fmt: str, old: str, new: str) -> dict[str, float | None]:
    """Key -> largest absolute difference (None if not numeric), for keys whose values differ."""
    if fmt == "json":
        a, b = _flatten(json.loads(old)), _flatten(json.loads(new))
    elif fmt == "csv":
        a, b = _csv_fields(old), _csv_fields(new)
    else:
        return {}
    diffs: dict[str, float | None] = {}
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        base = re.sub(r"\[[\d,]+\]", "[]", key)  # one key for all list items (CSV: all rows)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            diffs[base] = None
        elif diffs.get(base, 0.0) is not None:
            diffs[base] = max(diffs.get(base, 0.0), abs(x - y))
    return diffs


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old_checkout, new_checkout = map(Path, sys.argv[1:])
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        calls = corpus(tmp)
        old, new = run(old_checkout, tmp, calls), run(new_checkout, tmp, calls)
    mismatches, keys = 0, set()
    for argv, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(calls, old, new):
        same = [code_a == code_b, err_a == err_b, out_a == out_b]
        line = " ".join(f"{part}={'same' if ok else 'DIFF'}" for part, ok in zip(("exit", "stderr", "stdout"), same))
        if not same[2] and code_a == code_b == 0:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
            diffs = key_differences(fmt, out_a, out_b)
            line += " " + ", ".join(f"{k}:{'non-numeric' if d is None else f'{d:.2e}'}" for k, d in diffs.items())
            keys.update(diffs)
        mismatches += not all(same)
        print(f"{' '.join(argv) or '(no arguments)'}: {line}")
    print(f"{len(calls)} calls, {len(calls) - mismatches} identical, {mismatches} differ;"
          f" keys that differ: {', '.join(sorted(keys)) or 'none'}")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
