"""Benchmark workloads: seeded inputs, CLI calls and their output checks.

Each workload turns a seed into a plan of at least 100 operations, so that
ten latencies lie beyond p90.  An operation is what one closed-loop client
waits for: one CLI call, or for ``simulate-fit`` the ``simulate`` call and the
``fit --data`` call that reads its counts back.  Input properties that set
the cost of a call (state kind, row count, event count) are
stratified inside fixed-size blocks of the plan, so every seed draws the
same mix of work and only the concrete inputs change.

Expected values are computed here without bellpair: the closed-form
singlet CHSH combination, and ``numpy.linalg`` for general states.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

FORMATS = ("table", "json", "csv")

# Relative error of a value printed with four significant digits.
TABLE_REL = 5.0001e-4


class CheckFailed(Exception):
    """A CLI call returned the expected exit code but wrong output."""


class Call(NamedTuple):
    argv: tuple[str, ...]  # without --out, which the runner appends
    out: Path
    expect_exit: int
    check: Callable[[str], None] | None  # gets the --out text; raises on mismatch


class Op(NamedTuple):
    calls: tuple[Call, ...]
    states: int = 0  # states evaluated
    rows: int = 0  # CHSH rows evaluated
    events: int = 0  # events simulated


class Workload(NamedTuple):
    name: str
    work: str  # the Op field counted by work_per_s
    trace_ops: int  # plan prefix that one traced pass replays
    build: Callable[[int, Path], list[Op]]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(got: float, want: float, fmt: str, tol: float) -> None:
    rel = TABLE_REL if fmt == "table" else 0.0
    _expect(math.isclose(got, want, rel_tol=rel, abs_tol=tol), f"got {got!r}, expected {want!r}")


# --- output parsers ------------------------------------------------------------


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Leading ``# key: value`` comments and the first block of data rows."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            if header is not None:
                break
            key, _, value = line[1:].strip().partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def parse_table(text: str) -> tuple[list[list[str]], dict[str, str]]:
    """Whitespace-split rows and the ``key : value`` entries of the footer."""
    lines = text.splitlines()
    body = lines[2:]
    footer_lines: list[str] = []
    if "" in body:
        cut = body.index("")
        body, footer_lines = body[:cut], body[cut + 1:]
    footer = {}
    for line in footer_lines:
        key, sep, value = line.partition(":")
        if sep:
            footer[key.strip()] = value.split()[0]
    return [line.split() for line in body], footer


def counts_rows(text: str) -> list[tuple[float, float, int, int, int, int]]:
    """Data rows of a counts file as (phi1, phi2, n_pp, n_pm, n_mp, n_mm)."""
    rows = []
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            p1, p2, *n = (f.strip() for f in line.split(","))
            rows.append((float(p1), float(p2), *(int(x) for x in n)))
    return rows


def counts_digest(text: str) -> str:
    """SHA-256 of the count rows in a canonical form.

    Header comments (paths, version) and the rendering of angles are left
    out, so the digest pins the sampled counts themselves.
    """
    canon = "".join(f"{p1!r},{p2!r},{a},{b},{c},{d}\n" for p1, p2, a, b, c, d in counts_rows(text))
    return hashlib.sha256(canon.encode()).hexdigest()


# --- independent references ------------------------------------------------------

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_ID2 = np.eye(2)
_YY = np.kron(_PAULI[1], _PAULI[1])


def pauli_parts(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.array([np.trace(rho @ np.kron(s, _ID2)).real for s in _PAULI])
    p = np.array([np.trace(rho @ np.kron(_ID2, s)).real for s in _PAULI])
    d = np.array([[np.trace(rho @ np.kron(s, t)).real for t in _PAULI] for s in _PAULI])
    return a, p, d


def reference_metrics(rho: np.ndarray) -> tuple[float, float]:
    """Tangle (from the non-Hermitian spin-flip product) and Horodecki M."""
    w = np.sort(np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real)[::-1]
    lam = np.sqrt(np.clip(w, 0.0, None))
    tangle = max(lam[0] - lam[1] - lam[2] - lam[3], 0.0)
    d = pauli_parts(rho)[2]
    g = np.sort(np.linalg.eigvalsh(d.T @ d))[::-1]
    return float(tangle), float(g[0] + g[1])


def singlet_chsh(p1: float, p1p: float, p2: float, p2p: float) -> float:
    """|E(p1,p2) + E(p1,p2') + E(p1',p2) - E(p1',p2')| with E = -cos(difference)."""
    def e(x: float, y: float) -> float:
        return -math.cos(math.radians(x - y))
    return abs(e(p1, p2) + e(p1, p2p) + e(p1p, p2) - e(p1p, p2p))


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


# --- analyze-states -----------------------------------------------------------------

NAMED = ("singlet", "triplet0", "phi_plus", "phi_minus", "unpolarized")
_NAMED_KETS = {
    "singlet": [0, 1, -1, 0],
    "triplet0": [0, 1, 1, 0],
    "phi_plus": [1, 0, 0, 1],
    "phi_minus": [1, 0, 0, -1],
}


def _hs_state(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    v *= rng.uniform(0.1, 1.0) / np.linalg.norm(v)
    return 0.5 * (_ID2 + sum(x * s for x, s in zip(v, _PAULI)))


def _unitary(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix_doc(m: np.ndarray) -> dict:
    return {"kind": "matrix", "re": m.real.tolist(), "im": m.imag.tolist()}


def _pauli_doc(a, p, d) -> dict:
    return {"kind": "pauli", "A": list(a), "P": list(p), "D": np.asarray(d).tolist()}


def _invalid_docs(rng: np.random.Generator) -> list[dict]:
    """One document per rejection route: not PSD, trace != 1, not Hermitian."""
    u = _unitary(rng)
    not_herm = _hs_state(rng)
    not_herm[0, 1] += 0.01j
    return [_matrix_doc(m) for m in (u @ np.diag([0.6, 0.5, 0.1, -0.2]) @ u.conj().T,
                                     1.1 * _hs_state(rng), not_herm)]


# Pool composition, plus 3 invalid files (5% of 60) that must exit 3.  A pass
# analyzes every file twice, so each distinct call gets two runs per pass.
POOL = {"matrix": 21, "pauli": 15, "product": 12, "named": 9}
ANALYZE_REPEATS = 2


def _analysis_pool(rng: np.random.Generator) -> list[tuple[dict, tuple[float, float] | None]]:
    pool: list[tuple[dict, tuple[float, float] | None]] = []
    for _ in range(POOL["matrix"]):
        rho = _hs_state(rng)
        pool.append((_matrix_doc(rho), reference_metrics(rho)))
    for _ in range(POOL["pauli"]):
        rho = _hs_state(rng)
        pool.append((_pauli_doc(*pauli_parts(rho)), reference_metrics(rho)))
    for _ in range(POOL["product"]):
        rho = np.kron(_qubit(rng), _qubit(rng))
        pool.append((_matrix_doc(rho), reference_metrics(rho)))
    for i in range(POOL["named"]):
        name = NAMED[i % len(NAMED)]
        ket = np.array(_NAMED_KETS.get(name, [0, 0, 0, 0]), dtype=complex) / math.sqrt(2)
        rho = np.outer(ket, ket.conj()) if name in _NAMED_KETS else np.eye(4) / 4
        pool.append(({"kind": "named", "name": name}, reference_metrics(rho)))
    pool += [(doc, None) for doc in _invalid_docs(rng)]
    return pool


def _check_analyze(fmt: str, tangle: float, m: float) -> Callable[[str], None]:
    def check(text: str) -> None:
        if fmt == "json":
            doc = json.loads(text)
        else:
            doc = {k: float(v) for k, v in parse_csv(text)[1][0].items()
                   if k in ("tangle", "M", "max_violation")}
        _close(doc["tangle"], tangle, fmt, 1e-9)
        _close(doc["M"], m, fmt, 1e-9)
        _close(doc["max_violation"], 2 * math.sqrt(m), fmt, 1e-9)

    return check


def build_analyze(seed: int, tmp: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    pool = _analysis_pool(rng)
    paths = [_write_json(tmp / f"state{i}.json", doc) for i, (doc, _) in enumerate(pool)]
    ops = []
    for i in [i for _ in range(ANALYZE_REPEATS) for i in rng.permutation(len(pool))]:
        # lossless formats only, so values can be checked to 1e-9
        fmt = ("json", "csv")[i % 2]
        argv = ("analyze", "--state", str(paths[i]), "--format", fmt)
        expected = pool[i][1]
        if expected is None:
            call = Call(argv, tmp / "analyze.out", 3, None)
        else:
            call = Call(argv, tmp / "analyze.out", 0, _check_analyze(fmt, *expected))
        ops.append(Op((call,), states=1))
    return ops


# --- simulate-fit --------------------------------------------------------------------

SIM_BLOCKS = 13
SIM_EVENTS = (5.0, 6.0)  # log10 range of events per angle pair
# The plan repeats one block of eight distinct operations, with 1..8 settings
# rows once each; rows r simulates the midpoint of stratum SIM_PAIRING[r - 1]
# of eight equal strata of SIM_EVENTS per pair.  Event counts are the same for
# every seed, so the seed changes the state, the angles and the sampler seed
# but not the cost of a call.
SIM_PAIRING = (0, 3, 6, 1, 4, 7, 2, 5)
# The outcome probabilities set the sampler's branch pattern, so a call with
# gamma near 0.2 costs up to 15% more per event than one near 1.  Rows r
# draws gamma from stratum GAMMA_PAIRING[r - 1] of eight equal strata of
# SIM_GAMMA; the angles are drawn freely.
SIM_GAMMA = (0.2, 1.0)
GAMMA_PAIRING = (4, 1, 6, 3, 0, 5, 2, 7)


def sim_events(rows: int) -> int:
    """Events per angle pair for a settings file of ``rows`` CHSH rows."""
    lo, hi = SIM_EVENTS
    n = len(SIM_PAIRING)
    return int(round(10 ** (lo + (hi - lo) * (SIM_PAIRING[rows - 1] + 0.5) / n)))


def _fit_values(fmt: str, text: str) -> tuple[float, float, list[tuple[float, float]]]:
    """gamma_hat, chi2 at the minimum and (singlet value, dr_exp) per row."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [(r["singlet_value"], r["dr_exp"]) for r in doc["residuals"]]
        return doc["gamma_hat"], doc["chi2_at_min"], rows
    if fmt == "csv":
        meta, body = parse_csv(text)
        rows = [(float(r["singlet_value"]), float(r["dr_exp"])) for r in body]
        return float(meta["gamma_hat"]), float(meta["chi2_at_min"]), rows
    body, footer = parse_table(text)
    rows = [(float(r[6]), float(r[5])) for r in body]
    return float(footer["gamma_hat"]), float(footer["chi2 at min"]), rows


def _check_counts(pairs: list[tuple[float, float]], events: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        rows = counts_rows(text)
        _expect(len(rows) == len(pairs), f"{len(rows)} count rows, expected {len(pairs)}")
        for (p1, p2, *n), (w1, w2) in zip(rows, pairs):
            # angles are printed with six significant digits
            _expect(math.isclose(p1, w1, rel_tol=1e-5, abs_tol=1e-9)
                    and math.isclose(p2, w2, rel_tol=1e-5, abs_tol=1e-9), f"angles {p1}, {p2}")
            _expect(min(n) >= 0 and sum(n) == events, f"counts {n} do not sum to {events}")

    return check


def _check_sim_fit(fmt: str, gamma: float, rows: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        gamma_hat, _, per_row = _fit_values(fmt, text)
        _expect(len(per_row) == rows, f"{len(per_row)} fit rows, expected {rows}")
        sigma = sum(s * s / (dr * dr) for s, dr in per_row) ** -0.5
        _expect(abs(gamma_hat - gamma) <= 5 * sigma,
                f"gamma_hat {gamma_hat} is {abs(gamma_hat - gamma) / sigma:.1f} sigma from {gamma}")

    return check


def _angles(rng: np.random.Generator, rows: int) -> list[tuple[float, ...]]:
    return [tuple(float(x) for x in rng.uniform(0.0, 180.0, 4)) for _ in range(rows)]


def build_simulate(seed: int, tmp: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    block = []
    for rows in range(1, len(SIM_PAIRING) + 1):
        events = sim_events(rows)
        lo, hi = SIM_GAMMA
        gamma = lo + (hi - lo) * (GAMMA_PAIRING[rows - 1] + rng.uniform()) / len(GAMMA_PAIRING)
        settings = _angles(rng, rows)
        state = _write_json(tmp / f"werner{rows}.json", {"kind": "werner", "gamma": gamma})
        settings_path = tmp / f"settings{rows}.txt"
        settings_path.write_text("".join(", ".join(map(repr, r)) + "\n" for r in settings))
        pairs = [pair for p1, p1p, p2, p2p in settings
                 for pair in ((p1, p2), (p1, p2p), (p1p, p2), (p1p, p2p))]
        counts = tmp / "counts.txt"
        fmt = FORMATS[rows % 3]
        sim = Call(("simulate", "--state", str(state), "--settings", str(settings_path),
                    "--events", str(events), "--seed", str(int(rng.integers(0, 2**63)))),
                   counts, 0, _check_counts(pairs, events))
        fit = Call(("fit", "--data", str(counts), "--format", fmt), tmp / "fit.out", 0,
                   _check_sim_fit(fmt, gamma, rows))
        block.append(Op((sim, fit), rows=rows, events=events * len(pairs)))
    return [block[i] for _ in range(SIM_BLOCKS) for i in rng.permutation(len(block))]


# --- fixed cases -------------------------------------------------------------------
# Checked once per run and not timed: the paper's table and fit, and exact
# synthetic data, in every output format.

def _check_table1(fmt: str) -> Callable[[str], None]:
    def check(text: str) -> None:
        if fmt == "json":
            doc = json.loads(text)
            n, chi1, chi2 = len(doc["rows"]), doc["chi2_case1"], doc["chi2_case2"]
        elif fmt == "csv":
            meta, body = parse_csv(text)
            n, chi1, chi2 = len(body), float(meta["chi2_case1"]), float(meta["chi2_case2"])
        else:
            body, footer = parse_table(text)
            n = len(body)
            chi1 = float(footer["chi2 case 1 (recomputed)"])
            chi2 = float(footer["chi2 case 2 (recomputed, g=0.9)"])
        _expect(n == 8, f"{n} table rows, expected 8")
        _expect(round(chi1, 2) == 1.26 and round(chi2, 2) == 0.85, f"chi-square {chi1}, {chi2}")

    return check


def _check_embedded(fmt: str) -> Callable[[str], None]:
    def check(text: str) -> None:
        gamma_hat, _, rows = _fit_values(fmt, text)
        _expect(len(rows) == 8 and round(gamma_hat, 3) == 0.692, f"gamma_hat {gamma_hat}")

    return check


def _check_exact_fit(fmt: str, gamma: float, rows: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        gamma_hat, chi2, per_row = _fit_values(fmt, text)
        _expect(len(per_row) == rows, f"{len(per_row)} fit rows, expected {rows}")
        _close(gamma_hat, gamma, fmt, 1e-12)
        _expect(chi2 <= 1e-12, f"chi2 at min {chi2} on exact data")

    return check


EXACT_ROWS = (8, 20, 32)  # one exact data file per output format


def fixed_calls(seed: int, tmp: Path) -> list[Call]:
    """``table1``, ``fit --embedded`` and an exact-data fit in each format."""
    rng = np.random.default_rng(seed)
    out = tmp / "fixed.out"
    calls = []
    for fmt, rows in zip(FORMATS, EXACT_ROWS):
        gamma = float(rng.uniform(0.2, 1.0))
        lines = []
        for angles in _angles(rng, rows):
            dr = float(rng.uniform(0.05, 0.5))
            lines.append(", ".join(map(repr, (*angles, gamma * singlet_chsh(*angles), dr))))
        path = tmp / f"exact-{fmt}.txt"
        path.write_text("\n".join(lines) + "\n")
        calls += [
            Call(("table1", "--format", fmt), out, 0, _check_table1(fmt)),
            Call(("fit", "--embedded", "--format", fmt), out, 0, _check_embedded(fmt)),
            Call(("fit", "--data", str(path), "--format", fmt), out, 0,
                 _check_exact_fit(fmt, gamma, rows)),
        ]
    return calls


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-states", "states", 120, build_analyze),
        Workload("simulate-fit", "events", len(SIM_PAIRING), build_simulate),
    )
}
