"""File formats shared by the command-line tools.

State files are JSON documents with a ``kind`` discriminator:

* ``{"kind": "matrix", "re": [[...]], "im": [[...]]}`` -- 4x4 real arrays;
* ``{"kind": "pauli", "A": [...], "P": [...], "D": [[...]]}``;
* ``{"kind": "werner", "gamma": 0.9}``;
* ``{"kind": "named", "name": "singlet"}`` with one of singlet, triplet0,
  phi_plus, phi_minus, unpolarized.

The remaining formats are delimited text (commas or whitespace) with ``#``
comment lines:

* data files: ``phi1, phi1p, phi2, phi2p, r_exp, dr_exp`` per row;
* counts files: ``phi1, phi2, n_pp, n_pm, n_mp, n_mm`` per row, emitted by
  the simulator with a ``# format: counts`` marker and angles in ``repr``
  form (so they read back exactly), and grouped back into CHSH settings
  four consecutive rows at a time;
* settings files: either ``phi1, phi2`` pairs or full four-angle rows
  ``phi1, phi1p, phi2, phi2p`` which expand to their four pairs.

Every file is read as UTF-8, and every number in these formats must be
finite.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from . import states
from .protocol import (
    AngleSettings,
    ChshDatum,
    CountTable,
    EmptyCounts,
    NonpositiveError,
    NotFinite,
    group_counts,
)

COUNTS_MARKER = "# format: counts"


class FileFormatError(ValueError):
    """Unparseable input file."""


def _field_array(doc: dict, kind: str, key: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.asarray(doc[key], dtype=float)
    except KeyError:
        raise FileFormatError(f"state file of kind {kind!r} is missing field {key!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"field {key!r}: {exc}") from None
    if arr.shape != shape:
        raise FileFormatError(f"field {key!r} must have shape {shape}, got {arr.shape}")
    return arr


def load_state(path: str | Path) -> states.DensityMatrix:
    """Read a state file; validation errors propagate from the state model."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, long integers, deep nesting
        raise FileFormatError(f"cannot read state file {path}: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FileFormatError("state file must be a JSON object with a 'kind' field")
    kind = doc["kind"]
    if kind == "matrix":
        re = _field_array(doc, kind, "re", (4, 4))
        im = _field_array(doc, kind, "im", (4, 4))
        return states.validate(re + 1j * im)
    if kind == "pauli":
        pd = states.PauliDecomposition(
            A=_field_array(doc, kind, "A", (3,)),
            P=_field_array(doc, kind, "P", (3,)),
            D=_field_array(doc, kind, "D", (3, 3)),
        )
        return states.compose(pd)
    if kind == "werner":
        try:
            gamma = float(doc["gamma"])
        except KeyError:
            raise FileFormatError("state file of kind 'werner' is missing field 'gamma'") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise FileFormatError(f"field 'gamma': {exc}") from None
        return states.werner(gamma)
    if kind == "named":
        name = doc.get("name")
        if name not in states.NAMED_STATES:
            raise FileFormatError(
                f"unknown named state {name!r}; pick one of {sorted(states.NAMED_STATES)}"
            )
        return states.NAMED_STATES[name]()
    raise FileFormatError(f"unknown state kind {kind!r}")


def _data_lines(text: str) -> list[list[str]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f for f in (line.split(",") if "," in line else line.split()) if f.strip()]
        rows.append([f.strip() for f in fields] + [str(lineno)])
    return rows


def _floats(fields: list[str], n: int, lineno: str) -> list[float]:
    if len(fields) != n:
        raise FileFormatError(f"line {lineno}: expected {n} fields, got {len(fields)}")
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise FileFormatError(f"line {lineno}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise FileFormatError(f"line {lineno}: values must be finite")
    return values


def load_data(path: str | Path) -> list[ChshDatum]:
    """Read a CHSH data file (or a counts file, grouped into settings)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read data file {path}: {exc}") from None
    if is_counts_text(text):
        try:
            return group_counts(_parse_counts(text))
        except (EmptyCounts, NonpositiveError, NotFinite):
            raise  # degenerate data, not a parse problem
        except ValueError as exc:
            if isinstance(exc, FileFormatError):
                raise
            raise FileFormatError(f"counts file does not group into CHSH settings: {exc}") from None
    data = []
    for *fields, lineno in _data_lines(text):
        p1, p1p, p2, p2p, r, dr = _floats(fields, 6, lineno)
        try:
            data.append(
                ChshDatum(
                    settings=AngleSettings(phi1=p1, phi1p=p1p, phi2=p2, phi2p=p2p),
                    r_exp=r,
                    dr_exp=dr,
                )
            )
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    return data


def is_counts_text(text: str) -> bool:
    return any(line.strip() == COUNTS_MARKER for line in text.splitlines())


def _parse_counts(text: str) -> list[CountTable]:
    tables = []
    for *fields, lineno in _data_lines(text):
        p1, p2, *counts = _floats(fields, 6, lineno)
        if any(c != int(c) or c < 0 for c in counts):
            raise FileFormatError(f"line {lineno}: counts must be nonnegative integers")
        tables.append(
            CountTable(
                phi1=p1,
                phi2=p2,
                n_pp=int(counts[0]),
                n_pm=int(counts[1]),
                n_mp=int(counts[2]),
                n_mm=int(counts[3]),
            )
        )
    return tables


def counts_text(tables: Sequence[CountTable], header_lines: Sequence[str] = ()) -> str:
    """Render count tables in the counts file format (with format marker)."""
    lines = [COUNTS_MARKER]
    lines += [f"# {line}" for line in header_lines]
    lines.append("# phi1, phi2, n_pp, n_pm, n_mp, n_mm")
    for t in tables:
        lines.append(f"{float(t.phi1)!r}, {float(t.phi2)!r}, {t.n_pp}, {t.n_pm}, {t.n_mp}, {t.n_mm}")
    return "\n".join(lines) + "\n"


def load_settings(path: str | Path) -> list[tuple[float, float]]:
    """Read a settings file into a flat list of angle pairs."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read settings file {path}: {exc}") from None
    pairs: list[tuple[float, float]] = []
    for *fields, lineno in _data_lines(text):
        if len(fields) == 2:
            p1, p2 = _floats(fields, 2, lineno)
            pairs.append((p1, p2))
        elif len(fields) == 4:
            p1, p1p, p2, p2p = _floats(fields, 4, lineno)
            pairs.extend(AngleSettings(phi1=p1, phi1p=p1p, phi2=p2, phi2p=p2p).pairs())
        else:
            raise FileFormatError(
                f"line {lineno}: settings rows need 2 (pair) or 4 (CHSH) angles, got {len(fields)}"
            )
    return pairs
