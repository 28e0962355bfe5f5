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

Every file is read as UTF-8, with CRLF and lone CR line breaks read as LF,
after which LF alone ends a line, as in text mode: a form feed, a vertical
tab, U+2028 or any other character that ``str.splitlines`` would break at
stays inside its line.  Every number in these formats must be finite.  The
text formats share one row loop: a row with the wrong number of fields, a
number that does not parse, or a value that its model
(``AngleSettings``, ``ChshDatum``, ``CountTable``) rejects is reported with
its line number.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Sequence

from . import states
from .protocol import DEGENERATE_DATA, AngleSettings, ChshDatum, CountTable, group_counts

COUNTS_MARKER = "# format: counts"


class FileFormatError(ValueError):
    """Unparseable input file."""


def _numbers(value, shape: tuple[int, ...]):
    """A JSON value of the given shape as nested tuples of ``float``; ValueError for any
    other shape.  Leaves are numbers, booleans or numeric strings, read by ``float``, or
    null, read as NaN: like any non-finite entry it makes an invalid state, not a parse error."""
    if not shape:
        if isinstance(value, (list, dict)):
            raise ValueError("expected a number")
        return math.nan if value is None else float(value)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValueError(f"must have shape {shape}")
    tail = shape[1:]
    if not tail:
        try:  # a row of numbers, booleans or numeric strings reads as the loop below reads it
            return tuple(map(float, value))
        except TypeError:  # a null, list or object in the row: read leaf by leaf
            pass
    return tuple([_numbers(x, tail) for x in value])


def _field_array(doc: dict, kind: str, key: str, shape: tuple[int, ...]) -> tuple:
    try:
        return _numbers(doc[key], shape)
    except KeyError:
        raise FileFormatError(f"state file of kind {kind!r} is missing field {key!r}") from None
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"field {key!r}: {exc}") from None


def load_state(path: str | os.PathLike) -> states.DensityMatrix:
    """Read a state file; validation errors propagate from the state model."""
    text = _read_text(path, "state")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, long integers, deep nesting
        raise FileFormatError(f"cannot read state file {path}: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FileFormatError("state file must be a JSON object with a 'kind' field")
    kind = doc["kind"]
    if kind == "matrix":
        re = _field_array(doc, kind, "re", (4, 4))
        im = _field_array(doc, kind, "im", (4, 4))
        return states.validate([[complex(x, y) for x, y in zip(*rows)] for rows in zip(re, im)])
    if kind == "pauli":
        pd = states.PauliDecomposition(
            A=_field_array(doc, kind, "A", (3,)),
            P=_field_array(doc, kind, "P", (3,)),
            D=_field_array(doc, kind, "D", (3, 3)),
        )
        return states.compose(pd)
    if kind == "werner":
        return states.werner(_field_array(doc, kind, "gamma", ()))
    if kind == "named":
        name = doc.get("name")
        if not isinstance(name, str) or name not in states.NAMED_STATES:
            raise FileFormatError(
                f"unknown named state {name!r}; pick one of {sorted(states.NAMED_STATES)}"
            )
        return states.NAMED_STATES[name]()
    raise FileFormatError(f"unknown state kind {kind!r}")


def _read_text(path: str | os.PathLike, what: str) -> str:
    """The file's text, as text mode reads it: decoded as UTF-8, with each CRLF and
    then each lone CR made LF, so JSON error offsets count one character per line
    break.  Errors name ``path`` as given.  ``os.fspath`` rejects an int, which
    ``open`` would take for a file descriptor."""
    try:
        with open(os.fspath(path), "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, ValueError) as exc:  # also bad UTF-8 and a NUL byte in the path
        raise FileFormatError(f"cannot read {what} file {path}: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _rows(text: str, build: Callable[[list[str]], object]) -> list:
    """``build`` each data line's fields; a ValueError names its line, counted by LF."""
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in (line.split(",") if "," in line else line.split()) if f.strip()]
        try:
            rows.append(build(fields))
        except ValueError as exc:  # a model rule or one of _floats' checks
            raise FileFormatError(f"line {lineno}: {exc}") from None
    return rows


def _floats(fields: list[str], n: int, exact: int = 0) -> list[float]:
    """``n`` finite numbers; of the last ``exact`` fields, digit strings stay exact ``int``s."""
    if len(fields) != n:
        raise ValueError(f"expected {n} fields, got {len(fields)}")
    values = [int(f) if k >= n - exact and f.isascii() and f.isdigit() else float(f)
              for k, f in enumerate(fields)]
    if not all(isinstance(v, int) or math.isfinite(v) for v in values):
        raise ValueError("values must be finite")
    return values


def _datum(fields: list[str]) -> ChshDatum:
    p1, p1p, p2, p2p, r, dr = _floats(fields, 6)
    return ChshDatum(settings=AngleSettings(p1, p1p, p2, p2p), r_exp=r, dr_exp=dr)


def load_data(path: str | os.PathLike) -> list[ChshDatum]:
    """Read a CHSH data file (or a counts file, grouped into settings)."""
    text = _read_text(path, "data")
    if not is_counts_text(text):
        return _rows(text, _datum)
    tables = _parse_counts(text)
    try:
        return group_counts(tables)
    except DEGENERATE_DATA:
        raise
    except ValueError as exc:
        raise FileFormatError(f"counts file does not group into CHSH settings: {exc}") from None


def is_counts_text(text: str) -> bool:
    return any(line.strip() == COUNTS_MARKER for line in text.split("\n"))


def _parse_counts(text: str) -> list[CountTable]:
    return _rows(text, lambda fields: CountTable(*_floats(fields, 6, exact=4)))


def counts_text(tables: Sequence[CountTable], header_lines: Sequence[str] = ()) -> str:
    """Render count tables in the counts file format (with format marker)."""
    lines = [COUNTS_MARKER]
    lines += [f"# {line}" for line in header_lines]
    lines.append("# " + ", ".join(CountTable._fields))
    for t in tables:
        lines.append(f"{float(t.phi1)!r}, {float(t.phi2)!r}, {t.n_pp}, {t.n_pm}, {t.n_mp}, {t.n_mm}")
    return "\n".join(lines) + "\n"


def _settings_row(fields: list[str]) -> Sequence[tuple[float, float]]:
    if len(fields) == 2:
        return [tuple(_floats(fields, 2))]
    if len(fields) != 4:
        raise ValueError(f"settings rows need 2 (pair) or 4 (CHSH) angles, got {len(fields)}")
    return AngleSettings(*_floats(fields, 4)).pairs()


def load_settings(path: str | os.PathLike) -> list[tuple[float, float]]:
    """Read a settings file into a flat list of angle pairs."""
    rows = _rows(_read_text(path, "settings"), _settings_row)
    return [pair for row in rows for pair in row]
