"""Command-line front end.

Subcommands: ``analyze`` (metrics of one state), ``sweep`` (Werner family
versus gamma), ``table1`` (reference-table reproduction), ``fit`` (gamma
fit to CHSH data) and ``simulate`` (seeded coincidence counts).  Output is
an aligned table by default, or ``--format json``/``--format csv`` for
machine-readable documents that embed a run manifest.  ``--format`` and
``--out`` belong to each subcommand and follow its name:
``bellpair analyze --state s.json --format json``.

Exit codes: 0 success (help and version too), 2 usage, input parse or
``--out`` write error, 3 invalid state, 4 empty or degenerate data.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Sequence

from . import __version__
from .bell import BELL_LIMIT, AnalyzerDirections, BellReport, horodecki_max
from .dataset import (
    DATASET_VERSION,
    FLAG_THRESHOLD,
    PUBLISHED_CASE1,
    PUBLISHED_CASE2,
    embedded_data,
)
from .fileio import FileFormatError, counts_text, load_data, load_settings, load_state
from .linalg import NotHermitian, NotPositive
from .protocol import DEGENERATE_DATA, REFERENCE_GAMMA, AngleSettings, ChshDatum, EmptyData, chi_square, fit_gamma
from .simulate import SimConfig, SimConfigError, simulate
from .states import GammaOutOfRange, TraceNotOne, werner

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STATE = 3
EXIT_EMPTY = 4

# Largest number of rows one ``sweep`` may produce: a step of 1e-4 over [0, 1].
SWEEP_MAX_ROWS = 10_001


class CommandError(ValueError):
    """Command-line arguments that parse but make no valid command."""


# --- one writer for every output format ----------------------------------------


# strict JSON, as json.dumps(..., indent=2, allow_nan=False) writes it
_JSON = json.JSONEncoder(indent=2, allow_nan=False)


class _Column(namedtuple("_Column", "name spec label", defaults=(".4g", None))):
    """``name`` is the CSV header and JSON key, ``spec`` the table format of a
    float cell, ``label`` the table header when it differs from ``name``."""

    __slots__ = ()


def _write(
    fmt: str,
    manifest: dict,
    body: dict,
    columns: list[_Column],
    rows: list[list],
    comments: Sequence[str] = (),
    footer: Sequence[str] = (),
    blocks: Sequence[tuple[str, list[_Column], list[list]]] = (),
) -> str:
    """Render one command's output.

    JSON writes the manifest and ``body``.  CSV and the table write ``rows``,
    whose cells are raw values: a string is written as it is, a float with
    ``repr`` in CSV and with its column's ``spec`` in the table.  CSV starts
    with the manifest and ``comments`` as ``#`` lines and ends with each of
    ``blocks``, a ``(comment, columns, rows)`` triple; the table ends with
    ``footer``.
    """
    if fmt == "json":
        return _JSON.encode({"manifest": manifest, **body}) + "\n"
    if fmt == "csv":
        text = _render_csv(columns, rows, [*_manifest_comments(manifest), *comments])
        for comment, block_columns, block_rows in blocks:
            text += _render_csv(block_columns, block_rows, [comment])
        return text
    return _render_table(columns, rows, footer)


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _render_csv(columns: list[_Column], rows: list[list], comments: list[str]) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(column.name for column in columns))
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _table_cell(value, spec: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):  # a vector, shown as (x, y, z)
        return "(" + ", ".join(format(x, spec) for x in value) + ")"
    return format(value, spec)


def _render_table(columns: list[_Column], rows: list[list], footer: Sequence[str]) -> str:
    headers = [column.label or column.name for column in columns]
    cells = [[_table_cell(value, column.spec) for value, column in zip(row, columns)] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    if footer:
        lines.append("")
        lines.extend(footer)
    return "\n".join(lines) + "\n"


def _records(columns: list[_Column], rows: list[list]) -> list[dict]:
    """The rows as JSON objects keyed by column name."""
    names = [column.name for column in columns]
    return [dict(zip(names, row)) for row in rows]


def _manifest(command: str, inputs: dict, fmt: str, seed: int | None = None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "format": fmt,
        "version": __version__,
    }


def _manifest_comments(manifest: dict) -> list[str]:
    out = [f"command: {manifest['command']}", f"version: {manifest['version']}"]
    for key, value in manifest["inputs"].items():
        out.append(f"{key}: {value}")
    if manifest["seed"] is not None:
        out.append(f"seed: {manifest['seed']}")
    return out


# --- analyze -----------------------------------------------------------------

# JSON keys and CSV columns before the directions: every report field but ``optimal``
_ANALYZE_KEYS = (*BellReport._fields[:-1], "violates")
_QUANTITY_COLUMNS = [_Column("quantity"), _Column("value")]
_ANALYZE_COLUMNS = [_Column(key) for key in _ANALYZE_KEYS]
_ANALYZE_COLUMNS += [_Column(f"{name}_{axis}") for name in AnalyzerDirections._fields for axis in "xyz"]


def cmd_analyze(args: argparse.Namespace) -> str:
    report = horodecki_max(load_state(args.state))
    optimal = None if report.optimal is None else report.optimal._asdict()
    body = {key: getattr(report, key) for key in _ANALYZE_KEYS}
    body["optimal"] = optimal
    columns, rows = _ANALYZE_COLUMNS, []  # JSON writes the body alone
    if args.format == "table":  # one quantity per line
        columns = _QUANTITY_COLUMNS
        rows = [[key, body[key]] for key in ("tangle", "purity", "M", "max_violation")]
        rows.append(["violates_chsh", "yes" if report.violates else "no"])
        if optimal is None:
            rows.append(["optimal settings", "undefined (degenerate correlation matrix)"])
        else:  # a_prime is labelled a'
            rows += [["optimal " + name.replace("_prime", "'"), value] for name, value in optimal.items()]
    elif args.format == "csv":  # one row, the directions split into components
        row = [body[key] for key in _ANALYZE_KEYS]
        if optimal is not None:
            row += [x for direction in optimal.values() for x in direction]
        rows = [row + [""] * (len(_ANALYZE_COLUMNS) - len(row))]  # empty cells for undefined directions
    manifest = _manifest("analyze", {"state": str(args.state)}, args.format)
    return _write(args.format, manifest, body, columns, rows)


# --- sweep -------------------------------------------------------------------

_SWEEP_COLUMNS = [_Column(name) for name in ("gamma", "max_violation", "tangle", "purity", "marker")]


def cmd_sweep(args: argparse.Namespace) -> str:
    gmin, gmax, step = args.min, args.max, args.step
    if not all(map(math.isfinite, (gmin, gmax, step))):
        raise CommandError("sweep needs finite --min, --max and --step")
    if not (0.0 <= gmin <= gmax <= 1.0) or step <= 0.0:
        raise CommandError("sweep needs 0 <= min <= max <= 1 and step > 0")
    intervals = (gmax - gmin) / step + 1e-9
    if intervals >= SWEEP_MAX_ROWS:
        raise CommandError(f"sweep step {step!r} gives more than {SWEEP_MAX_ROWS} rows")
    n = int(math.floor(intervals))
    rows = []
    for k in range(n + 1):
        g = min(gmin + k * step, gmax)
        report = horodecki_max(werner(g))
        rows.append([g, report.max_violation, report.tangle, report.purity, ""])

    crossing = None
    for below, above in zip(rows, rows[1:]):
        if below[1] <= BELL_LIMIT < above[1]:
            crossing = {"below": below[0], "above": above[0]}
            break
    comments, footer = [], []
    if crossing is not None:
        min(rows, key=lambda row: abs(row[1] - BELL_LIMIT))[4] = "bell-limit"
        comments.append(f"bell_limit_crossing: {crossing['below']!r},{crossing['above']!r}")
        footer.append(f"Bell limit {BELL_LIMIT:g} crossed between gamma={crossing['below']:.4g}"
                      f" and gamma={crossing['above']:.4g}")
    nearest = min(rows, key=lambda row: abs(row[0] - REFERENCE_GAMMA))
    if abs(nearest[0] - REFERENCE_GAMMA) <= step / 2:
        nearest[4] = f"{nearest[4]} gamma~{REFERENCE_GAMMA}".lstrip()

    manifest = _manifest("sweep", {"min": gmin, "max": gmax, "step": step}, args.format)
    body = {"rows": _records(_SWEEP_COLUMNS, rows), "bell_limit_crossing": crossing}
    return _write(args.format, manifest, body, _SWEEP_COLUMNS, rows, comments, footer)


# --- table1 ------------------------------------------------------------------

_ANGLE_COLUMNS = [_Column(name, "g") for name in AngleSettings._fields]
_TABLE1_COLUMNS = [
    *_ANGLE_COLUMNS,
    *(_Column(name, ".2f") for name in ("case1", "pub1", "case2", "pub2", "r_exp", "dr_exp")),
    _Column("flags"),
]
_TABLE1_KEYS = (*AngleSettings._fields, "case1", "case1_published", "case1_flag",
                "case2", "case2_published", "case2_flag", "r_exp", "dr_exp")  # JSON, in this order


def cmd_table1(args: argparse.Namespace) -> str:
    data = embedded_data()
    fit = fit_gamma(data)  # case 1 is the singlet model gamma * S at gamma = 1, case 2 at REFERENCE_GAMMA
    records, rows = [], []
    for datum, case1, pub1, pub2 in zip(data, fit.singlet_values, PUBLISHED_CASE1, PUBLISHED_CASE2):
        s = datum.settings
        case2 = REFERENCE_GAMMA * case1
        flag1 = abs(case1 - pub1) > FLAG_THRESHOLD
        flag2 = abs(case2 - pub2) > FLAG_THRESHOLD
        records.append(dict(zip(_TABLE1_KEYS, (*s, case1, pub1, flag1, case2, pub2, flag2,
                                               datum.r_exp, datum.dr_exp))))
        flags = [f"case{k}:{r:.4f}!={p:.2f}"
                 for k, r, p, flagged in ((1, case1, pub1, flag1), (2, case2, pub2, flag2)) if flagged]
        rows.append([*s, case1, pub1, case2, pub2, datum.r_exp, datum.dr_exp, " ".join(flags)])
    chi2 = {
        "chi2_case1": fit.chi2_case1,
        "chi2_case2": fit.chi2_case2,
        "chi2_case2_published_column": chi_square(data, list(PUBLISHED_CASE2)),
    }
    footer = [
        f"chi2 case 1 (recomputed)        : {chi2['chi2_case1']:.2f}",
        f"chi2 case 2 (recomputed, g={REFERENCE_GAMMA}) : {chi2['chi2_case2']:.2f}",
        f"chi2 case 2 (published column)  : {chi2['chi2_case2_published_column']:.2f}",
        f"flags mark recomputed cells more than {FLAG_THRESHOLD} from the published value",
    ]
    manifest = _manifest("table1", {"dataset_version": DATASET_VERSION}, args.format)
    comments = [f"{k}: {v!r}" for k, v in chi2.items()]
    return _write(args.format, manifest, {"rows": records, **chi2}, _TABLE1_COLUMNS, rows, comments, footer)


# --- fit ---------------------------------------------------------------------

_FIT_COLUMNS = [
    *_ANGLE_COLUMNS,
    _Column("r_exp"),
    _Column("dr_exp"),
    _Column("singlet_value", label="singlet"),
    _Column("prediction", label="fit"),
    _Column("residual"),
]
_CURVE_COLUMNS = [_Column("gamma"), _Column("chi2")]
# the fit summary: each JSON/CSV key, a FitResult field, with its table footer line
_FIT_SUMMARY = (
    ("gamma_hat", "gamma_hat   : {:.4g}"),
    ("chi2_at_min", "chi2 at min : {:.4g}"),
    ("chi2_case1", "chi2 case 1 : {:.4g} (gamma=1)"),
    ("chi2_case2", f"chi2 case 2 : {{:.4g}} (gamma={REFERENCE_GAMMA})"),
)


def _chi2_curve(data: list[ChshDatum], singlet_values: tuple[float, ...]) -> list[list]:
    """chi2 of the model gamma * S_i at gamma = 0, 0.01, ..., 1."""
    curve = []
    for k in range(101):
        g = k * 0.01
        curve.append([g, chi_square(data, [g * s for s in singlet_values])])
    return curve


def cmd_fit(args: argparse.Namespace) -> str:
    if args.embedded:
        data = embedded_data()
        source = f"embedded dataset v{DATASET_VERSION}"
    else:
        data = load_data(args.data)
        source = str(args.data)
    result = fit_gamma(data)
    curve = _chi2_curve(data, result.singlet_values)
    rows = [[*d.settings, d.r_exp, d.dr_exp, s, result.gamma_hat * s, res]
            for d, s, res in zip(data, result.singlet_values, result.residuals)]
    summary = {key: getattr(result, key) for key, _ in _FIT_SUMMARY}
    body = {**summary, "residuals": _records(_FIT_COLUMNS, rows), "chi2_curve": _records(_CURVE_COLUMNS, curve)}
    comments = [f"{k}: {v!r}" for k, v in summary.items()] + ["block: residuals"]
    footer = [line.format(summary[key]) for key, line in _FIT_SUMMARY]
    manifest = _manifest("fit", {"data": source}, args.format)
    return _write(args.format, manifest, body, _FIT_COLUMNS, rows, comments, footer,
                  blocks=[("block: chi2_curve", _CURVE_COLUMNS, curve)])


# --- simulate ------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> str:
    state = load_state(args.state)
    settings = load_settings(args.settings)
    if not settings:
        raise EmptyData("settings file has no rows")
    cfg = SimConfig(
        state=state,
        settings=tuple(settings),
        events_per_setting=args.events,
        seed=args.seed,
    )
    tables = simulate(cfg)
    manifest = _manifest(
        "simulate",
        {"state": str(args.state), "settings": str(args.settings), "events": args.events},
        args.format,
        seed=args.seed,
    )
    return counts_text(tables, header_lines=_manifest_comments(manifest))


# --- wiring --------------------------------------------------------------------


@functools.cache  # built on the first call; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellpair",
        description="CHSH-Bell violation, entanglement and mixing fits for two-qubit states",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="metrics of one state file")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", parents=[common], help="Werner-family metrics versus gamma")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", parents=[common], help="reference-table reproduction")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fit", parents=[common], help="fit the mixing weight gamma to CHSH data")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="data file (or simulator counts file)")
    group.add_argument("--embedded", action="store_true", help="use the bundled reference dataset")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="simulate coincidence counts (always emits the counts text format)",
    )
    p.add_argument("--state", required=True)
    p.add_argument("--settings", required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_simulate)
    parser.commands = sub.choices  # each subcommand's parser by name
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    try:
        # The top-level pass would hand argv[1:] to the command's parser as it
        # is; it also rejects a "--=" token as ambiguous (--help or --version).
        if command is None or any(a.startswith("--=") for a in argv):
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error("unrecognized arguments: " + " ".join(extras))
    except SystemExit as exc:  # argparse has printed the usage error, help or version
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        text = args.func(args)
    except (CommandError, FileFormatError, SimConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotHermitian, TraceNotOne, NotPositive, GammaOutOfRange) as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_STATE
    except DEGENERATE_DATA as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    if args.out is not None:
        try:
            data = memoryview(text.encode("utf-8", "surrogateescape"))  # UTF-8 whatever the locale; argv bytes round-trip
            fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)  # as open(..., "wb") opens
            try:
                while data:  # a write may take only part of the data
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            print(f"error: cannot write {args.out}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
