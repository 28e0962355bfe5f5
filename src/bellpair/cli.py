"""Command-line front end.

Subcommands: ``analyze`` (metrics of one state), ``sweep`` (Werner family
versus gamma), ``table1`` (reference-table reproduction), ``fit`` (gamma
fit to CHSH data) and ``simulate`` (seeded coincidence counts).  Output is
an aligned table by default, or ``--format json``/``--format csv`` for
machine-readable documents that embed a run manifest.

Exit codes: 0 success, 2 input parse error, 3 invalid state, 4 empty or
degenerate data.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .bell import BELL_LIMIT, BellReport, horodecki_max
from .dataset import (
    DATASET_VERSION,
    FLAG_THRESHOLD,
    PUBLISHED_CASE1,
    PUBLISHED_CASE2,
    embedded_data,
)
from .fileio import FileFormatError, counts_text, load_data, load_settings, load_state
from .linalg import NotHermitian, NotPSD
from .protocol import (
    REFERENCE_GAMMA,
    ChshDatum,
    EmptyCounts,
    EmptyData,
    LengthMismatch,
    NonpositiveError,
    NotFinite,
    chi_square,
    chsh_from_correlation,
    fit_gamma,
)
from .simulate import SimConfig, SimConfigError, simulate
from .states import (
    SINGLET_PAULI,
    BlochVectorTooLong,
    GammaOutOfRange,
    NotPositive,
    TraceNotOne,
    decompose,
    werner,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STATE = 3
EXIT_EMPTY = 4

# Largest number of rows one ``sweep`` may produce: a step of 1e-4 over [0, 1].
SWEEP_MAX_ROWS = 10_001


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- small rendering helpers -------------------------------------------------


def _sig(x: float) -> str:
    return format(x, ".4g")


def _render_table(headers: list[str], rows: list[list[str]], footer: list[str] | None = None) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    if footer:
        lines.append("")
        lines.extend(footer)
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], rows: list[list[str]], comments: list[str]) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


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


def _json_doc(manifest: dict, body: dict) -> str:
    return json.dumps({"manifest": manifest, **body}, indent=2, allow_nan=False) + "\n"


def _vector(v) -> list[float]:
    return [float(x) for x in v]


# --- analyze -----------------------------------------------------------------


def _report_body(report: BellReport) -> dict:
    optimal = None
    if report.optimal is not None:
        optimal = {
            "a": _vector(report.optimal.a),
            "a_prime": _vector(report.optimal.a_prime),
            "b": _vector(report.optimal.b),
            "b_prime": _vector(report.optimal.b_prime),
        }
    return {
        "tangle": report.tangle,
        "M": report.M,
        "max_violation": report.max_violation,
        "purity": report.purity,
        "violates": report.violates,
        "optimal": optimal,
    }


def cmd_analyze(args: argparse.Namespace) -> str:
    state = load_state(args.state)
    report = horodecki_max(state)
    manifest = _manifest("analyze", {"state": str(args.state)}, args.format)
    if args.format == "json":
        return _json_doc(manifest, _report_body(report))
    if args.format == "csv":
        header = ["tangle", "M", "max_violation", "purity", "violates"]
        row = [repr(report.tangle), repr(report.M), repr(report.max_violation),
               repr(report.purity), str(report.violates).lower()]
        for name in ("a", "a_prime", "b", "b_prime"):
            for axis in "xyz":
                header.append(f"{name}_{axis}")
        if report.optimal is not None:
            for vec in (report.optimal.a, report.optimal.a_prime, report.optimal.b, report.optimal.b_prime):
                row.extend(repr(float(x)) for x in vec)
        else:
            row.extend([""] * 12)
        return _render_csv(header, [row], _manifest_comments(manifest))
    rows = [
        ["tangle", _sig(report.tangle)],
        ["purity", _sig(report.purity)],
        ["M", _sig(report.M)],
        ["max_violation", _sig(report.max_violation)],
        ["violates_chsh", "yes" if report.violates else "no"],
    ]
    if report.optimal is not None:
        for name, vec in (
            ("a", report.optimal.a),
            ("a'", report.optimal.a_prime),
            ("b", report.optimal.b),
            ("b'", report.optimal.b_prime),
        ):
            rows.append([f"optimal {name}", "(" + ", ".join(_sig(float(x)) for x in vec) + ")"])
    else:
        rows.append(["optimal settings", "undefined (degenerate correlation matrix)"])
    return _render_table(["quantity", "value"], rows)


# --- sweep -------------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> str:
    gmin, gmax, step = args.min, args.max, args.step
    if not all(map(math.isfinite, (gmin, gmax, step))):
        raise CommandError(EXIT_PARSE, "sweep needs finite --min, --max and --step")
    if not (0.0 <= gmin <= gmax <= 1.0) or step <= 0.0:
        raise CommandError(EXIT_PARSE, "sweep needs 0 <= min <= max <= 1 and step > 0")
    intervals = (gmax - gmin) / step + 1e-9
    if intervals >= SWEEP_MAX_ROWS:
        raise CommandError(EXIT_PARSE, f"sweep step {step!r} gives more than {SWEEP_MAX_ROWS} rows")
    n = int(math.floor(intervals))
    gammas = [min(gmin + k * step, gmax) for k in range(n + 1)]
    rows = []
    for g in gammas:
        report = horodecki_max(werner(g))
        rows.append((g, report.max_violation, report.tangle, report.purity))

    crossing = None
    for (g_lo, v_lo, _, _), (g_hi, v_hi, _, _) in zip(rows, rows[1:]):
        if v_lo <= BELL_LIMIT < v_hi:
            crossing = (g_lo, g_hi)
            break
    marker_bell = None
    if crossing is not None:
        marker_bell = min(range(len(rows)), key=lambda i: abs(rows[i][1] - BELL_LIMIT))
    marker_ref = None
    best = min(range(len(rows)), key=lambda i: abs(rows[i][0] - REFERENCE_GAMMA))
    if abs(rows[best][0] - REFERENCE_GAMMA) <= step / 2:
        marker_ref = best

    def marker(i: int) -> str:
        tags = []
        if i == marker_bell:
            tags.append("bell-limit")
        if i == marker_ref:
            tags.append(f"gamma~{REFERENCE_GAMMA}")
        return " ".join(tags)

    manifest = _manifest("sweep", {"min": gmin, "max": gmax, "step": step}, args.format)
    if args.format == "json":
        body = {
            "rows": [
                {
                    "gamma": g,
                    "max_violation": v,
                    "tangle": t,
                    "purity": p,
                    "marker": marker(i),
                }
                for i, (g, v, t, p) in enumerate(rows)
            ],
            "bell_limit_crossing": None
            if crossing is None
            else {"below": crossing[0], "above": crossing[1]},
        }
        return _json_doc(manifest, body)
    if args.format == "csv":
        comments = _manifest_comments(manifest)
        if crossing is not None:
            comments.append(f"bell_limit_crossing: {_sig(crossing[0])},{_sig(crossing[1])}")
        csv_rows = [
            [repr(g), repr(v), repr(t), repr(p), marker(i)]
            for i, (g, v, t, p) in enumerate(rows)
        ]
        return _render_csv(["gamma", "max_violation", "tangle", "purity", "marker"], csv_rows, comments)
    table_rows = [
        [_sig(g), _sig(v), _sig(t), _sig(p), marker(i)]
        for i, (g, v, t, p) in enumerate(rows)
    ]
    footer = []
    if crossing is not None:
        footer.append(
            f"Bell limit {BELL_LIMIT:g} crossed between gamma={_sig(crossing[0])} and gamma={_sig(crossing[1])}"
        )
    return _render_table(["gamma", "max_violation", "tangle", "purity", "marker"], table_rows, footer)


# --- table1 ------------------------------------------------------------------


def _table1_rows() -> list[dict]:
    data = embedded_data()
    mixed = decompose(werner(REFERENCE_GAMMA)).D
    rows = []
    for i, datum in enumerate(data):
        s = datum.settings
        case1 = chsh_from_correlation(SINGLET_PAULI.D, s)
        case2 = chsh_from_correlation(mixed, s)
        rows.append(
            {
                "phi1": s.phi1,
                "phi1p": s.phi1p,
                "phi2": s.phi2,
                "phi2p": s.phi2p,
                "case1": case1,
                "case1_published": PUBLISHED_CASE1[i],
                "case1_flag": abs(case1 - PUBLISHED_CASE1[i]) > FLAG_THRESHOLD,
                "case2": case2,
                "case2_published": PUBLISHED_CASE2[i],
                "case2_flag": abs(case2 - PUBLISHED_CASE2[i]) > FLAG_THRESHOLD,
                "r_exp": datum.r_exp,
                "dr_exp": datum.dr_exp,
            }
        )
    return rows


def cmd_table1(args: argparse.Namespace) -> str:
    rows = _table1_rows()
    data = embedded_data()
    chi2_case1 = chi_square(data, [r["case1"] for r in rows])
    chi2_case2 = chi_square(data, [r["case2"] for r in rows])
    chi2_case2_published = chi_square(data, list(PUBLISHED_CASE2))
    manifest = _manifest("table1", {"dataset_version": DATASET_VERSION}, args.format)
    chi2_body = {
        "chi2_case1": chi2_case1,
        "chi2_case2": chi2_case2,
        "chi2_case2_published_column": chi2_case2_published,
    }
    if args.format == "json":
        return _json_doc(manifest, {"rows": rows, **chi2_body})
    header = ["phi1", "phi1p", "phi2", "phi2p", "case1", "pub1", "case2", "pub2", "r_exp", "dr_exp", "flags"]
    if args.format == "csv":
        comments = _manifest_comments(manifest)
        comments += [f"{k}: {v!r}" for k, v in chi2_body.items()]
        csv_rows = []
        for r in rows:
            flags = _row_flags(r)
            csv_rows.append(
                [format(r[k], "g") for k in ("phi1", "phi1p", "phi2", "phi2p")]
                + [repr(r["case1"]), repr(r["case1_published"]), repr(r["case2"]), repr(r["case2_published"])]
                + [repr(r["r_exp"]), repr(r["dr_exp"]), flags]
            )
        return _render_csv(header, csv_rows, comments)
    table_rows = []
    for r in rows:
        table_rows.append(
            [format(r[k], "g") for k in ("phi1", "phi1p", "phi2", "phi2p")]
            + [f"{r['case1']:.2f}", f"{r['case1_published']:.2f}", f"{r['case2']:.2f}", f"{r['case2_published']:.2f}"]
            + [f"{r['r_exp']:.2f}", f"{r['dr_exp']:.2f}", _row_flags(r)]
        )
    footer = [
        f"chi2 case 1 (recomputed)        : {chi2_case1:.2f}",
        f"chi2 case 2 (recomputed, g=0.9) : {chi2_case2:.2f}",
        f"chi2 case 2 (published column)  : {chi2_case2_published:.2f}",
        "flags mark recomputed cells more than 0.005 from the published value",
    ]
    return _render_table(header, table_rows, footer)


def _row_flags(r: dict) -> str:
    flags = []
    if r["case1_flag"]:
        flags.append(f"case1:{r['case1']:.4f}!={r['case1_published']:.2f}")
    if r["case2_flag"]:
        flags.append(f"case2:{r['case2']:.4f}!={r['case2_published']:.2f}")
    return " ".join(flags)


# --- fit ---------------------------------------------------------------------


def _chi2_curve(data: list[ChshDatum], singlet_values: tuple[float, ...], step: float = 0.01):
    n = int(round(1.0 / step))
    out = []
    for k in range(n + 1):
        g = k * step
        out.append((g, chi_square(data, [g * s for s in singlet_values])))
    return out


def cmd_fit(args: argparse.Namespace) -> str:
    if args.embedded:
        data = embedded_data()
        source = f"embedded dataset v{DATASET_VERSION}"
    else:
        data = load_data(args.data)
        source = str(args.data)
    if not data:
        raise EmptyData("dataset has no rows")
    result = fit_gamma(data)
    curve = _chi2_curve(data, result.singlet_values)
    manifest = _manifest("fit", {"data": source}, args.format)
    residual_rows = [
        {
            "phi1": d.settings.phi1,
            "phi1p": d.settings.phi1p,
            "phi2": d.settings.phi2,
            "phi2p": d.settings.phi2p,
            "r_exp": d.r_exp,
            "dr_exp": d.dr_exp,
            "singlet_value": s,
            "prediction": result.gamma_hat * s,
            "residual": res,
        }
        for d, s, res in zip(data, result.singlet_values, result.residuals)
    ]
    if args.format == "json":
        body = {
            "gamma_hat": result.gamma_hat,
            "chi2_at_min": result.chi2_at_min,
            "chi2_case1": result.chi2_case1,
            "chi2_case2": result.chi2_case2,
            "residuals": residual_rows,
            "chi2_curve": [{"gamma": g, "chi2": c} for g, c in curve],
        }
        return _json_doc(manifest, body)
    if args.format == "csv":
        comments = _manifest_comments(manifest)
        comments += [
            f"gamma_hat: {result.gamma_hat!r}",
            f"chi2_at_min: {result.chi2_at_min!r}",
            f"chi2_case1: {result.chi2_case1!r}",
            f"chi2_case2: {result.chi2_case2!r}",
            "block: residuals",
        ]
        header = ["phi1", "phi1p", "phi2", "phi2p", "r_exp", "dr_exp", "singlet_value", "prediction", "residual"]
        rows = [
            [format(r["phi1"], "g"), format(r["phi1p"], "g"), format(r["phi2"], "g"), format(r["phi2p"], "g"),
             repr(r["r_exp"]), repr(r["dr_exp"]), repr(r["singlet_value"]), repr(r["prediction"]), repr(r["residual"])]
            for r in residual_rows
        ]
        text = _render_csv(header, rows, comments)
        curve_lines = ["# block: chi2_curve", "gamma,chi2"]
        curve_lines += [f"{g!r},{c!r}" for g, c in curve]
        return text + "\n".join(curve_lines) + "\n"
    rows = [
        [format(r["phi1"], "g"), format(r["phi1p"], "g"), format(r["phi2"], "g"), format(r["phi2p"], "g"),
         _sig(r["r_exp"]), _sig(r["dr_exp"]), _sig(r["singlet_value"]), _sig(r["prediction"]), _sig(r["residual"])]
        for r in residual_rows
    ]
    footer = [
        f"gamma_hat   : {_sig(result.gamma_hat)}",
        f"chi2 at min : {_sig(result.chi2_at_min)}",
        f"chi2 case 1 : {_sig(result.chi2_case1)} (gamma=1)",
        f"chi2 case 2 : {_sig(result.chi2_case2)} (gamma={REFERENCE_GAMMA})",
    ]
    header = ["phi1", "phi1p", "phi2", "phi2p", "r_exp", "dr_exp", "singlet", "fit", "residual"]
    return _render_table(header, rows, footer)


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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FileFormatError, SimConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotHermitian, TraceNotOne, NotPositive, NotPSD, GammaOutOfRange, BlochVectorTooLong) as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_STATE
    except (EmptyData, EmptyCounts, NonpositiveError, NotFinite, LengthMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
