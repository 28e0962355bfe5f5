import contextlib
import hashlib
import io
import json
import math
import os
import runpy
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellpair import __version__, cli
from bellpair.cli import SWEEP_MAX_ROWS, main
from bellpair.dataset import PUBLISHED_CASE1
from bellpair.states import werner

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def state_file(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_werner_table(tmp_path, capsys):
    path = state_file(tmp_path, {"kind": "werner", "gamma": 0.9})
    code, out, _ = run(capsys, "analyze", "--state", path)
    assert code == 0
    assert "max_violation  2.546" in out
    assert "tangle         0.85" in out
    assert "purity         0.8575" in out
    assert "violates_chsh  yes" in out


def test_analyze_singlet_json(tmp_path, capsys):
    path = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    code, out, _ = run(capsys, "analyze", "--state", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "analyze"
    assert doc["manifest"]["version"]
    assert doc["max_violation"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert doc["tangle"] == pytest.approx(1.0, abs=1e-9)
    assert doc["purity"] == pytest.approx(1.0, abs=1e-12)
    assert doc["violates"] is True
    assert len(doc["optimal"]["a"]) == 3


def test_analyze_unpolarized_has_no_optimal(tmp_path, capsys):
    path = state_file(tmp_path, {"kind": "named", "name": "unpolarized"})
    code, out, _ = run(capsys, "analyze", "--state", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tangle"] == 0.0
    assert doc["M"] == pytest.approx(0.0, abs=1e-12)
    assert doc["max_violation"] == pytest.approx(0.0, abs=1e-12)
    assert doc["purity"] == pytest.approx(0.25, abs=1e-12)
    assert doc["violates"] is False
    assert doc["optimal"] is None
    code, out, _ = run(capsys, "analyze", "--state", path)
    assert code == 0
    assert "optimal settings  undefined (degenerate correlation matrix)\n" in out


def test_analyze_csv_embeds_manifest(tmp_path, capsys):
    path = state_file(tmp_path, {"kind": "werner", "gamma": 0.5})
    code, out, _ = run(capsys, "analyze", "--state", path, "--format", "csv")
    assert code == 0
    assert out.startswith("# command: analyze")
    header = next(line for line in out.splitlines() if not line.startswith("#"))
    assert header.split(",")[:4] == ["tangle", "M", "max_violation", "purity"]


def test_analyze_exit_codes(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    code, _, err = run(capsys, "analyze", "--state", str(garbage))
    assert code == 2 and "error" in err

    bad = state_file(
        tmp_path,
        {
            "kind": "matrix",
            "re": np.diag([1.2, -0.2, 0.0, 0.0]).tolist(),
            "im": np.zeros((4, 4)).tolist(),
        },
        name="bad.json",
    )
    code, _, err = run(capsys, "analyze", "--state", bad)
    assert code == 3 and "invalid state" in err

    skew = np.eye(4) / 4
    skew[0, 1] = 1e-6
    skewed = state_file(tmp_path, {"kind": "matrix", "re": skew.tolist(), "im": np.zeros((4, 4)).tolist()},
                        name="skewed.json")
    code, out, err = run(capsys, "analyze", "--state", skewed)
    assert (code, out, err) == (3, "", "error: invalid state: matrix is not Hermitian to 1e-10\n")


@pytest.mark.parametrize("name", [["singlet"], {"singlet": 1}, None, 3])
def test_analyze_named_state_that_is_not_a_string_exit_2(tmp_path, capsys, name):
    code, out, err = run(capsys, "analyze", "--state", state_file(tmp_path, {"kind": "named", "name": name}))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown named state {name!r}; pick one of [")


@pytest.mark.parametrize("doc", [
    {"kind": "werner", "gamma": 10**400},
    {"kind": "pauli", "A": [10**400, 0, 0], "P": [0, 0, 0], "D": np.zeros((3, 3)).tolist()},
])
def test_analyze_huge_json_integers_exit_2(tmp_path, capsys, doc):
    code, out, err = run(capsys, "analyze", "--state", state_file(tmp_path, doc))
    assert code == 2 and out == "" and err.startswith("error:")


def test_analyze_over_long_json_integer_exit_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"kind": "werner", "gamma": ' + "1" * 5000 + "}")
    code, out, err = run(capsys, "analyze", "--state", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


def test_analyze_deeply_nested_state_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "analyze", "--state", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"kind": "matrix", "re": [[0.25, 1e155, 0, 0], [1e155, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
     "im": [[0.0] * 4] * 4},
    {"kind": "pauli", "A": [0, 0, 0], "P": [0, 0, 0], "D": [[0, 0, 0], [0, 0, 0], [0, 1e155, 0]]},
])
def test_analyze_entries_too_large_for_the_rotations_exit_3(tmp_path, capsys, doc):
    code, out, err = run(capsys, "analyze", "--state", state_file(tmp_path, doc))
    assert code == 3 and out == ""
    assert err == "error: invalid state: matrix entries must be finite, with magnitudes summing to at most 1e150\n"


@pytest.mark.parametrize("gamma, expected", [
    ("abc", (2, "error: field 'gamma': could not convert string to float: 'abc'\n")),
    (10**400, (2, "error: field 'gamma': int too large to convert to float\n")),
    ([0.5], (2, "error: field 'gamma': expected a number\n")),
    ({"g": 0.5}, (2, "error: field 'gamma': expected a number\n")),
    (None, (3, "error: invalid state: gamma must be in [0, 1], got nan\n")),  # null reads as NaN
    ("nan", (3, "error: invalid state: gamma must be in [0, 1], got nan\n")),
    (1.5, (3, "error: invalid state: gamma must be in [0, 1], got 1.5\n")),
])
def test_werner_gamma_follows_the_state_file_number_rule(tmp_path, capsys, gamma, expected):
    code, out, err = run(capsys, "analyze", "--state", state_file(tmp_path, {"kind": "werner", "gamma": gamma}))
    assert (code, out, err) == (expected[0], "", expected[1])


def test_werner_gamma_reads_numeric_strings_and_booleans_and_needs_the_field(tmp_path, capsys):
    def analyze(doc):
        return run(capsys, "analyze", "--state", state_file(tmp_path, doc, name="w.json"), "--format", "json")

    assert analyze({"kind": "werner", "gamma": " 0.5 "}) == analyze({"kind": "werner", "gamma": 0.5})
    assert analyze({"kind": "werner", "gamma": True}) == analyze({"kind": "werner", "gamma": 1.0})
    assert analyze({"kind": "werner"}) == (2, "", "error: state file of kind 'werner' is missing field 'gamma'\n")


_DIAGONAL = "[[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]"
_ZEROS3 = "[[0, 0, 0], [0, 0, 0], [0, 0, 0]]"


@pytest.mark.parametrize("text", [
    # an im entry beyond the float range: 1j * inf meets 0 * inf
    '{"kind": "matrix", "re": %s, "im": [[0, 1e400, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}' % _DIAGONAL,
    # Pauli coefficients whose sum overflows
    '{"kind": "pauli", "A": [1e308, 1e308, 1e308], "P": [1e308, 1e308, 1e308],'
    ' "D": [[1e308, 1e308, 1e308], [1e308, 1e308, 1e308], [1e308, 1e308, 1e308]]}',
    # an infinite Pauli coefficient, which composes to NaN entries
    '{"kind": "pauli", "A": [1e400, 0, 0], "P": [0, 0, 0], "D": %s}' % _ZEROS3,
    # a finite entry whose magnitude leaves the float range
    '{"kind": "matrix", "re": [[0.25, 1.7e308, 0, 0], [1.7e308, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],'
    ' "im": [[0, 1.7e308, 0, 0], [-1.7e308, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',
], ids=["matrix-im-1e400", "pauli-sum-overflows", "pauli-1e400", "matrix-abs-overflows"])
def test_non_finite_state_entries_print_only_the_error(tmp_path, capsys, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", "--state", str(path))
    assert code == 3 and out == ""
    assert err == "error: invalid state: matrix entries must be finite, with magnitudes summing to at most 1e150\n"


@pytest.mark.parametrize("bad", ["state", "data", "settings"])
def test_non_utf8_input_files_exit_2(tmp_path, capsys, bad):
    state = state_file(tmp_path, {"kind": "werner", "gamma": 0.9})
    settings = tmp_path / "settings.txt"
    settings.write_text("90, 0, 45, 135\n")
    broken = tmp_path / "broken.txt"
    broken.write_bytes(b"\xff90, 0, 45, 135\n")
    argv = {
        "state": ["simulate", "--state", str(broken), "--settings", str(settings)],
        "settings": ["simulate", "--state", state, "--settings", str(broken)],
        "data": ["fit", "--data", str(broken)],
    }[bad]
    if argv[0] == "simulate":
        argv += ["--events", "10", "--seed", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "cannot read" in err


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_nul_byte_input_paths_exit_2(tmp_path, capsys, command):
    state = state_file(tmp_path, {"kind": "werner", "gamma": 0.9})
    argv = {"fit": ["fit", "--data", "a\x00b"],
            "simulate": ["simulate", "--state", state, "--settings", "s\x00", "--events", "1", "--seed", "1"]}
    code, out, err = run(capsys, *argv[command])
    assert code == 2 and out == "" and err.startswith("error: cannot read ") and err.count("\n") == 1


def test_unreadable_input_paths_are_echoed_as_given(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "analyze", "--state", "./absent.json")
    assert (code, out) == (2, "")
    assert err == "error: cannot read state file ./absent.json: [Errno 2] No such file or directory: './absent.json'\n"


def test_analyze_accepts_anti_hermitian_noise_inside_the_rule(tmp_path, capsys):
    # validate accepts these files; the Pauli expectations of its stored
    # matrix are exactly real, so analyze must not reject them later.  On the
    # diagonal the noise sums past 1e-10, which the stored real trace ignores.
    for cells in (((0, 1), (1, 0), (2, 3), (3, 2)), ((0, 0), (1, 1), (2, 2))):
        m = np.array(werner(0.9).mat)
        for i, j in cells:
            m[i, j] += 0.45e-10j
        path = state_file(tmp_path, {"kind": "matrix", "re": m.real.tolist(), "im": m.imag.tolist()})
        for fmt in ("table", "json", "csv"):
            code, out, err = run(capsys, "analyze", "--state", path, "--format", fmt)
            assert code == 0 and err == "" and out


def test_sweep_endpoints_and_crossing(capsys):
    code, out, _ = run(capsys, "sweep", "--min", "0", "--max", "1", "--step", "0.01",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert rows[0]["gamma"] == 0.0
    assert rows[0]["max_violation"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["purity"] == pytest.approx(0.25, abs=1e-12)
    assert rows[-1]["gamma"] == pytest.approx(1.0, abs=1e-12)
    assert rows[-1]["max_violation"] == pytest.approx(2.8284, abs=5e-5)
    assert rows[-1]["tangle"] == pytest.approx(1.0, abs=1e-9)
    crossing = doc["bell_limit_crossing"]
    assert crossing["below"] == pytest.approx(0.70, abs=1e-9)
    assert crossing["above"] == pytest.approx(0.71, abs=1e-9)
    marked = [r["gamma"] for r in rows if "gamma~0.9" in r["marker"]]
    assert len(marked) == 1 and marked[0] == pytest.approx(0.9, abs=1e-9)
    assert any("bell-limit" in r["marker"] for r in rows)


def test_sweep_rejects_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--min", "0.5", "--max", "0.1")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "sweep", "--min", "0", "--max", "1", "--step", "-0.1")
    assert code == 2


@pytest.mark.parametrize("step, code", [("0.01", 0), ("0", 2), ("nan", 2), ("1e-12", 2)])
def test_sweep_figure_script_writes_the_sweep_csv(tmp_path, capsys, monkeypatch, step, code):
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr("sys.argv", ["sweep_figure.py", "--step", step, "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "sweep_figure.py"), run_name="__main__")
    assert exit_info.value.code == code
    if code == 0:
        assert f"wrote {out} (101 rows)" in capsys.readouterr().out
        assert main(["sweep", "--format", "csv"]) == 0
        assert out.read_text() == capsys.readouterr().out
    else:
        assert not out.exists() and capsys.readouterr().err.startswith("error: ")


def test_accuracy_script_runs_a_tiny_corpus_within_its_bounds(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["accuracy.py", "--per-class", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "accuracy.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert exit_info.value.code == 0
    rows = out.splitlines()[2:-1]
    assert len(rows) == 9 * 7 and not any(row.endswith("OVER") for row in rows)
    assert out.endswith("every row within its bound\n")


def test_accuracy_script_exits_1_when_a_row_exceeds_its_bound(capsys):
    script = runpy.run_path(str(SCRIPTS / "accuracy.py"))
    script["BOUNDS"]["eig rho"] = 0.0  # a random rho's eigenvalues are not floats: each error is above 0
    assert script["main"](["--per-class", "1"]) == 1
    out = capsys.readouterr().out
    assert sum(row.endswith("OVER") for row in out.splitlines()) >= 4
    assert out.endswith(" rows over their bound\n")


@pytest.mark.parametrize("arg", ["--step=nan", "--step=inf", "--min=nan", "--max=nan", "--min=-inf", "--max=inf"])
def test_sweep_rejects_non_finite_bounds(capsys, arg):
    code, out, err = run(capsys, "sweep", arg)
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("step", ["1e-300", "5e-324", "9.99e-5"])
def test_sweep_rejects_steps_beyond_the_row_cap(capsys, step):
    code, out, err = run(capsys, "sweep", "--step", step)
    assert code == 2 and out == "" and str(SWEEP_MAX_ROWS) in err


def test_sweep_single_point_accepts_any_positive_step(capsys):
    code, out, _ = run(capsys, "sweep", "--min", "0.5", "--max", "0.5", "--step", "1e-300", "--format", "csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines() if not line.startswith("#")] == ["gamma", "0.5"]


def test_table1_matches_published_case1(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 8
    for row, published in zip(doc["rows"], PUBLISHED_CASE1):
        assert float(f"{row['case1']:.2f}") == published
        assert not row["case1_flag"]
    flagged = [i for i, row in enumerate(doc["rows"]) if row["case2_flag"]]
    assert flagged == [2, 6]  # the double-rounded cell and the transcription slip
    assert doc["chi2_case1"] == pytest.approx(1.26, abs=0.01)
    assert doc["chi2_case2_published_column"] == pytest.approx(0.85, abs=0.01)
    assert doc["chi2_case2"] == pytest.approx(0.85, abs=0.01)


def test_table1_table_format_mentions_flags(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "chi2 case 1 (recomputed)        : 1.26" in out
    assert "chi2 case 2 (published column)  : 0.85" in out
    assert "case2:2.4180!=2.34" in out


def test_fit_embedded(capsys):
    code, out, _ = run(capsys, "fit", "--embedded", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chi2_case1"] == pytest.approx(1.26, abs=0.01)
    assert doc["chi2_case2"] == pytest.approx(0.85, abs=0.01)
    assert doc["gamma_hat"] == pytest.approx(0.6919, abs=2e-4)
    assert len(doc["residuals"]) == 8
    assert len(doc["chi2_curve"]) == 101
    curve_min = min(pt["chi2"] for pt in doc["chi2_curve"])
    assert doc["chi2_at_min"] <= curve_min + 1e-12


def test_fit_synthetic_exact(tmp_path, capsys):
    s = 3 * math.cos(math.radians(45)) - math.cos(math.radians(135))
    data = tmp_path / "data.txt"
    data.write_text(f"90, 0, 45, 135, {0.5 * s}, 0.1\n")
    code, out, _ = run(capsys, "fit", "--data", str(data), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma_hat"] == pytest.approx(0.5, abs=1e-9)
    assert doc["chi2_at_min"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("source", ["embedded", "exact"])
def test_chi2_curve_passes_through_the_reference_values(tmp_path, capsys, source, fmt):
    # 100 * 0.01 == 1.0 and 90 * 0.01 == 0.9, so the curve evaluates the same models as the summary
    if source == "embedded":
        argv = ["--embedded"]
    else:
        s = 3 * math.cos(math.radians(45)) - math.cos(math.radians(135))
        data = tmp_path / "data.txt"
        data.write_text(f"90, 0, 45, 135, {0.8 * s}, 0.1\n")
        argv = ["--data", str(data)]
    code, out, _ = run(capsys, "fit", *argv, "--format", fmt)
    assert code == 0
    if fmt == "json":
        summary = json.loads(out)
        curve = {pt["gamma"]: pt["chi2"] for pt in summary["chi2_curve"]}
    else:
        lines = out.splitlines()
        summary = {k: float(v) for k, _, v in (line[2:].partition(": ") for line in lines if line.startswith("# chi2_"))}
        block = lines[lines.index("# block: chi2_curve") + 2:]
        curve = {float(g): float(c) for g, c in (line.split(",") for line in block)}
    assert curve[1.0] == summary["chi2_case1"] and curve[0.9] == summary["chi2_case2"]


def test_fit_single_row_clamps(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("90, 0, 45, 135, 2.83, 0.01\n")
    code, out, _ = run(capsys, "fit", "--data", str(data), "--format", "json")
    assert code == 0
    assert json.loads(out)["gamma_hat"] == 1.0


def test_fit_empty_dataset_exit_4(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("# only comments\n")
    code, _, err = run(capsys, "fit", "--data", str(data))
    assert code == 4 and err == "error: cannot fit an empty dataset\n"
    # counts that give no datum: zero events, and perfect correlations (zero error)
    for counts, message in (("0, 0, 0, 0", "error: cannot estimate a correlation from zero events\n"),
                            ("5, 0, 0, 5", None)):
        data.write_text("# format: counts\n" + "".join(f"{a}, {b}, {counts}\n" for a in (0, 90) for b in (45, 135)))
        code, out, err = run(capsys, "fit", "--data", str(data))
        assert code == 4 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message is None or err == message


def test_fit_unparseable_exit_2(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1, 2, 3\n")
    code, _, _ = run(capsys, "fit", "--data", str(data))
    assert code == 2


def counts_file(*pairs):
    return "# format: counts\n" + "".join(f"{pair}, 1, 2, 3, 4\n" for pair in pairs)


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("fit", "# c\n1, 2, 3\n", "line 2: expected 6 fields, got 3"),
        ("fit", "50, 0, 25, 75, abc, 2.3\n", "line 1: could not convert string to float: 'abc'"),
        ("fit", "50, 0, 25, 75, 0.67, 2.3\n50, 0, 25, 75, nan, 2.3\n", "line 2: values must be finite"),
        ("fit", "\n50, 0, 25, 75, 0.67, 0\n", "line 2: dr_exp must be positive, got 0.0"),
        ("fit", "# format: counts\n90, 45, 1.5, 2, 3, 4\n",
         "line 2: counts must be nonnegative integers, got n_pp=1.5"),
        ("fit", "# format: counts\n90, 45, 1, -2, 3, 4\n",
         "line 2: counts must be nonnegative integers, got n_pm=-2.0"),
        ("fit", counts_file("90, 45", "90, 135", "0, 45"),
         "counts file does not group into CHSH settings: "
         "counts do not group into settings: 3 rows is not a multiple of 4"),
        ("fit", counts_file("90, 45", "80, 135", "0, 45", "0, 135"),
         "counts file does not group into CHSH settings: first-analyzer angles do not form a CHSH quadruple"),
        ("fit", counts_file("90, 45", "90, 135", "0, 50", "0, 135"),
         "counts file does not group into CHSH settings: second-analyzer angles do not form a CHSH quadruple"),
        ("simulate", "10, 20\n1, 2, 3\n", "line 2: settings rows need 2 (pair) or 4 (CHSH) angles, got 3"),
        ("simulate", "90, 0, inf, 135\n", "line 1: values must be finite"),
        ("simulate", "10, twenty\n", "line 1: could not convert string to float: 'twenty'"),
    ],
)
def test_text_file_errors_name_their_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    if command == "fit":
        argv = ["fit", "--data", str(path)]
    else:
        argv = ["simulate", "--state", state_file(tmp_path, {"kind": "named", "name": "singlet"}),
                "--settings", str(path), "--events", "10", "--seed", "1"]
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "row, expected",
    [
        ("50, 0, 25, 75, nan, 2.3", 2),  # non-finite r_exp is a parse error
        ("50, 0, 25, 75, 0.67, inf", 2),  # ... and so is a non-finite dr_exp
        ("50, 0, 25, 75, 0.67, 1e-200", 4),  # dr_exp**2 underflows
        ("50, 0, 25, 75, 1e300, 1e-10", 4),  # chi-square overflows
    ],
)
def test_fit_rows_outside_float_range(tmp_path, capsys, row, expected):
    data = tmp_path / "data.txt"
    data.write_text(row + "\n")
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, "fit", "--data", str(data), "--format", fmt)
        assert code == expected and out == "" and err.startswith("error:")


def test_fit_integer_counts_beyond_float_range_exit_4(tmp_path, capsys):
    data = tmp_path / "counts.txt"
    big = "9" * 400  # exact as an int; through float this was "values must be finite", exit 2
    data.write_text("# format: counts\n" + "".join(f"0, {a}, {big}, 1, 1, 0\n" for a in (0, 45, 0, 45)))
    code, out, err = run(capsys, "fit", "--data", str(data))
    assert code == 4 and out == "" and "leave the floating-point range" in err


def test_fit_counts_of_4300_digits_exit_4(tmp_path, capsys):
    # the total must not be converted to a decimal string in the message
    data = tmp_path / "counts.txt"
    big = "9" * 4300
    data.write_text("# format: counts\n" + "".join(f"0, {a}, {big}, {big}, {big}, {big}\n" for a in (0, 45, 0, 45)))
    code, out, err = run(capsys, "fit", "--data", str(data))
    assert code == 4 and out == "" and "leave the floating-point range" in err


def test_fit_counts_beyond_float_range_exit_4(tmp_path, capsys):
    data = tmp_path / "counts.txt"
    data.write_text("# format: counts\n" + "".join(f"0, {a}, 1e308, 1e308, 1e308, 0\n" for a in (0, 45, 0, 45)))
    code, out, err = run(capsys, "fit", "--data", str(data))
    assert code == 4 and out == "" and "leave the floating-point range" in err


def test_fit_counts_whose_errors_square_below_the_float_range_exit_4(tmp_path, capsys):
    # each dr_exp is about 2**-538: positive, but its square underflows in the fit's weights
    data = tmp_path / "counts.txt"
    data.write_text("# format: counts\n" + "".join(f"0, {a}, 1, {2**540}, 0, 0\n" for a in (0, 45, 0, 45)))
    code, out, err = run(capsys, "fit", "--data", str(data))
    assert (code, out, err) == (4, "", "error: dr_exp**2 underflows or overflows; rescale the data\n")


def test_csv_reads_back_every_float_exactly(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("12.3456789, 0.1, 45, 135, 1.9, 0.2\n")
    code, out, _ = run(capsys, "fit", "--data", str(data), "--format", "csv")
    assert code == 0
    header, row = [line.split(",") for line in out.splitlines() if not line.startswith("#")][:2]
    assert header[:4] == ["phi1", "phi1p", "phi2", "phi2p"]
    assert [float(x) for x in row[:4]] == [12.3456789, 0.1, 45.0, 135.0]

    code, out, _ = run(capsys, "sweep", "--format", "csv")
    assert code == 0
    comment = next(line for line in out.splitlines() if line.startswith("# bell_limit_crossing: "))
    code, out, _ = run(capsys, "sweep", "--format", "json")
    crossing = json.loads(out)["bell_limit_crossing"]
    assert [float(x) for x in comment.split(": ")[1].split(",")] == [crossing["below"], crossing["above"]]


@pytest.mark.parametrize("argv", [["analyze", "--state", "matrix.json"], ["sweep", "--step", "0.1"], ["fit", "--embedded"]])
def test_json_output_is_json_dumps_of_the_document(tmp_path, monkeypatch, capsys, argv):
    # the one shared encoder writes what a fresh json.dumps(..., indent=2, allow_nan=False) writes
    monkeypatch.chdir(tmp_path)
    state_file(tmp_path, GOLDEN_STATES["matrix.json"], "matrix.json")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    body = json.loads(out)
    manifest = body.pop("manifest")
    expected = json.dumps({"manifest": manifest, **body}, indent=2, allow_nan=False) + "\n"
    assert cli._write("json", manifest, body, [], []) == expected == out


def test_json_output_rejects_nan_and_the_encoder_keeps_working():
    manifest = cli._manifest("analyze", {"state": "s.json"}, "json")
    with pytest.raises(ValueError):
        cli._write("json", manifest, {"tangle": math.nan}, [], [])
    assert json.loads(cli._write("json", manifest, {"tangle": 0.5}, [], [])) == {"manifest": manifest, "tangle": 0.5}


# SHA-256 of stdout for fixed inputs.  A digest that moves is a visible
# output change, to be announced.  The data has an angle that needs all its
# digits, so the CSV digests also pin lossless angle fields.  The matrix and
# Pauli states are full rank and entangled, so ``analyze`` prints every field
# and all four directions; their digests pin the Jacobi, Cholesky factor,
# tangle and settings arithmetic.  The Werner and named states cover the other
# two state kinds.
GOLDEN_DATA = "12.3456789, 0.1, 45, 135, 1.9, 0.2\n50, 0, 25, 75, 2.3, 0.3\n90, 0, 45, 135, 2.2, 0.25\n"
GOLDEN_STATES = {
    "matrix.json": {"kind": "matrix",
                    "re": [[0.1, 0.02, -0.03, 0.01], [0.02, 0.4, -0.3, 0.03],
                           [-0.03, -0.3, 0.35, -0.02], [0.01, 0.03, -0.02, 0.15]],
                    "im": [[0, 0.01, -0.02, 0.005], [-0.01, 0, 0.1, -0.02],
                           [0.02, -0.1, 0, 0.01], [-0.005, 0.02, -0.01, 0]]},
    "pauli.json": {"kind": "pauli", "A": [0.1, -0.2, 0.05], "P": [0.0, 0.15, -0.1],
                   "D": [[-0.6, 0.1, 0.05], [0.02, -0.55, 0.1], [0.0, -0.05, -0.7]]},
    "werner.json": {"kind": "werner", "gamma": 0.8},
    "named.json": {"kind": "named", "name": "phi_minus"},
}
GOLDEN_SETTINGS = "0, 45, 22.5, 67.5\n"  # one CHSH row: four count rows
GOLDEN_DIGESTS = {
    ("table1", "table"): "79f351e4ef4b949b41d4f0477a89bc65e0aa86a6829e2acf97291bc32fb9c2ba",
    ("table1", "json"): "8d53714509633b569db4a42fd75495cf14045c3f5bb7559a5b3c5c4d5c0bb420",
    ("table1", "csv"): "00cec3c9d7acc20041379ad88ec19d485dbb94e8eb5f551ed8af527aaf053e5a",
    ("fit --embedded", "table"): "c4405173af27e1db8c74b8c96c2ee81bb12516ed7dbb0a0e5ab1e5dbc4b024f5",
    ("fit --embedded", "json"): "f03ce46567c74afd4208327c88120e5e0adbe5bf99ce3d954334cbbaf8819910",
    ("fit --embedded", "csv"): "41278a7c516fc06258b6c979c9f8256cd7684941443ea71cb1535a9dc846058c",
    ("fit --data data.txt", "table"): "9bbdf1d71cec68ef497509dea4d15636377ef48fc942af2d65a863f5d72c6978",
    ("fit --data data.txt", "json"): "24be86d136e0a74e39070e20c0fdd9fb14266e7bcd237830721e4c5f85fdc35e",
    ("fit --data data.txt", "csv"): "18543ea5af810fcb5c37644d17a032c0af6ff00f32c0015595533df629eb4c32",
    ("analyze --state matrix.json", "json"): "5e6482a8ca52d940034297c6792b36e25460d4c8866c1d31d9285dfd490326ef",
    ("analyze --state matrix.json", "csv"): "64c38a665740997a45099b9e0678fe9874cf02200dd86e6cfa3481128b21ad65",
    ("analyze --state pauli.json", "json"): "2c552b5f2786dffff73e9b0a3374fa518dd072295f37fb06264fc0162262b446",
    ("analyze --state pauli.json", "csv"): "7695f54f807f1e9ea70efaa77c9bc6eb4a3cd425bc0d5a25ffadb5c761c5d732",
    ("sweep", "table"): "03b3b588e779668641bf5c110dc5fd3936d82d06ca4e7f31744dd01f5519a8b3",
    ("sweep", "json"): "21d7b7a9029d6b6e4ee4072c150b053d98f3f65bf33703826da442b55f0d6955",
    ("sweep", "csv"): "45803c4fb421e0768832837fd57f5e629ad0e8cf9a2a18e709d931fb752bda5f",
    ("analyze --state matrix.json", "table"): "912a3b4e7509c024796a657aa1d3769212af13d44c91d0f893ac7430c61908e7",
    ("analyze --state pauli.json", "table"): "93b1baac74ef633ee2f2240342ac902f0a8034b4b1ea7a904021bdb618c55b85",
    ("analyze --state werner.json", "table"): "be0efae9fb3968dab9cccc8183c4cdf814d4c206243916fbf83c041d4318a73b",
    ("analyze --state werner.json", "json"): "3e47af9c1053c83b249d3b5f62a78f415a05920d636dfc157551e4edb87b7935",
    ("analyze --state werner.json", "csv"): "ef77ab144cc62fc3c97793e380459ed872370402a2e93a2c723e77e91e110f0e",
    ("analyze --state named.json", "table"): "9b2874842850f5810b4044e28eeca9c489131460e7a5e4ac13dd5b738186d628",
    ("analyze --state named.json", "json"): "b12922d3d46db036eff872d8d5d17b69f26644ac5a954be759ac7ac4aff1d24b",
    ("analyze --state named.json", "csv"): "72a800887e8dd0313bb836be7d283c6694bc1441f8940c5bf985cb610674f554",
    # the whole counts text: format marker, manifest comments, column header and rows
    ("simulate --state werner.json --settings settings.txt --events 1000 --seed 1", "table"):
        "2268397b1dcb40f2073b3916906823bb9e9687bc17d9ae65a576cb5252e6e8bf",
}


@pytest.mark.parametrize("command, fmt", list(GOLDEN_DIGESTS))
def test_golden_output_digests(tmp_path, monkeypatch, capsys, command, fmt):
    monkeypatch.chdir(tmp_path)  # the manifest names the input files by the paths given
    (tmp_path / "data.txt").write_text(GOLDEN_DATA)
    (tmp_path / "settings.txt").write_text(GOLDEN_SETTINGS)
    for name, doc in GOLDEN_STATES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command, fmt]


@pytest.mark.parametrize("command, fmt", list(GOLDEN_DIGESTS))
def test_golden_output_digests_under_python312_sum(tmp_path, monkeypatch, capsys, python312_sum,
                                                   command, fmt):
    # Python 3.12's sum compensates float rounding; pyproject allows 3.10 and later
    test_golden_output_digests(tmp_path, monkeypatch, capsys, command, fmt)


# Runs ``main`` on each argv of sys.argv[1] with numpy unimportable; prints [code, stdout] pairs.
_NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from bellpair.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps(results))
"""


def _package_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def test_importing_bellpair_leaves_numpy_unloaded():
    code = "import sys, bellpair, bellpair.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_importing_the_cli_without_site_loads_no_costly_module():
    # -S, because site may preload typing and pathlib itself (a .pth file of an installed package)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bellpair.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'typing', 'pathlib', 'numpy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(Path(cli.__file__).parents[1])],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_every_command_but_simulate_runs_without_numpy(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in GOLDEN_STATES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "data.txt").write_text(GOLDEN_DATA)
    (tmp_path / "settings.txt").write_text(GOLDEN_SETTINGS)
    assert main(["simulate", "--state", "werner.json", "--settings", "settings.txt", "--events", "1000",
                 "--seed", "1", "--out", "counts.txt"]) == 0
    commands = [["analyze", "--state", name] for name in GOLDEN_STATES]
    commands += [["sweep"], ["table1"], ["fit", "--embedded"], ["fit", "--data", "data.txt"],
                 ["fit", "--data", "counts.txt"]]
    argvs = [[*command, "--format", fmt] for command in commands for fmt in ("table", "json", "csv")]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED, json.dumps(argvs)], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert blocked == [list(run(capsys, *argv)[:2]) for argv in argvs]
    assert {code for code, _ in blocked} == {0}


def test_table1_agrees_with_fit(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    table = json.loads(out)
    code, out, _ = run(capsys, "fit", "--embedded", "--format", "json")
    assert code == 0
    fit = json.loads(out)
    assert (table["chi2_case1"], table["chi2_case2"]) == (fit["chi2_case1"], fit["chi2_case2"])
    assert all(row["case2"] == 0.9 * row["case1"] for row in table["rows"])


def test_simulate_deterministic_and_round_trip(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "werner", "gamma": 0.9})
    settings = tmp_path / "settings.txt"
    settings.write_text("90, 0, 45, 135\n")
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for out_file in (out_a, out_b):
        code, _, _ = run(
            capsys,
            "simulate", "--state", state, "--settings", str(settings),
            "--events", "100000", "--seed", "42", "--out", str(out_file),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    code, out, _ = run(capsys, "fit", "--data", str(out_a), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    sigma_gamma = doc["residuals"][0]["dr_exp"] / doc["residuals"][0]["singlet_value"]
    assert abs(doc["gamma_hat"] - 0.9) <= 3 * sigma_gamma


def test_simulate_fit_round_trip_keeps_angles_exact(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "werner", "gamma": 0.9})
    settings = tmp_path / "settings.txt"
    settings.write_text("12.3456789, 0.1, 45, 135\n")
    counts = tmp_path / "counts.txt"
    code, _, _ = run(
        capsys,
        "simulate", "--state", state, "--settings", str(settings),
        "--events", "1000", "--seed", "3", "--out", str(counts),
    )
    assert code == 0
    code, out, _ = run(capsys, "fit", "--data", str(counts), "--format", "json")
    assert code == 0
    row = json.loads(out)["residuals"][0]
    assert (row["phi1"], row["phi1p"], row["phi2"], row["phi2p"]) == (12.3456789, 0.1, 45.0, 135.0)


def test_simulate_full_reference_settings_recovers_gamma(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "werner", "gamma": 0.9})
    settings = tmp_path / "settings.txt"
    settings.write_text(
        "\n".join(
            f"{10 * (k + 5)}, 0, {5 * (k + 5)}, {15 * (k + 5)}" for k in range(8)
        )
        + "\n"
    )
    counts = tmp_path / "counts.txt"
    code, _, _ = run(
        capsys,
        "simulate", "--state", state, "--settings", str(settings),
        "--events", "1000000", "--seed", "42", "--out", str(counts),
    )
    assert code == 0
    code, out, _ = run(capsys, "fit", "--data", str(counts), "--format", "json")
    assert code == 0
    assert 0.89 <= json.loads(out)["gamma_hat"] <= 0.91


def test_simulate_counts_are_zero_for_aligned_singlet(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    settings = tmp_path / "settings.txt"
    settings.write_text("33, 33\n")
    code, out, _ = run(
        capsys, "simulate", "--state", state, "--settings", str(settings),
        "--events", "1000", "--seed", "1",
    )
    assert code == 0
    row = [line for line in out.splitlines() if not line.startswith("#")][0]
    fields = [f.strip() for f in row.split(",")]
    assert fields[2] == "0" and fields[5] == "0"


def test_simulate_rejects_bad_events(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    settings = tmp_path / "settings.txt"
    settings.write_text("0, 0\n")
    code, _, _ = run(
        capsys, "simulate", "--state", state, "--settings", str(settings),
        "--events", "0", "--seed", "1",
    )
    assert code == 2
    settings.write_text("# no rows\n")  # nothing to simulate: empty data, exit 4
    code, out, err = run(
        capsys, "simulate", "--state", state, "--settings", str(settings),
        "--events", "10", "--seed", "1",
    )
    assert (code, out, err) == (4, "", "error: settings file has no rows\n")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_rejects_out_of_range_seed(tmp_path, capsys, seed):
    state = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    settings = tmp_path / "settings.txt"
    settings.write_text("0, 0\n")
    code, out, err = run(
        capsys, "simulate", "--state", state, "--settings", str(settings),
        "--events", "10", "--seed", seed,
    )
    assert code == 2 and out == "" and err == "error: seed must be a 64-bit unsigned integer\n"


def _call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_gives_the_output_of_a_fresh_one(tmp_path, monkeypatch):
    werner = state_file(tmp_path, {"kind": "werner", "gamma": 0.8})
    bad_state = state_file(tmp_path, {"kind": "matrix", "re": np.diag([2.0, -1.0, 0, 0]).tolist(),
                                      "im": np.zeros((4, 4)).tolist()}, name="bad.json")
    settings = tmp_path / "settings.txt"
    settings.write_text("0, 45, 22.5, 67.5\n")
    counts = tmp_path / "counts.txt"
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    simulate = ["simulate", "--state", werner, "--settings", str(settings), "--events", "1000"]
    calls = [["simulate", *simulate[1:], "--seed", "5", "--out", str(counts)]]
    for fmt in ("table", "json", "csv"):
        calls += [
            ["analyze", "--state", werner, "--format", fmt],
            ["analyze", "--state", bad_state, "--format", fmt],  # exit 3
            ["sweep", "--min", "0.6", "--max", "0.8", "--step", "0.1", "--format", fmt],
            ["fit", "--data", str(empty), "--format", fmt],  # exit 4
            ["table1", "--format", fmt],
            ["sweep", "--step", "-1", "--format", fmt],  # exit 2
            ["fit", "--embedded", "--format", fmt],
            ["fit"],  # usage error: exit 2
            ["fit", "--data", str(counts), "--format", fmt],
            [*simulate, "--seed", "7", "--format", fmt],
            [*simulate, "--seed", "-1", "--format", fmt],  # exit 2
            ["analyze", "--state", werner],  # the default format after each other one
        ]
    calls += [["--help"], ["analyze", "--help"], ["fit", "--help"], ["simulate", "--help"],
              ["--version"], ["bogus"]]

    reused = [_call(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    build_fresh = cli._build_parser.__wrapped__
    monkeypatch.setattr(cli, "_build_parser", build_fresh)
    fresh = [_call(argv) for argv in calls]
    assert reused == fresh
    assert {code for code, _, _ in reused} == {0, 2, 3, 4}
    usage = [err for argv, (code, _, err) in zip(calls, reused) if argv == ["fit"]]
    assert len(usage) == 3 and all(e.startswith("usage: bellpair fit") for e in usage)
    assert reused[calls.index(["--help"])][1] == build_fresh().format_help()


def test_out_writes_identical_text(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--min", "0", "--max", "0.2", "--step", "0.1",
                     "--format", "csv", "--out", str(out_file))
    assert code == 0
    code, stdout, _ = run(capsys, "sweep", "--min", "0", "--max", "0.2", "--step", "0.1",
                          "--format", "csv")
    assert code == 0
    assert out_file.read_text() == stdout


def test_out_is_utf8_under_an_ascii_locale(tmp_path):
    # the state path lands in the output; under the C locale argv arrives
    # surrogate-escaped, and stdout and --out both give its bytes back
    state = state_file(tmp_path, {"kind": "werner", "gamma": 0.8}, name="\u00e9tat.json")
    out_file = tmp_path / "o.csv"
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-X", "utf8=0", "-m", "bellpair", "analyze", "--state", state, "--format", "csv"]
    written = subprocess.run([*argv, "--out", str(out_file)], env=env, capture_output=True, timeout=60)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    printed = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert printed.returncode == 0
    assert f"# state: {state}\n".encode() in printed.stdout
    assert out_file.read_bytes() == printed.stdout


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_out_to_dev_null_writes_in_place(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    assert run(capsys, "analyze", "--state", state, "--out", "/dev/null") == (0, "", "")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


def test_out_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old contents, longer than nothing\n")
    link.symlink_to(target)
    code, stdout, _ = run(capsys, "analyze", "--state", state, "--format", "json")
    assert code == 0
    assert run(capsys, "analyze", "--state", state, "--format", "json", "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == stdout


def test_out_finishes_partial_writes_and_truncates(tmp_path, monkeypatch, capsys):
    out_file = tmp_path / "sweep.json"
    out_file.write_text("x" * 100_000)  # longer than the output
    code, stdout, _ = run(capsys, "sweep", "--format", "json")
    assert code == 0
    os_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: os_write(fd, data[:4093]))  # short writes
    assert run(capsys, "sweep", "--format", "json", "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == stdout


def test_version_flag(capsys):
    assert run(capsys, "--version") == (0, f"bellpair {__version__}\n", "")


def test_both_module_entry_points_print_the_version():
    for module in ("bellpair", "bellpair.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "--version"], env=_package_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"bellpair {__version__}\n", "")


@pytest.mark.parametrize("extra, code", [(["--format", "json"], 0), (["--bogus"], 2)])
def test_the_module_entry_point_reads_sys_argv_as_main_reads_a_list(tmp_path, extra, code):
    argv = ["analyze", "--state", state_file(tmp_path, {"kind": "werner", "gamma": 0.8}), *extra]
    proc = subprocess.run([sys.executable, "-m", "bellpair", *argv], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == _call(argv)
    assert proc.returncode == code


@pytest.mark.parametrize("argv", [["sweep", "--step", "abc"], ["fit"], ["bogus"], [],
                                  ["simulate", "--events", "1e3"], ["analyze", "--state"]])
def test_usage_errors_return_2_with_argparse_text(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: bellpair") and "error: " in err


@pytest.mark.parametrize("target", ["missing/out.txt", ".", "state.json/out.txt", "nul\x00byte.txt"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    state = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    path = tmp_path / target
    code, out, err = run(capsys, "analyze", "--state", state, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_empty_out_path_is_a_missing_file_not_stdout(tmp_path, capsys):
    state = state_file(tmp_path, {"kind": "named", "name": "singlet"})
    assert run(capsys, "analyze", "--state", state, "--out", "") == (
        2, "", "error: cannot write : No such file or directory\n")
