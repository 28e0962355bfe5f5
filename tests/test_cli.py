import contextlib
import io
import json
import math

import numpy as np
import pytest

from bellpair import cli
from bellpair.cli import SWEEP_MAX_ROWS, main
from bellpair.dataset import PUBLISHED_CASE1


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
    assert code == 4 and "error" in err


def test_fit_unparseable_exit_2(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1, 2, 3\n")
    code, _, _ = run(capsys, "fit", "--data", str(data))
    assert code == 2


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


def test_fit_counts_beyond_float_range_exit_4(tmp_path, capsys):
    data = tmp_path / "counts.txt"
    data.write_text("# format: counts\n" + "".join(f"0, {a}, 1e308, 1e308, 1e308, 0\n" for a in (0, 45, 0, 45)))
    code, out, err = run(capsys, "fit", "--data", str(data))
    assert code == 4 and out == "" and "leave the floating-point range" in err


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


def _call(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or SystemExit code), stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
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
            ["fit"],  # usage error: SystemExit(2)
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
