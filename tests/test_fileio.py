import json

import numpy as np
import pytest

from bellpair.fileio import (
    COUNTS_MARKER,
    FileFormatError,
    counts_text,
    is_counts_text,
    load_data,
    load_settings,
    load_state,
    _parse_counts,
)
from bellpair.protocol import CountTable
from bellpair.states import NotPositive, TraceNotOne, singlet, unpolarized, werner


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_state_werner(tmp_path):
    path = write(tmp_path, "w.json", '{"kind": "werner", "gamma": 0.9}')
    assert np.allclose(load_state(path).mat, werner(0.9).mat)


def test_load_state_named(tmp_path):
    path = write(tmp_path, "s.json", '{"kind": "named", "name": "singlet"}')
    assert np.allclose(load_state(path).mat, singlet().mat)


def test_load_state_matrix(tmp_path):
    doc = {
        "kind": "matrix",
        "re": (np.eye(4) / 4).tolist(),
        "im": np.zeros((4, 4)).tolist(),
    }
    path = write(tmp_path, "m.json", json.dumps(doc))
    assert np.allclose(load_state(path).mat, unpolarized().mat)


def test_load_state_pauli(tmp_path):
    doc = {
        "kind": "pauli",
        "A": [0, 0, 0],
        "P": [0, 0, 0],
        "D": np.diag([-0.9, -0.9, -0.9]).tolist(),
    }
    path = write(tmp_path, "p.json", json.dumps(doc))
    assert np.max(np.abs(load_state(path).mat - werner(0.9).mat)) <= 1e-12


def test_load_state_bad_json(tmp_path):
    path = write(tmp_path, "bad.json", "not json at all")
    with pytest.raises(FileFormatError):
        load_state(path)


def test_load_state_unknown_kind(tmp_path):
    path = write(tmp_path, "k.json", '{"kind": "mystery"}')
    with pytest.raises(FileFormatError):
        load_state(path)


def test_load_state_unknown_name(tmp_path):
    path = write(tmp_path, "n.json", '{"kind": "named", "name": "ghz"}')
    with pytest.raises(FileFormatError):
        load_state(path)


def test_load_state_missing_field(tmp_path):
    path = write(tmp_path, "m.json", '{"kind": "werner"}')
    with pytest.raises(FileFormatError):
        load_state(path)


def test_load_state_invalid_matrix_propagates_model_errors(tmp_path):
    doc = {"kind": "matrix", "re": np.diag([1.0, 1.0, 0, 0]).tolist(), "im": np.zeros((4, 4)).tolist()}
    path = write(tmp_path, "t.json", json.dumps(doc))
    with pytest.raises(TraceNotOne):
        load_state(path)
    doc = {"kind": "pauli", "A": [0, 0, 0], "P": [0, 0, 0], "D": np.diag([-2.0, 0, 0]).tolist()}
    path = write(tmp_path, "np.json", json.dumps(doc))
    with pytest.raises(NotPositive):
        load_state(path)


def test_load_data_commas_whitespace_and_comments(tmp_path):
    text = "# comment line\n50, 0, 25, 75, 0.67, 2.30\n60 0 30 90 1.21 2.42\n\n"
    data = load_data(write(tmp_path, "d.txt", text))
    assert len(data) == 2
    assert data[0].settings.phi1 == 50.0
    assert data[1].settings.phi2p == 90.0
    assert data[1].dr_exp == 2.42


def test_load_data_wrong_field_count(tmp_path):
    with pytest.raises(FileFormatError):
        load_data(write(tmp_path, "d.txt", "1, 2, 3\n"))


def test_load_data_nonpositive_error_is_parse_error(tmp_path):
    with pytest.raises(FileFormatError):
        load_data(write(tmp_path, "d.txt", "50, 0, 25, 75, 0.67, 0.0\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_text_formats_reject_non_finite_values(tmp_path, value):
    with pytest.raises(FileFormatError):
        load_data(write(tmp_path, "d.txt", f"50, 0, 25, 75, {value}, 2.30\n"))
    with pytest.raises(FileFormatError):
        load_data(write(tmp_path, "c.txt", f"{COUNTS_MARKER}\n0, 0, {value}, 2, 3, 4\n"))
    with pytest.raises(FileFormatError):
        load_settings(write(tmp_path, "s.txt", f"{value}, 20\n"))


def test_load_data_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        load_data(tmp_path / "absent.txt")


def test_counts_round_trip(tmp_path):
    tables = [
        CountTable(90.0, 45.0, 1, 2, 3, 4),
        CountTable(90.0, 135.0, 4, 3, 2, 1),
        CountTable(0.0, 45.0, 5, 6, 7, 8),
        CountTable(0.0, 135.0, 8, 7, 6, 5),
    ]
    text = counts_text(tables, header_lines=["seed: 7"])
    assert text.startswith(COUNTS_MARKER)
    assert is_counts_text(text)
    path = write(tmp_path, "c.txt", text)
    assert _parse_counts(path.read_text()) == tables
    # the same file feeds the fitter directly, grouped four rows at a time
    data = load_data(path)
    assert len(data) == 1
    assert data[0].settings.phi1 == 90.0
    assert data[0].settings.phi1p == 0.0
    assert data[0].settings.phi2 == 45.0
    assert data[0].settings.phi2p == 135.0


def test_counts_angles_round_trip_exactly(tmp_path):
    tables = [CountTable(12.3456789, 1 / 3, 1, 2, 3, 4)]
    assert _parse_counts(counts_text(tables)) == tables


def test_counts_grouping_failure_is_parse_error(tmp_path):
    tables = [CountTable(90.0, 45.0, 1, 2, 3, 4)] * 3
    path = write(tmp_path, "c.txt", counts_text(tables))
    with pytest.raises(FileFormatError):
        load_data(path)


def test_counts_reject_fractional_counts(tmp_path):
    path = write(tmp_path, "c.txt", COUNTS_MARKER + "\n0, 0, 1.5, 2, 3, 4\n")
    with pytest.raises(FileFormatError, match="nonnegative integers"):
        _parse_counts(path.read_text())


def test_load_settings_pairs_and_quadruples(tmp_path):
    text = "# pairs\n10, 20\n# a CHSH row expands to its four pairs\n90, 0, 45, 135\n"
    pairs = load_settings(write(tmp_path, "s.txt", text))
    assert pairs == [
        (10.0, 20.0),
        (90.0, 45.0),
        (90.0, 135.0),
        (0.0, 45.0),
        (0.0, 135.0),
    ]


def test_load_settings_rejects_other_widths(tmp_path):
    with pytest.raises(FileFormatError):
        load_settings(write(tmp_path, "s.txt", "1, 2, 3\n"))
