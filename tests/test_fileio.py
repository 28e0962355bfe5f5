import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpair.fileio import (
    COUNTS_MARKER,
    FileFormatError,
    _field_array,
    _numbers,
    counts_text,
    is_counts_text,
    load_data,
    load_settings,
    load_state,
    _parse_counts,
)
from bellpair.protocol import AngleSettings, CountTable, group_counts
from bellpair.linalg import NotHermitian, NotPositive
from bellpair.states import TraceNotOne, singlet, unpolarized, werner


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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
    assert np.max(np.abs(np.asarray(load_state(path).mat) - werner(0.9).mat)) <= 1e-12


def test_load_state_bad_json(tmp_path):
    path = write(tmp_path, "bad.json", "not json at all")
    with pytest.raises(FileFormatError):
        load_state(path)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r", b"\r\r\n"])
def test_state_file_errors_count_line_breaks_as_text_mode_does(tmp_path, newline):
    # each \r\n, then each lone \r, is one line break; a plain binary read reports CRLF's error at char 31
    path = tmp_path / "s.json"
    path.write_bytes(b'{\n"kind": "werner",\n "gamma" 0.8\n}\n'.replace(b"\n", newline))
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as text_mode:
        json.loads(fh.read())
    with pytest.raises(FileFormatError) as exc:
        load_state(path)
    assert str(exc.value) == f"cannot read state file {path}: {text_mode.value}"
    if newline == b"\r\n":
        assert str(exc.value).endswith("line 3 column 10 (char 29)")


def test_a_lone_carriage_return_breaks_lines_in_every_format(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b'{\r"kind": "werner",\r"gamma": 0.9\r}\r')
    assert load_state(path).mat == werner(0.9).mat
    text = "# pairs\n10, 20\n90, 0, 45, 135\n"
    assert load_settings(write(tmp_path, "cr.txt", text.replace("\n", "\r"))) == load_settings(
        write(tmp_path, "lf.txt", text))


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_data_files_read_as_their_lf_versions(tmp_path, newline):
    good = "# header\n50, 0, 25, 75, 0.67, 2.30\n\n60 0 30 90 1.21 2.42\n"
    assert load_data(write(tmp_path, "a.txt", good.replace("\n", newline))) == load_data(
        write(tmp_path, "b.txt", good))
    counts = f"{COUNTS_MARKER}\n" + "".join(f"{a}, {b}, 1, 2, 3, 4\n" for a, b in AngleSettings(0, 90, 45, 135).pairs())
    assert load_data(write(tmp_path, "c.txt", counts.replace("\n", newline))) == load_data(
        write(tmp_path, "d.txt", counts))
    bad = "# header\n50, 0, 25, 75, 0.67, 2.30\n60 0 30 90 1.21\n"
    for text in (bad, bad.replace("\n", newline)):
        with pytest.raises(FileFormatError, match="^line 3: expected 6 fields, got 5$"):
            load_data(write(tmp_path, "e.txt", text))


# characters that str.splitlines breaks at but text mode keeps inside a line
INLINE_BREAKS = {"U+2028": "\u2028", "U+2029": "\u2029", "U+0085": "\x85", "FF": "\f", "VT": "\v",
                 "FS": "\x1c", "GS": "\x1d", "RS": "\x1e"}
TEXT_FORMATS = {  # loader, data rows, and a row its loader rejects for the wrong field count
    "data": (load_data, "50, 0, 25, 75, 0.67, 2.30\n60 0 30 90 1.21 2.42\n", "60 0 30 90 1.21"),
    "counts": (load_data, COUNTS_MARKER + "\n" + "".join(
        f"{a}, {b}, 1, 2, 3, 4\n" for a, b in AngleSettings(0, 90, 45, 135).pairs()), "0, 90, 1, 2, 3"),
    "settings": (load_settings, "10, 20\n90, 0, 45, 135\n", "1, 2, 3"),
}


def text_mode_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
@pytest.mark.parametrize("char", INLINE_BREAKS.values(), ids=INLINE_BREAKS)
def test_only_lf_ends_a_line_in_the_text_formats(tmp_path, char, fmt):
    load, rows, _ = TEXT_FORMATS[fmt]
    text = f"# measured 2003{char}second comment line\n{rows}"
    path = write(tmp_path, "a.txt", text)
    assert len(text_mode_lines(path)) == text.count("\n")
    assert load(path) == load(write(tmp_path, "b.txt", text.replace(char, " ")))


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
@pytest.mark.parametrize("char", INLINE_BREAKS.values(), ids=INLINE_BREAKS)
def test_errors_name_the_line_that_text_mode_counts(tmp_path, char, fmt):
    load, rows, bad = TEXT_FORMATS[fmt]
    path = write(tmp_path, "a.txt", f"# one{char}two\n{rows}# three{char}four{char}\n{bad}\n")
    lineno = [line.rstrip("\n") for line in text_mode_lines(path)].index(bad) + 1
    with pytest.raises(FileFormatError, match=f"^line {lineno}: "):
        load(path)


@pytest.mark.parametrize("char", INLINE_BREAKS.values(), ids=INLINE_BREAKS)
def test_the_counts_marker_is_found_after_an_inline_break(char):
    text = f"# seed 7{char}more\n{TEXT_FORMATS['counts'][1]}"
    assert is_counts_text(text)
    assert not is_counts_text(f"# seed 7{char}{COUNTS_MARKER}\n")  # one line, not the marker line


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


@pytest.mark.parametrize("load, what", [(load_state, "state"), (load_data, "data"), (load_settings, "settings")])
@pytest.mark.parametrize("path", ["./absent.txt", "sub//absent.txt", ""])
def test_cannot_read_errors_echo_the_path_as_given(tmp_path, monkeypatch, load, what, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert str(err.value) == f"cannot read {what} file {path}: [Errno 2] No such file or directory: {path!r}"


@pytest.mark.parametrize("load", [load_state, load_data, load_settings])
def test_an_int_path_is_not_read_as_a_file_descriptor(load):
    with pytest.raises(TypeError):
        load(0)


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


def test_counts_above_two_to_the_53_load_exactly(tmp_path):
    big = 2**53 + 1  # 9007199254740993, which a float rounds to 2**53
    pairs = AngleSettings(0.0, 90.0, 45.0, 135.0).pairs()
    tables = [CountTable(p1, p2, big, big - 1, 0, 0) for p1, p2 in pairs]
    path = write(tmp_path, "c.txt", counts_text(tables))
    assert "9007199254740993, 9007199254740992, 0, 0" in path.read_text()
    assert [t.n_pp for t in _parse_counts(path.read_text())] == [big] * 4
    data = load_data(path)
    assert data == group_counts(tables)
    # E = 1 / 2**54 per pair; through float every pair would read E = 0
    assert data[0].r_exp == 2.0 / 2**54


def test_counts_that_are_not_digit_strings_still_parse_as_floats(tmp_path):
    text = COUNTS_MARKER + "\n0, 0, 1.0, 1e3, +2, 4\n"
    assert _parse_counts(text) == [CountTable(0.0, 0.0, 1, 1000, 2, 4)]


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


ANGLES = st.floats(allow_nan=False, allow_infinity=False)
COUNTS = st.integers(1, 2**80)  # beyond 2**53 too; a nonzero count in every cell keeps dr_exp > 0


@settings(max_examples=100, deadline=None)
@given(angles=st.lists(st.tuples(ANGLES, ANGLES, ANGLES, ANGLES), min_size=1, max_size=3),
       counts=st.lists(st.tuples(COUNTS, COUNTS, COUNTS, COUNTS), min_size=12, max_size=12))
def test_counts_text_reads_back_exactly(tmp_path_factory, angles, counts):
    pairs = [pair for quad in angles for pair in AngleSettings(*quad).pairs()]
    tables = [CountTable(p1, p2, *n) for (p1, p2), n in zip(pairs, counts)]
    path = tmp_path_factory.mktemp("counts") / "c.txt"
    path.write_text(counts_text(tables, header_lines=["seed: 1"]))
    parsed = _parse_counts(path.read_text())
    assert parsed == tables
    assert all(type(getattr(t, f)) is int for t in parsed for f in ("n_pp", "n_pm", "n_mp", "n_mm"))
    data = load_data(path)
    assert data == group_counts(tables)
    for datum, quad in zip(data, angles):
        s = datum.settings
        assert list(map(repr, (s.phi1, s.phi1p, s.phi2, s.phi2p))) == list(map(repr, quad))


def test_mixed_separators_and_comments_parse_alike(tmp_path):
    plain = load_data(write(tmp_path, "a.txt", "50, 0, 25, 75, 0.67, 2.30\n60, 0, 30, 90, 1.21, 2.42\n"))
    mixed = "# header\n 50,0 ,25 , 75,0.67,2.30 \n\n#, 1, 2\n\t60\t0  30 90 1.21 2.42\n"
    assert load_data(write(tmp_path, "b.txt", mixed)) == plain
    plain = load_settings(write(tmp_path, "c.txt", "10, 20\n90, 0, 45, 135\n"))
    mixed = "# pairs\n10 20\n# a CHSH row\n\t90,0, 45 ,135\n"
    assert load_settings(write(tmp_path, "d.txt", mixed)) == plain


ZEROS3 = [[0, 0, 0]] * 3


@pytest.mark.parametrize("doc", [
    {"kind": "pauli", "A": "100", "P": [0, 0, 0], "D": ZEROS3},  # a string where a vector belongs
    {"kind": "pauli", "A": [0, 0, 0], "P": [0, 0, 0], "D": "1000"},
    {"kind": "pauli", "A": {"x": 1, "y": 0, "z": 0}, "P": [0, 0, 0], "D": ZEROS3},  # an object
    {"kind": "pauli", "A": [0, 0, 0], "P": [0, 0, 0], "D": ["100", "010", "001"]},
    {"kind": "pauli", "A": [[0], [0], [0]], "P": [0, 0, 0], "D": ZEROS3},  # one level too deep
    {"kind": "pauli", "A": [0, 0], "P": [0, 0, 0], "D": ZEROS3},
    {"kind": "pauli", "A": [0, 0, {}], "P": [0, 0, 0], "D": ZEROS3},
    {"kind": "matrix", "re": "0.25", "im": [[0] * 4] * 4},
    {"kind": "matrix", "re": [[0.25, 0, 0, 0]] * 4, "im": {"re": 0}},
    {"kind": "matrix", "re": [[0.25, 0, 0, "abc"]] * 4, "im": [[0] * 4] * 4},
])
def test_a_string_or_object_where_an_array_belongs_is_a_format_error(tmp_path, doc):
    with pytest.raises(FileFormatError, match="^field "):
        load_state(write(tmp_path, "s.json", json.dumps(doc)))


def test_numeric_strings_and_booleans_read_as_numbers_and_null_as_nan(tmp_path):
    doc = {"kind": "pauli", "A": ["0", " 0 ", False], "P": [0, "0e0", 0],
           "D": [[-0.9, 0, 0], [0, "-0.9", 0], [0, 0, -0.9]]}
    assert np.allclose(load_state(write(tmp_path, "s.json", json.dumps(doc))).mat, werner(0.9).mat, atol=1e-12)
    doc["A"][0] = None  # NaN, an invalid state
    with pytest.raises(NotHermitian):
        load_state(write(tmp_path, "n.json", json.dumps(doc)))


def numpy_field(value, shape):
    """The field as ``np.asarray(value, dtype=float)`` of the given shape; None if that fails."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.shape == shape else None


LEAVES = st.one_of(
    st.floats(), st.integers(-10**400, 10**400), st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from(["1", " 2.5 ", "1_0", "nan", "-Infinity", "1e400", "0x10", ""]),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def shaped(shape, leaves):
    if not shape:
        return leaves
    return st.lists(shaped(shape[1:], leaves), min_size=shape[0], max_size=shape[0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(3,), (3, 3), (4, 4)]))
def test_fields_parse_as_numpy_parsed_them(data, shape):
    # the acceptance set and values of np.asarray(value, dtype=float), without numpy
    near = st.one_of(shaped(shape, LEAVES), shaped(shape[:-1] + (shape[-1] + 1,), LEAVES),
                     shaped(shape[1:], LEAVES), shaped(shape + (1,), LEAVES))
    value = data.draw(st.one_of(near, LEAVES, st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4),
                                                           max_leaves=16)))
    want = numpy_field(value, shape)
    try:
        got = _field_array({"x": value}, "pauli", "x", shape)
    except FileFormatError:
        assert want is None
    else:
        assert want is not None and np.array_equal(got, want, equal_nan=True)


def _outcome(read):
    try:
        return repr(read())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(row=st.lists(LEAVES, min_size=3, max_size=3))
def test_a_row_of_numbers_reads_as_its_leaves_read_one_by_one(row):
    # the same values, or the same first error, with or without a null, list or object in the row
    assert _outcome(lambda: _numbers(row, (3,))) == _outcome(lambda: tuple(_numbers(x, ()) for x in row))
