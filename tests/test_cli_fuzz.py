"""Fuzz gate for the command line: every generated input file ends in a
documented exit code, never in a traceback, and JSON output is strict.

State, data, settings and counts files are drawn from strategies that mix
well-formed documents with deep nesting, huge and non-finite numbers,
invalid UTF-8 and wrong shapes.  ``cli.main`` runs in-process, so any
exception that escapes it fails the test with its traceback.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellpair.cli import main

DOCUMENTED_EXITS = {0, 2, 3, 4}
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Numbers as they may appear in a file: ordinary, huge, tiny, non-finite.
EXTREME = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, 1e150, 1e155,
                           1e200, 1e308, -1e308, math.inf, -math.inf, math.nan])
NUMBERS = st.one_of(st.floats(-2.0, 2.0), EXTREME, st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.one_of(NUMBERS, st.integers(-10**400, 10**400), st.booleans(), st.none(),
                        st.text(max_size=5))
# Text fields: plain floats and integers, overflowing literals, junk.
FIELDS = st.one_of(NUMBERS.map(repr), st.integers(-10**400, 10**400).map(str),
                   st.sampled_from(["1e400", "-1e400", "nan", "Infinity", "0x10", "1_0", "", "--1"]))


def nested(leaf):
    return st.recursive(leaf, lambda inner: st.lists(inner, max_size=5), max_leaves=40)


def hermitian_with(entries: list[float]) -> tuple[list, list]:
    """re/im of the maximally mixed state with some mirrored entries replaced."""
    re = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    im = [[0.0] * 4 for _ in range(4)]
    for k, x in enumerate(entries):
        i, j = divmod(k % 16, 4)
        re[i][j] = re[j][i] = x
        if i != j and k % 3 == 0:
            im[i][j], im[j][i] = x, -x
    return re, im


@st.composite
def state_bytes(draw) -> bytes:
    kind = draw(st.sampled_from(["matrix", "hermitian", "pauli", "werner", "named", "deep", "junk"]))
    if kind == "deep":
        depth = draw(st.sampled_from([10, 1000, 100_000]))
        return ("[" * depth + "]" * draw(st.sampled_from([0, depth]))).encode()
    if kind == "junk":
        return draw(st.one_of(st.binary(max_size=40), st.just(b'{"kind": "werner", "gamma": 0.5\xff}')))
    if kind == "matrix":
        doc = {"kind": "matrix",
               "re": draw(st.one_of(st.lists(st.lists(NUMBERS, min_size=4, max_size=4), min_size=4, max_size=4),
                                    nested(JSON_VALUES))),
               "im": draw(st.one_of(st.just([[0.0] * 4] * 4), nested(JSON_VALUES)))}
    elif kind == "hermitian":
        re, im = hermitian_with(draw(st.lists(NUMBERS, min_size=1, max_size=6)))
        doc = {"kind": "matrix", "re": re, "im": im}
    elif kind == "pauli":
        doc = {"kind": "pauli",
               "A": draw(st.one_of(st.lists(NUMBERS, min_size=3, max_size=3), nested(JSON_VALUES))),
               "P": draw(st.lists(NUMBERS, min_size=3, max_size=3)),
               "D": draw(st.one_of(st.lists(st.lists(NUMBERS, min_size=3, max_size=3), min_size=3, max_size=3),
                                   nested(JSON_VALUES)))}
    elif kind == "werner":
        doc = {"kind": "werner", "gamma": draw(st.one_of(NUMBERS, JSON_VALUES, nested(JSON_VALUES)))}
    else:
        doc = {"kind": "named", "name": draw(st.one_of(
            st.sampled_from(["singlet", "triplet0", "phi_plus", "phi_minus", "unpolarized"]), JSON_VALUES))}
    if draw(st.booleans()):
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return json.dumps(doc).encode()


def rows_text(draw, widths=None) -> str:
    """Up to nine delimited rows of fuzzed fields, ``widths`` fields each (any of 1-7 if None)."""
    width = st.integers(1, 7) if widths is None else st.sampled_from(widths)
    rows = draw(st.lists(width.flatmap(lambda n: st.lists(FIELDS, min_size=n, max_size=n)), max_size=9))
    sep = draw(st.sampled_from([", ", " ", "\t", ","]))
    return "".join(sep.join(row) + "\n" for row in rows)


@st.composite
def data_bytes(draw) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40)) + b"\xff\n"
    counts = draw(st.booleans())
    if counts:
        angles = draw(st.lists(st.sampled_from(["0", "45", "90", "135"]), min_size=4, max_size=4))
        rows = [[angles[0], angles[2]], [angles[0], angles[3]], [angles[1], angles[2]], [angles[1], angles[3]]]
        n_settings = draw(st.integers(0, 3))
        lines = ["# format: counts"]
        for _ in range(n_settings):
            for pair in rows:
                lines.append(", ".join(pair + [draw(st.one_of(
                    st.integers(0, 10**6).map(str), FIELDS)) for _ in range(4)]))
        if draw(st.booleans()):
            lines.append(rows_text(draw))
        return ("\n".join(lines) + "\n").encode()
    good = draw(st.lists(st.tuples(st.sampled_from([0.0, 22.5, 45.0, 90.0]), st.floats(0, 3), st.floats(1e-3, 1)),
                         max_size=8))
    text = "".join(f"{a}, {a + 45}, {a + 22.5}, {a + 67.5}, {r!r}, {dr!r}\n" for a, r, dr in good)
    return (text + rows_text(draw, [6])).encode()


@st.composite
def settings_bytes(draw) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return b"\xc3\x28, 20\n"
    return rows_text(draw, [2, 4, 3]).encode()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_documented(argv: list[str], fmt: str) -> None:
    code, out, err = run_cli(argv)
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and err.startswith("error: ")
    elif fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
    elif fmt == "csv":
        fields = {f.strip().lower() for line in out.splitlines() if not line.startswith("#")
                  for f in line.split(",")}
        assert not fields & {"nan", "inf", "-inf"}, out


FORMATS = st.sampled_from(["table", "json", "csv"])


@FUZZ
@given(state=state_bytes(), fmt=FORMATS)
def test_analyze_any_state_file_exits_documented(state, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "state.json")
        path.write_bytes(state)
        assert_documented(["analyze", "--state", str(path), "--format", fmt], fmt)


@FUZZ
@given(data=data_bytes(), fmt=FORMATS)
def test_fit_any_data_or_counts_file_exits_documented(data, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.txt")
        path.write_bytes(data)
        assert_documented(["fit", "--data", str(path), "--format", fmt], fmt)


@FUZZ
@given(state=state_bytes(), setting=settings_bytes(),
       events=st.integers(-2, 500), seed=st.sampled_from([-1, 0, 7, 2**64 - 1, 2**64]))
def test_simulate_any_state_and_settings_file_exits_documented(state, setting, events, seed):
    with tempfile.TemporaryDirectory() as tmp:
        state_path, settings_path = Path(tmp, "state.json"), Path(tmp, "settings.txt")
        state_path.write_bytes(state)
        settings_path.write_bytes(setting)
        assert_documented(["simulate", "--state", str(state_path), "--settings", str(settings_path),
                           "--events", str(events), "--seed", str(seed)], "counts")
