"""Property tests for the text parsers: any input gives a value or a
LeoSrpError, never another exception.  The file readers also get bytes that
are not UTF-8."""

import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leosrp.errors import LeoSrpError
from leosrp.ephemeris import parse_horizons_vectors
from leosrp.kepler import elements_from_row
from leosrp.mlreg import load_model, read_dataset_csv
from leosrp.timeframe import parse_epoch
from leosrp.tle import parse_tle, read_tle_file, tle_to_elements
from tests.conftest import TLE_TOKENS_1, TLE_TOKENS_2
from tests.test_tle import ISS_1, ISS_2

# numbers as a file might spell them, plus the odd word
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.floats(2433282.5, 2506331.5).map(repr),  # 1950-2150
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "1_0", "0x10", "x"]))
rows = st.lists(numbers, max_size=9).map(",".join)


def parses_or_raises_leosrp(parse, text):
    try:
        parse(text)
    except LeoSrpError:
        pass


def _edit(base, edits, keep):
    out = [base[k:k + 1] for k in range(len(base))]
    for k, item in edits:
        out[k % len(out)] = item
    return base[:0].join(out)[:keep]


def edited(base, items):
    """base with up to four items (characters or bytes) replaced, and cut
    short about half the time."""
    return st.builds(_edit, st.just(base),
                     st.lists(st.tuples(st.integers(0, len(base) - 1), items),
                              max_size=4),
                     st.one_of(st.just(len(base)),
                               st.integers(0, len(base))))


def parses_file_or_raises_leosrp(read, data: bytes):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        parses_or_raises_leosrp(read, path)
    finally:
        os.remove(path)


single_bytes = st.integers(0, 255).map(lambda b: bytes([b]))


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(
    st.text(),
    numbers,
    st.from_regex(r"\A-?\d{1,5}-\d{1,3}-\d{1,3}[T ]\d{1,3}:\d{1,3}:\d{1,3}"
                  r"(\.\d*)?\Z")))
def test_parse_epoch_any_text(text):
    parses_or_raises_leosrp(parse_epoch, text)


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(st.text(), rows,
                      st.lists(numbers, min_size=7, max_size=7).map(",".join)))
def test_elements_from_row_any_text(text):
    parses_or_raises_leosrp(elements_from_row, text)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.one_of(rows, st.text(max_size=20)), max_size=6),
       markers=st.booleans())
def test_parse_horizons_vectors_any_text(lines, markers):
    if markers:
        lines = ["header", "$$SOE", *lines, "$$EOE"]
    parses_or_raises_leosrp(parse_horizons_vectors, "\n".join(lines))


MODEL_KEYS = ["format", "feature_names", "target_names", "lr", "epochs",
              "feature_mean", "feature_std", "weights.t1", "bias.t1"]
MODEL_VALUES = {"format": "leosrp-regression-v1", "feature_names": "f1,f2",
                "target_names": "t1", "lr": "0.01", "epochs": "10",
                "feature_mean": "0.0,0.0", "feature_std": "1.0,2.0",
                "weights.t1": "1.0,2.0", "bias.t1": "0.5"}


@settings(max_examples=100, deadline=None)
@given(changes=st.dictionaries(
    st.one_of(st.sampled_from(MODEL_KEYS), st.text(max_size=8)),
    st.one_of(st.none(), rows, st.text(max_size=20)), max_size=4),
    junk=st.lists(st.text(max_size=20), max_size=2))
def test_load_model_any_text(changes, junk):
    lines = dict(MODEL_VALUES)
    for key, value in changes.items():
        if value is None:
            lines.pop(key, None)
        else:
            lines[key] = value
    text = "".join(f"{k}={v}\n" for k, v in lines.items()) + "\n".join(junk)
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        parses_or_raises_leosrp(load_model, path)
    finally:
        os.remove(path)


def tle_lines(*bases):
    return st.one_of(st.text(max_size=80),
                     *[edited(base, st.characters()) for base in bases])


def parse_tle_to_elements(lines):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tle_to_elements(parse_tle(*lines))


@settings(max_examples=300, deadline=None)
@example(line1=ISS_1.replace("25544", "255-4").replace("2182", "21-2"),
         line2=ISS_2)  # checksum still holds
@example(line1=ISS_1.replace("25544", "\u00b95544"), line2=ISS_2)
@given(line1=tle_lines(ISS_1, "1 " + TLE_TOKENS_1),
       line2=tle_lines(ISS_2, "2 " + TLE_TOKENS_2))
def test_parse_tle_any_text(line1, line2):
    parses_or_raises_leosrp(parse_tle_to_elements, (line1, line2))


TLE_FILE = ("ISS\n" + ISS_1 + "\n" + ISS_2 + "\n" + TLE_TOKENS_1 + "\n"
            + TLE_TOKENS_2 + "\n").encode()


def read_tle_quietly(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return read_tle_file(path)


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=200),
                      edited(TLE_FILE, single_bytes),
                      edited(TLE_FILE, st.sampled_from(
                          [b"\xff", b"\xc3", b"\r", b"\n", b" ", b"-"]))))
def test_read_tle_file_any_bytes(data):
    parses_file_or_raises_leosrp(read_tle_quietly, data)


DATASET = b"mass_kg,a_srp,x_km,y_km,z_km\n15.0,0.01,1.0,2.0,3.0\n" \
    b"15.0,0.02,1.5,2.5,3.5\n"


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=120),
    edited(DATASET, single_bytes),
    st.lists(rows, min_size=1, max_size=4).map(
        lambda r: ("x_km,y_km,z_km\n" + "\n".join(r)).encode())))
def test_read_dataset_csv_any_bytes(data):
    parses_file_or_raises_leosrp(read_dataset_csv, data)
