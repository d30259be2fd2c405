"""Property tests for the text parsers: any input gives a value or a
LeoSrpError, never another exception."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from leosrp.errors import LeoSrpError
from leosrp.ephemeris import parse_horizons_vectors
from leosrp.kepler import elements_from_row
from leosrp.mlreg import load_model
from leosrp.timeframe import parse_epoch

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
