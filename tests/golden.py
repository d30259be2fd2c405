"""Golden CLI artifacts: the acceptance-11 flag set, checked across commits.

`run_all(out)` runs the acceptance-11 commands (plus one geometric-shadow
year series and two radiation-pressure trajectories) into `out`;
`compare(out)` checks every file against the copy kept in tests/golden/ and
describes each mismatch: the file, the largest |delta| per CSV column, and
the Python and numpy versions that wrote the golden files beside the ones
running now (the bytes depend on libm and numpy).

Rewrite the golden files after a change that is meant to move them, and log
each changed file and its drift:

    python3 tests/golden.py --update
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import platform
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # run as a script: make leosrp and tests importable
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from leosrp import cli  # noqa: E402
from leosrp.ephemeris import sun_position_analytic  # noqa: E402
from leosrp.kepler import ELEMENTS_CSV_HEADER, elements_to_row  # noqa: E402
from leosrp.timeframe import Epoch  # noqa: E402
from tests.conftest import (TLE_TOKENS_1, TLE_TOKENS_2,  # noqa: E402
                            reference_elements)

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
VERSIONS_FILE = "VERSIONS"

# (subdirectory of the output, argv); ELEMENTS, TLE and SUN stand for the
# input files run_all writes.  The top-level commands are acceptance 11's.
# The geometric-shadow trajectory enters the Earth's shadow at about 2400 s.
ELEMENTS, TLE, SUN = "<elements>", "<tle>", "<sun>"
COMMANDS = (
    ("", ("propagate", "--elements", ELEMENTS, "--hours", "0.2")),
    ("", ("groundtrack", "--elements", ELEMENTS, "--hours", "0.2")),
    ("", ("passes", "--elements", ELEMENTS,
          "--station", "30.3398,76.3869,5", "--hours", "6")),
    ("", ("tle", "parse", TLE)),
    ("", ("srp", "year", "--elements", ELEMENTS)),
    ("", ("srp", "sweep", "--elements", ELEMENTS,
          "--count", "12", "--compare", "--hours", "0.2")),
    ("", ("pipeline", "--elements", ELEMENTS,
          "--hours", "0.1", "--sweep-count", "12")),
    ("", ("ml", "train", "--data", "<out>/dataset.csv")),
    ("geometric", ("srp", "year", "--elements", ELEMENTS,
                   "--shadow", "geometric")),
    ("srp_geometric", ("propagate", "--elements", ELEMENTS, "--hours", "0.9",
                       "--srp", "--shadow", "geometric")),
    ("srp_table", ("propagate", "--elements", ELEMENTS, "--hours", "0.5",
                   "--srp", "--ephem", SUN)),
)


def _sun_csv() -> str:
    """jd,x,y,z rows of the analytic Sun, hourly around the reference epoch."""
    jd0 = reference_elements().epoch.jd
    rows = ["jd,x_km,y_km,z_km"]
    for k in range(-1, 3):
        jd = jd0 + k / 24.0
        xyz = sun_position_analytic(Epoch(jd)).tolist()
        rows.append(",".join(map(repr, (jd, *xyz))))
    return "\n".join(rows) + "\n"


def versions() -> str:
    return f"python={platform.python_version()}\nnumpy={np.__version__}\n"


def run_all(out: str) -> list[str]:
    """Run COMMANDS into out; returns the artifact names, relative to out."""
    inputs = os.path.join(out, ".inputs")
    os.makedirs(inputs, exist_ok=True)
    paths = {ELEMENTS: os.path.join(inputs, "elements.csv"),
             TLE: os.path.join(inputs, "starlink.tle"),
             SUN: os.path.join(inputs, "sun.csv")}
    with open(paths[ELEMENTS], "w", encoding="utf-8") as fh:
        fh.write(ELEMENTS_CSV_HEADER + "\n"
                 + elements_to_row(reference_elements()) + "\n")
    with open(paths[TLE], "w", encoding="utf-8") as fh:
        fh.write(TLE_TOKENS_1 + "\n" + TLE_TOKENS_2 + "\n")
    with open(paths[SUN], "w", encoding="utf-8") as fh:
        fh.write(_sun_csv())
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        for sub, argv in COMMANDS:
            argv = [paths.get(a, a).replace("<out>", out) for a in argv]
            code = cli.run([*argv, "--out", os.path.join(out, sub)])
            if code != 0:
                raise RuntimeError(f"leosrp {' '.join(argv)} exited {code}")
    names = []
    for sub in sorted({sub for sub, _ in COMMANDS}):
        names.extend(os.path.join(sub, name) for name in
                     sorted(os.listdir(os.path.join(out, sub)))
                     if os.path.isfile(os.path.join(out, sub, name)))
    return names


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _csv_drift(name: str, got: bytes, want: bytes) -> str:
    """Largest |delta| per column of two CSV files with the same shape."""
    g_lines = got.decode().splitlines()
    w_lines = want.decode().splitlines()
    if g_lines[0] != w_lines[0] or len(g_lines) != len(w_lines):
        return (f"{name}: header or row count differs "
                f"({len(g_lines)} vs {len(w_lines)} lines)")
    cols = g_lines[0].split(",")
    drift = []
    for k, col in enumerate(cols):
        try:
            g = np.array([float(ln.split(",")[k]) for ln in g_lines[1:]])
            w = np.array([float(ln.split(",")[k]) for ln in w_lines[1:]])
        except ValueError:  # a text column (e.g. a UTC stamp)
            same = all(a.split(",")[k] == b.split(",")[k]
                       for a, b in zip(g_lines[1:], w_lines[1:]))
            drift.append(f"{col} {'same' if same else 'differs'}")
            continue
        drift.append(f"{col} {np.max(np.abs(g - w), initial=0.0):.3g}")
    return f"{name}: max |delta| per column: " + ", ".join(drift)


def _text_drift(name: str, got: bytes, want: bytes) -> str:
    g_lines, w_lines = got.splitlines(), want.splitlines()
    for k, (a, b) in enumerate(zip(g_lines, w_lines), start=1):
        if a != b:
            return (f"{name}: first difference at line {k}: "
                    f"{a.decode()[:120]!r} vs golden {b.decode()[:120]!r}")
    return f"{name}: {len(g_lines)} lines vs golden {len(w_lines)}"


def compare(out: str, names: list[str]) -> list[str]:
    """Describe every artifact in out that differs from its golden copy."""
    golden = sorted(os.path.relpath(os.path.join(d, f), GOLDEN_DIR)
                    for d, _, files in os.walk(GOLDEN_DIR) for f in files
                    if f != VERSIONS_FILE)
    problems = []
    if sorted(names) != golden:
        problems.append(f"artifact set {sorted(names)} != golden {golden}")
    for name in sorted(set(names) & set(golden)):
        got = _read(os.path.join(out, name))
        want = _read(os.path.join(GOLDEN_DIR, name))
        if got == want:
            continue
        describe = _csv_drift if name.endswith(".csv") else _text_drift
        problems.append(describe(name, got, want))
    if problems:
        stored = _read(os.path.join(GOLDEN_DIR, VERSIONS_FILE)).decode()
        problems.append("golden files written with "
                        + stored.replace("\n", " ").strip()
                        + "; running " + versions().replace("\n", " ").strip())
    return problems


def update() -> None:
    """Rewrite tests/golden/ from the current code."""
    with tempfile.TemporaryDirectory() as out:
        names = run_all(out)
        if os.path.isdir(GOLDEN_DIR):
            for d, _, files in os.walk(GOLDEN_DIR):
                for f in files:
                    os.remove(os.path.join(d, f))
        for name in names:
            dest = os.path.join(GOLDEN_DIR, name)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            with open(dest, "wb") as fh:
                fh.write(_read(os.path.join(out, name)))
            print(f"wrote {dest}")
    with open(os.path.join(GOLDEN_DIR, VERSIONS_FILE), "w",
              encoding="utf-8") as fh:
        fh.write(versions())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite tests/golden/ from the current code")
    args = parser.parse_args(argv)
    if args.update:
        update()
        return 0
    with tempfile.TemporaryDirectory() as out:
        problems = compare(out, run_all(out))
    print("\n".join(problems) or "golden artifacts match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
