import gc
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from leosrp import cli, ephemeris
from leosrp.kepler import elements_to_state, orbital_period
from leosrp.mlreg import read_dataset_csv
from leosrp.propagator import propagate

HORIZONS_SNIPPET = """\
$$SOE
2459905.500000000, A.D. 2022-Nov-22 00:00:00.0000, 6.0e7, 1.2e8, 5.2e7,
2459965.500000000, A.D. 2023-Jan-21 00:00:00.0000, 5.8e7, 1.3e8, 5.3e7,
$$EOE
"""


def run_cli(*argv):
    return cli.run(list(argv))


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# --- exit codes ---

def test_no_command_is_usage_error(capsys):
    assert run_cli() == 1


def test_unknown_command(capsys):
    assert run_cli("warp-drive") == 1


def test_missing_required_flag(capsys):
    assert run_cli("propagate") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1  # bare invocation: usage error
    assert run_cli("--help") == 0
    assert run_cli("propagate", "--help") == 0


def test_missing_file_is_data_error(tmp_path, capsys):
    assert run_cli("propagate", "--elements", str(tmp_path / "none.csv")) == 2
    assert "error" in capsys.readouterr().err


def test_broken_csv_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "broken.csv"
    bad.write_text("a_km,e\n1,2\n")
    assert run_cli("propagate", "--elements", str(bad)) == 2
    err = capsys.readouterr().err
    assert "broken.csv:2" in err


@pytest.mark.parametrize("argv", [
    ("propagate", "--elements", "<bad>"),
    ("propagate", "--elements", "<elements>", "--srp", "--ephem", "<bad>"),
    ("srp", "year", "--elements", "<elements>", "--ephem", "<bad>"),
    ("tle", "parse", "<bad>"),
    ("ml", "train", "--data", "<bad>"),
    ("ml", "predict", "--model", "<bad>", "--features", "1")])
def test_non_utf8_file_is_data_error(elements_csv, tmp_path, monkeypatch,
                                     capsys, argv):
    monkeypatch.chdir(tmp_path)  # artifacts, if any, land in the default --out
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"line one\nabc\xffdef\n")
    paths = {"<bad>": str(bad), "<elements>": elements_csv}
    assert run_cli(*[paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: not UTF-8 text: byte 0xff at offset 12" in err


@pytest.mark.parametrize("flag, value", [
    ("--dt", "inf"), ("--dt", "nan"), ("--hours", "inf"),
    ("--hours", "nan")])
def test_propagate_non_finite_span_is_data_error(elements_csv, tmp_path,
                                                 capsys, flag, value):
    out = str(tmp_path / "run")
    assert run_cli("propagate", "--elements", elements_csv, flag, value,
                   "--out", out) == 2
    assert "finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "trajectory.csv"))


def test_bad_station_string(elements_csv, tmp_path, capsys):
    code = run_cli("passes", "--elements", elements_csv,
                   "--station", "not-coords", "--out", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("flags", [
    ("--station", "nan,76"),
    ("--station", "30.3,76.4", "--criterion", "fov", "--fov-deg", "nan"),
    ("--station", "30.3,76.4", "--criterion", "fov", "--fov-deg", "-10"),
    ("--station", "30,inf"), ("--station", "30,76,inf")])
def test_bad_station_values_are_data_errors(elements_csv, tmp_path, capsys,
                                            flags):
    out = str(tmp_path / "run")
    assert run_cli("passes", "--elements", elements_csv, "--hours", "1",
                   *flags, "--out", out) == 2
    assert not os.path.exists(os.path.join(out, "passes.csv"))
    if len(flags) == 2:  # the message names the station text as typed
        assert repr(flags[1]) in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("propagate",), ("groundtrack",), ("passes", "--station", "30,76"),
    ("srp", "sweep", "--compare"), ("pipeline",)])
def test_step_above_period_bound_is_data_error(el0, elements_csv, tmp_path,
                                               capsys, command):
    limit = orbital_period(el0.a) / 50.0
    argv = (*command, "--elements", elements_csv, "--hours", "1",
            "--out", str(tmp_path))
    assert run_cli(*argv, "--dt", repr(limit * 1.01)) == 2
    err = capsys.readouterr().err
    assert "--dt" in err and f"({orbital_period(el0.a):.1f} s)" in err
    assert run_cli(*argv, "--dt", repr(limit * 0.99)) == 0


@pytest.mark.parametrize("module", ["leosrp", "leosrp.cli"])
def test_module_entry_points(module, tle_file, tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", module, "tle", "parse", tle_file,
         "--out", str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert "1 records" in done.stdout
    assert os.path.exists(tmp_path / "elements.csv")


# --- artifacts ---

def test_propagate_artifact(elements_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("propagate", "--elements", elements_csv,
                   "--hours", "0.25", "--out", out) == 0
    text = read(os.path.join(out, "trajectory.csv"))
    lines = text.strip().splitlines()
    assert lines[0] == "t_s,x_km,y_km,z_km,vx_km_s,vy_km_s,vz_km_s"
    assert len(lines) == 1 + 91  # 900 s at 10 s steps, plus t=0


def test_propagate_with_srp_analytic(elements_csv, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("propagate", "--elements", elements_csv, "--srp",
                   "--hours", "0.1", "--out", out) == 0
    assert os.path.exists(os.path.join(out, "trajectory.csv"))


def test_groundtrack_artifacts(elements_csv, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("groundtrack", "--elements", elements_csv,
                   "--hours", "2", "--out", out) == 0
    csv_text = read(os.path.join(out, "groundtrack.csv"))
    assert csv_text.startswith("t_s,jd,lat_deg,lon_deg,alt_km")
    svg_text = read(os.path.join(out, "groundtrack.svg"))
    assert svg_text.startswith("<svg")


def test_passes_artifact(elements_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("passes", "--elements", elements_csv,
                   "--station", "30.3398,76.3869,5",
                   "--station-name", "patiala", "--out", out) == 0
    lines = read(os.path.join(out, "passes.csv")).strip().splitlines()
    assert len(lines) >= 3  # header plus at least two passes
    stdout = capsys.readouterr().out
    assert "patiala" in stdout


def test_tle_parse_artifact(tle_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    with pytest.warns(Warning):
        assert run_cli("tle", "parse", tle_file, "--out", out) == 0
    lines = read(os.path.join(out, "elements.csv")).strip().splitlines()
    assert len(lines) == 2
    # inclination column survives the degrees round trip
    assert float(lines[1].split(",")[2]) == pytest.approx(97.6562, abs=1e-9)


def test_srp_year_analytic(elements_csv, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("srp", "year", "--elements", elements_csv,
                   "--out", out) == 0
    lines = read(os.path.join(out, "srp_year.csv")).strip().splitlines()
    assert lines[0].startswith("jd,")
    assert len(lines) == 1 + 366
    assert os.path.exists(os.path.join(out, "srp_year.svg"))


def test_srp_year_from_file(elements_csv, tmp_path):
    table = tmp_path / "sun.txt"
    table.write_text(HORIZONS_SNIPPET)
    out = str(tmp_path / "run")
    assert run_cli("srp", "year", "--elements", elements_csv,
                   "--ephem", str(table), "--out", out) == 0
    lines = read(os.path.join(out, "srp_year.csv")).strip().splitlines()
    assert len(lines) == 1 + 2


@pytest.mark.parametrize("row", [
    "nan, A.D. 2022-Dec-01 00:00:00.0000, 5.9e7, 1.2e8, 5.2e7,",
    "2459915.5, A.D. 2022-Dec-02 00:00:00.0000, inf, 1.2e8, 5.2e7,",
    "2000000.5, A.D. 0763-Sep-18 00:00:00.0000, 5.9e7, 1.2e8, 5.2e7,",
])
def test_srp_year_bad_sun_row_is_data_error(elements_csv, tmp_path, capsys,
                                            row):
    lines = HORIZONS_SNIPPET.splitlines()
    lines.insert(2, row)
    table = tmp_path / "sun.txt"
    table.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "run")
    assert run_cli("srp", "year", "--elements", elements_csv,
                   "--ephem", str(table), "--out", out) == 2
    assert f"{table}:3:" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "srp_year.csv"))


def test_srp_year_geometric_with_eclipses(elements_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("srp", "year", "--elements", elements_csv,
                   "--shadow", "geometric", "--out", out) == 0
    rows = [line.split(",") for line in
            read(os.path.join(out, "srp_year.csv")).strip().splitlines()[1:]]
    nus = {row[-1] for row in rows}
    assert nus == {"0", "1"}
    lit = [float(row[4]) for row in rows if row[-1] == "1"]
    ratio = f"max/min magnitude ratio {max(lit) / min(lit):.4f})"
    assert ratio in capsys.readouterr().out


def test_srp_year_all_eclipsed_prints_na(el0, elements_csv, tmp_path,
                                         capsys):
    # the Sun file puts the Sun straight behind the satellite at both epochs
    r = elements_to_state(el0).r
    sun = (-1.5e8 * r / np.linalg.norm(r)).tolist()
    period_days = orbital_period(el0.a) / 86400.0
    table = tmp_path / "behind.csv"
    table.write_text("jd,x,y,z\n" + "".join(
        f"{el0.epoch.jd + k * period_days!r},{sun[0]!r},{sun[1]!r},"
        f"{sun[2]!r}\n" for k in range(2)))
    out = str(tmp_path / "run")
    assert run_cli("srp", "year", "--elements", elements_csv, "--shadow",
                   "geometric", "--ephem", str(table), "--out", out) == 0
    rows = read(os.path.join(out, "srp_year.csv")).strip().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["0", "0"]
    assert "max/min magnitude ratio n/a)" in capsys.readouterr().out


def test_srp_sweep_artifacts(elements_csv, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("srp", "sweep", "--elements", elements_csv,
                   "--count", "10", "--out", out) == 0
    sweep = read(os.path.join(out, "sweep.csv")).strip().splitlines()
    assert sweep[0] == "a_srp_km_day2,delta_i_rad,i_deg_new"
    assert len(sweep) == 11
    elements = read(os.path.join(out, "sweep_elements.csv")).strip().splitlines()
    assert len(elements) == 11


def test_ml_train_and_predict(elements_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("pipeline", "--elements", elements_csv,
                   "--hours", "0.1", "--sweep-count", "20",
                   "--out", out) == 0
    data = os.path.join(out, "dataset.csv")

    fit_dir = str(tmp_path / "fit")
    assert run_cli("ml", "train", "--data", data, "--out", fit_dir) == 0
    stdout = capsys.readouterr().out
    assert "mape.z_km=" in stdout
    model = os.path.join(fit_dir, "model.txt")
    assert os.path.exists(model)
    assert os.path.exists(os.path.join(fit_dir, "fit.svg"))

    ds = read_dataset_csv(data)
    feats = ",".join(repr(float(v)) for v in ds.features[0])
    assert run_cli("ml", "predict", "--model", model, "--features", feats) == 0
    stdout = capsys.readouterr().out
    predicted = {}
    for line in stdout.strip().splitlines():
        key, value = line.split("=")
        predicted[key] = float(value)
    assert set(predicted) == {"x_km", "y_km", "z_km"}
    # near-affine data: the fit interpolates its own training rows closely
    assert predicted["z_km"] == pytest.approx(ds.targets[0][2], rel=1e-6)


@pytest.mark.parametrize("features, std", [("nan,2,3", "1.0,1.0,1.0"),
                                           ("1,inf,3", "1.0,1.0,1.0"),
                                           ("1,2,3", "0.0,1.0,1.0")])
def test_ml_predict_bad_values_are_data_errors(tmp_path, capsys, features,
                                               std):
    model = tmp_path / "model.txt"
    model.write_text(
        "format=leosrp-regression-v1\nfeature_names=a,b,c\n"
        "target_names=x_km\nlr=0.01\nepochs=10\nfeature_mean=0.0,0.0,0.0\n"
        f"feature_std={std}\nweights.x_km=1.0,1.0,1.0\nbias.x_km=0.0\n")
    assert run_cli("ml", "predict", "--model", str(model),
                   "--features", features) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leosrp: error:" in captured.err


def test_pipeline_artifacts(elements_csv, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("pipeline", "--elements", elements_csv,
                   "--hours", "0.1", "--sweep-count", "8",
                   "--out", out) == 0
    for name in ("srp_year.csv", "sweep.csv", "sweep_elements.csv",
                 "trajectory_perturbed.csv", "dataset.csv"):
        assert os.path.exists(os.path.join(out, name)), name


def test_rerun_is_byte_identical(elements_csv, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert run_cli("pipeline", "--elements", elements_csv,
                       "--hours", "0.1", "--sweep-count", "8",
                       "--out", out) == 0
    for name in ("srp_year.csv", "sweep.csv", "sweep_elements.csv",
                 "trajectory_perturbed.csv", "dataset.csv"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


def test_fetch_path_uses_cache(elements_csv, tmp_path, monkeypatch):
    calls = []

    def fake_get(url, params):
        calls.append(url)
        return HORIZONS_SNIPPET

    monkeypatch.setattr(ephemeris, "_http_get", fake_get)
    cache = str(tmp_path / "cache")
    out = str(tmp_path / "run")
    args = ("srp", "year", "--elements", elements_csv, "--ephem", "fetch",
            "--start", "2459905.5", "--stop", "2459965.5",
            "--ephem-cache", cache)
    assert run_cli(*args, "--out", out) == 0
    assert len(calls) == 1
    assert run_cli(*args, "--out", str(tmp_path / "run2")) == 0
    assert len(calls) == 1  # second run came from the cache


def test_ephem_file_is_closed(elements_csv, tmp_path):
    table = tmp_path / "sun.txt"
    table.write_text(HORIZONS_SNIPPET)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run_cli("propagate", "--elements", elements_csv, "--srp",
                       "--hours", "0.1", "--ephem", str(table),
                       "--out", str(tmp_path / "prop")) == 0
        assert run_cli("srp", "year", "--elements", elements_csv,
                       "--ephem", str(table),
                       "--out", str(tmp_path / "year")) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("span", [("--hours", "1e300"),
                                  ("--hours", "1e6", "--dt", "0.1")])
def test_propagate_step_bound_is_data_error(elements_csv, tmp_path, capsys,
                                            span):
    out = str(tmp_path / "run")
    assert run_cli("propagate", "--elements", elements_csv, *span,
                   "--out", out) == 2
    assert "steps" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "trajectory.csv"))


@pytest.mark.parametrize("argv, word", [
    (("srp", "year", "--step-days", "1e-9"), "records"),
    (("pipeline", "--step-days", "1e-9"), "records"),
    (("srp", "sweep", "--count", "1000000000000"), "count"),
    (("pipeline", "--sweep-count", "1000000000000"), "count")])
def test_sizes_from_flags_are_bounded(elements_csv, tmp_path, capsys, argv,
                                      word):
    # each would otherwise allocate a record or entry per step
    assert run_cli(*argv, "--elements", elements_csv,
                   "--out", str(tmp_path)) == 2
    assert word in capsys.readouterr().err


def test_parser_reuse_leaks_no_state(el0, elements_csv, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    srp_out, plain_out = str(tmp_path / "srp"), str(tmp_path / "plain")
    assert run_cli("propagate", "--elements", elements_csv, "--srp",
                   "--hours", "0.1", "--out", srp_out) == 0
    assert run_cli("propagate", "--elements", elements_csv,
                   "--hours", "0.1", "--out", plain_out) == 0
    two_body = cli._trajectory_csv(
        propagate(elements_to_state(el0), 0.1 * 3600.0, dt=10.0))
    assert read(os.path.join(plain_out, "trajectory.csv")) == two_body
    assert read(os.path.join(srp_out, "trajectory.csv")) != two_body
