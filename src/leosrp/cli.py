"""Command-line interface.

Subcommands map one-to-one onto the library capabilities: propagate,
groundtrack, passes, tle parse, srp year, srp sweep, ml train, ml predict,
and pipeline.  All artifacts are written with fixed formatting so identical
flags give byte-identical files.  Exit codes: 0 success, 1 usage error,
2 data or format error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import ephemeris, geotrack, kepler, mlreg, srp, svgplot, tle
from .errors import DomainError, LeoSrpError, read_text
from .kepler import ELEMENTS_CSV_HEADER
from .propagator import propagate
from .timeframe import format_epoch, parse_epoch

#: Default year span for analytic radiation-pressure series (one year).
DEFAULT_YEAR_START = "2022-11-22T00:00:00"
DEFAULT_YEAR_STOP = "2023-11-22T00:00:00"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _rp(x) -> str:
    return repr(float(x))


def _write_text(args, name: str, text: str) -> str:
    """Write text to name under --out; returns the path."""
    path = _out_path(args, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_elements(path: str) -> kepler.KeplerianElements:
    return kepler.read_elements_csv(path)[0]


def _parse_station(text: str, name: str = "") -> geotrack.GroundStation:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (2, 3):
        raise _UsageError(f"--station wants lat,lon[,mask_deg], got {text!r}")
    try:
        lat, lon = float(parts[0]), float(parts[1])
        mask = float(parts[2]) if len(parts) == 3 else 5.0
    except ValueError:
        raise _UsageError(f"--station has non-numeric fields: {text!r}")
    if not all(map(math.isfinite, (lat, lon, mask))):
        raise DomainError(f"--station values must be finite, got {text!r}")
    return geotrack.GroundStation(geotrack.GeoPoint(lat, lon), mask, name)


def _parse_config(text: str | None, shadow: str) -> srp.SrpConfig:
    kwargs = {}
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise _UsageError(
                    f"--config wants key=value pairs, got {item!r}")
            key, value = item.split("=", 1)
            key = key.strip()
            if key not in ("mass", "emissivity", "area"):
                raise _UsageError(
                    f"unknown config key {key!r} (mass, emissivity, area)")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise _UsageError(f"non-numeric config value in {item!r}")
    if shadow == "force-lit":
        kwargs["nu_override"] = 1
    return srp.SrpConfig(**kwargs)


def _sun_table(args) -> ephemeris.EphemerisTable:
    """Resolve --ephem into a Sun table: analytic, fetched, or a file."""
    path = None
    if args.ephem in ("analytic", "fetch"):
        jd0 = parse_epoch(args.start).jd
        jd1 = parse_epoch(args.stop).jd
        if args.ephem == "analytic":
            return ephemeris.analytic_sun_table(jd0, jd1,
                                                step_days=args.step_days)
        text = ephemeris.fetch_horizons(
            "sun", jd0, jd1, step_days=args.step_days,
            cache_dir=args.ephem_cache)
    else:
        path = args.ephem
        text = read_text(path)
    return ephemeris.EphemerisTable.from_components(
        ephemeris.parse_horizons_vectors(text, body="sun", path=path))


def _float_rows(*columns) -> list[str]:
    """One CSV row of shortest round-trip floats per row of the columns."""
    return [",".join(map(repr, row))
            for row in np.column_stack(columns).tolist()]


def _trajectory_csv(traj) -> str:
    lines = ["t_s,x_km,y_km,z_km,vx_km_s,vy_km_s,vz_km_s"]
    lines.extend(_float_rows(traj.t, traj.r, traj.v))
    return "\n".join(lines) + "\n"


#: Largest --dt as a fraction of the orbital period.  RK4 at a tenth of a
#: period or more gives a wrong orbit with no error (a 9,271 s "pass" at
#: --dt 600 on a 550 km orbit); at a fiftieth the energy drifts by about
#: 1e-4 in a day.
MAX_DT_PER_PERIOD = 1.0 / 50.0


def _propagate(args, el, hook=None):
    """RK4 trajectory from an element set over --hours at step --dt.

    Raises:
        DomainError: If --dt exceeds MAX_DT_PER_PERIOD of the orbit's period
            (a non-finite --dt is left to propagate's own check).
    """
    period = kepler.orbital_period(el.a)
    if math.isfinite(args.dt) and args.dt > MAX_DT_PER_PERIOD * period:
        raise DomainError(
            f"--dt {args.dt} s exceeds 1/50 of the orbital period "
            f"({period:.1f} s); use --dt <= {MAX_DT_PER_PERIOD * period:.1f}")
    return propagate(kepler.elements_to_state(el), args.hours * 3600.0,
                     dt=args.dt, perturbation=hook)


def _write_srp_year(args, el, cfg):
    """Year series over the --ephem Sun table; returns (path, samples)."""
    samples = srp.srp_year_series(_sun_table(args),
                                  srp.two_body_position(el), cfg)
    mags = np.array([s.magnitude for s in samples])
    rows = _float_rows([s.epoch.jd for s in samples],
                       [s.accel for s in samples], mags,
                       srp.km_s2_to_km_day2(mags))
    lines = ["jd,ax_km_s2,ay_km_s2,az_km_s2,mag_km_s2,mag_km_day2,nu"]
    lines.extend(f"{row},{s.nu}" for row, s in zip(rows, samples))
    path = _write_text(args, "srp_year.csv", "\n".join(lines) + "\n")
    return path, samples


def _write_sweep(args, el, start, step, count):
    """Sweep to sweep.csv and sweep_elements.csv; returns (paths, entries)."""
    entries = srp.perturb_sweep(start, step, count, el,
                                per_orbit_exposure=args.exposure)
    lines = ["a_srp_km_day2,delta_i_rad,i_deg_new"]
    el_lines = [ELEMENTS_CSV_HEADER]
    for entry in entries:
        lines.append(",".join([
            _rp(entry.a_srp_km_day2), _rp(entry.delta_i),
            _rp(math.degrees(entry.elements.i))]))
        el_lines.append(kepler.elements_to_row(entry.elements))
    sweep_path = _write_text(args, "sweep.csv", "\n".join(lines) + "\n")
    el_path = _write_text(args, "sweep_elements.csv",
                          "\n".join(el_lines) + "\n")
    return [sweep_path, el_path], entries


# --- subcommand implementations ---

def _cmd_propagate(args) -> int:
    el = _load_elements(args.elements)
    hook = None
    if args.srp:
        cfg = _parse_config(args.config, args.shadow)
        if args.ephem == "analytic":
            sun = ephemeris.sun_xyz
        else:
            sun = srp.table_sun_position(_sun_table(args))
        hook = srp.srp_perturbation(cfg, sun)
    traj = _propagate(args, el, hook)
    path = _write_text(args, "trajectory.csv", _trajectory_csv(traj))
    for note in traj.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote {path} ({len(traj)} samples)")
    return 0


def _cmd_groundtrack(args) -> int:
    traj = _propagate(args, _load_elements(args.elements))
    track = geotrack.ground_track(traj)
    lines = ["t_s,jd,lat_deg,lon_deg,alt_km"]
    for tk, (epoch, point) in zip(traj.t, track):
        lines.append(",".join(_rp(v) for v in
                              (tk, epoch.jd, point.lat, point.lon, point.alt)))
    csv_path = _write_text(args, "groundtrack.csv",
                           "\n".join(lines) + "\n")

    fig = svgplot.Figure(title="ground track", x_label="longitude (deg)",
                         y_label="latitude (deg)", x_range=(-180.0, 180.0),
                         y_range=(-90.0, 90.0), grid_step=(30.0, 30.0))
    for seg in geotrack.track_segments(track):
        fig.series.append(svgplot.Series(
            xs=[p.lon for _, p in seg], ys=[p.lat for _, p in seg],
            color="#1f77b4", width=1.0))
    svg_path = _write_text(args, "groundtrack.svg", svgplot.render(fig))
    print(f"wrote {csv_path} and {svg_path} ({len(track)} points)")
    return 0


def _cmd_passes(args) -> int:
    el = _load_elements(args.elements)
    station = _parse_station(args.station, args.station_name)
    traj = _propagate(args, el)
    passes = geotrack.find_passes(traj, station, criterion=args.criterion,
                                  fov_deg=args.fov_deg)
    lines = ["aos_jd,aos_utc,los_jd,los_utc,duration_s,"
             "max_elevation_deg,direction"]
    for p in passes:
        lines.append(",".join([
            _rp(p.aos.jd), format_epoch(p.aos), _rp(p.los.jd),
            format_epoch(p.los), _rp(p.duration), _rp(p.max_elevation),
            p.direction]))
    path = _write_text(args, "passes.csv", "\n".join(lines) + "\n")

    label = station.name or args.station
    print(f"{len(passes)} passes for {label}")
    for p in passes:
        print(f"  {format_epoch(p.aos)}  {p.duration:6.1f} s  "
              f"max el {p.max_elevation:5.1f} deg  {p.direction}")
    if passes:
        rep = geotrack.revisit_report(passes)
        print(f"durations min/mean/max: {rep.min_duration:.1f}/"
              f"{rep.mean_duration:.1f}/{rep.max_duration:.1f} s, "
              f"longest revisit gap: {rep.max_gap:.0f} s")
    print(f"wrote {path}")
    return 0


def _cmd_tle_parse(args) -> int:
    records = tle.read_tle_file(args.file)
    lines = [ELEMENTS_CSV_HEADER]
    for rec in records:
        lines.append(kepler.elements_to_row(tle.tle_to_elements(rec)))
    path = _write_text(args, "elements.csv", "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(records)} records)")
    return 0


def _cmd_srp_year(args) -> int:
    el = _load_elements(args.elements)
    cfg = _parse_config(args.config, args.shadow)
    csv_path, samples = _write_srp_year(args, el, cfg)

    jd0 = samples[0].epoch.jd
    fig = svgplot.Figure(
        title="radiation-pressure acceleration over the span",
        x_label="days since start", y_label="magnitude (km/day^2)")
    fig.series.append(svgplot.Series(
        xs=[s.epoch.jd - jd0 for s in samples],
        ys=[srp.km_s2_to_km_day2(s.magnitude) for s in samples]))
    svg_path = _write_text(args, "srp_year.svg", svgplot.render(fig))

    lit = [s.magnitude for s in samples if s.nu]
    ratio = f"{max(lit) / min(lit):.4f}" if lit else "n/a"
    print(f"wrote {csv_path} and {svg_path} ({len(samples)} samples, "
          f"max/min magnitude ratio {ratio})")
    return 0


def _cmd_srp_sweep(args) -> int:
    el = _load_elements(args.elements)
    made, entries = _write_sweep(args, el, args.start, args.step, args.count)

    if args.compare:
        base = _propagate(args, el)
        pert = _propagate(args, entries[0].elements)
        sep = np.linalg.norm(pert.r - base.r, axis=1)
        fig = svgplot.Figure(
            title="separation after inclination change",
            x_label="hours", y_label="separation (km)")
        fig.series.append(svgplot.Series(xs=list(base.t / 3600.0),
                                         ys=list(sep)))
        cmp_path = _write_text(args, "sweep_compare.svg",
                               svgplot.render(fig))
        made.append(cmp_path)

    print(f"wrote {', '.join(made)} ({len(entries)} entries)")
    return 0


def _cmd_ml_train(args) -> int:
    ds = mlreg.read_dataset_csv(args.data)
    train_ds, val_ds = mlreg.split_dataset(ds, ratio=args.ratio,
                                           seed=args.seed)
    model = mlreg.train(train_ds, lr=args.lr, epochs=args.epochs)
    model_path = _out_path(args, "model.txt")
    mlreg.save_model(model, model_path)

    preds = mlreg.predict(model, val_ds.features)
    for t, name in enumerate(model.target_names):
        score = mlreg.mape(preds[:, t], val_ds.targets[:, t])
        print(f"mape.{name}={score!r}%")

    z = len(model.target_names) - 1
    actual = val_ds.targets[:, z]
    lo, hi = float(actual.min()), float(actual.max())
    fig = svgplot.Figure(
        title=f"validation: predicted vs actual {model.target_names[z]}",
        x_label="actual (km)", y_label="predicted (km)")
    fig.series.append(svgplot.Series(xs=[lo, hi], ys=[lo, hi],
                                     color="#999999", width=1.0,
                                     label="y = x"))
    fig.series.append(svgplot.Series(xs=list(actual), ys=list(preds[:, z]),
                                     mode="points", color="#d62728",
                                     label="validation rows"))
    fit_path = _write_text(args, "fit.svg", svgplot.render(fig))
    print(f"wrote {model_path} and {fit_path} "
          f"({len(train_ds)} train / {len(val_ds)} validation rows)")
    return 0


def _cmd_ml_predict(args) -> int:
    model = mlreg.load_model(args.model)
    parts = [p.strip() for p in args.features.split(",")]
    try:
        feats = np.array([float(p) for p in parts])
    except ValueError:
        raise _UsageError(f"--features has non-numeric values: "
                          f"{args.features!r}")
    values = mlreg.predict(model, feats)
    for name, value in zip(model.target_names, values):
        print(f"{name}={_rp(value)}")
    return 0


def _cmd_pipeline(args) -> int:
    el = _load_elements(args.elements)
    cfg = _parse_config(args.config, args.shadow)

    # 1. acceleration series over the span
    year_path, samples = _write_srp_year(args, el, cfg)

    # 2. inclination sweep
    (sweep_path, _), entries = _write_sweep(
        args, el, args.sweep_start, args.sweep_step, args.sweep_count)

    # 3. re-propagated trajectory of the first perturbed element set
    traj = _propagate(args, entries[0].elements)
    traj_path = _write_text(args, "trajectory_perturbed.csv",
                            _trajectory_csv(traj))

    # 4. regression dataset
    ds = mlreg.generate_dataset(entries, cfg)
    ds_path = _out_path(args, "dataset.csv")
    mlreg.write_dataset_csv(ds, ds_path)

    print(f"wrote {year_path} ({len(samples)} samples), {sweep_path} "
          f"({len(entries)} entries), {traj_path} ({len(traj)} samples), "
          f"{ds_path} ({len(ds)} rows)")
    return 0


# --- parser wiring ---

def _add_ephem_flags(p):
    p.add_argument("--ephem", default="analytic",
                   help="'analytic', 'fetch', or a saved vector-table file")
    p.add_argument("--start", default=DEFAULT_YEAR_START,
                   help="span start (ISO or JD) for analytic/fetch tables")
    p.add_argument("--stop", default=DEFAULT_YEAR_STOP,
                   help="span stop (ISO or JD) for analytic/fetch tables")
    p.add_argument("--step-days", type=float, default=1.0,
                   help="table step in days")
    p.add_argument("--ephem-cache", default=None,
                   help="cache directory for fetched tables")


def _add_config_flags(p):
    p.add_argument("--config", default=None,
                   help="craft parameters, e.g. mass=15,emissivity=0.30,area=1")
    p.add_argument("--shadow", choices=("force-lit", "geometric"),
                   default="force-lit",
                   help="shadow handling (default force-lit: nu = 1)")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="leosrp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.set_defaults(func=None)

    p = sub.add_parser("propagate", help="RK4 trajectory to CSV")
    p.add_argument("--elements", required=True, help="element CSV file")
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--dt", type=float, default=10.0)
    p.add_argument("--srp", action="store_true",
                   help="add the radiation-pressure perturbation")
    _add_config_flags(p)
    _add_ephem_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("groundtrack", help="sub-satellite track CSV + SVG")
    p.add_argument("--elements", required=True)
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--dt", type=float, default=10.0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_groundtrack)

    p = sub.add_parser("passes", help="station visibility windows")
    p.add_argument("--elements", required=True)
    p.add_argument("--station", required=True, help="lat,lon[,mask_deg]")
    p.add_argument("--station-name", default="")
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--dt", type=float, default=10.0)
    p.add_argument("--criterion", choices=("elevation", "fov"),
                   default="elevation")
    p.add_argument("--fov-deg", type=float, default=27.3,
                   help="full nadir-cone angle for --criterion fov")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_passes)

    p = sub.add_parser("tle", help="two-line element set tools")
    tle_sub = p.add_subparsers(dest="tle_command", metavar="subcommand")
    p.set_defaults(func=None)
    pp = tle_sub.add_parser("parse", help="TLE file to element CSV")
    pp.add_argument("file")
    pp.add_argument("--out", default=".")
    pp.set_defaults(func=_cmd_tle_parse)

    p = sub.add_parser("srp", help="radiation-pressure tools")
    srp_sub = p.add_subparsers(dest="srp_command", metavar="subcommand")
    p.set_defaults(func=None)
    pp = srp_sub.add_parser("year", help="acceleration series over a span")
    pp.add_argument("--elements", required=True)
    _add_config_flags(pp)
    _add_ephem_flags(pp)
    pp.add_argument("--out", default=".")
    pp.set_defaults(func=_cmd_srp_year)
    pp = srp_sub.add_parser("sweep", help="inclination change vs magnitude")
    pp.add_argument("--elements", required=True)
    pp.add_argument("--start", type=float, default=0.00994,
                    help="first magnitude, km/day^2")
    pp.add_argument("--step", type=float, default=1e-4,
                    help="magnitude increment, km/day^2")
    pp.add_argument("--count", type=int, default=50)
    pp.add_argument("--exposure", type=float, default=0.5,
                    help="exposure window, fraction of one period")
    pp.add_argument("--compare", action="store_true",
                    help="also plot base-vs-perturbed separation")
    pp.add_argument("--hours", type=float, default=24.0)
    pp.add_argument("--dt", type=float, default=10.0)
    pp.add_argument("--out", default=".")
    pp.set_defaults(func=_cmd_srp_sweep)

    p = sub.add_parser("ml", help="regression over sweep datasets")
    ml_sub = p.add_subparsers(dest="ml_command", metavar="subcommand")
    p.set_defaults(func=None)
    pp = ml_sub.add_parser("train", help="gradient-descent fit of a dataset")
    pp.add_argument("--data", required=True, help="dataset CSV")
    pp.add_argument("--lr", type=float, default=0.01)
    pp.add_argument("--epochs", type=int, default=10000)
    pp.add_argument("--seed", type=int, default=42)
    pp.add_argument("--ratio", type=float, default=0.8,
                    help="train fraction of the shuffled rows")
    pp.add_argument("--out", default=".")
    pp.set_defaults(func=_cmd_ml_train)
    pp = ml_sub.add_parser("predict", help="evaluate a saved model")
    pp.add_argument("--model", required=True, help="model key=value file")
    pp.add_argument("--features", required=True,
                    help="comma-separated feature values")
    pp.set_defaults(func=_cmd_ml_predict)

    p = sub.add_parser(
        "pipeline",
        help="year series, sweep, perturbed trajectory, and dataset in one run")
    p.add_argument("--elements", required=True)
    _add_config_flags(p)
    _add_ephem_flags(p)
    p.add_argument("--sweep-start", type=float, default=0.00994)
    p.add_argument("--sweep-step", type=float, default=1e-4)
    p.add_argument("--sweep-count", type=int, default=50)
    p.add_argument("--exposure", type=float, default=0.5)
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--dt", type=float, default=10.0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()  # built on the first call, then reused
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help paths
        return int(exc.code or 0)
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"leosrp: error: {exc}", file=sys.stderr)
        return 1
    except (LeoSrpError, OSError) as exc:
        print(f"leosrp: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
