"""The four benchmark workloads: their jobs, and the checks on job outputs.

Each workload turns one variant of the generated inputs into a seeded list
of distinct jobs (one cycle).  A job's ``execute`` is the timed part.
``collect`` turns its result into evidence and a digest without timing;
``check`` compares the evidence of a run with reference solutions.  A job
run again with identical inputs must reproduce the digest: identical flags
give byte-identical artifacts.

Why each workload exists:

* catalog - many short two-body propagations through the library: TLE
  parse (strict and token fallback), elements, a 1-2 h propagation at
  dt 30 s, ground track.  No hook, no files.  The propagator core
  dominates, so per-call overhead and batching show here, and a change to
  srp, ephemeris or the writers must not.
* srp-arc - ``leosrp propagate --srp`` through ``cli.run``: 1 h at dt 10 s
  with the radiation-pressure hook, both shadow modes, the analytic Sun and
  a Sun table file.  The hook costs more than the two-body core; this is
  also the single-orbit path with a large trajectory.csv.
* passes - ``find_passes`` on half-day dt 60 s trajectories (propagated
  when the workload is built) over a seeded station network, elevation and
  field-of-view criteria.  Pass screening and refinement in geotrack
  dominate.
* analysis - the remaining subcommands through ``cli.run`` (pipeline,
  ml train/predict, srp year/sweep, groundtrack, tle parse): regression,
  SVG rendering, sweeps and the CSV/SVG writers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from leosrp import cli, geotrack, kepler, mlreg, propagator, srp, tle
from leosrp.kepler import ELEMENTS_CSV_HEADER
from leosrp.timeframe import CONSTANTS

import reference

#: Checks: largest final-sample position error, km, before a job fails.
POS_TOL_KM = {"catalog": 0.05, "srp-arc": 0.05, "passes": 10.0,
              "analysis": 0.05}
#: Checks: a pass edge (AOS or LOS) is right when it lies within
#: EDGE_TOL_S of the reference edge or the reference visibility metric
#: there is within EDGE_TOL_DEG of zero; max elevation within
#: MAX_EL_TOL_DEG.
EDGE_TOL_S = 3.0
EDGE_TOL_DEG = 0.5
MAX_EL_TOL_DEG = 1.0

TRAJECTORY_HEADER = "t_s,x_km,y_km,z_km,vx_km_s,vy_km_s,vz_km_s"
OUT = "{out}"


@dataclass
class Job:
    """One distinct job of a workload's cycle."""

    key: str
    kind: str
    args: tuple = ()
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Untimed summary of one job run."""

    ok: bool                  # ran without raising, exit code 0
    digest: str
    evidence: object = None
    bytes_written: int = 0
    error: str = ""


@dataclass
class Verdict:
    """Result of checking the first run of a job."""

    errors: list = field(default_factory=list)
    pos_err_km: float | None = None
    pass_time_err_s: float | None = None
    max_el_err_deg: float | None = None


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], [row.split(",") for row in lines[1:]]


def _geodetic(r_ecef):
    rn = float(np.linalg.norm(r_ecef))
    return (math.degrees(math.asin(r_ecef[2] / rn)),
            math.degrees(math.atan2(r_ecef[1], r_ecef[0])),
            rn - CONSTANTS.r_earth)


def _ecef(r, jd):
    return reference._ecef_batch(np.asarray(r, dtype=float)[None, :],
                                 np.array([jd]))[0]


def _angle_diff(a, b):
    return abs((a - b + 180.0) % 360.0 - 180.0)


# -- library workloads -------------------------------------------------------

class CatalogWorkload:
    """One job per satellite: parse, convert, propagate 1-2 h, ground track."""

    name = "catalog"
    DT = 30.0
    #: generator truth key -> parsed TleRecord field
    FIELDS = {"i_deg": "inclination", "raan_deg": "raan", "argp_deg": "argp",
              "mean_anom_deg": "mean_anomaly", "e": "eccentricity",
              "mean_motion": "mean_motion"}

    def __init__(self, inputs):
        self.inputs = inputs
        self.jobs = [Job(key=f"sat{k}", kind="sat", args=(entry,))
                     for k, entry in enumerate(inputs.catalog)]
        self.setup_errors = []

    def execute(self, job, out_dir):
        entry = job.args[0]
        rec = tle.parse_tle(entry.line1, entry.line2)
        el = tle.tle_to_elements(rec)
        traj = propagator.propagate(kepler.elements_to_state(el),
                                    entry.duration_s, dt=self.DT)
        track = geotrack.ground_track(traj)
        return rec, el, traj, track

    def collect(self, job, result, out_dir):
        rec, el, traj, track = result
        epoch, point = track[-1]
        lats = np.array([p.lat for _, p in track])
        # small, as it is kept for every run until the checks
        evidence = dict(fields=tuple(getattr(rec, name) for name in
                                     self.FIELDS.values()),
                        epoch_jd=rec.epoch.jd, el=el, n=len(traj),
                        n_track=len(track), t_end=float(traj.t[-1]),
                        r=tuple(traj.r[-1].tolist()),
                        finite=_finite(traj.r) and _finite(traj.v),
                        track_end=(epoch.jd, point.lat, point.lon, point.alt),
                        jd_end=float(traj.jds[-1]))
        digest = _sha(traj.r.tobytes(), traj.v.tobytes(), lats.tobytes(),
                      repr(evidence["track_end"]))
        return Outcome(True, digest, evidence)

    def check(self, job, ev):
        entry = job.args[0]
        truth = entry.truth
        v = Verdict()
        el, r = ev["el"], np.array(ev["r"])
        for name, value in zip(self.FIELDS, ev["fields"]):
            if abs(value - truth[name]) > 1e-9:
                v.errors.append(f"{name} parsed as {value}, "
                                f"expected {truth[name]}")
        if abs(ev["epoch_jd"] - truth["epoch_jd"]) > 1e-7:
            v.errors.append(f"epoch parsed as {ev['epoch_jd']}")
        if abs(el.a - truth["a_km"]) > 1e-6:
            v.errors.append(f"a = {el.a} km, expected {truth['a_km']}")
        n_expect = int(round(entry.duration_s / self.DT)) + 1
        if ev["n"] != n_expect or ev["n_track"] != n_expect:
            v.errors.append(f"{ev['n']} samples / {ev['n_track']} track "
                            f"points, expected {n_expect}")
        if ev["t_end"] != entry.duration_s or not ev["finite"]:
            v.errors.append("trajectory does not end finite at the duration")
        r_ref, _ = reference.closed_form_state(el, entry.duration_s)
        v.pos_err_km = float(np.linalg.norm(r - r_ref))
        if not v.pos_err_km <= POS_TOL_KM[self.name]:
            v.errors.append(f"final position off by {v.pos_err_km} km")
        jd, lat, lon, alt = ev["track_end"]
        want = _geodetic(_ecef(r, ev["jd_end"]))
        if (abs(jd - ev["jd_end"]) > 1e-9 or abs(lat - want[0]) > 1e-6
                or _angle_diff(lon, want[1]) > 1e-6
                or abs(alt - want[2]) > 1e-6):
            v.errors.append(f"ground-track end {lat, lon, alt} != {want}")
        return v


class PassesWorkload:
    """One job per (orbit, station, criterion) on a set-up trajectory."""

    name = "passes"
    DT = 60.0
    DURATION = 43200.0

    def __init__(self, inputs):
        self.inputs = inputs
        self.orbits = kepler.read_elements_csv(inputs.pass_orbits_path)
        self.stations = []
        with open(inputs.stations_path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                name, lat, lon, mask = line.strip().split(",")
                self.stations.append(geotrack.GroundStation(
                    geotrack.GeoPoint(float(lat), float(lon)), float(mask),
                    name))
        self.trajs = [propagator.propagate(kepler.elements_to_state(el),
                                           self.DURATION, dt=self.DT)
                      for el in self.orbits]
        # Every orbit over every station with the elevation criterion, and
        # the field-of-view criterion on two orbits per station.  Stations
        # nearest the equator and the most inclined orbits come first, so
        # the warm-up jobs (the first positions) have passes to repeat.
        n_orb = len(self.orbits)
        stations = sorted(range(len(self.stations)),
                          key=lambda s: abs(self.stations[s].location.lat))
        orbits = sorted(range(n_orb), key=lambda o: -self.orbits[o].i)
        self.jobs = [Job(key=f"o{o}-s{s}-elevation", kind="elevation",
                         args=(o, s))
                     for s in stations for o in orbits]
        self.jobs += [Job(key=f"o{o}-s{s}-fov", kind="fov", args=(o, s))
                      for s in stations
                      for o in (orbits[s % n_orb],
                                orbits[(s + n_orb // 2) % n_orb])]
        self.setup_errors = []
        self.grids = {}
        self.orbit_pos_err = []
        for el, traj in zip(self.orbits, self.trajs):
            r_ref, _ = reference.closed_form_state(el, self.DURATION)
            err = float(np.linalg.norm(traj.r[-1] - r_ref))
            self.orbit_pos_err.append(err)
            if not err <= POS_TOL_KM[self.name]:
                self.setup_errors.append(f"half-day trajectory off by "
                                         f"{err} km")

    def execute(self, job, out_dir):
        o, s = job.args
        return geotrack.find_passes(self.trajs[o], self.stations[s],
                                    criterion=job.kind)

    def collect(self, job, result, out_dir):
        epoch0 = self.trajs[job.args[0]].epoch0
        windows = [(p.aos.seconds_since(epoch0), p.los.seconds_since(epoch0),
                    p.max_elevation, p.duration, p.direction)
                   for p in result]
        return Outcome(True, _sha(repr(windows)), windows)

    def check(self, job, windows):
        o, s = job.args
        v = Verdict()
        for aos, los, max_el, dur, direction in windows:
            if direction not in ("ascending", "descending"):
                v.errors.append(f"bad direction {direction!r}")
            # offsets come from Julian-date differences: ~1e-4 s round-off
            if not (-1e-3 <= aos <= los <= self.DURATION + 1e-3) or \
                    abs((los - aos) - dur) > 1e-3:
                v.errors.append(f"window {aos}-{los} s, duration {dur}")
        if o not in self.grids:
            self.grids[o] = reference.screening_grid(self.orbits[o],
                                                     self.DURATION)
        ref = reference.PassReference(self.orbits[o], self.DURATION,
                                      self.stations[s], job.kind,
                                      grid=self.grids[o])
        errors, t_err, el_err, edges = reference.compare_passes(
            ref, [(w[0], w[1], w[2]) for w in windows], self.DT)
        v.errors += errors
        if windows:
            v.pass_time_err_s, v.max_el_err_deg = t_err, el_err
        for dt, dm in edges:
            if dt > EDGE_TOL_S and dm > EDGE_TOL_DEG:
                v.errors.append(f"pass edge off by {dt:.2f} s and "
                                f"{dm:.3f} deg")
        if el_err > MAX_EL_TOL_DEG:
            v.errors.append(f"max elevation off by {el_err:.3f} deg")
        v.pos_err_km = self.orbit_pos_err[o]
        return v


# -- workloads through cli.run ---------------------------------------------

class _CliWorkload:
    """Jobs are argv lists run through cli.run with output captured."""

    def execute(self, job, out_dir):
        argv = [out_dir if a == OUT else a for a in job.args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()

    def collect(self, job, result, out_dir):
        rc, stdout, stderr = result
        parts = [stdout.replace(out_dir, OUT)]
        size = 0
        if os.path.isdir(out_dir):
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    data = fh.read()
                size += len(data)
                parts += [name, data]
        ok = rc == 0
        error = "" if ok else f"exit {rc}: {stderr.strip()[:200]}"
        return Outcome(ok, _sha(*parts), dict(stdout=stdout, out=out_dir),
                       bytes_written=size, error=error)

    def check(self, job, ev):
        v = Verdict()
        getattr(self, "_check_" + job.kind.replace("-", "_"))(job, ev, v)
        return v

    @staticmethod
    def _trajectory(path, v, rows_expected):
        header, rows = _read_csv(path)
        if header != TRAJECTORY_HEADER:
            v.errors.append(f"trajectory header {header!r}")
            return None
        data = np.array(rows, dtype=float)
        if data.shape != (rows_expected, 7) or not _finite(data):
            v.errors.append(f"trajectory shape {data.shape}, expected "
                            f"({rows_expected}, 7), finite")
            return None
        return data

    @staticmethod
    def _svg(path, v):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            v.errors.append(f"{os.path.basename(path)} is not an SVG document")


class SrpArcWorkload(_CliWorkload):
    """leosrp propagate --srp over 1 h arcs at dt 10 s, one orbit per job."""

    name = "srp-arc"
    HOURS = 1.0
    DT = 10.0

    def __init__(self, inputs):
        self.inputs = inputs
        self.setup_errors = []
        self.jobs = []
        configs = inputs.craft_configs
        for orbit, path in enumerate(inputs.arc_elements):
            shadow = ("force-lit", "geometric")[orbit % 2]
            sun = ("analytic", inputs.sun_table_path)[(orbit // 2) % 2]
            cfg = configs[(orbit + orbit // len(configs)) % len(configs)]
            argv = ("propagate", "--elements", path,
                    "--hours", repr(self.HOURS), "--dt", repr(self.DT),
                    "--srp", "--shadow", shadow, "--config", cfg,
                    "--ephem", sun, "--out", OUT)
            self.jobs.append(Job(key=f"arc{orbit}", kind="propagate",
                                 args=argv,
                                 meta=dict(orbit=orbit, shadow=shadow,
                                           sun=sun, cfg=cfg)))
        assert len({job.args for job in self.jobs}) == len(self.jobs)

    def _check_propagate(self, job, ev, v):
        m = job.meta
        rows = int(round(self.HOURS * 3600.0 / self.DT)) + 1
        data = self._trajectory(os.path.join(ev["out"], "trajectory.csv"),
                                v, rows)
        if data is None:
            return
        el = kepler.read_elements_csv(self.inputs.arc_elements[m["orbit"]])[0]
        sv = kepler.elements_to_state(el)
        if np.max(np.abs(data[0, 1:4] - sv.r)) > 1e-9 or \
                np.any(data[:, 0] != self.DT * np.arange(rows)):
            v.errors.append("first row or time column does not match")
        cfg = {k: float(x) for k, x in
               (item.split("=") for item in m["cfg"].split(","))}
        sun = (reference.sun_analytic if m["sun"] == "analytic"
               else reference.sun_table(m["sun"]))
        r_ref, _ = reference.srp_arc_final_state(
            el, self.HOURS * 3600.0, cfg, m["shadow"] == "geometric", sun)
        err = float(np.linalg.norm(data[-1, 1:4] - r_ref))
        if not err <= POS_TOL_KM[self.name]:
            v.errors.append(f"final position off by {err} km")
        # With the geometric shadow the force jumps at the shadow boundary,
        # and the error depends on where the jump falls inside a step: it
        # varies from seed to seed, so only smooth-force runs feed the
        # pos_err_km metric (geometric runs still face the tolerance).
        if m["shadow"] == "force-lit":
            v.pos_err_km = err


class AnalysisWorkload(_CliWorkload):
    """A fixed mix of the remaining subcommands, with seeded inputs."""

    name = "analysis"
    PIPELINE_HOURS = 1.0
    TRACK_HOURS = 1.0
    EPOCHS = 1000

    def __init__(self, inputs):
        self.inputs = inputs
        self.setup_errors = []
        circ, ds = inputs.circular_elements, inputs.dataset_paths
        jobs = []

        def add(kind, *argv, **meta):
            jobs.append(Job(key=f"{kind}{len(jobs)}", kind=kind, args=argv,
                            meta=meta))
        # each group of six uses every circular orbit once per command, so
        # no two jobs of a cycle repeat their flags
        n = len(circ)
        for k in range(max(1, round(13 * inputs.scale))):
            c0, c1, c2 = circ[k % n], circ[(k + 1) % n], circ[(k + 2) % n]
            cfg = inputs.craft_configs[k % len(inputs.craft_configs)]
            add("pipeline", "pipeline", "--elements", c2, "--hours",
                repr(self.PIPELINE_HOURS), "--out", OUT, elements=c2)
            add("ml-train", "ml", "train", "--data", ds[k % len(ds)],
                "--epochs", str(self.EPOCHS), "--seed", str(7 + k), "--out",
                OUT, data=ds[k % len(ds)], seed=7 + k)
            # force-lit only: with --shadow geometric, any eclipsed sample
            # makes the command's summary line divide by a zero magnitude
            add("srp-year", "srp", "year", "--elements", c0, "--config", cfg,
                "--out", OUT, elements=c0, config=cfg)
            add("srp-sweep", "srp", "sweep", "--elements", c1, "--out", OUT,
                elements=c1, compare=False)
            add("srp-sweep", "srp", "sweep", "--elements", c2, "--compare",
                "--hours", "1", "--out", OUT, elements=c2, compare=True)
            add("groundtrack", "groundtrack", "--elements", c0, "--hours",
                repr(self.TRACK_HOURS), "--out", OUT, elements=c0)
        for feats in inputs.feature_rows:
            add("ml-predict", "ml", "predict", "--model", inputs.model_path,
                "--features", feats, features=feats)
        add("tle-parse", "tle", "parse", inputs.catalog_path, "--out", OUT)
        self.jobs = jobs
        assert len({job.args for job in jobs}) == len(jobs)

    # each _check_<kind> reads the artifacts of the job's first run

    def _check_pipeline(self, job, ev, v):
        out = ev["out"]
        header, rows = _read_csv(os.path.join(out, "srp_year.csv"))
        if len(rows) != 366 or not header.startswith("jd,"):
            v.errors.append(f"srp_year.csv has {len(rows)} rows")
        _, sweep = _read_csv(os.path.join(out, "sweep.csv"))
        el_header, el_rows = _read_csv(os.path.join(out,
                                                    "sweep_elements.csv"))
        if len(sweep) != 50 or len(el_rows) != 50 or \
                el_header != ELEMENTS_CSV_HEADER:
            v.errors.append("sweep outputs do not have 50 rows")
            return
        rows_expected = int(round(self.PIPELINE_HOURS * 3600.0 / 10.0)) + 1
        data = self._trajectory(
            os.path.join(out, "trajectory_perturbed.csv"), v, rows_expected)
        if data is not None:
            el = kepler.elements_from_row(",".join(el_rows[0]))
            r_ref, _ = reference.closed_form_state(el, data[-1, 0])
            v.pos_err_km = float(np.linalg.norm(data[-1, 1:4] - r_ref))
            if not v.pos_err_km <= POS_TOL_KM[self.name]:
                v.errors.append(f"final position off by {v.pos_err_km} km")
        ds = mlreg.read_dataset_csv(os.path.join(out, "dataset.csv"))
        if len(ds) != 50 or not _finite(ds.targets):
            v.errors.append("dataset.csv does not hold 50 finite rows")

    def _check_ml_train(self, job, ev, v):
        model = mlreg.load_model(os.path.join(ev["out"], "model.txt"))
        ds = mlreg.read_dataset_csv(job.meta["data"])
        _, val = mlreg.split_dataset(ds, ratio=0.8, seed=job.meta["seed"])
        preds = mlreg.predict(model, val.features)
        if not _finite(preds):
            v.errors.append("reloaded model predicts non-finite values")
            return
        printed = dict(line.split("=", 1) for line in ev["stdout"].splitlines()
                       if line.startswith("mape."))
        for t, name in enumerate(model.target_names):
            want = mlreg.mape(preds[:, t], val.targets[:, t])
            got = float(printed.get(f"mape.{name}", "nan").rstrip("%"))
            if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
                v.errors.append(f"printed mape.{name} {got} != reloaded "
                                f"model's {want}")
        self._svg(os.path.join(ev["out"], "fit.svg"), v)

    def _check_ml_predict(self, job, ev, v):
        model = mlreg.load_model(self.inputs.model_path)
        feats = np.array([float(x) for x in job.meta["features"].split(",")])
        want = mlreg.predict(model, feats)
        lines = ev["stdout"].splitlines()
        got = [float(line.split("=", 1)[1]) for line in lines]
        if len(got) != len(want) or np.any(np.array(got) != want):
            v.errors.append(f"predicted {got}, expected {list(want)}")

    def _check_srp_year(self, job, ev, v):
        header, rows = _read_csv(os.path.join(ev["out"], "srp_year.csv"))
        data = np.array(rows, dtype=float)
        if len(rows) != 366 or data.shape[1] != 7 or not _finite(data):
            v.errors.append(f"srp_year.csv shape {data.shape}")
            return
        nu = data[:, 6]
        if np.any(nu != 1):
            v.errors.append("force-lit series has a shadowed sample")
        cfg = srp.SrpConfig(**{k: float(x) for k, x in (
            item.split("=") for item in job.meta["config"].split(","))})
        base = cfg.cr * CONSTANTS.p0 * cfg.area / cfg.mass / 1000.0
        sun = np.array([reference.sun_analytic(jd) for jd in data[:, 0]])
        want = nu * base * CONSTANTS.au ** 2 / np.sum(sun * sun, axis=1)
        if np.max(np.abs(data[:, 4] - want)) > 1e-3 * base:
            v.errors.append("acceleration magnitude off the cannonball model")
        if np.max(np.abs(data[:, 5] - data[:, 4] * 86400.0 ** 2)) > \
                1e-9 * np.max(data[:, 5]):
            v.errors.append("km/day^2 column does not match km/s^2")
        self._svg(os.path.join(ev["out"], "srp_year.svg"), v)

    def _check_srp_sweep(self, job, ev, v):
        out = ev["out"]
        el = kepler.read_elements_csv(job.meta["elements"])[0]
        _, rows = _read_csv(os.path.join(out, "sweep.csv"))
        data = np.array(rows, dtype=float)
        if data.shape != (50, 3) or not _finite(data):
            v.errors.append(f"sweep.csv shape {data.shape}")
            return
        n = math.sqrt(CONSTANTS.mu_earth / el.a ** 3)
        u1 = -0.5 * math.pi + n * 0.5 * 2.0 * math.pi / n
        w = data[:, 0] / 86400.0 ** 2
        want = w / n * (math.sin(u1) + 1.0) / (n * el.a)
        if np.max(np.abs(data[:, 1] - want) / want) > 1e-6:
            v.errors.append("delta_i departs from the closed form")
        if np.max(np.abs(data[:, 2] - math.degrees(el.i)
                         - np.degrees(data[:, 1]))) > 1e-9:
            v.errors.append("i_deg_new != i + delta_i")
        if job.meta["compare"]:
            self._svg(os.path.join(out, "sweep_compare.svg"), v)

    def _check_groundtrack(self, job, ev, v):
        header, rows = _read_csv(os.path.join(ev["out"], "groundtrack.csv"))
        data = np.array(rows, dtype=float)
        n = int(round(self.TRACK_HOURS * 3600.0 / 10.0)) + 1
        if header != "t_s,jd,lat_deg,lon_deg,alt_km" or \
                data.shape != (n, 5) or not _finite(data):
            v.errors.append(f"groundtrack.csv shape {data.shape}")
            return
        el = kepler.read_elements_csv(job.meta["elements"])[0]
        t, jd, lat, lon, alt = data[-1]
        r_ref, _ = reference.closed_form_state(el, t)
        ref = _ecef(r_ref, jd)
        la, lo = math.radians(lat), math.radians(lon)
        got = (CONSTANTS.r_earth + alt) * np.array(
            [math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo),
             math.sin(la)])
        v.pos_err_km = float(np.linalg.norm(got - ref))
        if not v.pos_err_km <= POS_TOL_KM[self.name]:
            v.errors.append(f"final track point off by {v.pos_err_km} km")
        self._svg(os.path.join(ev["out"], "groundtrack.svg"), v)

    def _check_tle_parse(self, job, ev, v):
        header, rows = _read_csv(os.path.join(ev["out"], "elements.csv"))
        catalog = self.inputs.catalog
        if header != ELEMENTS_CSV_HEADER or len(rows) != len(catalog):
            v.errors.append(f"elements.csv has {len(rows)} rows, "
                            f"expected {len(catalog)}")
            return
        for row, entry in zip(rows, catalog):
            a, e, i, raan, argp, f, jd = (float(x) for x in row)
            t = entry.truth
            if (abs(a - t["a_km"]) > 1e-6 or e != t["e"]
                    or abs(i - t["i_deg"]) > 1e-9
                    or abs(raan - t["raan_deg"]) > 1e-9
                    or abs(argp - t["argp_deg"]) > 1e-9
                    or abs(jd - t["epoch_jd"]) > 1e-7
                    or not 0.0 <= f < 360.0):
                v.errors.append(f"row {row} does not match {t}")
                return


WORKLOADS = {w.name: w for w in (CatalogWorkload, SrpArcWorkload,
                                 PassesWorkload, AnalysisWorkload)}
