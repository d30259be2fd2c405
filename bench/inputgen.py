"""Seeded input files for the benchmark workloads.

``generate(seed, scale, directory, workload, variant)`` writes every file
the program receives for one workload and returns an ``Inputs`` record with
their paths.  The same seed and variant give the same bytes.  Sizes scale
with ``scale`` (1.0 is the benchmark size; the tests use a smoke size).

Quantities that set the cost or the accuracy of a job are drawn in strata,
so every seed covers the same range (for example, the lowest orbit of each
set always lies in the bottom stratum) and the seed changes the inputs
without changing the mix.  Two generators are used per part of the inputs:
the layout generator, seeded by the seed alone, fixes which stratum each
position of the job list draws from (and the other choices that set a
job's cost: durations, reflowed records); the value generator, seeded by
the seed and the variant, draws every value inside its stratum.  Variants
of one seed therefore give job lists of equal cost, position by position,
with different inputs: the benchmark runs a new variant in every cycle, so
no timed job repeats the inputs of an earlier one.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from leosrp import ephemeris, kepler, mlreg, srp, timeframe, tle
from leosrp.kepler import ELEMENTS_CSV_HEADER, KeplerianElements
from leosrp.timeframe import CONSTANTS, Epoch

R_E = CONSTANTS.r_earth
#: Days in which the GMST model turns the Earth once.
SIDEREAL_DAY = 360.0 / timeframe.GMST_RATE_DEG_PER_DAY

#: srp-arc and analysis orbits start within this many days after it.
BASE_YEAR, BASE_MONTH, BASE_DAY = 2022, 11, 22


@dataclass(frozen=True)
class CatalogEntry:
    """One generated element set: the two lines as written, and the truth.

    truth holds the values the lines encode (rounded to TLE precision):
    a_km, e, i_deg, raan_deg, argp_deg, mean_anom_deg, mean_motion, epoch_jd.
    """

    line1: str
    line2: str
    truth: dict
    duration_s: float


@dataclass(frozen=True)
class Inputs:
    """The files of one workload; parts the workload does not use are
    left empty."""

    directory: str
    seed: int
    scale: float
    variant: int
    catalog_path: str = ""
    catalog: tuple = ()
    arc_elements: tuple = ()       # element CSV paths, one orbit each
    craft_configs: tuple = ()      # --config values
    sun_table_path: str = ""
    pass_orbits_path: str = ""
    stations_path: str = ""
    circular_elements: tuple = ()  # element CSV paths for sweep/pipeline/year
    dataset_paths: tuple = ()
    model_path: str = ""
    feature_rows: tuple = ()       # --features values for ml predict

    def files(self) -> list[str]:
        """Every generated file, sorted."""
        out = []
        for base, _, names in os.walk(self.directory):
            out.extend(os.path.join(base, n) for n in names)
        return sorted(out)


#: The parts of the inputs each workload receives.
PARTS = {"catalog": ("catalog",), "srp-arc": ("arc",), "passes": ("passes",),
         "analysis": ("catalog", "arc", "analysis")}


def _generators(seed: int, variant: int, part: str):
    """(layout, values) generators of one part of the inputs."""
    return (random.Random(f"{seed}:{part}"),
            random.Random(f"{seed}:{part}:{variant}"))


def _strata(layout: random.Random, rng: random.Random, n: int, lo: float,
            hi: float) -> list[float]:
    """One uniform draw (rng) per equal-width stratum of [lo, hi), in an
    order fixed by layout."""
    return [lo + (hi - lo) * (k + rng.random()) / n
            for k in layout.sample(range(n), n)]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _elements_csv(path: str, elements) -> str:
    rows = [ELEMENTS_CSV_HEADER] + [kepler.elements_to_row(el)
                                    for el in elements]
    return _write(path, "\n".join(rows) + "\n")


def _base_jd(rng: random.Random) -> float:
    start = timeframe.calendar_to_jd(BASE_YEAR, BASE_MONTH, BASE_DAY).jd
    return start + rng.randrange(0, 60) + 0.25 * rng.randrange(4)


def _catalog(layout: random.Random, rng: random.Random, n: int):
    """n element sets in TLE form, a quarter of them reflowed."""
    jan1 = timeframe.calendar_to_jd(2022, 1, 1).jd
    perigees = _strata(layout, rng, n, 300.0, 700.0)
    eccs = _strata(layout, rng, n, 0.0, 0.05)
    durations = [(3600.0, 5400.0, 7200.0)[k % 3] for k in range(n)]
    layout.shuffle(durations)
    reflow = set(layout.sample(range(n), n // 4))
    entries = []
    for k in range(n):
        e = round(eccs[k], 7)
        a = (R_E + perigees[k]) / (1.0 - e)
        period = 2.0 * math.pi * math.sqrt(a ** 3 / CONSTANTS.mu_earth)
        mm = round(86400.0 / period, 8)
        doy = round(rng.uniform(300.0, 330.0), 8)
        rec = tle.TleRecord(
            catalog_number=10000 + k,
            intl_designator=f"22{1 + k % 300:03d}{'ABCDEFGH'[k % 8]}",
            epoch=Epoch(jan1 + doy - 1.0),
            inclination=round(rng.uniform(0.0, 110.0), 4),
            raan=round(rng.uniform(0.0, 359.0), 4),
            eccentricity=e,
            argp=round(rng.uniform(0.0, 359.0), 4),
            mean_anomaly=round(rng.uniform(0.0, 359.0), 4),
            mean_motion=mm,
            bstar=f"{rng.randrange(10000, 99999)}-{rng.randrange(3, 6)}",
            line_checksums=(0, 0))
        line1, line2 = tle.format_tle(rec)
        if k in reflow:
            line1, line2 = " ".join(line1.split()), " ".join(line2.split())
        a_mm = (CONSTANTS.mu_earth
                * (86400.0 / (2.0 * math.pi * mm)) ** 2) ** (1.0 / 3.0)
        truth = {"a_km": a_mm, "e": e, "i_deg": rec.inclination,
                 "raan_deg": rec.raan, "argp_deg": rec.argp,
                 "mean_anom_deg": rec.mean_anomaly, "mean_motion": mm,
                 "epoch_jd": jan1 + doy - 1.0}
        entries.append(CatalogEntry(line1, line2, truth, durations[k]))
    return entries


def _centres(n: int, lo: float, hi: float) -> list[float]:
    """Midpoints of n equal-width strata of [lo, hi)."""
    return [lo + (hi - lo) * (k + 0.5) / n for k in range(n)]


def _orbits(layout, rng, incs, alts, ecc_max, jd0, spacing_days):
    """One orbit per inclination and altitude (degrees, km above R_E)."""
    n = len(incs)
    raans = _strata(layout, rng, n, 0.0, 360.0)
    out = []
    for k in range(n):
        e = rng.uniform(0.0, ecc_max) if ecc_max > 0.0 else 0.0
        out.append(KeplerianElements(
            a=(R_E + alts[k]) / (1.0 - e), e=e, i=math.radians(incs[k]),
            raan=math.radians(raans[k]),
            argp=math.radians(rng.uniform(0.0, 360.0)),
            true_anomaly=math.radians(rng.uniform(0.0, 360.0)),
            epoch=Epoch(jd0 + k * spacing_days)))
    return out


def generate(seed: int, scale: float, directory: str, workload: str,
             variant: int = 0) -> Inputs:
    """Write one workload's inputs for a seed and variant into directory."""
    os.makedirs(directory, exist_ok=True)
    path = lambda name: os.path.join(directory, name)  # noqa: E731
    parts = PARTS[workload]
    out = {}

    if "catalog" in parts:
        # TLE file with a name line before each record
        layout, rng = _generators(seed, variant, "catalog")
        catalog = _catalog(layout, rng, max(6, int(240 * scale)))
        lines = []
        for entry in catalog:
            lines += [f"SAT-{entry.truth['mean_motion']:.4f}",
                      entry.line1, entry.line2]
        out.update(catalog=tuple(catalog), catalog_path=_write(
            path("catalog.tle"), "\n".join(lines) + "\n"))

    if "arc" in parts:
        # one orbit per srp-arc job, six craft configs, a jd,x,y,z Sun
        # table; epochs spread over the first 2.5 days of the table
        layout, rng = _generators(seed, variant, "arc")
        jd0 = _base_jd(rng)
        n_arc = max(4, round(100 * scale))
        arcs = _orbits(layout, rng, _strata(layout, rng, n_arc, 45.0, 100.0),
                       _strata(layout, rng, n_arc, 400.0, 880.0), 0.002, jd0,
                       2.5 / n_arc)
        n_cfg = min(6, n_arc)
        masses = _strata(layout, rng, n_cfg, 5.0, 50.0)
        areas = _strata(layout, rng, n_cfg, 0.5, 4.0)
        configs = tuple(
            f"mass={masses[k]:.3f},emissivity={rng.uniform(0.1, 0.9):.3f},"
            f"area={areas[k]:.3f}" for k in range(n_cfg))
        _write(path("craft_configs.txt"), "\n".join(configs) + "\n")
        table_rows = ["jd,x_km,y_km,z_km"]
        jd = jd0 - 0.5
        while jd <= jd0 + 3.0:
            sun = ephemeris.sun_position_analytic(Epoch(jd))
            table_rows.append(",".join(repr(float(v)) for v in (jd, *sun)))
            jd += 0.02
        out.update(
            arc_elements=tuple(_elements_csv(path(f"arc_{k}.csv"), [el])
                               for k, el in enumerate(arcs)),
            craft_configs=configs,
            sun_table_path=_write(path("sun_table.csv"),
                                  "\n".join(table_rows) + "\n"))

    if "passes" in parts:
        # Six orbits and a station network on fixed stratum centres
        # (inclinations, altitudes, nodes, phases; latitudes, longitudes,
        # masks), so every job's passes and cost are nearly the same for
        # every seed: with seeded nodes, phases and longitudes, the longest
        # passes, which set job_p90_ms, moved by +-20 % from seed to seed.
        # The seed raises each orbit by up to 2 km; the seed and the
        # variant move the epoch by whole sidereal days, which changes every
        # input file but repeats the Earth-fixed geometry exactly.
        layout, _ = _generators(seed, variant, "passes")
        jd0 = timeframe.calendar_to_jd(BASE_YEAR, BASE_MONTH, BASE_DAY).jd + \
            ((seed % 128) * 64 + variant) * SIDEREAL_DAY
        incs = _centres(6, 30.0, 100.0)
        nodes = _centres(6, 0.0, 360.0)
        phases = _centres(6, 0.0, 360.0)
        passes = [KeplerianElements(
            a=R_E + 410.0 + 90.0 * k + layout.uniform(0.0, 2.0), e=0.0015,
            i=math.radians(incs[k]),
            raan=math.radians(nodes[(5 * k) % 6]),
            argp=math.radians(phases[(2 * k) % 6]),
            true_anomaly=math.radians(phases[(3 * k + 1) % 6]),
            epoch=Epoch(jd0)) for k in range(6)]
        n_st = max(2, round(16 * scale))
        lats = _centres(n_st, -80.0, 80.0)
        lons = _centres(n_st, -180.0, 180.0)
        masks = _centres(n_st, 0.0, 15.0)[::2] + \
            _centres(n_st, 0.0, 15.0)[1::2]
        st_rows = ["name,lat_deg,lon_deg,mask_deg"]
        for k in range(n_st):
            st_rows.append(f"st{k:02d},{lats[k]:.4f},"
                           f"{lons[(7 * k) % n_st]:.4f},{masks[k]:.2f}")
        out.update(
            pass_orbits_path=_elements_csv(path("pass_orbits.csv"), passes),
            stations_path=_write(path("stations.csv"),
                                 "\n".join(st_rows) + "\n"))

    if "analysis" in parts:
        # circular orbits, datasets, a model, feature rows
        # one circular orbit per group of jobs (at least three)
        layout, rng = _generators(seed, variant, "analysis")
        n_groups = max(1, round(13 * scale))
        n_circ = max(3, n_groups)
        circ = _orbits(layout, rng, _strata(layout, rng, n_circ, 40.0, 100.0),
                       _strata(layout, rng, n_circ, 400.0, 800.0), 0.0,
                       _base_jd(rng), 0.0)
        datasets = []
        for k in range(2):
            cfg = srp.SrpConfig(mass=masses[k], area=areas[k])
            start = rng.uniform(0.005, 0.015)
            entries = srp.perturb_sweep(start, 1e-4, 50, circ[k])
            ds_path = path(f"dataset_{k}.csv")
            mlreg.write_dataset_csv(mlreg.generate_dataset(entries, cfg),
                                    ds_path)
            datasets.append(ds_path)
        train_ds, _ = mlreg.split_dataset(mlreg.read_dataset_csv(datasets[0]))
        model_path = path("model.txt")
        mlreg.save_model(mlreg.train(train_ds, epochs=500), model_path)
        out.update(
            circular_elements=tuple(
                _elements_csv(path(f"circular_{k}.csv"), [el])
                for k, el in enumerate(circ)),
            dataset_paths=tuple(datasets), model_path=model_path,
            feature_rows=tuple(
                f"{x!r},{areas[0] / masses[0]!r},{masses[0]!r}"
                for x in _strata(layout, rng, 2 * n_groups, 0.005, 0.02)))

    return Inputs(directory=directory, seed=seed, scale=scale,
                  variant=variant, **out)
