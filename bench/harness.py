"""Run one workload: set-up, a timed closed loop, checks, and metrics.

Load is one process and one thread in a closed loop: each job starts when
the previous one returns.  The loop runs cycles of the workload's job list
and stops at the first cycle boundary after the requested number of
seconds.  Every cycle runs a new variant of the seeded inputs (see
inputgen): position k of the list costs the same in every cycle, but no
timed job repeats the inputs of an earlier one, so results the program
keeps from one call to the next cannot make a repeat cheaper.  Only the
job calls are timed; generating a cycle's inputs, collecting evidence and
hashing artifacts happen outside the timings, and every job's output is
checked after the loop.

Timings use each position's fastest run (see ``fastest``): wall_s is one
pass over the list at those times, and the latency percentiles are taken
over the positions.  End-to-end timings are scaled to the reference host
by a calibration kernel timed between jobs (see ``scaled``); the unscaled
wall time is kept in the metadata.  After the loop, the warm-up jobs run
again with their identical inputs and must reproduce their artifacts byte
for byte.

With tracing on, cycles alternate untraced and traced.  End-to-end metrics
come from untraced runs only; per-layer metrics come from the traced
cycles, and the tracing overhead compares the two passes.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import leosrp
from leosrp.errors import ChecksumWarning, TleFormatWarning

import inputgen
import tracing
from workloads import WORKLOADS, Outcome, Verdict

#: The package import (in a fresh interpreter) and the set-up (input
#: generation, workload construction, warm-up) each run this many times per
#: run; setup_s is the sum of their fastest times.
SETUP_REPEATS = 8
#: Fewest untraced (and, when tracing, traced) repeats of the cycle.
MIN_REPEATS = 3
#: Seconds between runs of the calibration kernel in the timed loop, and
#: how many runs on each side of a job set its speed factor (see scaled).
CALIBRATE_EVERY_S = 0.03
CALIBRATION_WINDOW = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_p90_ms": "ms", "peak_rss_mb": "MB",
                    "ok_frac": "ratio", "pos_err_km": "km"}


class Instance(NamedTuple):
    """One timed run of a job: cycle, position in the job list, seconds,
    traced or not, its outcome, and the time of its middle."""

    cycle: int
    idx: int
    seconds: float
    traced: bool
    outcome: Outcome
    t_mid: float


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)


def warmup_jobs(wl) -> list:
    """Positions run in warm-up and re-run for the identity check: the
    first two, and the first of every kind of job."""
    first = {}
    for idx, job in enumerate(wl.jobs):
        first.setdefault(job.kind, idx)
    return sorted(set(first.values()) | {0, 1} & set(range(len(wl.jobs))))


def prepare(workload, seed, scale, run_dir, variant):
    """Generate one variant of the inputs and build the workload on them."""
    inputs = inputgen.generate(seed, scale,
                               os.path.join(run_dir, f"in{variant}"),
                               workload, variant)
    return WORKLOADS[workload](inputs)


def _run_job(wl, job, out_dir, tracer=None):
    """Run one job; returns (seconds, result, error text)."""
    t0 = perf_counter()
    try:
        if tracer is None:
            result = wl.execute(job, out_dir)
        else:
            result = tracer.job(job.key, lambda: wl.execute(job, out_dir))
        err = ""
    except Exception:
        result, err = None, traceback.format_exc(limit=3)
    return perf_counter() - t0, result, err


def _outcome(wl, job, result, err, out_dir):
    if err:
        return Outcome(False, "", error=err)
    try:
        return wl.collect(job, result, out_dir)
    except Exception:
        return Outcome(False, "", error=traceback.format_exc(limit=3))


def _digest_inputs(inputs) -> list:
    out = []
    for path in inputs.files():
        with open(path, "rb") as fh:
            out.append((os.path.relpath(path, inputs.directory), fh.read()))
    return out


def _kernel_best(cal, samples=CALIBRATION_WINDOW) -> float:
    best = float("inf")
    for _ in range(samples):
        t0 = perf_counter()
        cal.kernel()
        best = min(best, perf_counter() - t0)
    return best


def bracketed(fn, cal):
    """Run fn() between two sets of calibration runs; returns (seconds of
    fn scaled to the reference host, fn's result).  See scaled."""
    before = _kernel_best(cal)
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    return dt * cal.ref_s / min(before, _kernel_best(cal)), result


def import_seconds(root, cal) -> float:
    """Fastest of SETUP_REPEATS starts of a fresh interpreter that imports
    leosrp (numpy included), in reference-host seconds."""
    argv = [sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import leosrp",
            os.path.join(root, "src")]
    return min(
        bracketed(lambda: subprocess.run(argv, capture_output=True,
                                         check=True, timeout=120), cal)[0]
        for _ in range(SETUP_REPEATS))


def _setup_once(workload, seed, scale, workroot):
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot)
    wl = prepare(workload, seed, scale, run_dir, 0)
    warm = {}
    for idx in warmup_jobs(wl):
        out_dir = os.path.join(run_dir, "warm", str(idx))
        _, result, err = _run_job(wl, wl.jobs[idx], out_dir)
        warm[idx] = _outcome(wl, wl.jobs[idx], result, err, out_dir)
        remove_tree(out_dir)
    return run_dir, wl, warm


def setup(workload, seed, scale, workroot):
    """Generate variant 0 of the inputs, build the workload and warm it up,
    SETUP_REPEATS times.  Timed cycles use variants 1, 2, ...

    Returns (fastest reference-host seconds, run dir, workload, warm-up
    outcomes by position).  Noise only adds time, so the fastest repeat is
    the steadiest estimate of the set-up's own cost.
    """
    times, kept, first_inputs = [], None, None
    for _ in range(SETUP_REPEATS):
        dt, (run_dir, wl, warm) = bracketed(
            lambda: _setup_once(workload, seed, scale, workroot),
            CALIBRATIONS[workload])
        times.append(dt)
        digests = _digest_inputs(wl.inputs)
        if first_inputs is None:
            first_inputs = digests
        elif digests != first_inputs:
            raise RuntimeError("input generation is not deterministic")
        if kept is not None:
            remove_tree(kept[0])
        kept = (run_dir, wl, warm)
    return (min(times),) + kept


def _vector_work(steps):
    r = np.array([7000.0, 0.0, 0.0])
    v = np.array([0.0, 7.5, 0.0])
    for _ in range(steps):
        a = (-398600.4418 / float(np.linalg.norm(r)) ** 3) * r
        v = v + 10.0 * a
        r = r + 10.0 * v
    return r


def _float_work(steps):
    x = 0.0
    for i in range(steps):
        x += math.sqrt(i * 1.5 + x * 1e-9) * 0.5
    return x


def vector_kernel():
    """Interpreted 3-vector numpy arithmetic (a two-body step loop), a
    quarter of a millisecond."""
    return _vector_work(60)


def mixed_kernel():
    """Half vector_kernel's work, half interpreted float arithmetic through
    the math module."""
    return _vector_work(30), _float_work(1000)


class Calibration(NamedTuple):
    """A calibration kernel and its fastest time on the reference host (2
    vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6), seconds."""

    kernel: Callable
    ref_s: float


#: The kernel timed between jobs, per workload: fixed work of the
#: workload's kind, the benchmark's own code.  Its fastest time near a job
#: measures how fast the shared machine could run around it (see scaled).
#: When other tenants were busy, the catalog jobs (3-vector integration)
#: slowed like vector_kernel; the other workloads, which mix numpy calls
#: with plain interpreted code (the hook, CSV and SVG writing, pass
#: screening), slowed less than it and more than plain float arithmetic,
#: so they use mixed_kernel.
CALIBRATIONS = {"catalog": Calibration(vector_kernel, 250e-6),
                "srp-arc": Calibration(mixed_kernel, 215e-6),
                "passes": Calibration(mixed_kernel, 215e-6),
                "analysis": Calibration(mixed_kernel, 215e-6)}


def timed_loop(make, run_dir, seconds, kernel, tracer=None):
    """Run cycles until they have taken `seconds` and each kind of cycle
    ran MIN_REPEATS times; time the calibration kernel every
    CALIBRATE_EVERY_S.

    make(variant) builds the workload on a new variant of the inputs at
    the start of each cycle; building it does not count towards `seconds`.
    Returns (instances, cycles, calibration, peak RSS in MB): cycles are
    (workload, traced, seconds in the jobs); calibration holds (start time,
    kernel seconds).  Job outputs stay on disk for check().  The peak
    resident set is read after the first MIN_REPEATS cycles, which every
    run completes, so it does not grow with the number of cycles the
    benchmark keeps for the checks.
    """
    instances, cycles, calib = [], [], []
    rss_mb = None
    last_cal = perf_counter()
    elapsed = 0.0
    c = 0
    while True:
        wl = make(c + 1)
        if cycles and len(wl.jobs) != len(cycles[0][0].jobs):
            raise RuntimeError("variants give job lists of different length")
        traced = tracer is not None and c % 2 == 1
        total = 0.0
        t_cycle = perf_counter()
        uninstall = tracing.install(tracer) if traced else None
        try:
            for idx, job in enumerate(wl.jobs):
                out_dir = os.path.join(run_dir, "out", str(c), str(idx))
                t_start = perf_counter()
                dt, result, err = _run_job(wl, job, out_dir,
                                           tracer if traced else None)
                total += dt
                instances.append(Instance(
                    c, idx, dt, traced, _outcome(wl, job, result, err,
                                                 out_dir),
                    t_start + 0.5 * dt))
                if perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                    last_cal = perf_counter()
                    kernel()
                    calib.append((last_cal, perf_counter() - last_cal))
        finally:
            if uninstall is not None:
                uninstall()
        elapsed += perf_counter() - t_cycle
        cycles.append((wl, traced, total))
        c += 1
        if c == MIN_REPEATS:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if elapsed >= seconds and \
                c >= MIN_REPEATS * (1 if tracer is None else 2):
            return instances, cycles, calib, rss_mb


def check(cycles, instances):
    """Check every instance that ran; returns a Verdict per instance (None
    where the job raised or exited non-zero)."""
    verdicts = []
    for inst in instances:
        wl = cycles[inst.cycle][0]
        if not inst.outcome.ok:
            verdicts.append(None)
            continue
        try:
            verdicts.append(wl.check(wl.jobs[inst.idx],
                                     inst.outcome.evidence))
        except Exception:
            verdicts.append(Verdict(errors=[
                "check raised: " + traceback.format_exc(limit=3)]))
    return verdicts


def failures(cycles, instances, verdicts):
    """Failure message per timed instance (None when it passed)."""
    out = []
    for inst, verdict in zip(instances, verdicts):
        wl = cycles[inst.cycle][0]
        key = f"cycle {inst.cycle} {wl.jobs[inst.idx].key}"
        if not inst.outcome.ok:
            msg = f"{key}: {inst.outcome.error.strip().splitlines()[-1]}"
        elif wl.setup_errors:
            msg = f"{key}: set-up check: {wl.setup_errors[0]}"
        elif verdict.errors:
            msg = f"{key}: {verdict.errors[0]}"
        else:
            msg = None
        out.append(msg)
    return out


def identity(wl, warm, run_dir):
    """Run the warm-up jobs again with identical inputs; returns a failure
    message per job (None when it reproduced its artifacts byte for
    byte)."""
    out = []
    for idx, before in sorted(warm.items()):
        job = wl.jobs[idx]
        out_dir = os.path.join(run_dir, "warm", str(idx))
        _, result, err = _run_job(wl, job, out_dir)
        after = _outcome(wl, job, result, err, out_dir)
        remove_tree(out_dir)
        if not (before.ok and after.ok):
            msg = f"{job.key} (warm-up): {(before.error or after.error)}"
        elif after.digest != before.digest:
            msg = f"{job.key}: output differs from an identical earlier run"
        else:
            msg = None
        out.append(msg)
    return out


def _largest(values):
    values = [v for v in values if v is not None]
    return max(values) if values else 0.0


def scaled(instances, calib, ref_s):
    """Instances with each job time in seconds of the reference host.

    Other tenants of a shared host slow it by up to 2x for seconds to
    minutes, and the fastest repeat of a job cannot remove a slowdown that
    lasts the whole run.  Each job time is multiplied by ref_s (the
    kernel's time on the reference host) over the fastest of the
    CALIBRATION_WINDOW calibration runs on either side of the job (about
    0.1 s each way), so the factor follows the host's speed at that moment:
    the slowdowns come and go within a second, and with 10 runs a side
    (0.3 s) the factor caught quiet moments the job did not have.
    Returns (scaled instances, median factor).
    """
    times = [t for t, _ in calib]
    kernel = [dt for _, dt in calib]
    out, factors = [], []
    for inst in instances:
        k = bisect.bisect_left(times, inst.t_mid)
        lo, hi = max(0, k - CALIBRATION_WINDOW), k + CALIBRATION_WINDOW
        factors.append(ref_s / min(kernel[lo:hi] or kernel))
        out.append(inst._replace(seconds=inst.seconds * factors[-1]))
    return out, statistics.median(factors)


def fastest(instances, traced):
    """Fastest run of each position among (un)traced instances.

    Other tenants of a shared machine slow it in bursts of a few seconds,
    and noise only adds time; the fastest run of a position over the
    cycles (equal-cost variants of one job) is the steadiest estimate of
    its uncontended cost.
    """
    best = {}
    for inst in instances:
        if inst.traced == traced:
            best[inst.idx] = min(inst.seconds,
                                 best.get(inst.idx, inst.seconds))
    return best


def end_to_end(setup_s, instances, failed, attempted, verdicts, cycles,
               rss_mb):
    """End-to-end metrics; pass timings already in reference-host units."""
    best = fastest(instances, False)
    lat_ms = 1000.0 * np.array(list(best.values()))
    pos = [v.pos_err_km for v in verdicts if v is not None]
    for wl, _, _ in cycles:
        pos += getattr(wl, "orbit_pos_err", [])
    values = {
        "setup_s": setup_s,
        "wall_s": sum(best.values()),
        "job_p50_ms": float(np.percentile(lat_ms, 50)),
        "job_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / attempted,
        "pos_err_km": _largest(pos),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(tracer, instances, verdicts):
    """Per-layer metrics, per traced job unless the unit says otherwise."""
    traced = [i for i in instances if i.traced]
    verdicts = [v for v in verdicts if v is not None]
    n = len(traced)
    c = tracer.counts
    self_s = tracer.layer_self_seconds()
    busy = sum(self_s.values())
    incl = tracer.incl_s

    def per_job(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer, s in self_s.items():
        m[f"{layer}.share"] = (ratio(s, busy), "ratio")
    m.update({
        "propagator.busy_ms": (per_job(self_s["propagator"]) * 1e3, "ms/job"),
        "propagator.steps": (per_job(c["propagator.steps"]), "count/job"),
        "propagator.accel_calls": (per_job(c["propagator.accel_calls"]),
                                   "count/job"),
        "propagator.us_per_step": (ratio(self_s["propagator"] * 1e6,
                                         c["propagator.steps"]), "us"),
        "srp.hook_ms": (per_job(tracer.self_by_name["srp.hook"]) * 1e3,
                        "ms/job"),
        "srp.hook_calls": (per_job(c["srp.hook"]), "count/job"),
        "srp.sweep_ms": (per_job(incl["srp.perturb_sweep"]) * 1e3, "ms/job"),
        "srp.year_ms": (per_job(incl["srp.srp_year_series"]) * 1e3,
                        "ms/job"),
        "ephemeris.sun_ms": (per_job(incl["ephemeris.sun"]) * 1e3, "ms/job"),
        "ephemeris.sun_calls": (per_job(c["ephemeris.sun"]), "count/job"),
        "ephemeris.shadow_calls": (per_job(c["ephemeris.shadow_calls"]),
                                   "count/job"),
        "ephemeris.eclipse_frac": (ratio(c["ephemeris.eclipsed"],
                                         c["ephemeris.shadow_calls"]),
                                   "ratio"),
        "timeframe.plus_seconds_calls": (
            per_job(c["timeframe.plus_seconds_calls"]), "count/job"),
        "geotrack.find_passes_ms": (per_job(incl["geotrack.find_passes"])
                                    * 1e3, "ms/job"),
        "geotrack.ground_track_ms": (per_job(incl["geotrack.ground_track"])
                                     * 1e3, "ms/job"),
        "geotrack.elevation_calls": (per_job(c["geotrack.elevation_calls"]),
                                     "count/job"),
        "geotrack.passes": (per_job(c["geotrack.passes"]), "count/job"),
        "geotrack.elevation_calls_per_pass": (
            ratio(c["geotrack.elevation_calls"], c["geotrack.passes"]),
            "count"),
        "geotrack.pass_time_err_s": (
            _largest(v.pass_time_err_s for v in verdicts), "s"),
        "geotrack.max_el_err_deg": (
            _largest(v.max_el_err_deg for v in verdicts), "deg"),
        "tle.parse_ms": (per_job(incl["tle.parse_tle"]) * 1e3, "ms/job"),
        "tle.records": (per_job(c["tle.parse_tle"]), "count/job"),
        "tle.fallback_frac": (ratio(c["tle.fallback"], c["tle.parse_tle"]),
                              "ratio"),
        "kepler.busy_ms": (per_job(self_s["kepler"]) * 1e3, "ms/job"),
        "kepler.solve_calls": (per_job(c["kepler.solve_calls"]), "count/job"),
        "mlreg.train_ms": (per_job(incl["mlreg.train"]) * 1e3, "ms/job"),
        "mlreg.us_per_epoch": (ratio(incl["mlreg.train"] * 1e6,
                                     c["mlreg.epochs"]), "us"),
        "svgplot.render_ms": (per_job(incl["svgplot.render"]) * 1e3,
                              "ms/job"),
        "svgplot.points": (per_job(c["svgplot.points"]), "count/job"),
        "cli.self_ms": (per_job(self_s["cli"]) * 1e3, "ms/job"),
        "cli.bytes_written": (per_job(sum(i.outcome.bytes_written
                                          for i in traced)), "B/job"),
        "trace.overhead_frac": (
            sum(fastest(instances, True).values())
            / sum(fastest(instances, False).values()) - 1.0, "ratio"),
        "trace.spans": (per_job(len(tracer.spans)), "count/job"),
    })
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def _git_commit(root):
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(root, workload, seed, seconds, trace):
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "python": platform.python_version(),
            "numpy": np.__version__, "leosrp": leosrp.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit(root)}


def run(workload, seed, seconds, trace, root, scale=1.0, scratch=None):
    """Run one workload end to end; returns (result dict, metadata dict).

    Job files go under <scratch>/.bench_work (removed afterwards) and the
    trace dump under <scratch>/.bench_out; scratch defaults to root.
    """
    warnings.filterwarnings("ignore", category=TleFormatWarning)
    warnings.filterwarnings("ignore", category=ChecksumWarning)
    scratch = scratch or root
    workroot = os.path.join(scratch, ".bench_work")
    os.makedirs(workroot, exist_ok=True)
    meta = metadata(root, workload, seed, seconds, trace)

    cal = CALIBRATIONS[workload]
    import_s = import_seconds(root, cal)
    setup_s, run_dir, wl, warm = setup(workload, seed, scale, workroot)
    try:
        tracer = tracing.Tracer() if trace else None
        measured, cycles, calib, rss_mb = timed_loop(
            lambda v: prepare(workload, seed, scale, run_dir, v), run_dir,
            seconds, cal.kernel, tracer)
        verdicts = check(cycles, measured)
        msgs = failures(cycles, measured, verdicts) + \
            identity(wl, warm, run_dir)
    finally:
        remove_tree(run_dir)

    instances, factor = scaled(measured, calib, cal.ref_s)
    attempted = len(msgs)
    failed = sum(m is not None for m in msgs)
    for msg in [m for m in msgs if m][:5]:
        print(f"failed: {msg}", file=sys.stderr)
    if trace:
        metrics = per_layer(tracer, instances, verdicts)
        dump_trace(scratch, meta, tracer)
    else:
        metrics = end_to_end(import_s + setup_s, instances, failed,
                             attempted, verdicts, cycles, rss_mb)
    meta.update(import_s=import_s, setup_only_s=setup_s,
                jobs_per_cycle=len(wl.jobs),
                cycle_s=[round(t, 4) for _, _, t in cycles],
                speed_factor=factor,
                measured_wall_s=sum(fastest(measured, False).values()),
                attempted=attempted, identity_jobs=len(warm),
                failed=failed)
    print(f"{workload}: {len(instances)} timed jobs in {len(cycles)} cycles "
          f"of {len(wl.jobs)} and {len(warm)} identity re-runs, {failed} "
          f"failed", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, meta


def dump_trace(scratch, meta, tracer):
    """Write the spans and totals of a traced run under .bench_out/."""
    out_dir = os.path.join(scratch, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    doc = {"meta": meta,
           "fields": ["id", "name", "start_s", "end_s", "parent", "job"],
           "spans": [[i, name, round(a - t0, 7), round(b - t0, 7), p, job]
                     for i, name, a, b, p, job in tracer.spans],
           "self_s": dict(tracer.self_s), "incl_s": dict(tracer.incl_s),
           "counts": dict(tracer.counts)}
    path = os.path.join(out_dir, f"trace-{meta['workload']}-"
                                 f"seed{meta['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
