"""Span and counter tracing of the leosrp layers, installed from outside.

The tracer wraps public functions of the package modules (the layers) by
replacing the module attributes that hold them, in every ``leosrp`` module
that imported them by name.  Nothing under ``src/`` is edited.  Three kinds
of wrapper exist:

* span: timed, and a span record (id, name, start, end, parent, job) is
  kept in memory; used at layer boundaries that run a few times per job;
* timer: timed like a span but aggregated only (no record); used where a
  layer boundary is crossed thousands of times per job (the radiation-
  pressure hook, the Sun provider, element conversions);
* count: calls are counted, not timed; used for the hot inner functions
  (``two_body_accel``, ``Epoch.plus_seconds``, ``elevation_azimuth``,
  ``shadow_factor``, ``solve_kepler``).  Their time is charged to the layer
  of the calling frame.

Self time of a layer is the time its timed frames were on top of the stack:
a frame's duration minus the durations of the timed frames it called.  The
benchmark opens one root frame per job (layer ``harness``), so the self
times of all layers add up to the traced job time.
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict
from time import perf_counter

#: Layers, named after the package modules, in report order.
LAYERS = ("cli", "svgplot", "propagator", "srp", "ephemeris", "geotrack",
          "tle", "kepler", "mlreg", "timeframe")

HARNESS = "harness"


class TracingError(RuntimeError):
    """A layer boundary the tracer wraps no longer exists."""


class Tracer:
    """Collects spans, per-layer self time, inclusive time and counters."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.self_by_name = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []      # frames: [child_seconds, span_id, parent_id]
        self._next_id = 0
        self._job = None

    # -- frames ---------------------------------------------------------

    def _enter(self, record: bool):
        parent = self._stack[-1][1] if self._stack else None
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent
        frame = [0.0, span_id, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, layer, t0, t1, record):
        self._stack.pop()
        dur = t1 - t0
        self.self_s[layer] += dur - frame[0]
        self.self_by_name[name] += dur - frame[0]
        self.incl_s[name] += dur
        self.counts[name] += 1
        if self._stack:
            self._stack[-1][0] += dur
        if record:
            self.spans.append((frame[1], name, t0, t1, frame[2], self._job))

    def job(self, job_id, fn):
        """Run fn() as the root frame of one job; returns its result."""
        self._job = job_id
        frame = self._enter(True)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._exit(frame, "job", HARNESS, t0, perf_counter(), True)
            self._job = None

    # -- wrapper factories ---------------------------------------------

    def timed(self, fn, name, layer, record=False, after=None):
        """Wrap fn so each call is a frame of the given layer.

        after(result, args, kwargs), when given, runs after the call (inside
        the frame) to update counters from the result.
        """
        def wrapper(*args, **kwargs):
            frame = self._enter(record)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                self._exit(frame, name, layer, t0, perf_counter(), record)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name, after=None):
        """Wrap fn so calls are counted; no timing, no frame."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived numbers -----------------------------------------------

    def layer_self_seconds(self) -> dict:
        """Self seconds by layer (every layer and the harness present)."""
        return {name: self.self_s.get(name, 0.0)
                for name in LAYERS + (HARNESS,)}


def self_times_from_spans(spans) -> dict:
    """Self seconds per span name, from span records alone.

    A span's self time is its duration minus the time its child spans
    cover.  Used by the tests to confirm the frame bookkeeping; the live
    bookkeeping also accounts for timer frames, which leave no record.
    """
    child = defaultdict(float)
    for _, _, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for span_id, name, t0, t1, _, _ in spans:
        out[name] += (t1 - t0) - child.get(span_id, 0.0)
    return dict(out)


# -- installation -----------------------------------------------------------

def _replace_everywhere(orig, repl):
    """Point every leosrp module attribute that holds orig at repl."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "leosrp"
                               or mod_name.startswith("leosrp.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, repl)
                undo.append((mod, attr, orig))
    return undo


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a callable that restores them.

    A boundary missing from the package (renamed or inlined by a change)
    raises TracingError, after restoring what was already wrapped: its
    counters would otherwise read zero and pass for an improvement.
    """
    from leosrp import (cli, ephemeris, geotrack, kepler, mlreg, propagator,
                        srp, svgplot, timeframe, tle)
    from leosrp.errors import TleFormatWarning

    t = tracer
    counts = t.counts
    undo = []

    def wrap(module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            uninstall()
            raise TracingError(f"{module.__name__}.{attr} is gone; update "
                               f"the benchmark's tracing")
        repl = make(orig)
        setattr(module, attr, repl)
        undo.append((module, attr, orig))
        undo.extend(_replace_everywhere(orig, repl))

    def uninstall():
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)

    def span(module, attr, layer, after=None, record=True):
        name = f"{layer}.{attr}"
        wrap(module, attr,
             lambda fn: t.timed(fn, name, layer, record=record, after=after))

    def timer(module, attr, layer, after=None):
        span(module, attr, layer, after=after, record=False)

    def count(module, attr, name, after=None):
        wrap(module, attr, lambda fn: t.counted(fn, name, after=after))

    # cli: one span per command
    span(cli, "run", "cli")

    # propagator: the integration loop and the central-body force
    def after_propagate(traj, args, kwargs):
        counts["propagator.steps"] += len(traj) - 1
    span(propagator, "propagate", "propagator", after=after_propagate)
    count(propagator, "two_body_accel", "propagator.accel_calls")

    # srp: hook and sun-provider factories return wrapped closures
    def hook_factory(fn):
        def factory(*args, **kwargs):
            return t.timed(fn(*args, **kwargs), "srp.hook", "srp")
        return factory
    wrap(srp, "srp_perturbation", hook_factory)

    def sun_factory(fn):
        def factory(*args, **kwargs):
            return t.timed(fn(*args, **kwargs), "ephemeris.sun", "ephemeris")
        return factory
    wrap(srp, "table_sun_position", sun_factory)
    span(srp, "perturb_sweep", "srp")
    span(srp, "srp_year_series", "srp")

    # ephemeris: the analytic Sun is a provider call of its own
    wrap(ephemeris, "sun_position_analytic",
         lambda fn: t.timed(fn, "ephemeris.sun", "ephemeris"))
    timer(ephemeris, "interpolate", "ephemeris")
    timer(ephemeris, "parse_horizons_vectors", "ephemeris")
    timer(ephemeris, "analytic_sun_table", "ephemeris")

    def after_shadow(nu):
        if nu == 0:
            counts["ephemeris.eclipsed"] += 1
    count(ephemeris, "shadow_factor", "ephemeris.shadow_calls",
          after=after_shadow)

    # geotrack
    def after_passes(passes, args, kwargs):
        counts["geotrack.passes"] += len(passes)
    span(geotrack, "find_passes", "geotrack", after=after_passes)
    span(geotrack, "ground_track", "geotrack")
    timer(geotrack, "track_segments", "geotrack")
    timer(geotrack, "revisit_report", "geotrack")
    count(geotrack, "elevation_azimuth", "geotrack.elevation_calls")

    # tle: parse_tle notes whether the token fallback ran
    def tle_parse(fn):
        def parse(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rec = fn(*args, **kwargs)
            if any(issubclass(w.category, TleFormatWarning) for w in caught):
                counts["tle.fallback"] += 1
            return rec
        return t.timed(parse, "tle.parse_tle", "tle")
    wrap(tle, "parse_tle", tle_parse)
    timer(tle, "tle_to_elements", "tle")
    timer(tle, "read_tle_file", "tle")

    # kepler
    for attr in ("elements_to_state", "elements_at", "state_to_elements",
                 "read_elements_csv", "elements_to_row"):
        timer(kepler, attr, "kepler")
    count(kepler, "solve_kepler", "kepler.solve_calls")

    # mlreg
    def after_train(model, args, kwargs):
        counts["mlreg.epochs"] += int(model.epochs)
    span(mlreg, "train", "mlreg", after=after_train)
    for attr in ("generate_dataset", "split_dataset", "predict", "mape",
                 "save_model", "load_model", "read_dataset_csv",
                 "write_dataset_csv"):
        timer(mlreg, attr, "mlreg")

    # svgplot
    def after_render(svg, args, kwargs):
        fig = args[0] if args else kwargs["fig"]
        counts["svgplot.points"] += sum(len(s.xs) for s in fig.series)
    timer(svgplot, "render", "svgplot", after=after_render)

    # timeframe
    for attr in ("parse_epoch", "format_epoch", "calendar_to_jd",
                 "jd_to_calendar"):
        timer(timeframe, attr, "timeframe")
    wrap(timeframe.Epoch, "plus_seconds",
         lambda fn: t.counted(fn, "timeframe.plus_seconds_calls"))
    return uninstall
