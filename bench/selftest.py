"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py

Smoke-size runs of every workload must emit each metric BENCHMARK.json
names, with its unit.  The negative tests feed deliberately wrong program
results into the checks and require them to be counted as failed, so the
checks are not vacuous.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import inputgen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from leosrp import cli, geotrack, propagator  # noqa: E402

SMOKE = 0.1

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def smoke(tmp_path, workload, trace=False, seed=3):
    result, meta = harness.run(workload, seed, 0.0, trace, ROOT,
                               scale=SMOKE, scratch=str(tmp_path))
    json.dumps(result)  # the result must serialise as the driver reads it
    return result, meta


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_end_to_end_metric(tmp_path, workload):
    result, meta = smoke(tmp_path, workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("python", "numpy", "nproc", "cpu", "commit", "seed"):
        assert key in meta
    assert not os.listdir(tmp_path / ".bench_work")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_emits_every_per_layer_metric(tmp_path, workload):
    result, _ = smoke(tmp_path, workload, trace=True)
    assert result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    shares = sum(v["value"] for k, v in result["metrics"].items()
                 if k.endswith(".share"))
    assert shares == pytest.approx(1.0)
    dump = tmp_path / ".bench_out" / f"trace-{workload}-seed3.json"
    spans = json.loads(dump.read_text())["spans"]
    assert spans and all(len(s) == 6 for s in spans)


# -- negative tests: wrong results must count as failed ----------------------

def test_pass_shifted_by_30_s_is_counted_failed(tmp_path, monkeypatch):
    real = geotrack.find_passes

    def shifted(*args, **kwargs):
        return [geotrack.PassWindow(p.aos.plus_seconds(30.0),
                                    p.los.plus_seconds(30.0), p.duration,
                                    p.max_elevation, p.direction)
                for p in real(*args, **kwargs)]
    monkeypatch.setattr(geotrack, "find_passes", shifted)
    result, _ = smoke(tmp_path, "passes")
    assert not result["correct"]
    assert result["failed"] > 0


def test_trajectory_row_off_by_1_km_is_counted_failed(tmp_path, monkeypatch):
    real = propagator.propagate

    def perturbed(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.r[-1, 0] += 1.0
        return traj
    monkeypatch.setattr(propagator, "propagate", perturbed)
    monkeypatch.setattr(cli, "propagate", perturbed)
    for workload in ("catalog", "srp-arc"):
        result, meta = smoke(tmp_path, workload)
        # every timed job fails; the identity re-runs repeat the same offset
        assert result["failed"] == \
            result["attempted"] - meta["identity_jobs"], workload


def test_non_repeatable_artifacts_are_counted_failed(tmp_path, monkeypatch):
    real = propagator.propagate
    calls = []

    def drifting(*args, **kwargs):
        traj = real(*args, **kwargs)
        calls.append(1)
        traj.r[-1, 0] += 1e-9 * len(calls)
        return traj
    monkeypatch.setattr(cli, "propagate", drifting)
    result, meta = smoke(tmp_path, "srp-arc")
    # each identity re-run differs from its warm-up run
    assert result["failed"] == meta["identity_jobs"] > 0


def test_compare_passes_flags_a_shift_and_a_missed_window():
    class Ref:
        windows = [(1000.0, 1500.0, 40.0), (7000.0, 7400.0, 20.0)]
        duration = 86400.0

        @staticmethod
        def metric(t):
            return 0.01 * min(abs(t - edge) for edge in
                              (1000.0, 1500.0, 7000.0, 7400.0))

    errors, t_err, el_err, edges = reference.compare_passes(
        Ref, [(1000.5, 1499.0, 39.9)], 60.0)
    assert t_err == pytest.approx(1.0) and el_err == pytest.approx(0.1)
    assert edges == pytest.approx([(0.5, 0.005), (1.0, 0.01)])
    assert any("not found" in e for e in errors)
    errors, t_err, _, edges = reference.compare_passes(
        Ref, [(1030.0, 1530.0, 40.0), (7030.0, 7430.0, 20.0)], 60.0)
    assert not errors and t_err == pytest.approx(30.0)
    assert edges == pytest.approx([(30.0, 0.3)] * 4)


# -- tracing -----------------------------------------------------------------

def test_self_time_subtracts_child_frames():
    t = tracing.Tracer()

    def spin(seconds):
        import time
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = t.timed(lambda: spin(0.02), "kepler.inner", "kepler",
                    record=True)
    hot = t.counted(lambda: spin(0.005), "kepler.hot")

    def outer():
        spin(0.01)
        inner()
        hot()
    outer = t.timed(outer, "propagator.outer", "propagator", record=True)
    t.job("j0", outer)
    layers = t.layer_self_seconds()
    assert layers["kepler"] == pytest.approx(0.02, abs=0.005)
    assert layers["propagator"] == pytest.approx(0.015, abs=0.005)
    assert t.counts["kepler.hot"] == 1
    from_spans = tracing.self_times_from_spans(t.spans)
    assert from_spans["kepler.inner"] == pytest.approx(layers["kepler"])
    assert from_spans["propagator.outer"] == pytest.approx(
        layers["propagator"])
    assert sum(layers.values()) == pytest.approx(
        t.spans[-1][3] - t.spans[-1][2])
    ids = {s[0]: s for s in t.spans}
    assert ids[t.spans[0][4]][1] == "propagator.outer"  # inner's parent


def test_missing_boundary_fails_instead_of_reading_zero(monkeypatch):
    from leosrp import timeframe

    before = (propagator.propagate, timeframe.Epoch.plus_seconds)
    monkeypatch.delattr(geotrack, "find_passes")
    with pytest.raises(tracing.TracingError, match="find_passes"):
        tracing.install(tracing.Tracer())
    assert (propagator.propagate, timeframe.Epoch.plus_seconds) == before


def test_install_restores_every_wrapped_function():
    import leosrp
    from leosrp import timeframe

    before = (leosrp.propagate, propagator.propagate, cli.propagate,
              timeframe.Epoch.plus_seconds, geotrack.elevation_azimuth)
    uninstall = tracing.install(tracing.Tracer())
    assert cli.propagate is propagator.propagate is leosrp.propagate
    assert cli.propagate is not before[1]
    uninstall()
    after = (leosrp.propagate, propagator.propagate, cli.propagate,
             timeframe.Epoch.plus_seconds, geotrack.elevation_azimuth)
    assert all(a is b for a, b in zip(before, after))


# -- inputs and references ------------------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_inputs_repeat_per_seed_and_differ_across_seeds(tmp_path, workload):
    def contents(seed, sub, variant=0):
        inp = inputgen.generate(seed, SMOKE, str(tmp_path / sub), workload,
                                variant)
        return [open(p, "rb").read() for p in inp.files()]
    assert contents(5, "a") == contents(5, "b")
    assert contents(5, "a") != contents(6, "c")
    assert contents(5, "a") != contents(5, "d", variant=1)


def test_variants_keep_the_cost_layout(tmp_path):
    def catalog(variant):
        return inputgen.generate(5, 1.0, str(tmp_path / str(variant)),
                                 "catalog", variant).catalog
    a, b = catalog(1), catalog(2)
    assert [e.duration_s for e in a] == [e.duration_s for e in b]
    def reflowed(cat):
        return [e.line1 == " ".join(e.line1.split()) for e in cat]
    assert reflowed(a) == reflowed(b) and sum(reflowed(a)) == len(a) // 4
    perigee = [[e.truth["a_km"] * (1 - e.truth["e"]) for e in cat]
               for cat in (a, b)]
    assert all(abs(x - y) < 400.0 / len(a) + 1.0    # same stratum
               for x, y in zip(*perigee))
    assert all(e.line2 != f.line2 for e, f in zip(a, b))


def test_references_agree_with_each_other(tmp_path):
    from leosrp import kepler

    inp = inputgen.generate(2, SMOKE, str(tmp_path), "passes")
    el = kepler.read_elements_csv(inp.pass_orbits_path)[0]
    ts = np.linspace(0.0, 7200.0, 13)
    scalar = np.array([reference.closed_form_state(el, t)[0] for t in ts])
    assert np.max(np.abs(reference.closed_form_positions(el, ts) - scalar)) \
        < 1e-6
    negligible = {"mass": 1e9, "area": 1e-9, "emissivity": 0.3}
    r, _ = reference.srp_arc_final_state(el, 3600.0, negligible, True,
                                         reference.sun_analytic)
    assert np.linalg.norm(r - reference.closed_form_state(el, 3600.0)[0]) \
        < 1e-6
