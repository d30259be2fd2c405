import http.server
import math
import os
import threading
import urllib.error
import urllib.parse

import numpy as np
import pytest

from leosrp import ephemeris
from leosrp.errors import (DomainError, EphemerisRangeError, FetchError,
                           FormatError)
from leosrp.ephemeris import (EphemerisTable, analytic_sun_table,
                              fetch_horizons, interpolate,
                              parse_horizons_vectors, shadow_factor,
                              sun_position_analytic)
from leosrp.timeframe import CONSTANTS, Epoch

HORIZONS_TEXT = """\
API VERSION: 1.2
API SOURCE: NASA/JPL Horizons API

$$SOE
2459905.500000000, A.D. 2022-Nov-22 00:00:00.0000, 6.0e7, 1.2e8, 5.2e7,
2459906.500000000, A.D. 2022-Nov-23 00:00:00.0000, 5.8e7, 1.3e8, 5.3e7,
2459907.500000000, A.D. 2022-Nov-24 00:00:00.0000, 5.6e7, 1.4e8, 5.4e7,
$$EOE
"""

SIMPLE_TEXT = """\
jd,x_km,y_km,z_km
2459905.5,6.0e7,1.2e8,5.2e7
2459906.5,5.8e7,1.3e8,5.3e7
"""


def test_parse_horizons_block():
    rows = parse_horizons_vectors(HORIZONS_TEXT, body="sun")
    assert len(rows) == 3
    epoch, vec = rows[0]
    assert epoch.jd == 2459905.5
    assert vec == pytest.approx([6.0e7, 1.2e8, 5.2e7])


def test_parse_simple_csv():
    rows = parse_horizons_vectors(SIMPLE_TEXT, body="sun")
    assert len(rows) == 2
    assert rows[1][0].jd == 2459906.5


def test_parse_rejects_unordered():
    shuffled = HORIZONS_TEXT.replace("2459906.5", "2459904.5")
    with pytest.raises(FormatError):
        parse_horizons_vectors(shuffled, body="sun")


def test_parse_reports_line_numbers(tmp_path):
    bad = HORIZONS_TEXT.replace("5.8e7", "not-a-number")
    with pytest.raises(FormatError) as err:
        parse_horizons_vectors(bad, body="sun", path="vec.txt")
    assert "vec.txt:" in str(err.value)


@pytest.mark.parametrize("old, new, line", [
    ("2459906.500000000", "nan", 6),
    ("5.8e7", "inf", 6),
    ("1.3e8", "-inf", 6),
    ("5.3e7", "nan", 6),
    ("2459905.500000000", "2000000.5", 5),
    ("2459907.500000000", "2600000.5", 7),
])
def test_parse_horizons_rejects_bad_values(old, new, line):
    bad = HORIZONS_TEXT.replace(old, new, 1)
    with pytest.raises(FormatError) as err:
        parse_horizons_vectors(bad, body="sun", path="vec.txt")
    assert f"vec.txt:{line}:" in str(err.value)


@pytest.mark.parametrize("old, new, line", [
    ("2459906.5", "nan", 3),
    ("2459906.5", "inf", 3),
    ("6.0e7", "inf", 2),
    ("1.3e8", "nan", 3),
    ("2459905.5", "2000000.5", 2),
])
def test_parse_simple_csv_rejects_bad_values(old, new, line):
    bad = SIMPLE_TEXT.replace(old, new, 1)
    with pytest.raises(FormatError) as err:
        parse_horizons_vectors(bad, body="sun", path="sun.csv")
    assert f"sun.csv:{line}:" in str(err.value)


def test_table_requires_increasing_jds():
    rows = [(Epoch(2459905.5), np.ones(3)), (Epoch(2459905.5), np.ones(3))]
    with pytest.raises(FormatError):
        EphemerisTable.from_components(rows)


@pytest.mark.parametrize("jds", [(2459905.5, math.nan),
                                 (math.nan, 2459905.5)])
def test_table_rejects_nan_jds(jds):
    rows = [(Epoch(jd), np.ones(3)) for jd in jds]
    with pytest.raises(FormatError):
        EphemerisTable.from_components(rows)


def test_interpolate_linear_midpoint():
    table = EphemerisTable.from_components(
        parse_horizons_vectors(HORIZONS_TEXT, body="sun"))
    rec = interpolate(table, Epoch(2459906.0))
    assert rec.sun_geocentric == pytest.approx([5.9e7, 1.25e8, 5.25e7])
    # exact nodes come back exactly
    rec = interpolate(table, Epoch(2459907.5))
    assert rec.sun_geocentric == pytest.approx([5.6e7, 1.4e8, 5.4e7])


def test_interpolate_out_of_span():
    table = EphemerisTable.from_components(
        parse_horizons_vectors(HORIZONS_TEXT, body="sun"))
    with pytest.raises(EphemerisRangeError):
        interpolate(table, Epoch(2459904.0))
    with pytest.raises(EphemerisRangeError):
        interpolate(table, Epoch(2459911.0))


# --- analytic sun model ---

def test_analytic_sun_distance_bounds():
    au = CONSTANTS.au
    dists = []
    for day in range(0, 366, 2):
        r = sun_position_analytic(Epoch(2459945.5 + day))
        dists.append(np.linalg.norm(r) / au)
    assert 0.980 < min(dists) < 0.985
    assert 1.015 < max(dists) < 1.020


def test_analytic_sun_perihelion_timing():
    # minimum distance should fall within a few days of Jan 4
    jd_jan1_2023 = 2459945.5
    jds = np.arange(jd_jan1_2023 - 20, jd_jan1_2023 + 20, 0.5)
    dists = [np.linalg.norm(sun_position_analytic(Epoch(j))) for j in jds]
    jd_min = jds[int(np.argmin(dists))]
    assert abs(jd_min - (jd_jan1_2023 + 3.0)) < 5.0


def test_analytic_sun_stays_near_ecliptic():
    limit = math.sin(math.radians(23.5))
    for day in range(0, 366, 7):
        r = sun_position_analytic(Epoch(2459905.5 + day))
        assert abs(r[2]) / np.linalg.norm(r) <= limit


def test_analytic_table_span():
    table = analytic_sun_table(2459905.5, 2459910.5, step_days=1.0)
    assert len(table.records) == 6
    assert table.jds[0] == 2459905.5
    assert table.jds[-1] == 2459910.5
    assert np.all(np.diff(table.jds) > 0)
    # the record count is bounded before any record is built
    for stop, step in ((2459910.5, 5.0 / ephemeris.MAX_TABLE_RECORDS),
                       (math.inf, 1.0)):
        with pytest.raises(DomainError, match="records"):
            analytic_sun_table(2459905.5, stop, step_days=step)


# --- fetch and cache ---

def test_fetch_uses_cache(tmp_path, monkeypatch):
    calls = []

    def fake_get(url, params):
        calls.append(params)
        return HORIZONS_TEXT

    monkeypatch.setattr(ephemeris, "_http_get", fake_get)
    text1 = fetch_horizons("sun", 2459905.5, 2459907.5,
                           cache_dir=str(tmp_path))
    assert text1 == HORIZONS_TEXT
    assert len(calls) == 1
    # second call is served from disk
    text2 = fetch_horizons("sun", 2459905.5, 2459907.5,
                           cache_dir=str(tmp_path))
    assert text2 == HORIZONS_TEXT
    assert len(calls) == 1
    assert os.listdir(tmp_path) == [
        "horizons_sun_geocentric_2459905.500000_2459907.500000_1d.txt"]
    assert calls[0]["COMMAND"] == "'10'"
    assert calls[0]["CENTER"] == "'500@399'"


def test_fetch_offline_error(tmp_path, monkeypatch):
    def fake_get(url, params):
        raise OSError("network unreachable")

    monkeypatch.setattr(ephemeris, "_http_get", fake_get)
    with pytest.raises(FetchError) as err:
        fetch_horizons("sun", 2459905.5, 2459907.5, cache_dir=str(tmp_path))
    assert "analytic" in str(err.value)  # points at the offline fallback


@pytest.fixture
def local_server(monkeypatch):
    """A one-thread HTTP server on 127.0.0.1 that records request paths."""
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("no_proxy", "*")
    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            seen.append(self.path)
            if self.path.startswith("/missing"):
                self.send_error(404)
                return
            body = HORIZONS_TEXT.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_http_get_transport(local_server):
    base, seen = local_server
    params = {"COMMAND": "'10'", "START_TIME": "'JD2459905.500000000'",
              "STEP_SIZE": "'1 d'"}
    assert ephemeris._http_get(base + "/api", params) == HORIZONS_TEXT
    path = urllib.parse.urlsplit(seen[0])
    assert path.path == "/api"
    assert urllib.parse.parse_qs(path.query) == {
        key: [value] for key, value in params.items()}
    with pytest.raises(urllib.error.HTTPError):
        ephemeris._http_get(base + "/missing", params)


def test_fetch_unknown_body(tmp_path, monkeypatch):
    def no_get(url, params):
        raise AssertionError("unknown body reached the transport")

    monkeypatch.setattr(ephemeris, "_http_get", no_get)
    for body in ("pluto-express", "moon"):
        with pytest.raises(DomainError):
            fetch_horizons(body, 2459905.5, 2459907.5,
                           cache_dir=str(tmp_path))


# --- shadow geometry ---

def test_shadow_factor_cylinder():
    r_sun = np.array([CONSTANTS.au, 0.0, 0.0])
    # sunlit side
    assert shadow_factor(np.array([7000.0, 0.0, 0.0]), r_sun) == 1
    # behind the planet, inside the cylinder
    assert shadow_factor(np.array([-7000.0, 0.0, 0.0]), r_sun) == 0
    # behind, but displaced beyond one planet radius
    assert shadow_factor(np.array([-7000.0, 6500.0, 0.0]), r_sun) == 1
    # on the terminator plane counts as lit
    assert shadow_factor(np.array([0.0, 7000.0, 0.0]), r_sun) == 1
    with pytest.raises(DomainError):
        shadow_factor(np.array([100.0, 0.0, 0.0]), r_sun)
