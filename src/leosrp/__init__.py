"""Low-earth-orbit toolkit: orbits, radiation pressure, passes, regression.

The package covers a small mission-analysis loop: Keplerian elements and
Cartesian states, fixed-step RK4 propagation with an optional
radiation-pressure perturbation, ground tracks and station pass windows,
two-line element set and ephemeris-table parsing, and a gradient-descent
regressor that maps craft parameters to perturbed position components.
"""

from .errors import (
    ChecksumError,
    ChecksumWarning,
    ConvergenceError,
    DegenerateOrbitError,
    DivergenceError,
    DomainError,
    EphemerisRangeError,
    FetchError,
    FormatError,
    InvalidDateError,
    LeoSrpError,
    MetricError,
    TleFormatWarning,
)
from .timeframe import (
    CONSTANTS,
    Epoch,
    FrameConstants,
    calendar_to_jd,
    format_epoch,
    gmst,
    jd_to_calendar,
    parse_epoch,
)
from .kepler import (
    KeplerianElements,
    StateVector,
    circular_velocity,
    eccentric_to_true,
    elements_at,
    elements_from_row,
    elements_to_row,
    elements_to_state,
    mean_to_true,
    orbital_period,
    orbits_per_day,
    read_elements_csv,
    solve_kepler,
    state_to_elements,
    true_to_eccentric,
    true_to_mean,
)
from .propagator import (
    Trajectory,
    angular_momentum,
    propagate,
    specific_energy,
    two_body_accel,
)
from .tle import (
    TleRecord,
    format_tle,
    parse_tle,
    read_tle_file,
    tle_checksum,
    tle_to_elements,
)
from .ephemeris import (
    EphemerisRecord,
    EphemerisTable,
    analytic_sun_table,
    fetch_horizons,
    interpolate,
    parse_horizons_vectors,
    shadow_factor,
    sun_position_analytic,
    sun_xyz,
)
from .geotrack import (
    GeoPoint,
    GroundStation,
    PassWindow,
    RevisitSummary,
    cap_angle,
    ecef_to_geo,
    eci_to_ecef,
    elevation_azimuth,
    find_passes,
    geo_to_ecef,
    ground_track,
    nadir_angle,
    revisit_report,
    slant_range,
    track_segments,
)
from .srp import (
    SrpConfig,
    SrpSample,
    SweepEntry,
    km_day2_to_km_s2,
    km_s2_to_km_day2,
    perturb_sweep,
    srp_acceleration,
    srp_perturbation,
    srp_year_series,
    table_sun_position,
    two_body_position,
)
from .mlreg import (
    Dataset,
    PositionModel,
    generate_dataset,
    load_model,
    mape,
    predict,
    read_dataset_csv,
    save_model,
    split_dataset,
    train,
    write_dataset_csv,
)
from .svgplot import (
    Figure,
    Series,
    render,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
