"""From-scratch linear regression over radiation-pressure sweep outputs.

The dataset maps craft features (acceleration magnitude, area-to-mass
ratio, mass) to the inertial position components of the perturbed orbit at
a fixed reference point.  Training is plain batch gradient descent on the
half-mean-squared-error loss

    J = (1 / 2m) * sum (w.x + b - y)^2

with z-score feature normalization and one independent regressor per target
component sharing the feature pipeline.  No external learning library is
involved; the update rule is exactly

    w <- w - (lr / m) * sum (pred - y) x      b <- b - (lr / m) * sum (pred - y)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError, FormatError, MetricError
from .kepler import elements_to_state
from .srp import SrpConfig, SweepEntry

TARGET_NAMES = ("x_km", "y_km", "z_km")
FEATURE_NAMES = ("a_srp_km_day2", "area_to_mass", "mass_kg")

#: Feature columns whose sample standard deviation falls below this are
#: treated as constant: they normalize to 0 and their std is recorded as 1.
STD_FLOOR = 1e-15


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus aligned target matrix."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...] = FEATURE_NAMES
    target_names: tuple[str, ...] = TARGET_NAMES

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        targs = np.asarray(self.targets, dtype=float)
        if feats.ndim != 2 or targs.ndim != 2:
            raise DomainError("features and targets must be 2-D arrays")
        if feats.shape[0] != targs.shape[0]:
            raise DomainError(
                f"row mismatch: {feats.shape[0]} feature rows vs "
                f"{targs.shape[0]} target rows")
        if feats.shape[1] != len(self.feature_names):
            raise DomainError("feature column count does not match names")
        if targs.shape[1] != len(self.target_names):
            raise DomainError("target column count does not match names")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature z-score parameters captured from a training split."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class RegressionModel:
    """One trained scalar regressor: prediction is w.x + b."""

    weights: np.ndarray
    bias: float
    loss_history: np.ndarray


@dataclass(frozen=True)
class PositionModel:
    """Independent per-target regressors over a shared feature pipeline."""

    models: tuple[RegressionModel, ...]
    stats: FeatureStats
    feature_names: tuple[str, ...]
    target_names: tuple[str, ...]
    lr: float
    epochs: int


def generate_dataset(sweep: list[SweepEntry], cfg: SrpConfig,
                     reference_u_deg: float = 90.0) -> Dataset:
    """Build a regression dataset from an inclination sweep.

    One row per sweep entry: features are (magnitude km/day^2, area-to-mass,
    mass); targets are the inertial position components of the perturbed
    element set evaluated at a fixed argument of latitude (default 90 deg,
    where the out-of-plane displacement from an inclination change peaks).

    Raises:
        DomainError: If the sweep has fewer than 5 entries.
    """
    if len(sweep) < 5:
        raise DomainError(
            f"need at least 5 sweep entries to build a dataset, "
            f"got {len(sweep)}")
    u_ref = math.radians(reference_u_deg)
    feats = np.empty((len(sweep), 3))
    targs = np.empty((len(sweep), 3))
    for k, entry in enumerate(sweep):
        el = entry.elements
        f_ref = (u_ref - el.argp) % (2.0 * math.pi)
        state = elements_to_state(replace(el, true_anomaly=f_ref))
        feats[k] = (entry.a_srp_km_day2, cfg.area_to_mass, cfg.mass)
        targs[k] = state.r
    return Dataset(feats, targs)


def split_dataset(ds: Dataset, ratio: float = 0.8,
                  seed: int = 42) -> tuple[Dataset, Dataset]:
    """Shuffle rows with a seeded RNG and split train/validation.

    The first round(ratio * N) shuffled rows train; the rest validate.
    Identical seeds give identical splits.

    Raises:
        DomainError: If either side of the split would be empty.
    """
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"split ratio {ratio} outside (0, 1)")
    n = len(ds)
    n_train = int(round(ratio * n))
    if n_train == 0 or n_train == n:
        raise DomainError(
            f"split ratio {ratio} leaves an empty side for {n} rows")
    order = np.random.default_rng(seed).permutation(n)
    tr, va = order[:n_train], order[n_train:]
    make = lambda idx: Dataset(ds.features[idx], ds.targets[idx],
                               ds.feature_names, ds.target_names)
    return make(tr), make(va)


def normalize_features(features: np.ndarray) -> tuple[np.ndarray, FeatureStats]:
    """Z-score a feature matrix; constant columns map to 0 with std 1."""
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2:
        raise DomainError("feature matrix must be 2-D")
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std < STD_FLOOR, 1.0, std)
    return (feats - mean) / std, FeatureStats(mean=mean, std=std)


def apply_normalization(features: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Apply stored z-score parameters to new rows."""
    return (np.asarray(features, dtype=float) - stats.mean) / stats.std


def loss(features_norm: np.ndarray, y: np.ndarray, w: np.ndarray,
         b: float) -> float:
    """Half-mean-squared error J = (1/2m) sum (w.x + b - y)^2."""
    err = features_norm @ w + b - y
    return float(err @ err) / (2.0 * len(y))


def gradient(features_norm: np.ndarray, y: np.ndarray, w: np.ndarray,
             b: float) -> tuple[np.ndarray, float]:
    """Analytic gradient of the loss with respect to (w, b)."""
    m = len(y)
    err = features_norm @ w + b - y
    return features_norm.T @ err / m, float(err.sum()) / m


def train(train_ds: Dataset, lr: float = 0.01,
          epochs: int = 10000) -> PositionModel:
    """Batch gradient descent from zero initialization.

    Each target column gets its own weight vector and bias; the feature
    normalization is fit on this split and carried in the model.  The loss
    history (J before each update) is recorded per target.

    Raises:
        DomainError: If lr is negative or epochs < 1.
        DivergenceError: If the loss becomes non-finite (lr too high).
    """
    if lr < 0.0:
        raise DomainError(f"learning rate must be >= 0, got {lr}")
    if int(epochs) != epochs or epochs < 1:
        raise DomainError(f"epochs must be a positive integer, got {epochs}")
    epochs = int(epochs)

    xn, stats = normalize_features(train_ds.features)
    y = train_ds.targets
    m, n_feat = xn.shape
    n_targ = y.shape[1]
    w = np.zeros((n_feat, n_targ))
    b = np.zeros(n_targ)
    history = np.empty((epochs, n_targ))
    for k in range(epochs):
        err = xn @ w + b - y
        j = (err * err).sum(axis=0) / (2.0 * m)
        if not np.all(np.isfinite(j)):
            raise DivergenceError(
                f"loss became non-finite at epoch {k} with lr = {lr}; "
                "lower the learning rate")
        history[k] = j
        w -= (lr / m) * (xn.T @ err)
        b -= (lr / m) * err.sum(axis=0)

    models = tuple(
        RegressionModel(weights=w[:, t].copy(), bias=float(b[t]),
                        loss_history=history[:, t].copy())
        for t in range(n_targ))
    return PositionModel(models=models, stats=stats,
                         feature_names=train_ds.feature_names,
                         target_names=train_ds.target_names,
                         lr=lr, epochs=epochs)


def predict(model: PositionModel, features) -> np.ndarray:
    """Predict targets for one feature row or a matrix of rows.

    Raises:
        DomainError: If the feature arity does not match the model or a
            feature is not finite.
    """
    feats = np.asarray(features, dtype=float)
    single = feats.ndim == 1
    if single:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != len(model.feature_names):
        raise DomainError(
            f"feature shape {np.asarray(features).shape} does not match "
            f"{len(model.feature_names)} model features")
    if not np.isfinite(feats).all():
        raise DomainError("features must be finite")
    xn = apply_normalization(feats, model.stats)
    out = np.column_stack([xn @ m.weights + m.bias for m in model.models])
    return out[0] if single else out


def mape(predicted, actual) -> float:
    """Mean absolute percentage error, in percent.

    Raises:
        MetricError: If any actual value is zero (the metric is undefined).
        DomainError: If the shapes differ.
    """
    pred = np.asarray(predicted, dtype=float).ravel()
    act = np.asarray(actual, dtype=float).ravel()
    if pred.shape != act.shape:
        raise DomainError(
            f"shape mismatch: predicted {pred.shape} vs actual {act.shape}")
    if pred.size == 0:
        raise MetricError("MAPE undefined for empty arrays")
    zeros = np.nonzero(act == 0.0)[0]
    if zeros.size:
        raise MetricError(
            f"MAPE undefined: actual values are zero at indices "
            f"{zeros.tolist()}")
    return float(100.0 * np.mean(np.abs(pred - act) / np.abs(act)))


# --- plain-text model persistence ---

MODEL_FORMAT = "leosrp-regression-v1"


def _csv_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def save_model(model: PositionModel, path: str) -> None:
    """Write a model as deterministic key=value text."""
    lines = [
        f"format={MODEL_FORMAT}",
        f"feature_names={','.join(model.feature_names)}",
        f"target_names={','.join(model.target_names)}",
        f"lr={model.lr!r}",
        f"epochs={model.epochs}",
        f"feature_mean={_csv_floats(model.stats.mean)}",
        f"feature_std={_csv_floats(model.stats.std)}",
    ]
    for name, reg in zip(model.target_names, model.models):
        lines.append(f"weights.{name}={_csv_floats(reg.weights)}")
        lines.append(f"bias.{name}={reg.bias!r}")
        if len(reg.loss_history):
            lines.append(f"final_loss.{name}={float(reg.loss_history[-1])!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> PositionModel:
    """Read a key=value model file back into a PositionModel.

    Loss histories are not persisted; loaded models carry empty histories.
    """
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError("expected key=value", path=path, line=lineno)
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()

    def text(key):
        try:
            return pairs[key]
        except KeyError:
            raise FormatError(f"missing model key {key!r}", path=path) from None

    def numbers(key, count):
        fields = text(key).split(",")
        try:
            vals = np.array([float(v) for v in fields])
        except ValueError as exc:
            raise FormatError(f"bad model value for {key}: {exc}",
                              path=path) from None
        if not np.isfinite(vals).all():
            raise FormatError(f"{key} has a non-finite value", path=path)
        if len(vals) != count:
            raise FormatError(f"{key} has {len(vals)} values, expected "
                              f"{count}", path=path)
        return vals

    if text("format") != MODEL_FORMAT:
        raise FormatError(f"unsupported model format {pairs['format']!r}",
                          path=path)
    feature_names = tuple(text("feature_names").split(","))
    target_names = tuple(text("target_names").split(","))
    n_feat = len(feature_names)
    stats = FeatureStats(mean=numbers("feature_mean", n_feat),
                         std=numbers("feature_std", n_feat))
    if not (stats.std > 0.0).all():
        raise FormatError("feature_std must be positive", path=path)
    models = tuple(
        RegressionModel(weights=numbers(f"weights.{name}", n_feat),
                        bias=float(numbers(f"bias.{name}", 1)[0]),
                        loss_history=np.empty(0))
        for name in target_names)
    epochs = text("epochs")
    try:
        epochs = int(epochs)
    except ValueError as exc:
        raise FormatError(f"bad model value for epochs: {exc}",
                          path=path) from None
    return PositionModel(
        models=models, stats=stats, feature_names=feature_names,
        target_names=target_names, lr=float(numbers("lr", 1)[0]),
        epochs=epochs)


# --- dataset CSV interchange ---

def dataset_csv_header(ds: Dataset) -> str:
    return ",".join(ds.feature_names + ds.target_names)


def write_dataset_csv(ds: Dataset, path: str) -> None:
    """Write features and targets side by side with a named header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dataset_csv_header(ds) + "\n")
        for feat, targ in zip(ds.features, ds.targets):
            fh.write(_csv_floats(feat) + "," + _csv_floats(targ) + "\n")


def read_dataset_csv(path: str) -> Dataset:
    """Read a dataset CSV; trailing x_km,y_km,z_km columns are the targets."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise FormatError("dataset CSV needs a header and at least one row",
                          path=path)
    names = tuple(n.strip() for n in lines[0].split(","))
    n_targ = len([n for n in names if n in TARGET_NAMES])
    if n_targ == 0 or names[-n_targ:] != TARGET_NAMES[-n_targ:]:
        raise FormatError(
            f"dataset header must end with target columns {TARGET_NAMES}",
            path=path, line=1)
    feature_names = names[:-n_targ]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise FormatError(f"non-numeric dataset field: {exc}",
                              path=path, line=lineno) from None
        if len(rows[-1]) != len(names):
            raise FormatError(
                f"row has {len(rows[-1])} fields, header has {len(names)}",
                path=path, line=lineno)
    data = np.array(rows)
    return Dataset(data[:, :-n_targ], data[:, -n_targ:],
                   feature_names, TARGET_NAMES[-n_targ:])
