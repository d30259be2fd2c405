import math

import numpy as np
import pytest

from leosrp.errors import DivergenceError, DomainError, FormatError, MetricError
from leosrp.mlreg import (Dataset, apply_normalization, generate_dataset,
                          load_model, mape, normalize_features, predict,
                          read_dataset_csv, save_model, split_dataset, train,
                          write_dataset_csv)
from leosrp.srp import SrpConfig, perturb_sweep


def toy_dataset(n=40, noise=0.0, seed=1):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-2.0, 2.0, size=(n, 3))
    w_true = np.array([[1.5, -2.0], [0.5, 0.25], [-1.0, 3.0]])
    b_true = np.array([0.7, -1.3])
    targets = feats @ w_true + b_true
    if noise:
        targets = targets + rng.normal(0.0, noise, size=targets.shape)
    return Dataset(features=feats, targets=targets,
                   feature_names=("f1", "f2", "f3"),
                   target_names=("t1", "t2"))


def test_normalize_columns():
    ds = toy_dataset()
    normed, stats = normalize_features(ds.features)
    assert np.allclose(normed.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(normed.std(axis=0), 1.0, atol=1e-12)
    again = apply_normalization(ds.features, stats)
    assert np.allclose(again, normed)


def test_normalize_constant_column():
    # 25 rows of 4.2 have a float std of 0, of 13.7 one of 1.8e-15 (rounding
    # of the mean); a spread of one subnormal has a std that underflows to 0
    tiny = np.r_[np.zeros(24), 5e-324]
    feats = np.column_stack([np.full(25, 4.2), np.full(25, 13.7), tiny,
                             np.arange(25.0)])
    assert feats.std(axis=0)[1] > 0.0
    normed, stats = normalize_features(feats)
    assert np.all(np.isfinite(normed))
    assert np.array_equal(stats.std[:3], [1.0, 1.0, 1.0])
    assert np.allclose(normed[:, :3], 0.0)


def test_constant_columns_do_not_move_predictions(el0):
    # the targets do not depend on the craft, so a model trained on another
    # (constant) mass and area predicts what the default one does
    entries = perturb_sweep(0.00994, 1e-4, 50, el0)
    models = [train(split_dataset(generate_dataset(entries, cfg),
                                  ratio=0.8, seed=42)[0])
              for cfg in (SrpConfig(), SrpConfig(mass=13.7, area=1.3))]
    _, val = split_dataset(generate_dataset(entries, SrpConfig()),
                           ratio=0.8, seed=42)
    assert np.allclose(predict(models[1], val.features),
                       predict(models[0], val.features), rtol=0.0, atol=1e-6)


def test_gradient_matches_finite_difference():
    # each epoch of train is one gradient step on J = (1/2m) |X theta - y|^2:
    # theta_{k+1} - theta_k = -lr grad J(theta_k), grad J by central
    # differences
    ds = toy_dataset(n=25)
    normed, _ = normalize_features(ds.features)
    lr, eps = 0.05, 1e-6

    def thetas(epochs):
        return [np.append(m.weights, m.bias)
                for m in train(ds, lr=lr, epochs=epochs).models]

    for t in range(ds.targets.shape[1]):
        y = ds.targets[:, t]

        def loss(theta):
            err = normed @ theta[:-1] + theta[-1] - y
            return float(err @ err) / (2.0 * len(y))

        for k in (1, 2, 10, 100):
            theta, after = thetas(k)[t], thetas(k + 1)[t]
            grad = np.array([(loss(theta + d) - loss(theta - d)) / (2.0 * eps)
                             for d in eps * np.eye(theta.size)])
            assert np.all(np.abs(after - theta + lr * grad) < 1e-6)


def test_train_recovers_normal_equations():
    ds = toy_dataset(n=60, noise=0.01, seed=3)
    model = train(ds, lr=0.05, epochs=20000)
    normed, _ = normalize_features(ds.features)
    design = np.column_stack([normed, np.ones(len(normed))])
    ref, *_ = np.linalg.lstsq(design, ds.targets, rcond=None)
    fitted_w = np.column_stack([m.weights for m in model.models])
    fitted_b = np.array([m.bias for m in model.models])
    assert np.allclose(fitted_w, ref[:-1], atol=1e-6)
    assert np.allclose(fitted_b, ref[-1], atol=1e-6)


def test_train_loss_monotone_tail():
    ds = toy_dataset()
    model = train(ds, lr=0.01, epochs=500)
    hist = model.models[0].loss_history
    assert len(hist) == 500
    assert hist[-1] < hist[0]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(hist[-50:], hist[-49:]))


def test_train_divergence_names_lr():
    ds = toy_dataset()
    ds = Dataset(features=ds.features * 1e3, targets=ds.targets,
                 feature_names=ds.feature_names, target_names=ds.target_names)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            train(ds, lr=50.0, epochs=200)
    assert "lr" in str(err.value) or "rate" in str(err.value)


def _descend(ds, lr, epochs):
    """The update rule of the mlreg docstring, one loop pass per epoch."""
    xn, _ = normalize_features(ds.features)
    y = ds.targets
    m = len(y)
    w = np.zeros((xn.shape[1], y.shape[1]))
    b = np.zeros(y.shape[1])
    history = np.empty((epochs, y.shape[1]))
    for k in range(epochs):
        err = xn @ w + b - y
        j = (err * err).sum(axis=0) / (2.0 * m)
        if not np.all(np.isfinite(j)):
            raise DivergenceError(f"loss became non-finite at epoch {k}")
        history[k] = j
        w = w - (lr / m) * (xn.T @ err)
        b = b - (lr / m) * err.sum(axis=0)
    return w, b, history


def _rhos(ds, lr):
    xn, _ = normalize_features(ds.features)
    design = np.column_stack([xn, np.ones(len(xn))])
    return 1.0 - lr * np.linalg.eigvalsh(design.T @ design) / len(xn)


def _pipeline_train_split(el0):
    ds = generate_dataset(perturb_sweep(0.00994, 1e-4, 50, el0), SrpConfig())
    return split_dataset(ds, ratio=0.8, seed=42)[0]


@pytest.mark.parametrize("case, lr, epochs", [
    ("pipeline", 0.01, 1500),  # constant columns: two lam = 0 directions
    ("toy", 0.05, 1500),
    ("toy", 1.5, 300),  # -1 < rho < 0 along the largest eigenvalue
])
def test_train_matches_the_loop(el0, case, lr, epochs):
    ds = _pipeline_train_split(el0) if case == "pipeline" else toy_dataset()
    rho = _rhos(ds, lr)
    assert np.all(np.abs(rho) <= 1.0)
    if lr > 1.0:
        assert -1.0 < rho.min() < 0.0
    w, b, history = _descend(ds, lr, epochs)
    model = train(ds, lr=lr, epochs=epochs)
    for t, reg in enumerate(model.models):
        scale = max(np.abs(w[:, t]).max(), abs(b[t]))
        assert np.all(np.abs(reg.weights - w[:, t]) <= 1e-9 * scale)
        assert abs(reg.bias - b[t]) <= 1e-9 * scale
        hist = history[:, t]
        live = hist > 1e-9 * hist[0]
        assert live.sum() > 10
        assert np.all(np.abs(reg.loss_history[live] - hist[live])
                      <= 1e-10 * hist[live])
        assert len(reg.loss_history) == epochs
        assert np.all(np.isfinite(reg.loss_history))
    if case == "pipeline":
        # the area-to-mass and mass columns are constant: two lam = 0
        # directions, along which the weights stay at zero
        assert np.sum(np.abs(rho - 1.0) < 1e-12) == 2
        for reg in model.models:
            assert np.all(np.abs(reg.weights[1:]) <= 1e-15 * abs(reg.bias))


def test_train_diverges_at_the_loops_epoch():
    ds = toy_dataset()
    assert _rhos(ds, 3.0).min() < -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as loop:
            _descend(ds, 3.0, 2000)
    with pytest.raises(DivergenceError) as closed:
        train(ds, lr=3.0, epochs=2000)
    epoch = str(loop.value).split("epoch ")[1]
    assert f"epoch {epoch} with lr = 3.0" in str(closed.value)
    # an overflow beyond the last epoch is not an error, as in the loop
    model = train(ds, lr=3.0, epochs=int(epoch))
    assert np.all(np.isfinite(model.models[0].loss_history))


def test_train_argument_checks():
    ds = toy_dataset()
    for lr in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            train(ds, lr=lr)
    with pytest.raises(DomainError):
        train(ds, epochs=0)


def test_predict_shapes():
    ds = toy_dataset()
    model = train(ds, lr=0.05, epochs=3000)
    one = predict(model, ds.features[0])
    assert one.shape == (2,)
    many = predict(model, ds.features[:7])
    assert many.shape == (7, 2)
    assert np.allclose(many[0], one)


def test_split_deterministic():
    ds = toy_dataset(n=50)
    a_train, a_val = split_dataset(ds, ratio=0.8, seed=42)
    b_train, b_val = split_dataset(ds, ratio=0.8, seed=42)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_val.targets, b_val.targets)
    assert len(a_train) == 40 and len(a_val) == 10
    c_train, _ = split_dataset(ds, ratio=0.8, seed=7)
    assert not np.array_equal(a_train.features, c_train.features)


def test_split_covers_everything():
    ds = toy_dataset(n=23)
    tr, va = split_dataset(ds, ratio=0.8, seed=0)
    assert len(tr) + len(va) == 23
    merged = np.vstack([tr.features, va.features])
    assert np.array_equal(np.sort(merged, axis=0),
                          np.sort(ds.features, axis=0))


def test_mape_values():
    assert mape(np.array([110.0]), np.array([100.0])) == pytest.approx(10.0)
    assert mape(np.array([1.0, 3.0]), np.array([1.0, 2.0])) == pytest.approx(25.0)


def test_mape_rejects_zero_actuals():
    with pytest.raises(MetricError) as err:
        mape(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert "1" in str(err.value)  # offending index is named


def test_model_save_load_round_trip(tmp_path):
    ds = toy_dataset()
    model = train(ds, lr=0.05, epochs=1000)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    back = load_model(str(path))
    for orig, rt in zip(model.models, back.models):
        assert np.array_equal(rt.weights, orig.weights)
        assert rt.bias == orig.bias
    assert back.feature_names == model.feature_names
    assert np.array_equal(predict(back, ds.features),
                          predict(model, ds.features))


def test_saved_model_values_are_plain_floats(tmp_path):
    ds = toy_dataset()
    model = train(ds, lr=0.05, epochs=50)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    keys = set()
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        keys.add(key)
        if key in ("format", "feature_names", "target_names"):
            continue
        for field in value.split(","):
            float(field)
    assert {"final_loss.t1", "final_loss.t2", "bias.t1", "lr"} <= keys


def test_load_model_rejects_junk(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(FormatError):
        load_model(str(path))


MODEL_LINES = {"format": "leosrp-regression-v1", "feature_names": "f1,f2",
               "target_names": "t1", "lr": "0.01", "epochs": "10",
               "feature_mean": "0.0,0.0", "feature_std": "1.0,2.0",
               "weights.t1": "1.0,2.0", "bias.t1": "0.5"}


@pytest.mark.parametrize("key, value", [
    ("feature_std", "0.0,1.0"), ("feature_std", "-1.0,1.0"),
    ("feature_std", "nan,1.0"), ("feature_std", "inf,1.0"),
    ("feature_std", "1.0"), ("feature_mean", "0.0,0.0,0.0"),
    ("feature_mean", "nan,0.0"), ("weights.t1", "inf,1.0"),
    ("weights.t1", "1.0"), ("bias.t1", "nan"), ("bias.t1", "1.0,2.0"),
    ("lr", "inf"), ("lr", "nan"), ("epochs", "x"), ("format", "v0"),
    ("bias.t1", None), ("epochs", None),
])
def test_load_model_rejects_bad_values(tmp_path, key, value):
    lines = dict(MODEL_LINES)
    if value is None:
        del lines[key]
    else:
        lines[key] = value
    path = tmp_path / "model.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    with pytest.raises(FormatError) as err:
        load_model(str(path))
    # the location prefix appears once
    assert str(err.value).count(str(path)) == 1
    assert str(err.value).startswith(f"{path}: ")


def test_load_model_reads_the_lines(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in MODEL_LINES.items()))
    model = load_model(str(path))
    assert predict(model, [2.0, 4.0]) == pytest.approx([2.0 + 4.0 + 0.5])
    assert model.lr == 0.01 and model.epochs == 10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_predict_rejects_non_finite_features(bad):
    model = train(toy_dataset(), lr=0.05, epochs=10)
    with pytest.raises(DomainError):
        predict(model, [bad, 1.0, 1.0])


# --- dataset generation from a sweep ---

def test_generate_dataset(el0):
    entries = perturb_sweep(0.00994, 1e-4, 12, el0)
    cfg = SrpConfig()
    ds = generate_dataset(entries, cfg)
    assert len(ds) == 12
    assert ds.feature_names == ("a_srp_km_day2", "area_to_mass", "mass_kg")
    assert ds.target_names == ("x_km", "y_km", "z_km")
    assert ds.features[0, 0] == pytest.approx(0.00994)
    assert np.allclose(ds.features[:, 1], cfg.area_to_mass)
    assert np.allclose(ds.features[:, 2], cfg.mass)
    # positions should sit on the orbit radius
    assert np.allclose(np.linalg.norm(ds.targets, axis=1), el0.a)


def test_generate_dataset_needs_entries(el0):
    entries = perturb_sweep(0.00994, 1e-4, 3, el0)
    with pytest.raises(DomainError):
        generate_dataset(entries, SrpConfig())


def test_dataset_csv_round_trip(tmp_path, el0):
    entries = perturb_sweep(0.00994, 1e-4, 8, el0)
    ds = generate_dataset(entries, SrpConfig())
    path = tmp_path / "dataset.csv"
    write_dataset_csv(ds, str(path))
    back = read_dataset_csv(str(path))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)
    assert back.feature_names == ds.feature_names


def test_read_dataset_reports_lines(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("a_srp_km_day2,area_to_mass,mass_kg,x_km,y_km,z_km\n1,2\n")
    with pytest.raises(FormatError) as err:
        read_dataset_csv(str(path))
    assert "short.csv:2" in str(err.value)
    # blank lines count: the bad row is line 5 of the file
    path.write_text("\nmass_kg,x_km,y_km,z_km\n\n1,2,3,4\n1,2,x,4\n")
    with pytest.raises(FormatError, match="short.csv:5:"):
        read_dataset_csv(str(path))
    path.write_text("\nmass_kg,x\n1,2\n")
    with pytest.raises(FormatError, match="short.csv:2:"):
        read_dataset_csv(str(path))
