"""Network, training loop, and data-generation tests."""

import hashlib
import math
import re
import struct
import warnings

import numpy as np
import pytest

from flashopt import mlp, optimizer
from flashopt.channel import DEFAULT_PARAMS, Condition, sample_wordline
from flashopt.mlp import (GenConfig, MlpModel, Sample, TrainConfig,
                          adam_step_inplace, backprop, forward,
                          gen_training_data, histogram_features, load_dataset,
                          load_model, mse_loss, save_dataset, save_model,
                          train, xavier_model)
from flashopt.optimizer import CisConfig, cis_optimize
from flashopt.quantizer import ThresholdSet


def small_model(seed=0):
    return xavier_model((4, 8, 5, 3), seed=seed, scale=6.0)


def toy_batch(rng, b=6):
    x = rng.uniform(0.0, 1.0, (b, 4))
    y = rng.uniform(0.1, 0.9, (b, 3))
    return x, y


def test_model_validation():
    with pytest.raises(ValueError):
        MlpModel(dims=(3, 2), weights=[np.zeros((3, 3))], biases=[np.zeros(2)], scale=6.0)
    with pytest.raises(ValueError):
        MlpModel(dims=(3, 2), weights=[np.full((3, 2), np.nan)],
                 biases=[np.zeros(2)], scale=6.0)
    with pytest.raises(ValueError):
        xavier_model((4,))
    with pytest.raises(ValueError):
        MlpModel(dims=(3, 2), weights=[np.zeros((3, 2))], biases=[np.zeros(2)],
                 scale=6.0, x_shift=np.zeros(2))
    with pytest.raises(ValueError):
        MlpModel(dims=(3, 2), weights=[np.zeros((3, 2))], biases=[np.zeros(2)],
                 scale=6.0, x_scale=np.array([1.0, 0.0, 1.0]))


def test_forward_sorted_and_scaled():
    model = small_model()
    out = forward(model, np.array([0.2, 0.3, 0.4, 0.1]))
    assert out.shape == (3,)
    assert np.all(np.diff(out) >= 0.0)
    assert np.all((out > 0.0) & (out < model.scale))
    with pytest.raises(ValueError):
        forward(model, np.zeros(5))


def test_input_standardization_applied_in_forward():
    raw = small_model()
    model = small_model()
    x0 = np.array([0.2, 0.3, 0.4, 0.1])
    model.x_shift = x0.copy()
    model.x_scale = np.full(4, 0.25)
    z = np.array([0.3, 0.0, -0.1, 0.2])
    # standardizing x0 + 0.25 z recovers z, so the nets must agree
    assert np.allclose(forward(model, x0 + 0.25 * z), forward(raw, z))
    assert np.allclose(forward(model, x0), forward(raw, np.zeros(4)))


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(0)
    model = small_model()
    model.x_shift = np.array([0.5, 0.4, 0.6, 0.5])
    model.x_scale = np.array([0.3, 0.2, 0.5, 0.1])
    x, y = toy_batch(rng)
    loss, gw, gb = backprop(model, x, y)
    assert loss == pytest.approx(mse_loss(model, x, y), rel=1e-12)
    h = 1e-6
    worst = 0.0
    for layer in range(len(model.weights)):
        for arr, grads in ((model.weights[layer], gw[layer]),
                           (model.biases[layer], gb[layer])):
            flat = arr.reshape(-1)
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for k in idx:
                keep = flat[k]
                flat[k] = keep + h
                up = mse_loss(model, x, y)
                flat[k] = keep - h
                dn = mse_loss(model, x, y)
                flat[k] = keep
                fd = (up - dn) / (2.0 * h)
                g = grads.reshape(-1)[k]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-12))
    assert worst < 1e-4


def test_adam_single_step_hand_oracle():
    model = small_model()
    w0 = [w.copy() for w in model.weights]
    b0 = [b.copy() for b in model.biases]
    rng = np.random.default_rng(1)
    gw = [rng.normal(size=w.shape) for w in model.weights]
    gb = [rng.normal(size=b.shape) for b in model.biases]
    cfg = TrainConfig(lr=0.01)
    state = {}
    adam_step_inplace(model, gw, gb, state, cfg.lr)
    # first step: m_hat = g, v_hat = g^2, so the update is lr*g/(|g|+eps)
    for i in range(len(w0)):
        expect = w0[i] - cfg.lr * gw[i] / (np.abs(gw[i]) + 1e-8)
        assert np.allclose(model.weights[i], expect, atol=1e-12)
        expect_b = b0[i] - cfg.lr * gb[i] / (np.abs(gb[i]) + 1e-8)
        assert np.allclose(model.biases[i], expect_b, atol=1e-12)
    assert state["step"] == 1


def test_adam_second_step_hand_oracle():
    model = small_model()
    w0 = model.weights[0].copy()
    g1 = np.ones_like(model.weights[0])
    g2 = 2.0 * np.ones_like(model.weights[0])
    zeros_b = [np.zeros_like(b) for b in model.biases]
    gw1 = [np.zeros_like(w) for w in model.weights]
    gw1[0] = g1
    gw2 = [np.zeros_like(w) for w in model.weights]
    gw2[0] = g2
    cfg = TrainConfig(lr=0.1)
    state = {}
    adam_step_inplace(model, gw1, zeros_b, state, cfg.lr)
    adam_step_inplace(model, gw2, zeros_b, state, cfg.lr)
    b1, b2, e = 0.9, 0.999, 1e-8
    m2 = b1 * (1 - b1) * 1.0 + (1 - b1) * 2.0
    v2 = b2 * (1 - b2) * 1.0 + (1 - b2) * 4.0
    step1 = cfg.lr * 1.0 / (1.0 + e)
    step2 = cfg.lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + e)
    assert np.allclose(model.weights[0], w0 - step1 - step2, atol=1e-12)


def test_training_reduces_loss_on_toy_problem():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.1, 1.0, (64, 3))
    x /= x.sum(axis=1, keepdims=True)
    y = np.stack([0.2 + 0.3 * x[:, 0], 0.6 - 0.2 * x[:, 1]], axis=1)
    samples = [Sample(tuple(xi), tuple(np.sort(yi))) for xi, yi in zip(x, y)]
    cfg = TrainConfig(lr=3e-3, epochs=300, batch=16)
    model, losses = train(samples, cfg, seed=0, dims=(3, 16, 2))
    assert losses[-1] < losses[0] / 10.0
    assert len(losses) == 300


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train([])


def test_train_deterministic():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 1.0, (32, 3))
    x /= x.sum(axis=1, keepdims=True)
    y = rng.uniform(0.2, 0.8, (32, 2))
    samples = [Sample(tuple(xi), tuple(np.sort(yi))) for xi, yi in zip(x, y)]
    cfg = TrainConfig(lr=1e-3, epochs=20, batch=8)
    m1, l1 = train(samples, cfg, seed=5, dims=(3, 8, 2))
    m2, l2 = train(samples, cfg, seed=5, dims=(3, 8, 2))
    assert l1 == l2
    for a, b in zip(m1.weights, m2.weights):
        assert np.array_equal(a, b)


def test_train_fits_input_statistics():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.1, 1.0, (24, 4))
    x /= x.sum(axis=1, keepdims=True)
    y = rng.uniform(0.2, 0.8, (24, 3))
    samples = [Sample(tuple(xi), tuple(np.sort(yi))) for xi, yi in zip(x, y)]
    model, _ = train(samples, TrainConfig(lr=1e-3, epochs=2, batch=8),
                     seed=0, dims=(4, 6, 3))
    assert np.allclose(model.x_shift, x.mean(axis=0))
    assert np.allclose(model.x_scale, x.std(axis=0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=1e-3, lr_final=2e-3)
    with pytest.raises(ValueError):
        TrainConfig(lr_final=-1e-6)
    for bad in ({"epochs": 2.5}, {"batch": True}, {"lr": None}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
    for bad in ({"count": True}, {"block_n": 2624.0}, {"rate": "0.9"},
                {"rate": 0.0}, {"rate": 1.0}, {"rate": 1.5}, {"rate": float("nan")}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            GenConfig(**bad)


def test_train_lr_decay():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 1.0, (64, 3))
    x /= x.sum(axis=1, keepdims=True)
    y = np.stack([0.2 + 0.3 * x[:, 0], 0.6 - 0.2 * x[:, 1]], axis=1)
    samples = [Sample(tuple(xi), tuple(np.sort(yi))) for xi, yi in zip(x, y)]
    cfg = TrainConfig(lr=3e-3, epochs=300, batch=16, lr_final=3e-5)
    model, losses = train(samples, cfg, seed=0, dims=(3, 16, 2))
    assert losses[-1] < losses[0] / 10.0
    flat, _ = train(samples, TrainConfig(lr=3e-3, epochs=300, batch=16),
                    seed=0, dims=(3, 16, 2))
    assert not np.array_equal(model.weights[0], flat.weights[0])


def test_train_steps_through_adam_step_inplace(monkeypatch):
    rates = []
    real = mlp.adam_step_inplace

    def spy(model, grads_w, grads_b, state, lr):
        rates.append(lr)
        return real(model, grads_w, grads_b, state, lr)

    monkeypatch.setattr(mlp, "adam_step_inplace", spy)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 1.0, (8, 3))
    x /= x.sum(axis=1, keepdims=True)
    samples = [Sample(tuple(xi), (0.2 + 0.1 * xi[0], 0.6)) for xi in x]
    cfg = TrainConfig(lr=1e-2, epochs=3, batch=4, lr_final=1e-3)
    train(samples, cfg, seed=0, dims=(3, 4, 2))
    # two steps per epoch, each at the cosine-decayed rate of its step
    assert len(rates) == 6
    for step, lr in enumerate(rates):
        frac = 0.5 * (1.0 + np.cos(np.pi * step / 6))
        assert lr == pytest.approx(1e-3 + 9e-3 * frac, rel=1e-12)


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_form_bit_for_bit():
    edge = np.array([0.0, 1e-300, 36.7, 709.0, 745.0, 1e308, np.inf])
    z = np.concatenate([edge, -edge, np.random.default_rng(0).normal(0.0, 10.0, 10_000)])
    # exp(-709) and below are subnormal or 0, which sets the underflow flag
    # in either form; overflow, division and invalid operations must not occur
    with np.errstate(all="raise", under="ignore"):
        got = mlp._sigmoid(z.copy())
        expect = _two_branch_sigmoid(z)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def _reference_train(samples, cfg, seed):
    """train() as a plain allocating loop: the two-branch sigmoid, one
    temporary per operation, and Adam written as its textbook formula."""
    x = np.array([s.features for s in samples])
    y = np.array([s.label for s in samples])
    model = xavier_model((x.shape[1], *mlp.DEFAULT_HIDDEN, y.shape[1]), seed=seed)
    x_shift, sd = x.mean(axis=0), x.std(axis=0)
    x_scale = np.where(sd > 0.0, sd, 1.0)
    y_lo, span = y.min(axis=0), np.ptp(y, axis=0)
    y_scale = np.where(span > 0.0, span / 0.8, 1.0)
    y_shift = np.where(span > 0.0, y_lo - 0.1 * y_scale, y_lo - 0.5)
    target = (y - y_shift) / y_scale
    params = [p for wb in zip(model.weights, model.biases) for p in wb]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng((seed, 1))
    total = cfg.epochs * -(-len(samples) // cfg.batch)
    step, losses = 0, []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        epoch_losses = []
        for lo in range(0, len(samples), cfg.batch):
            sel = order[lo:lo + cfg.batch]
            acts = [(x[sel] - x_shift) / x_scale]
            for w, b in zip(model.weights, model.biases):
                acts.append(_two_branch_sigmoid(acts[-1] @ w + b))
            diff = acts[-1] - target[sel]
            epoch_losses.append(float(np.mean(1.0 * diff * diff)))
            delta = (2.0 / diff.size) * 1.0 * diff
            grads = []
            for layer in range(len(model.weights) - 1, -1, -1):
                a_out = acts[layer + 1]
                delta = delta * a_out * (1.0 - a_out)
                grads[:0] = [acts[layer].T @ delta, delta.sum(axis=0)]
                if layer:
                    delta = delta @ model.weights[layer].T
            frac = 0.5 * (1.0 + np.cos(np.pi * step / total))
            lr = cfg.lr_final + (cfg.lr - cfg.lr_final) * frac
            step += 1
            c1, c2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * g * g
                p -= lr * (mi / c1) / (np.sqrt(vi / c2) + 1e-8)
        losses.append(float(np.mean(epoch_losses)))
    return model, losses


def test_train_matches_reference_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 1.0, (130, 7))
    x /= x.sum(axis=1, keepdims=True)
    y = np.sort(rng.uniform(0.05, 0.95, (130, 6)), axis=1)
    samples = [Sample(tuple(xi), tuple(yi)) for xi, yi in zip(x, y)]
    # batches of 50, 50 and 30 for 17 epochs: 51 steps under cosine decay
    cfg = TrainConfig(lr=1e-3, epochs=17, batch=50, lr_final=1e-4)
    model, losses = train(samples, cfg, seed=2)
    ref, ref_losses = _reference_train(samples, cfg, seed=2)
    assert losses == ref_losses
    for got, expect in zip(model.weights + model.biases, ref.weights + ref.biases):
        assert np.array_equal(got, expect)


def test_adam_ragged_blocks_match_reference_bit_for_bit(monkeypatch):
    # 37 divides no parameter array of the 7-40-20-6 net, and the last
    # three biases are shorter than one block
    monkeypatch.setattr(mlp, "_ADAM_BLOCK", 37)
    monkeypatch.setattr(mlp, "DEFAULT_HIDDEN", (40, 20))
    test_train_matches_reference_loop_bit_for_bit()

    model = xavier_model((7, 40, 20, 6), seed=3)
    p0 = [p.copy() for p in model.weights + model.biases]
    rng = np.random.default_rng(8)
    grads = [rng.normal(size=p.shape) for p in p0]
    state = {}
    adam_step_inplace(model, grads[:3], grads[3:], state, 0.01)
    assert state["s"].shape == state["r"].shape == (37,)
    for got, p, g in zip(model.weights + model.biases, p0, grads):
        assert np.allclose(got, p - 0.01 * g / (np.abs(g) + 1e-8), atol=1e-12)


def test_adam_rejects_parameters_it_cannot_update_in_place():
    model = small_model()
    model.weights[0] = np.asfortranarray(model.weights[0])
    grads = [np.ones_like(p) for p in model.weights + model.biases]
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step_inplace(model, grads[:3], grads[3:], {}, 0.01)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample((0.5, 0.4, 0.2), (0.1, 0.2))          # features sum != 1
    with pytest.raises(ValueError):
        Sample((0.5, 0.5), (0.3, 0.2))               # label not increasing
    with pytest.raises(ValueError):
        Sample((0.5, 0.5), (0.0, 0.5))               # label at the edge
    Sample((0.25, 0.75), (0.3, 0.6))


def test_histogram_features_hand_counts():
    d = ThresholdSet((1.0, 2.0, 3.0))
    volts = np.array([0.5, 0.9, 1.5, 2.5, 2.6, 3.5])
    feats = histogram_features(volts, d)
    assert np.allclose(feats, np.array([2, 1, 2, 1]) / 6.0)
    assert feats.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        histogram_features(np.array([]), d)


def test_model_file_roundtrip(tmp_path):
    model = small_model(seed=9)
    model.x_shift = np.array([0.1, -0.2, 0.0, 3.5])
    model.x_scale = np.array([0.5, 2.0, 1.0, 0.01])
    model.y_shift = np.array([0.3, -0.1, 0.25])
    model.y_scale = np.array([0.05, 0.02, 1.5])
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.dims == model.dims
    assert back.scale == model.scale
    assert np.array_equal(back.x_shift, model.x_shift)
    assert np.array_equal(back.x_scale, model.x_scale)
    assert np.array_equal(back.y_shift, model.y_shift)
    assert np.array_equal(back.y_scale, model.y_scale)
    x = np.array([0.2, 0.3, 0.4, 0.1])
    assert np.array_equal(forward(back, x), forward(model, x))
    # the previous format (version 2) had no output scaling
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_model(path)
    for a, b in zip(back.weights, model.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, model.biases):
        assert np.array_equal(a, b)


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a model file at all")
    with pytest.raises(ValueError):
        load_model(path)


def test_dataset_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    samples = []
    for _ in range(5):
        f = rng.uniform(0.1, 1.0, 4)
        f /= f.sum()
        samples.append(Sample(tuple(f), tuple(np.sort(rng.uniform(0.1, 0.9, 3)))))
    path = tmp_path / "data.csv"
    save_dataset(samples, path)
    back = load_dataset(path, j_levels=3)
    assert len(back) == 5
    for a, b in zip(back, samples):
        assert a.features == b.features
        assert a.label == b.label


@pytest.mark.parametrize("bad_row, message", [
    ("0.25,0.25,0.5,0.1,0.2,0.3", "6 values, but the rows at J 2 hold 5"),
    ("0.25,0.25,0.5,0.1", "4 values, but the rows at J 2 hold 5"),
    ("0.25,0.25,0.25,0.1,0.2", "features must sum to 1"),
    ("0.5,0.5,x,0.1,0.2", "could not convert"),
])
def test_dataset_rejects_bad_row_with_its_line(tmp_path, bad_row, message):
    path = tmp_path / "data.csv"
    path.write_text(f"0.25,0.25,0.5,0.1,0.2\n\n{bad_row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        load_dataset(path, j_levels=2)


def test_gen_training_data_deterministic_and_valid():
    cfg = GenConfig(count=6)
    a = gen_training_data(DEFAULT_PARAMS, (6000.0,), (0.0, 1e4), 2000, cfg, seed=3)
    b = gen_training_data(DEFAULT_PARAMS, (6000.0,), (0.0, 1e4), 2000, cfg, seed=3)
    assert len(a) == 6
    for sa, sb in zip(a, b):
        assert sa.features == sb.features
        assert sa.label == sb.label
    for s in a:
        assert len(s.features) == cfg.cis.j_levels + 1
        assert abs(sum(s.features) - 1.0) < 1e-12
        assert all(0.0 < v < 1.0 for v in s.label)


def _dataset_digest(samples) -> str:
    values = [x for s in samples for x in (*s.features, *s.label)]
    return hashlib.sha256(" ".join(float(x).hex() for x in values).encode()).hexdigest()


def _pinned_dataset(seed: int):
    cfg = GenConfig(count=19, cis=CisConfig(grid_step=0.005))
    return gen_training_data(DEFAULT_PARAMS, (4000.0, 5000.0, 6000.0), (0.0, 1e6),
                             2000, cfg, seed=seed)


def test_gen_training_data_is_pinned(monkeypatch):
    """Float-hex digests of two 19-sample datasets: at the default scale
    every sample is kept; at scale 3.25 the top thresholds of some
    conditions reach the scale, so those samples are skipped with a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = _pinned_dataset(seed=0)
    assert len(kept) == 19
    assert _dataset_digest(kept) == ("97042c4a64d3e8e468d78ba87a6b2839"
                                     "f7ec3dcaf67b4a457e54c60067dde629")
    monkeypatch.setattr(mlp, "THRESHOLD_SCALE", 3.25)
    with pytest.warns(UserWarning, match="skipping sample") as record:
        some = _pinned_dataset(seed=1)
    assert (len(some), len(record)) == (8, 11)
    assert _dataset_digest(some) == ("5750fadbf5b65065de3715449c53054e"
                                     "02642eeb3cbbed791c179e7b9ecbf872")


def test_gen_training_data_designs_labels_in_blocks(monkeypatch):
    """One cis_optimize call per reference and per sample, through the
    module's name, and one lockstep batch per block of 8 labels."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("block"))
        return cis_optimize(*args, **kwargs)

    monkeypatch.setattr(mlp, "cis_optimize", spy)
    pe_set = (4000.0, 6000.0)
    optimizer._block_designs.cache_clear()
    samples = gen_training_data(DEFAULT_PARAMS, pe_set, (0.0, 1e5), 500,
                                GenConfig(count=19), seed=4)
    assert len(samples) == 19
    assert len(calls) == 19 + len(pe_set)
    assert calls[:len(pe_set)] == [None] * len(pe_set)
    assert [len(b) for b in calls[len(pe_set):]] == [8] * 8 + [8] * 8 + [3] * 3
    info = optimizer._block_designs.cache_info()
    assert (info.misses, info.hits) == (math.ceil(19 / 8), 19 - math.ceil(19 / 8))


@pytest.mark.parametrize("t_range", [(0.0, float("inf")), (0.0, 1e400),
                                     (float("nan"), 1e4), (-1.0, 1e4), (1e4, 1e4)])
def test_gen_training_data_rejects_bad_t_range_before_searching(monkeypatch, t_range):
    monkeypatch.setattr(mlp, "cis_optimize", None)  # any search would fail
    with pytest.raises(ValueError, match="t_range"):
        gen_training_data(DEFAULT_PARAMS, (6000.0,), t_range, 100, GenConfig(count=2))


def test_features_shift_with_retention():
    """Retention drags voltages down, so low regions gain mass."""
    ref, _ = cis_optimize(Condition(8000.0, 0.0), DEFAULT_PARAMS, 2624, 0.9)
    rng = np.random.default_rng(0)
    states = rng.integers(0, 4, 50_000)
    fresh = histogram_features(
        sample_wordline(states, Condition(8000.0, 0.0), DEFAULT_PARAMS,
                        np.random.default_rng(1)), ref)
    aged = histogram_features(
        sample_wordline(states, Condition(8000.0, 1e6), DEFAULT_PARAMS,
                        np.random.default_rng(1)), ref)
    assert aged[0] > fresh[0]
