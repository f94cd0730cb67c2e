"""Histogram-to-thresholds regression with a small dense network.

The controller counts how many readback voltages fall into each region
of a fixed reference quantizer; those J+1 fractions are the only input.
A fully connected net (logistic activations throughout, including the
output layer) regresses the J optimized read thresholds, normalized by a
fixed voltage scale.  Region occupancies move by only a few parts per
thousand across operating conditions, so inputs are standardized per
feature; each normalized threshold in turn spans only a few hundredths
of the unit range, so each output is mapped affinely from [0.1, 0.9] of
the logistic range onto the span of its training labels.  Both mappings
are fitted by train() and recorded on the model.  Training is plain
minibatch Adam on the mean-squared error, optionally with cosine
learning-rate decay, implemented directly on numpy arrays; no autograd
framework is involved.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import (Condition, FlashParams, N_STATES, check_numbers,
                      sample_wordline)
from .optimizer import CisConfig, cis_optimize
from .quantizer import ThresholdSet, quantize

THRESHOLD_SCALE = 6.0  # volts; labels are divided by this for training
DEFAULT_HIDDEN = (512, 256, 128)

# Adam's moment decay rates and denominator guard: the usual defaults
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# elements per Adam block: a block's value, gradient, moments and two
# scratch slices (six 256 KB slices at 2^15) fit one core's 2 MB L2 cache
_ADAM_BLOCK = 1 << 15

# labels designed per lockstep CIS batch: the time per label levels off
# near 8 (about half of one search alone at grid 0.005) while the batch's
# memory keeps growing with its size
_LABEL_BLOCK = 8

_MODEL_MAGIC = b"FOPTMLP\x00"
_MODEL_VERSION = 3


@dataclass
class MlpModel:
    """Dense network parameters; weights[i] has shape (dims[i], dims[i+1]).

    Inputs are standardized before the first layer, (x - x_shift) / x_scale,
    and the last layer's activations a map to labels y_shift + y_scale * a;
    both are identity by default and fitted to the dataset by train().
    """

    dims: tuple
    weights: list
    biases: list
    scale: float = THRESHOLD_SCALE
    x_shift: np.ndarray = None
    x_scale: np.ndarray = None
    y_shift: np.ndarray = None
    y_scale: np.ndarray = None

    def __post_init__(self):
        _check_dims(self.dims)
        if len(self.weights) != len(self.dims) - 1 or len(self.biases) != len(self.dims) - 1:
            raise ValueError("parameter count does not match layer count")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.dims[i], self.dims[i + 1]) or b.shape != (self.dims[i + 1],):
                raise ValueError(f"layer {i} shape mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} contains non-finite parameters")
        for side, size in (("x", self.dims[0]), ("y", self.dims[-1])):
            shift = getattr(self, f"{side}_shift")
            scale = getattr(self, f"{side}_scale")
            shift = np.zeros(size) if shift is None else np.asarray(shift, dtype=float)
            scale = np.ones(size) if scale is None else np.asarray(scale, dtype=float)
            if shift.shape != (size,) or scale.shape != (size,):
                raise ValueError(f"{side}_shift/{side}_scale shape mismatch")
            if not (np.all(np.isfinite(shift)) and np.all(np.isfinite(scale))):
                raise ValueError(f"{side}_shift/{side}_scale contain non-finite values")
            if np.any(scale <= 0.0):
                raise ValueError(f"{side}_scale entries must be positive")
            setattr(self, f"{side}_shift", shift)
            setattr(self, f"{side}_scale", scale)

    @property
    def n_inputs(self) -> int:
        return self.dims[0]

    @property
    def n_outputs(self) -> int:
        return self.dims[-1]


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer recipe; defaults are the full-scale settings."""

    lr: float = 1e-5
    epochs: int = 100_000
    batch: int = 500
    lr_final: float = 0.0  # >0 enables cosine decay from lr down to this

    def __post_init__(self):
        check_numbers(self, ("epochs", "batch"), integral=True)
        check_numbers(self, ("lr", "lr_final"))
        if self.lr <= 0 or self.epochs < 1 or self.batch < 1:
            raise ValueError("lr, epochs, and batch must be positive")
        if not 0.0 <= self.lr_final <= self.lr:
            raise ValueError("lr_final must lie in [0, lr]")


@dataclass(frozen=True)
class Sample:
    """One training pair: histogram fractions and normalized thresholds."""

    features: tuple
    label: tuple

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.label, dtype=float)
        if abs(f.sum() - 1.0) > 1e-9:
            raise ValueError("features must sum to 1")
        if np.any(y <= 0.0) or np.any(y >= 1.0) or not np.all(np.diff(y) > 0):
            raise ValueError("labels must be strictly increasing within (0, 1)")
        object.__setattr__(self, "features", tuple(float(v) for v in f))
        object.__setattr__(self, "label", tuple(float(v) for v in y))


def _sigmoid(z, e=None):
    """Logistic function of z, in place: exp(min(z, 0)) / (1 + e) with
    e = exp(-|z|), that is 1/(1+e) for z >= 0 and e/(1+e) below, so that
    neither branch overflows.  ``e`` is scratch of z's shape."""
    e = np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    e += 1.0
    z = np.exp(np.minimum(z, 0.0, out=z), out=z)
    z /= e
    return z


def _check_dims(dims) -> None:
    if len(dims) < 2:
        raise ValueError("need at least input and output layers")
    if min(dims) < 1:
        raise ValueError(f"every layer needs at least one unit, got dims {tuple(dims)}")


def xavier_model(dims, seed: int = 0, scale: float = THRESHOLD_SCALE) -> MlpModel:
    """Uniform Xavier-initialized model with zero biases."""
    _check_dims(dims)  # before a draw, which fails on a negative width
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for nin, nout in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (nin + nout))
        weights.append(rng.uniform(-limit, limit, size=(nin, nout)))
        biases.append(np.zeros(nout))
    return MlpModel(dims=tuple(dims), weights=weights, biases=biases, scale=scale)


class _Buffers:
    """Arrays a pass over up to ``rows`` rows writes into (a shorter batch
    uses the leading rows): per layer the activations, standardized input
    first, and a scratch (sigmoid, then deltas); squared errors; gradients."""

    def __init__(self, model: MlpModel, rows: int):
        self.acts = [np.empty((rows, n)) for n in model.dims]
        self.tmp = [np.empty((rows, n)) for n in model.dims[1:]]
        self.sq = np.empty((rows, model.dims[-1]))
        self.gw = [np.empty_like(w) for w in model.weights]
        self.gb = [np.empty_like(b) for b in model.biases]


def _forward_pass(model: MlpModel, x: np.ndarray, buf=None):
    """All layer activations for a batch x (B, n_inputs), in ``buf``'s first B rows."""
    rows = len(x)
    buf = buf or _Buffers(model, rows)
    acts = [a[:rows] for a in buf.acts]
    np.divide(np.subtract(x, model.x_shift, out=acts[0]), model.x_scale, out=acts[0])
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(acts[i], w, out=acts[i + 1])
        z += b
        _sigmoid(z, buf.tmp[i][:rows])
    return acts


def _labels(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Normalized thresholds predicted for a batch of feature rows."""
    return model.y_shift + model.y_scale * _forward_pass(model, x)[-1]


def forward(model: MlpModel, x) -> np.ndarray:
    """Thresholds (volts, ascending) predicted from one feature vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_inputs,):
        raise ValueError(f"expected {model.n_inputs} features, got {x.shape}")
    return np.sort(_labels(model, x[None, :])[0]) * model.scale


def mse_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Per-output mean squared error of the labels, averaged over the batch."""
    return float(np.mean((y - _labels(model, x)) ** 2))


def backprop(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """mse_loss and its parameter gradients for one batch of labels."""
    return _backprop(model, x, (y - model.y_shift) / model.y_scale, model.y_scale ** 2)


def _backprop(model: MlpModel, x: np.ndarray, target: np.ndarray, weight, buf=None):
    """Loss mean(weight * (target - a)^2) over the last layer's activations a,
    and its parameter gradients, written into ``buf`` (fresh when None)."""
    rows = len(x)
    buf = buf or _Buffers(model, rows)
    acts = _forward_pass(model, x, buf)
    delta = np.subtract(acts[-1], target, out=buf.tmp[-1][:rows])
    sq = np.multiply(delta, weight, out=buf.sq[:rows])
    sq *= delta
    loss = float(np.mean(sq))
    # d loss / d a for loss taken as mean over batch and outputs
    delta *= (2.0 / delta.size) * weight
    for layer in range(len(model.weights) - 1, -1, -1):
        a_out = acts[layer + 1]  # not read again, so 1 - a_out may replace it
        delta *= a_out
        delta *= np.subtract(1.0, a_out, out=a_out)
        np.matmul(acts[layer].T, delta, out=buf.gw[layer])
        delta.sum(axis=0, out=buf.gb[layer])
        if layer:
            delta = np.matmul(delta, model.weights[layer].T, out=buf.tmp[layer - 1][:rows])
    return loss, buf.gw, buf.gb


def train(dataset, cfg: TrainConfig = TrainConfig(), seed: int = 0, dims=None):
    """Train a fresh model on Samples; returns (model, per-epoch loss).

    Each output's labels are mapped affinely onto [0.1, 0.9] (a constant
    output onto 0.5), and the loss is the mean squared error of those
    scaled targets.  The model carries THRESHOLD_SCALE, the scale that
    gen_training_data divides its labels by.  A step allocates no arrays: it writes into buffers made
    once per call and into the Adam ``state`` (see adam_step_inplace).
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    x = np.array([s.features for s in dataset])
    y = np.array([s.label for s in dataset])
    if dims is None:
        dims = (x.shape[1], *DEFAULT_HIDDEN, y.shape[1])
    model = xavier_model(dims, seed=seed)
    model.x_shift = x.mean(axis=0)
    sd = x.std(axis=0)
    model.x_scale = np.where(sd > 0.0, sd, 1.0)
    y_lo, span = y.min(axis=0), np.ptp(y, axis=0)
    model.y_scale = np.where(span > 0.0, span / 0.8, 1.0)
    model.y_shift = np.where(span > 0.0, y_lo - 0.1 * model.y_scale, y_lo - 0.5)
    target = (y - model.y_shift) / model.y_scale
    rng = np.random.default_rng((seed, 1))
    buf = _Buffers(model, min(cfg.batch, len(dataset)))
    xb, tb = np.empty_like(x[:cfg.batch]), np.empty_like(target[:cfg.batch])
    state = {}
    total = cfg.epochs * ((len(dataset) + cfg.batch - 1) // cfg.batch)
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_losses = []
        for lo in range(0, len(dataset), cfg.batch):
            sel = order[lo:lo + cfg.batch]
            # sel never leaves range; "clip" lets take write out without a copy
            xs = np.take(x, sel, axis=0, out=xb[:sel.size], mode="clip")
            ts = np.take(target, sel, axis=0, out=tb[:sel.size], mode="clip")
            loss, gw, gb = _backprop(model, xs, ts, 1.0, buf)
            epoch_losses.append(loss)
            if cfg.lr_final > 0.0:
                frac = 0.5 * (1.0 + np.cos(np.pi * state.get("step", 0) / total))
                lr = cfg.lr_final + (cfg.lr - cfg.lr_final) * frac
            else:
                lr = cfg.lr
            adam_step_inplace(model, gw, gb, state, lr)
        losses.append(float(np.mean(epoch_losses)))
    return model, losses


def adam_step_inplace(model: MlpModel, grads_w, grads_b, state, lr: float):
    """One Adam update of the model's parameters at learning rate ``lr``.

    ``state`` starts empty and is mutated: it holds the step count, the
    moments ``m`` and ``v`` per parameter array (weights, then biases), and
    two scratch arrays ``s``, ``r`` of one block, so an update allocates no
    arrays.  Each parameter array is updated in blocks of ``_ADAM_BLOCK``
    elements, which keeps a block's six slices in a core's L2 cache; every
    operation is elementwise, so the split changes no bit.  The operations
    follow ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` in its evaluation
    order on purpose: another order changes the weights' last bits.
    """
    params = [*model.weights, *model.biases]
    if not state:
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("parameters must be C-contiguous to be updated in place")
        size = min(_ADAM_BLOCK, max(p.size for p in params))
        state.update({k: [np.zeros_like(p) for p in params] for k in "mv"},
                     s=np.empty(size), r=np.empty(size), step=0)
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - _BETA1**t
    c2 = 1.0 - _BETA2**t
    for arrays in zip(params, [*grads_w, *grads_b], state["m"], state["v"]):
        p, g, m, v = (a.reshape(-1) for a in arrays)
        for lo in range(0, p.size, _ADAM_BLOCK):
            pb, gb, mb, vb = (a[lo:lo + _ADAM_BLOCK] for a in (p, g, m, v))
            s, r = state["s"][:pb.size], state["r"][:pb.size]
            mb *= _BETA1
            mb += np.multiply(1.0 - _BETA1, gb, out=s)
            vb *= _BETA2
            vb += np.multiply(np.multiply(1.0 - _BETA2, gb, out=s), gb, out=s)
            np.multiply(lr, np.divide(mb, c1, out=s), out=s)
            np.add(np.sqrt(np.divide(vb, c2, out=r), out=r), _ADAM_EPS, out=r)
            pb -= np.divide(s, r, out=s)


# -- features and data generation --------------------------------------------

def histogram_features(voltages, d: ThresholdSet) -> np.ndarray:
    """Fraction of readings per region of the reference quantizer."""
    voltages = np.asarray(voltages, dtype=float)
    if voltages.size == 0:
        raise ValueError("voltage list must be nonempty")
    regions = quantize(voltages, d)
    counts = np.bincount(regions, minlength=d.j_levels + 1)
    return counts / voltages.size


@dataclass(frozen=True)
class GenConfig:
    """Dataset generation settings (desk-scale defaults); ``flashopt
    optimize`` takes its block_n and rate from here too."""

    count: int = 2000
    block_n: int = 2624          # code length the labels optimize for
    rate: float = 0.9            # and its rate
    cis: CisConfig = field(default_factory=CisConfig)

    def __post_init__(self):
        check_numbers(self, ("count", "block_n"), integral=True)
        check_numbers(self, ("rate",))
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.block_n < 1:
            raise ValueError("block_n must be at least 1")
        if not 0 < self.rate < 1:
            raise ValueError("rate must lie in (0, 1)")


def gen_training_data(params: FlashParams, pe_set, t_range, cells: int,
                      cfg: GenConfig = GenConfig(), seed: int = 0):
    """Seeded dataset: histogram features against CIS-optimal labels.

    Cycling counts are drawn uniformly from pe_set and retention times
    uniformly over t_range.  Generation runs in two phases.  First each
    sample's own SeedSequence child draws its condition, cells and
    voltages, of which only the condition and the histogram features,
    taken against the wear level's CIS thresholds at zero retention, are
    kept.  Then the labels are designed in blocks of 8 consecutive
    samples: each sample still makes its own cis_optimize call, but the
    first call of a block searches all of the block's conditions in one
    lockstep batch and the other calls reuse it, with the same results as
    one search each.  A sample's labels are its CIS thresholds divided by
    THRESHOLD_SCALE; a sample whose labels fall outside (0, 1) or fail to
    order strictly is skipped with a warning, in sample order.
    """
    pe_set = list(pe_set)
    if not pe_set:
        raise ValueError("pe_set must be nonempty")
    if cells < 1:
        raise ValueError("cells must be positive")
    lo, hi = t_range
    if not (math.isfinite(hi) and 0 <= lo < hi):
        raise ValueError("t_range must be finite and satisfy 0 <= lo < hi")
    refs = {pe: cis_optimize(Condition(pe, 0.0), params, cfg.block_n, cfg.rate, cfg.cis)[0]
            for pe in pe_set}
    drawn = []
    for child in np.random.SeedSequence(seed).spawn(cfg.count):
        rng = np.random.default_rng(child)
        n_pe = pe_set[rng.integers(len(pe_set))]
        cond = Condition(n_pe, float(rng.uniform(lo, hi)))
        states = rng.integers(0, N_STATES, size=cells)
        volts = sample_wordline(states, cond, params, rng)
        drawn.append((cond, histogram_features(volts, refs[n_pe])))
    samples = []
    for first in range(0, len(drawn), _LABEL_BLOCK):
        part = drawn[first:first + _LABEL_BLOCK]
        block = tuple(cond for cond, _ in part)
        for cond, feats in part:
            d_opt, _ = cis_optimize(cond, params, cfg.block_n, cfg.rate, cfg.cis,
                                    block=block)
            try:
                samples.append(Sample(tuple(feats), tuple(d_opt.as_array() / THRESHOLD_SCALE)))
            except ValueError:
                warnings.warn(f"skipping sample at {cond}: labels outside the unit range")
    return samples


# -- serialization -----------------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    """Packed little-endian format: header, dims, input and output scaling,
    per-layer W and b."""
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<IId", _MODEL_VERSION, len(model.dims), model.scale))
        fh.write(struct.pack(f"<{len(model.dims)}I", *model.dims))
        for arr in (model.x_shift, model.x_scale, model.y_shift, model.y_scale):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path) -> MlpModel:
    """Read a save_model file.  The sizes its header declares are checked
    against the bytes the file holds before any of them is read."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MODEL_MAGIC):
        raise ValueError(f"{path}: not a model file")
    pos = len(_MODEL_MAGIC)

    def take(size: int) -> int:
        """Offset of the next ``size`` bytes, which the file must hold."""
        nonlocal pos
        if pos + size > len(blob):
            raise ValueError(f"{path}: truncated model file")
        pos += size
        return pos - size

    version, n_dims, scale = struct.unpack_from("<IId", blob, take(16))
    if version != _MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    if n_dims < 2:
        raise ValueError(f"{path}: a model needs at least two layers")
    dims = struct.unpack_from(f"<{n_dims}I", blob, take(4 * n_dims))
    sizes = [dims[0], dims[0], dims[-1], dims[-1]]
    for nin, nout in zip(dims[:-1], dims[1:]):
        sizes += [nin * nout, nout]
    left = len(blob) - pos - 8 * sum(sizes)
    if left:
        raise ValueError(f"{path}: {'trailing data' if left > 0 else 'truncated model file'}")
    x_shift, x_scale, y_shift, y_scale, *layers = (
        np.frombuffer(blob, "<f8", size, take(8 * size)).copy() for size in sizes)
    weights = [w.reshape(nin, nout) for w, nin, nout in zip(layers[::2], dims[:-1], dims[1:])]
    return MlpModel(dims=dims, weights=weights, biases=layers[1::2], scale=scale,
                    x_shift=x_shift, x_scale=x_scale, y_shift=y_shift,
                    y_scale=y_scale)


def save_dataset(samples, path) -> None:
    """One sample per line: features then labels, comma separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            vals = list(s.features) + list(s.label)
            fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")


def load_dataset(path, j_levels: int):
    """Rows written by save_dataset for J = ``j_levels``: J+1 features then J
    labels.  A bad row is reported as path:line."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                vals = [float(tok) for tok in line.split(",")]
                if len(vals) != 2 * j_levels + 1:
                    raise ValueError(f"{len(vals)} values, but the rows at J {j_levels} "
                                     f"hold {2 * j_levels + 1}")
                samples.append(Sample(features=tuple(vals[:j_levels + 1]),
                                      label=tuple(vals[j_levels + 1:])))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
    return samples
