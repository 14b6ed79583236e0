"""Sequence classifier over channel stacks, written on plain numpy.

Two branches read the (channels, T) series in parallel:

* a convolutional branch: stacked blocks of same-padded 1D convolution,
  batch normalization, and ReLU, followed by global average pooling;
* a recurrent branch: an LSTM summarized by additive attention over the
  hidden states.

The two summaries are concatenated, passed through dropout (training only,
inverted scaling) and one affine layer, and normalized by softmax.

Variable-length batches are padded after each sample's valid steps and carry
a validity mask. A batch is held once, already laid out as the first
convolution's zero-padded input, and the LSTM reads its interior; each block
writes its output straight into the next block's padded input. Every part of
the network is masked so that padding cannot influence any output: block
activations are multiplied by the mask, batch-norm statistics cover valid
positions only, pooling divides by the true length, and attention gives the
LSTM's padded steps zero weight. Training runs Adam on softmax cross-entropy
with early stopping on validation accuracy.

All arithmetic is float64.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .archive import entry, no_more, read_archive, write_archive
from .errors import (ConfigError, Diverged, NonFiniteInput, NonFiniteLoss, ParseError,
                     ShapeMismatch, UnknownLabel, check_settings, is_integer)

MODEL_FORMAT = "posehar-classifier/3"
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ClassifierConfig:
    """Architecture and training knobs.

    conv_blocks lists (filters, kernel width) per block. channels and
    classes have no defaults: they are properties of the data. The
    constructor refuses what a config file may not hold.
    """

    channels: int
    classes: int
    conv_blocks: tuple[tuple[int, int], ...] = ((64, 8), (128, 5), (64, 3))
    recurrent_units: int = 32
    dropout: float = 0.5
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self)
        blocks = self.conv_blocks
        if not (isinstance(blocks, (list, tuple)) and all(
                isinstance(block, (list, tuple)) and len(block) == 2
                and all(map(is_integer, block)) for block in blocks)):
            raise TypeError(f"conv_blocks must list (filters, width) integer pairs, "
                            f"got {blocks!r}")
        object.__setattr__(self, "conv_blocks", tuple((int(f), int(k)) for f, k in blocks))
        if self.channels < 1 or self.classes < 2:
            raise ValueError("need at least one channel and two classes")
        if not self.conv_blocks or min(min(block) for block in self.conv_blocks) < 1:
            raise ValueError("need at least one convolutional block, each with "
                             "positive filters and width")
        if self.recurrent_units < 1 or self.batch_size < 1:
            raise ValueError("recurrent_units and batch_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.patience < 0 or self.max_epochs < 1:
            raise ValueError("patience must be >= 0 and max_epochs >= 1")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    @property
    def feature_dim(self) -> int:
        return self.conv_blocks[-1][0] + self.recurrent_units


@dataclass
class ClassifierModel:
    config: ClassifierConfig
    params: dict[str, np.ndarray]
    running: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class PaddedBatch:
    """Zero-padded series with a validity mask: each row is ones on the real
    steps, then zeros on the padding. Other masks are refused."""

    series: np.ndarray          # (B, C, T)
    mask: np.ndarray            # (B, T) float64
    labels: np.ndarray | None   # (B,) int or None


@dataclass(frozen=True)
class _ConvInput(PaddedBatch):
    """A batch that :func:`_pad` wrote straight into ``padded``, the
    zero-padded input of a convolution: ``series`` is its interior view, and
    its margins and padding hold zeros because nothing else writes to it."""

    padded: np.ndarray          # (B, C, T + K - 1)


def _zero_padded(B: int, C: int, T: int, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero input (B, C, T + kernel - 1) of a same-padded convolution of
    width ``kernel``, and its (B, C, T) interior view, which starts
    (kernel - 1) // 2 steps in (even widths pad one step more on the right)."""
    padded = np.zeros((B, C, T + kernel - 1))
    left = (kernel - 1) // 2
    return padded, padded[:, :, left : left + T]


def _pad(series: Sequence[np.ndarray], labels: Sequence[int] | None, channels: int,
         kernel: int) -> _ConvInput:
    """Write (C, T_i) series, in one pass, into the zero-padded input of a
    same-padded convolution of width ``kernel`` (see :func:`_zero_padded`).
    Width 1 leaves no margin.

    Raises NonFiniteInput, naming the series' position in ``series``, when a
    series holds a nan or inf value, and ValueError when ``labels`` does not
    hold one label per series.
    """
    length = 0
    for b, s in enumerate(series):
        if s.ndim != 2 or s.shape[0] != channels:
            raise ShapeMismatch(f"every series must be ({channels}, T), got {s.shape}")
        if s.shape[1] < 1:
            raise ShapeMismatch("series must have at least one step")
        if not np.isfinite(s).all():
            raise NonFiniteInput(f"batch series {b} holds a non-finite value")
        length = max(length, s.shape[1])
    y = None if labels is None else np.asarray(labels)
    if y is not None and y.shape != (len(series),):
        raise ValueError(f"need one label per series: {len(series)} series, "
                         f"labels of shape {y.shape}")
    padded, interior = _zero_padded(len(series), channels, length, kernel)
    mask = np.zeros((len(series), length))
    for b, s in enumerate(series):
        interior[b, :, : s.shape[1]] = s
        mask[b, : s.shape[1]] = 1.0
    return _ConvInput(interior, mask, y, padded)


def pad_batch(series: Sequence[np.ndarray],
              labels: Sequence[int] | None = None) -> PaddedBatch:
    """Stack (C, T_i) arrays into one zero-padded batch.

    Raises NonFiniteInput, naming the series' position in the batch, when a
    series holds a nan or inf value, and ValueError when ``labels`` does not
    hold one label per series.
    """
    if not series:
        raise ValueError("empty batch")
    batch = _pad(series, labels, series[0].shape[0], 1)
    return PaddedBatch(batch.series, batch.mask, batch.labels)


# --------------------------------------------------------------------------
# Initialization


def model_layout(config: ClassifierConfig) -> dict[str, dict[str, tuple[int, ...]]]:
    """Name and shape of every parameter ("param") and batch-norm running
    statistic ("running") a config implies, in the order :func:`init_model`
    draws them; these are also the archive entries of a saved model.
    Computing the layout allocates nothing."""
    params: dict[str, tuple[int, ...]] = {}
    running: dict[str, tuple[int, ...]] = {}
    cin = config.channels
    for i, (filters, kernel) in enumerate(config.conv_blocks):
        params.update({f"conv{i}_w": (filters, cin, kernel), f"bn{i}_gamma": (filters,),
                       f"bn{i}_beta": (filters,)})
        running.update({f"bn{i}_mean": (filters,), f"bn{i}_var": (filters,)})
        cin = filters
    units = config.recurrent_units
    params.update(lstm_wx=(config.channels, 4 * units), lstm_wh=(units, 4 * units),
                  lstm_b=(4 * units,), attn_v=(units,))
    params.update(out_w=(config.feature_dim, config.classes), out_b=(config.classes,))
    return {"param": params, "running": running}


def _initial(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """The seeded initial value of one entry. A shape no machine can
    allocate is a ConfigError naming the setting that sized it."""
    try:
        if name == "attn_v":
            return rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape)
        if len(shape) > 1:
            # Glorot uniform: fan_in + fan_out is (rows + cols) * kernel width.
            limit = np.sqrt(6.0 / ((shape[0] + shape[1]) * int(np.prod(shape[2:]))))
            return rng.uniform(-limit, limit, shape)
        if name.endswith(("_gamma", "_var")):
            return np.ones(shape)
        value = np.zeros(shape)
    except (MemoryError, ValueError, OverflowError) as exc:
        setting = "conv_blocks" if name.startswith(("conv", "bn")) else "recurrent_units"
        raise ConfigError(f"classifier {setting} too large: {name} of shape {shape} "
                          f"cannot be allocated ({exc})") from exc
    if name == "lstm_b":
        value[shape[0] // 4 : shape[0] // 2] = 1.0   # forget gate starts open
    return value


def init_model(config: ClassifierConfig) -> ClassifierModel:
    """Seeded parameter initialization; a fixed seed fixes every draw."""
    rng = np.random.default_rng(config.rng_seed)
    params, running = ({name: _initial(name, shape, rng) for name, shape in group.items()}
                       for group in model_layout(config).values())
    return ClassifierModel(config, params, running)


# --------------------------------------------------------------------------
# Forward pieces


def _conv_same(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded 1D convolution with (F, C, K) weights of an input that is
    already zero-padded to (B, C, T + K - 1), as :func:`_zero_padded` lays
    it out. Gives (B, F, T).

    There is no bias: batch norm follows every convolution and subtracts
    any per-filter constant again.
    """
    kernel = w.shape[2]
    B, _, width = xp.shape
    T = width - kernel + 1
    y = np.zeros((B, w.shape[0], T))
    for k in range(kernel):
        y += np.matmul(w[:, :, k], xp[:, :, k : k + T])
    return y


def _conv_backward(dy: np.ndarray, xp: np.ndarray, w: np.ndarray, input_grad: bool
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    """Weight gradient of :func:`_conv_same` and, when ``input_grad``, the
    gradient of its unpadded input (else None: block 0's input is the data)."""
    kernel = w.shape[2]
    T = dy.shape[2]
    dw = np.empty_like(w)
    for k in range(kernel):
        dw[:, :, k] = np.tensordot(dy, xp[:, :, k : k + T], axes=((0, 2), (0, 2)))
    if not input_grad:
        return dw, None
    left = (kernel - 1) // 2
    dxp = np.zeros_like(xp)
    for k in range(kernel):
        dxp[:, :, k : k + T] += np.matmul(w[:, :, k].T, dy)
    return dw, dxp[:, :, left : left + T]


def _bn_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              mask3: np.ndarray, count: float):
    mean = (x * mask3).sum(axis=(0, 2)) / count
    centered = x - mean[None, :, None]
    var = (centered * centered * mask3).sum(axis=(0, 2)) / count
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = centered * inv_std[None, :, None]
    y = gamma[None, :, None] * xhat + beta[None, :, None]
    return y, (xhat, inv_std, gamma, mask3, count), (mean, var)


def _bn_eval(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
             mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    return gamma[None, :, None] * (x - mean[None, :, None]) * inv_std[None, :, None] \
        + beta[None, :, None]


def _bn_backward(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # dy is zero at masked positions; the statistic sums therefore already
    # run over valid positions only.
    xhat, inv_std, gamma, mask3, count = cache
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    dxhat = dy * gamma[None, :, None]
    s1 = dxhat.sum(axis=(0, 2))
    s2 = (dxhat * xhat).sum(axis=(0, 2))
    dx = inv_std[None, :, None] * (dxhat - (s1[None, :, None] + xhat * s2[None, :, None]) / count)
    return dx * mask3, dgamma, dbeta


def _lstm_forward(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray,
                  train: bool):
    """LSTM over (B, C, T) input, giving the hidden states (B, T, U). When
    ``train``, the cache holds the input, the gates ``act`` (T, 4, B, U; i, f,
    g, o), the cells (T + 1, B, U; ``cells[0]`` zero) and tanh of each new
    cell; otherwise every step reuses one buffer of each and the cache is None.

    Every step updates the state. Padding follows each sample's valid steps,
    so a valid step's state never depends on a padded one."""
    B, _, T = x.shape
    units = wh.shape[0]
    xw = x.transpose(0, 2, 1) @ wx
    xw += b
    # Sigmoid gates as 0.5 * (1 + tanh(z / 2)), which cannot overflow, and g as
    # tanh(z), in one pass: tanh(z * s) * s + (1 - s) with s 0.5 or 1 is exact.
    # The scaling stays inside the loop: folding it into wh and xw would
    # round differently where a product is subnormal.
    s = np.repeat([0.5, 0.5, 1.0, 0.5], units)
    s_gates, s1_gates = s.reshape(4, 1, units), (1.0 - s).reshape(4, 1, units)
    if train:
        act = np.empty((T, 4, B, units))
        cells = np.zeros((T + 1, B, units))
        tcs = np.empty((T, B, units))
        steps = zip(act, cells[:-1], cells[1:], tcs)
    else:
        # The cell is updated in place: each element reads only itself.
        cell = np.zeros((B, units))
        steps = [(np.empty((4, B, units)), cell, cell, np.empty((B, units)))] * T
    hidden = np.empty((B, T, units))
    # Each step's pre-activations, and the same memory seen gate-major.
    z = np.empty((B, 4 * units))
    z_gates = z.reshape(B, 4, units).swapaxes(0, 1)
    gi_gg = np.empty((B, units))
    h = np.zeros((B, units))
    for xw_t, (gates, cell, new_cell, tc), h_new in zip(
            xw.swapaxes(0, 1), steps, hidden.swapaxes(0, 1)):
        np.matmul(h, wh, out=z)
        z += xw_t
        z *= s
        np.tanh(z_gates, out=gates)
        gates *= s_gates
        gates += s1_gates
        gi, gf, gg, go = gates
        np.multiply(gf, cell, out=new_cell)
        np.multiply(gi, gg, out=gi_gg)
        new_cell += gi_gg
        np.tanh(new_cell, out=tc)
        np.multiply(go, tc, out=h_new)
        h = h_new
    return hidden, (x, act, cells, tcs) if train else None


def _lstm_backward(d_hidden: np.ndarray, hidden: np.ndarray, cache, wh: np.ndarray):
    """Gradients of lstm_wx, lstm_wh and lstm_b: the reverse loop carries only
    the recurrence, then each is one product over every step's gate gradients.

    ``d_hidden`` must be zero on padded steps. Padding follows each sample's
    valid steps, so the loop then carries zeros until it reaches the sample's
    last valid step, and padded steps add nothing to the gradients."""
    x, act, cells, tcs = cache
    T, _, B, units = act.shape
    # The factors that depend on the step alone, for every step at once:
    # 1 - g for the sigmoid gates, 1 - g * g for g, and 1 - tanh(c)^2.
    slope = 1.0 - act
    slope[:, 2] = 1.0 - act[:, 2] * act[:, 2]
    dtanh = 1.0 - tcs * tcs
    dgates = np.empty((T, B, 4 * units))
    dh = dc = np.zeros((B, units))
    for t in range(T - 1, -1, -1):
        gi, gf, gg, go = act[t]
        si, sf, sg, so = slope[t]
        dht = d_hidden[:, t] + dh
        dc_new = dc + dht * go * dtanh[t]
        np.concatenate([
            dc_new * gg * gi * si,
            dc_new * cells[t] * gf * sf,
            dc_new * gi * sg,
            dht * tcs[t] * go * so,
        ], axis=1, out=dgates[t])
        dh = dgates[t] @ wh.T
        dc = dc_new * gf
    flat = dgates.reshape(T * B, 4 * units)
    dwx = x.transpose(1, 2, 0).reshape(-1, T * B) @ flat
    # Step t's previous hidden state is hidden[:, t - 1]; step 0's is zero.
    dwh = hidden.transpose(2, 1, 0)[:, :-1].reshape(units, -1) @ flat[B:]
    return dwx, dwh, flat.sum(axis=0)


def _masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    masked = np.where(mask > 0, scores, -np.inf)
    shifted = masked - masked.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


def _conv_input(model: ClassifierModel, batch: PaddedBatch) -> tuple[np.ndarray, np.ndarray]:
    """Conv block 0's zero-padded input for ``batch``, and the batch's mask.

    A batch that :func:`_pad` laid out for block 0 is used as it is. Any
    other is written through its mask into a new buffer, so values a
    hand-built batch holds on its padding are read as zeros.
    """
    config = model.config
    x, mask = batch.series, batch.mask
    if x.ndim != 3 or x.shape[1] != config.channels:
        raise ShapeMismatch(f"model expects {config.channels} channels, series are {x.shape}")
    B, C, T = x.shape
    if mask.shape != (B, T):
        raise ShapeMismatch(f"mask is {mask.shape}, series are {x.shape}")
    counts = mask.sum(axis=1)
    valid_first = np.arange(T) < counts[:, None]
    if (counts < 1).any() or not np.array_equal(mask, valid_first):
        raise ShapeMismatch("every mask row must be one or more ones followed by zeros")
    kernel = config.conv_blocks[0][1]
    if isinstance(batch, _ConvInput) and batch.padded.shape[2] == T + kernel - 1:
        return batch.padded, mask
    padded, interior = _zero_padded(B, C, T, kernel)
    np.multiply(x, mask[:, None, :], out=interior)
    return padded, mask


def _forward(model: ClassifierModel, padded: np.ndarray, mask: np.ndarray, train: bool,
             dropout_rng: np.random.Generator | None):
    """Class probabilities for conv block 0's zero-padded input ``padded``
    (see :func:`_conv_input`) and the batch's (B, T) mask and, when
    ``train``, the cache the backward pass reads (batch-norm uses batch
    statistics, dropout is applied). Inference keeps only what the next
    layer reads and returns no cache."""
    config = model.config
    params = model.params
    B, T = mask.shape
    counts = mask.sum(axis=1)
    mask3 = mask[:, None, :]
    count = float(mask.sum())

    blocks, batch_stats = [], []
    xp = padded
    for i, (filters, _) in enumerate(config.conv_blocks):
        z = _conv_same(xp, params[f"conv{i}_w"])
        if train:
            u, bn_cache, stats = _bn_train(z, params[f"bn{i}_gamma"],
                                           params[f"bn{i}_beta"], mask3, count)
            batch_stats.append(stats)
        else:
            del xp   # inference frees each array as soon as nothing reads it
            u = _bn_eval(z, params[f"bn{i}_gamma"], params[f"bn{i}_beta"],
                         model.running[f"bn{i}_mean"], model.running[f"bn{i}_var"])
        del z
        relu_mask = u > 0
        if train:
            blocks.append((xp, bn_cache, relu_mask))
        # The masked ReLU output goes straight into the next block's padded
        # input; the last block's is pooled.
        if i + 1 < len(config.conv_blocks):
            xp, a = _zero_padded(B, filters, T, config.conv_blocks[i + 1][1])
        else:
            a = np.empty((B, filters, T))
        np.multiply(np.where(relu_mask, u, 0.0), mask3, out=a)
        del u, relu_mask
    pooled = a.sum(axis=2) / counts[:, None]   # a is already masked
    del a

    left = (config.conv_blocks[0][1] - 1) // 2
    hidden, lstm_cache = _lstm_forward(padded[:, :, left : left + T], params["lstm_wx"],
                                       params["lstm_wh"], params["lstm_b"], train)
    alpha = _masked_softmax(hidden @ params["attn_v"], mask)
    context = (alpha[:, :, None] * hidden).sum(axis=1)

    features = np.concatenate([pooled, context], axis=1)
    drop_mask = None
    if train and config.dropout > 0.0:
        if dropout_rng is None:
            raise ValueError("training forward with dropout needs a generator")
        drop_mask = (dropout_rng.random(features.shape) >= config.dropout) \
            / (1.0 - config.dropout)
        features = features * drop_mask
    logits = features @ params["out_w"] + params["out_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    if not train:
        return probs, None
    return probs, dict(blocks=blocks, batch_stats=batch_stats, mask=mask, counts=counts,
                       hidden=hidden, lstm=lstm_cache, alpha=alpha, features=features,
                       drop_mask=drop_mask, pooled_dim=pooled.shape[1])


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    B = probs.shape[0]
    picked = np.clip(probs[np.arange(B), labels], 1e-300, None)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(B), labels] = 1.0
    return float((-np.log(picked)).mean()), (probs - one_hot) / B


def _class_indices(model: ClassifierModel, batch: PaddedBatch) -> np.ndarray:
    """The batch's labels, one per series, each an integer in
    0..classes - 1; any other label raises UnknownLabel naming it."""
    if batch.labels is None:
        raise ValueError("loss needs labels")
    labels = np.asarray(batch.labels)
    rows = batch.series.shape[0]
    if labels.shape != (rows,):
        raise ValueError(f"need one label per series: {rows} series, "
                         f"labels of shape {labels.shape}")
    classes = model.config.classes
    if labels.dtype.kind in "iu":
        bad = labels[(labels < 0) | (labels >= classes)].tolist()
    else:
        # No label of another dtype is a class index; name one whose value
        # is off too, if there is one.
        bad = [y for y in labels.tolist() if y not in range(classes)] or labels.tolist()
    if bad:
        raise UnknownLabel(f"label {bad[0]!r} is not a class index in 0..{classes - 1} "
                           f"(labels are {labels.dtype})")
    return labels


def loss_and_grad(model: ClassifierModel, batch: PaddedBatch,
                  dropout_rng: np.random.Generator | None = None):
    """Training-mode loss, analytic gradients, and the batch-norm statistics
    of this batch (for the running-average update)."""
    labels = _class_indices(model, batch)
    config = model.config
    params = model.params
    probs, cache = _forward(model, *_conv_input(model, batch), train=True,
                            dropout_rng=dropout_rng)
    loss, dlogits = _cross_entropy(probs, labels)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss!r}")

    grads: dict[str, np.ndarray] = {}
    features = cache["features"]
    grads["out_w"] = features.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dfeat = dlogits @ params["out_w"].T
    if cache["drop_mask"] is not None:
        dfeat = dfeat * cache["drop_mask"]
    dpooled, dcontext = np.split(dfeat, [cache["pooled_dim"]], axis=1)

    # Recurrent branch.
    hidden = cache["hidden"]
    alpha = cache["alpha"]
    dalpha = np.einsum("bu,btu->bt", dcontext, hidden)
    d_hidden = alpha[:, :, None] * dcontext[:, None, :]
    dscores = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
    grads["attn_v"] = np.einsum("bt,btu->u", dscores, hidden)
    d_hidden += dscores[:, :, None] * params["attn_v"][None, None, :]
    grads["lstm_wx"], grads["lstm_wh"], grads["lstm_b"] = _lstm_backward(
        d_hidden, hidden, cache["lstm"], params["lstm_wh"])

    # Convolutional branch.
    mask3 = cache["mask"][:, None, :]
    da = dpooled[:, :, None] * mask3 / cache["counts"][:, None, None]
    for i in range(len(config.conv_blocks) - 1, -1, -1):
        xp, bn_cache, relu_mask = cache["blocks"][i]
        du = da * mask3 * relu_mask
        dz, grads[f"bn{i}_gamma"], grads[f"bn{i}_beta"] = _bn_backward(du, bn_cache)
        grads[f"conv{i}_w"], da = _conv_backward(dz, xp, params[f"conv{i}_w"],
                                                 input_grad=i > 0)
    return loss, grads, cache["batch_stats"]


def batch_loss(model: ClassifierModel, batch: PaddedBatch) -> float:
    """Training-mode loss without gradients (used by finite differencing)."""
    labels = _class_indices(model, batch)
    probs, _ = _forward(model, *_conv_input(model, batch), train=True, dropout_rng=None)
    return _cross_entropy(probs, labels)[0]


# --------------------------------------------------------------------------
# Prediction


def predict_proba(model: ClassifierModel, series: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluation-mode class probabilities for a list of (C, T) series.

    A series holding a nan or inf value raises NonFiniteInput naming its
    index in ``series`` ("batch series i"). No series gives a (0, classes)
    array.
    """
    for i, s in enumerate(series):
        if not np.isfinite(s).all():
            raise NonFiniteInput(f"batch series {i} holds a non-finite value")
    config = model.config
    step, kernel = config.batch_size, config.conv_blocks[0][1]
    # No name holds a chunk's buffer, so it is freed before the next is padded.
    out = [_forward(model, *_conv_input(model, _pad(series[i : i + step], None,
                                                    config.channels, kernel)),
                    train=False, dropout_rng=None)[0]
           for i in range(0, len(series), step)]
    return np.vstack(out) if out else np.zeros((0, model.config.classes))


def predict(model: ClassifierModel, series: Sequence[np.ndarray]) -> np.ndarray:
    """Predicted class indices; exact ties resolve to the lowest index."""
    return predict_proba(model, series).argmax(axis=1)


def accuracy(model: ClassifierModel, dataset: Sequence[tuple[np.ndarray, int]]) -> float:
    if not dataset:
        return 0.0
    labels = np.array([y for _, y in dataset])
    predicted = predict(model, [s for s, _ in dataset])
    return float((predicted == labels).mean())


# --------------------------------------------------------------------------
# Training


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            params[key] -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def train(config: ClassifierConfig,
          train_set: Sequence[tuple[np.ndarray, int]],
          val_set: Sequence[tuple[np.ndarray, int]]
          ) -> tuple[ClassifierModel, list[dict]]:
    """Fit a model; returns it with the best-on-validation weights restored.

    The history holds one record per epoch with the mean training loss and
    the validation accuracy. Training stops early once validation accuracy
    has failed to improve for more than ``patience`` consecutive epochs.
    """
    if not train_set or not val_set:
        raise ValueError("training and validation sets must be non-empty")
    for name, dataset in (("train_set", train_set), ("val_set", val_set)):
        for i, (s, y) in enumerate(dataset):
            if s.shape[0] != config.channels:
                raise ShapeMismatch(
                    f"series has {s.shape[0]} channels, model expects {config.channels}")
            if not (is_integer(y) and 0 <= y < config.classes):
                raise ValueError(f"{name}[{i}] label {y!r} is not an integer "
                                 f"in 0..{config.classes - 1}")
            if not np.isfinite(s).all():
                raise NonFiniteInput(f"{name}[{i}] holds a non-finite value")

    model = init_model(config)
    optimizer = _Adam(model.params, config.learning_rate)
    rng = np.random.default_rng([config.rng_seed, 1])

    best = {k: v.copy() for k, v in model.params.items()}
    best_running = {k: v.copy() for k, v in model.running.items()}
    best_accuracy = -1.0
    stale = 0
    history: list[dict] = []
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), config.batch_size):
            picked = order[start : start + config.batch_size]
            batch = _pad([train_set[i][0] for i in picked], [train_set[i][1] for i in picked],
                         config.channels, config.conv_blocks[0][1])
            loss, grads, stats = loss_and_grad(model, batch, dropout_rng=rng)
            del batch   # freed before the next batch is padded
            optimizer.step(model.params, grads)
            for i, (mean, var) in enumerate(stats):
                model.running[f"bn{i}_mean"] *= BN_MOMENTUM
                model.running[f"bn{i}_mean"] += (1.0 - BN_MOMENTUM) * mean
                model.running[f"bn{i}_var"] *= BN_MOMENTUM
                model.running[f"bn{i}_var"] += (1.0 - BN_MOMENTUM) * var
            losses.append(loss)
            for value in model.params.values():
                if not np.isfinite(value).all():
                    raise Diverged("non-finite parameters after an update step")
        val_accuracy = accuracy(model, val_set)
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_accuracy": val_accuracy})
        if val_accuracy > best_accuracy:
            best_accuracy = val_accuracy
            best = {k: v.copy() for k, v in model.params.items()}
            best_running = {k: v.copy() for k, v in model.running.items()}
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    model.params = best
    model.running = best_running
    return model, history


# --------------------------------------------------------------------------
# Persistence


def save_model(path: str | os.PathLike, model: ClassifierModel,
               actions: Sequence[str]) -> None:
    """Write a model as a ``posehar-classifier/3`` archive (see
    :mod:`posehar.archive`), with the names of its classes."""
    meta = {"config": asdict(model.config), "actions": list(actions)}
    arrays = {f"param/{key}": value for key, value in model.params.items()}
    arrays.update((f"running/{key}", value) for key, value in model.running.items())
    write_archive(path, MODEL_FORMAT, meta, arrays)


def load_model(path: str | os.PathLike) -> tuple[ClassifierModel, list[str]]:
    """Load a model plus the action-name list stored with it.

    Beyond the checks every archive gets, the meta config must be valid,
    the archive must hold exactly the entries of :func:`model_layout`, each
    a float array of its shape, no running variance may be negative, and
    ``actions`` must list ``classes`` distinct strings. Anything else raises
    ParseError naming the file; nothing is allocated from the meta sizes.
    """
    meta, arrays = read_archive(path, MODEL_FORMAT)
    try:
        config = ClassifierConfig(**meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a valid classifier model ({exc})") from exc
    params, running = ({name: entry(path, arrays, f"{group}/{name}", shape)
                        for name, shape in shapes.items()}
                       for group, shapes in model_layout(config).items())
    no_more(path, arrays)
    if any((value < 0).any() for key, value in running.items() if key.endswith("_var")):
        raise ParseError(f"{path}: a batch-norm running variance is negative")
    actions = meta.get("actions")
    if not (isinstance(actions, list) and len(actions) == config.classes
            and all(isinstance(a, str) for a in actions) and len(set(actions)) == len(actions)):
        raise ParseError(f"{path}: actions must list {config.classes} distinct names")
    return ClassifierModel(config, params, running), actions
