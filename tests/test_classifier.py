"""Classifier mechanics: gradients against finite differences, masking,
training behavior, persistence."""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from posehar.classifier import (
    ClassifierConfig,
    _lstm_backward,
    _lstm_forward,
    PaddedBatch,
    accuracy,
    batch_loss,
    init_model,
    load_model,
    loss_and_grad,
    model_layout,
    pad_batch,
    predict,
    predict_proba,
    save_model,
    train,
)
from posehar import classifier as clf
from posehar.archive import write_archive
from posehar.augment import AugmentConfig
from posehar.errors import DataError, NonFiniteInput, NumericError, ParseError, ShapeMismatch
from posehar.evaluate import PipelineConfig
from posehar.som import SomConfig

TOY = dict(channels=3, classes=3, conv_blocks=((4, 3), (3, 2)), recurrent_units=4,
           dropout=0.0, rng_seed=0)


def toy_batch(rng, lengths=(5, 8, 6), channels=3, classes=3):
    series = [rng.normal(0.0, 1.0, (channels, T)) for T in lengths]
    labels = [int(rng.integers(classes)) for _ in lengths]
    return pad_batch(series, labels)


def test_pad_batch_layout():
    rng = np.random.default_rng(70)
    a = rng.normal(0.0, 1.0, (3, 4))
    b = rng.normal(0.0, 1.0, (3, 7))
    batch = pad_batch([a, b], [0, 2])
    assert batch.series.shape == (2, 3, 7)
    assert batch.mask.shape == (2, 7)
    np.testing.assert_array_equal(batch.series[0, :, :4], a)
    np.testing.assert_array_equal(batch.series[0, :, 4:], 0.0)
    np.testing.assert_array_equal(batch.mask[0], [1, 1, 1, 1, 0, 0, 0])
    np.testing.assert_array_equal(batch.mask[1], 1.0)
    np.testing.assert_array_equal(batch.labels, [0, 2])
    with pytest.raises(ShapeMismatch):
        pad_batch([a, rng.normal(0.0, 1.0, (4, 5))])
    with pytest.raises(ValueError):
        pad_batch([])


def test_init_model_is_seeded():
    config = ClassifierConfig(**TOY)
    a = init_model(config)
    b = init_model(config)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    c = init_model(ClassifierConfig(**{**TOY, "rng_seed": 1}))
    assert not np.array_equal(a.params["conv0_w"], c.params["conv0_w"])
    # forget-gate bias slice starts open
    units = config.recurrent_units
    np.testing.assert_array_equal(a.params["lstm_b"][units : 2 * units], 1.0)
    np.testing.assert_array_equal(a.params["lstm_b"][:units], 0.0)


def relative_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("ragged", [True, False])
def test_gradients_match_finite_differences(ragged):
    rng = np.random.default_rng(71)
    model = init_model(ClassifierConfig(**TOY))
    batch = toy_batch(rng, lengths=(5, 8, 6) if ragged else (6, 6, 6))
    _, grads, _ = loss_and_grad(model, batch)

    h = 1e-6
    probe = np.random.default_rng(72)
    for key in sorted(grads):
        flat_param = model.params[key].reshape(-1)
        flat_grad = grads[key].reshape(-1)
        picks = probe.permutation(flat_param.size)[: min(6, flat_param.size)]
        for idx in picks:
            keep = flat_param[idx]
            flat_param[idx] = keep + h
            up = batch_loss(model, batch)
            flat_param[idx] = keep - h
            down = batch_loss(model, batch)
            flat_param[idx] = keep
            numeric = (up - down) / (2 * h)
            assert relative_error(numeric, flat_grad[idx]) < 1e-6, \
                f"{key}[{idx}]: analytic {flat_grad[idx]}, numeric {numeric}"


@pytest.mark.parametrize("ragged", [True, False])
def test_every_parameter_moves_the_loss(ragged):
    # A parameter whose gradient is rounding noise (a conv bias ahead of
    # batch norm gave about 1e-17 here) is dead weight in the layout.
    config = ClassifierConfig(**TOY)
    model = init_model(config)
    batch = toy_batch(np.random.default_rng(71), lengths=(5, 8, 6) if ragged else (6, 6, 6))
    _, grads, _ = loss_and_grad(model, batch)
    assert set(grads) == set(model_layout(config)["param"])
    for key, grad in grads.items():
        assert np.abs(grad).max() > 1e-10, key


def reference_lstm(x, mask, wx, wh, b, d_hidden):
    """Per-step LSTM oracle: one cache tuple per step, a boolean-mask
    sigmoid, and weight gradients summed step by step."""
    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ex = np.exp(z[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    B, _, T = x.shape
    units = wh.shape[0]
    h = np.zeros((B, units))
    c = np.zeros((B, units))
    hidden = np.empty((B, T, units))
    steps = []
    for t in range(T):
        gates = x[:, :, t] @ wx + h @ wh + b
        gi = sigmoid(gates[:, :units])
        gf = sigmoid(gates[:, units : 2 * units])
        gg = np.tanh(gates[:, 2 * units : 3 * units])
        go = sigmoid(gates[:, 3 * units :])
        c_new = gf * c + gi * gg
        tc = np.tanh(c_new)
        m = mask[:, t : t + 1]
        steps.append((x[:, :, t], h, c, gi, gf, gg, go, tc, m))
        h = m * (go * tc) + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        hidden[:, t] = h

    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros(wx.shape[1])
    dh, dc = np.zeros((B, units)), np.zeros((B, units))
    for t in range(T - 1, -1, -1):
        xt, h_prev, c_prev, gi, gf, gg, go, tc, m = steps[t]
        dht = d_hidden[:, t] + dh
        dh_new = m * dht
        dc_new = m * dc + dh_new * go * (1.0 - tc * tc)
        dgates = np.concatenate([dc_new * gg * gi * (1.0 - gi),
                                 dc_new * c_prev * gf * (1.0 - gf),
                                 dc_new * gi * (1.0 - gg * gg),
                                 dh_new * tc * go * (1.0 - go)], axis=1)
        dwx += xt.T @ dgates
        dwh += h_prev.T @ dgates
        db += dgates.sum(axis=0)
        dh = (1.0 - m) * dht + dgates @ wh.T
        dc = (1.0 - m) * dc + dc_new * gf
    return hidden, (dwx, dwh, db)


def test_lstm_matches_the_per_step_oracle():
    rng = np.random.default_rng(85)
    lengths = (9, 3, 6, 1, 7)
    B, C, T, units = len(lengths), 6, max(lengths), 5
    mask = (np.arange(T)[None, :] < np.array(lengths)[:, None]).astype(float)
    valid = mask == 1.0
    x = rng.normal(0.0, 1.0, (B, C, T)) * mask[:, None, :]
    wx = rng.normal(0.0, 1.0, (C, 4 * units))
    wh = rng.normal(0.0, 1.0, (units, 4 * units))
    b = rng.normal(0.0, 1.0, 4 * units)
    # the last-state head's gradient lands on each sample's last valid step
    d_hidden = rng.normal(0.0, 1.0, (B, T, units)) * mask[:, :, None]
    d_hidden[np.arange(B), np.array(lengths) - 1] = rng.normal(0.0, 1.0, (B, units))

    hidden, cache = _lstm_forward(x, wx, wh, b, train=True)
    grads = _lstm_backward(d_hidden, hidden, cache, wh)
    ref_hidden, ref_grads = reference_lstm(x, mask, wx, wh, b, d_hidden)

    np.testing.assert_allclose(hidden[valid], ref_hidden[valid], rtol=0, atol=1e-12)
    for name, got, want in zip(("dwx", "dwh", "db"), grads, ref_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


# Bit-identity oracle: verbatim copies of the conv backward pass that always
# computes its input gradient and of the LSTM that applies the padding carry
# ``m * a + (1 - m) * b`` on every step. Skipping the discarded input gradient,
# and running the LSTM through the padding that follows each sample's valid
# steps, must leave every output bit for bit the same.
def carry_conv_backward(dy: np.ndarray, xp: np.ndarray, w: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    kernel = w.shape[2]
    T = dy.shape[2]
    left = (kernel - 1) // 2
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for k in range(kernel):
        dw[:, :, k] = np.tensordot(dy, xp[:, :, k : k + T], axes=((0, 2), (0, 2)))
        dxp[:, :, k : k + T] += np.matmul(w[:, :, k].T, dy)
    return dw, dxp[:, :, left : left + T]


def carry_lstm_forward(x: np.ndarray, mask: np.ndarray, wx: np.ndarray, wh: np.ndarray,
                       b: np.ndarray):
    """LSTM over (B, C, T) input; the state holds across masked steps, so the
    last of the hidden states (B, T, U) is each sample's last valid one. The
    cache holds the input, the gates ``act`` (T, 4, B, U; i, f, g, o), the
    carried cells (T + 1, B, U; ``cells[0]`` zero) and tanh of each new cell."""
    B, _, T = x.shape
    units = wh.shape[0]
    xw = x.transpose(0, 2, 1) @ wx
    xw += b
    # Sigmoid gates as 0.5 * (1 + tanh(z / 2)), which cannot overflow, and g as
    # tanh(z), in one pass: tanh(z * s) * s + (1 - s) with s 0.5 or 1 is exact.
    s = np.repeat([0.5, 0.5, 1.0, 0.5], units)
    act = np.empty((T, 4, B, units))
    cells = np.zeros((T + 1, B, units))
    tcs = np.empty((T, B, units))
    hidden = np.empty((B, T, units))
    h = np.zeros((B, units))
    for t in range(T):
        z = np.tanh((xw[:, t] + h @ wh) * s) * s + (1.0 - s)
        act[t] = z.reshape(B, 4, units).swapaxes(0, 1)
        gi, gf, gg, go = act[t]
        c_new = gf * cells[t] + gi * gg
        tcs[t] = np.tanh(c_new)
        m = mask[:, t : t + 1]
        cells[t + 1] = m * c_new + (1.0 - m) * cells[t]
        h = m * (go * tcs[t]) + (1.0 - m) * h
        hidden[:, t] = h
    return hidden, (x, act, cells, tcs)


def carry_lstm_backward(d_hidden: np.ndarray, mask: np.ndarray, hidden: np.ndarray, cache,
                        wh: np.ndarray):
    """Gradients of lstm_wx, lstm_wh and lstm_b: the reverse loop carries only
    the recurrence, then each is one product over every step's gate gradients."""
    x, act, cells, tcs = cache
    T, _, B, units = act.shape
    dgates = np.empty((T, B, 4 * units))
    dh = dc = np.zeros((B, units))
    for t in range(T - 1, -1, -1):
        gi, gf, gg, go = act[t]
        tc = tcs[t]
        m = mask[:, t : t + 1]
        dht = d_hidden[:, t] + dh
        dh_new = m * dht
        dc_new = m * dc + dh_new * go * (1.0 - tc * tc)
        np.concatenate([
            dc_new * gg * gi * (1.0 - gi),
            dc_new * cells[t] * gf * (1.0 - gf),
            dc_new * gi * (1.0 - gg * gg),
            dh_new * tc * go * (1.0 - go),
        ], axis=1, out=dgates[t])
        dh = (1.0 - m) * dht + dgates[t] @ wh.T
        dc = (1.0 - m) * dc + dc_new * gf
    flat = dgates.reshape(T * B, 4 * units)
    dwx = x.transpose(1, 2, 0).reshape(-1, T * B) @ flat
    # Step t's previous hidden state is hidden[:, t - 1]; step 0's is zero.
    dwh = hidden.transpose(2, 1, 0)[:, :-1].reshape(units, -1) @ flat[B:]
    return dwx, dwh, flat.sum(axis=0)


def oracle_mask(kind, B, T, rng):
    """A (B, T) validity mask: no padding, ragged lengths (the longest is
    T, as pad_batch makes them), or ragged with interior holes (which
    pad_batch never makes)."""
    if kind == "full":
        return np.ones((B, T))
    lengths = rng.integers(1, T + 1, B)
    lengths[rng.integers(B)] = T
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float)
    if kind == "holed":
        mask[:, 1:] *= rng.random((B, T - 1)) >= 0.3
    return mask


ORACLE_SHAPES = [(B, T) for B in (1, 6, 16) for T in (1, 40, 240)]


@pytest.mark.parametrize("kind", ["full", "ragged", "holed"])
@pytest.mark.parametrize("B, T", ORACLE_SHAPES)
def test_kernels_are_bit_identical_to_the_carry_oracle(kind, B, T):
    rng = np.random.default_rng([86, B, T])
    C, units = 24, 8
    mask = oracle_mask(kind, B, T, rng)
    x = rng.normal(0.0, 1.0, (B, C, T)) * mask[:, None, :]
    wx = rng.normal(0.0, 0.5, (C, 4 * units))
    wh = rng.normal(0.0, 0.5, (units, 4 * units))
    b = rng.normal(0.0, 0.5, 4 * units)
    # The kernels read no mask: they agree with the carry on each sample's
    # leading run of valid steps (all of them, for a mask pad_batch makes),
    # given no gradient arrives after it.
    valid = np.cumprod(mask, axis=1) == 1.0
    d_hidden = rng.normal(0.0, 1.0, (B, T, units)) * valid[:, :, None]
    hidden, cache = _lstm_forward(x, wx, wh, b, train=True)
    want_hidden, want_cache = carry_lstm_forward(x, mask, wx, wh, b)
    assert np.array_equal(hidden[valid], want_hidden[valid])
    # inference reuses one buffer per step quantity and keeps no cache
    inferred, no_cache = _lstm_forward(x, wx, wh, b, train=False)
    assert np.array_equal(inferred, hidden) and no_cache is None
    assert np.array_equal(cache[0], want_cache[0])
    # gates (T, 4, B, U), new cells and their tanh (T, B, U), by sample and step
    for got, want in zip((cache[1], cache[2][1:], cache[3]),
                         (want_cache[1], want_cache[2][1:], want_cache[3])):
        assert np.array_equal(np.moveaxis(got, -2, 0)[valid], np.moveaxis(want, -2, 0)[valid])
    for got, want in zip(_lstm_backward(d_hidden, hidden, cache, wh),
                         carry_lstm_backward(d_hidden, mask, want_hidden, want_cache, wh)):
        assert np.array_equal(got, want)

    w = rng.normal(0.0, 0.5, (8, C, 7))
    _, xp = clf._conv_same(x, w)
    dy = rng.normal(0.0, 1.0, (B, 8, T))
    want_dw, want_dx = carry_conv_backward(dy, xp, w)
    dw, dx = clf._conv_backward(dy, xp, w, True)
    assert np.array_equal(dw, want_dw) and np.array_equal(dx, want_dx)
    dw, dx = clf._conv_backward(dy, xp, w, False)
    assert np.array_equal(dw, want_dw) and dx is None


@pytest.mark.parametrize("dropout", [True, False])
@pytest.mark.parametrize("kind", ["full", "ragged", "holed"])
@pytest.mark.parametrize("B, T", ORACLE_SHAPES)
def test_training_step_is_bit_identical_to_the_carry_oracle(monkeypatch, kind, B, T,
                                                            dropout):
    rng = np.random.default_rng([87, B, T])
    config = ClassifierConfig(channels=24, classes=4, conv_blocks=((8, 7), (6, 3)),
                              recurrent_units=8, dropout=0.3 if dropout else 0.0)
    model = init_model(config)
    mask = oracle_mask(kind, B, T, rng)
    batch = PaddedBatch(rng.normal(0.0, 1.0, (B, 24, T)) * mask[:, None, :], mask,
                        rng.integers(0, 4, B))
    if kind == "holed" and T > 1:
        # A hole was the one mask where the carry changed a result; the LSTM
        # no longer carries, so the batch is refused.
        with pytest.raises(ShapeMismatch, match="ones followed by zeros"):
            loss_and_grad(model, batch, np.random.default_rng(1))
        return
    # predict_proba pads these again; the longest is T, so its mask is this one
    series = [s[:, : int(n)] for s, n in zip(batch.series, mask.sum(axis=1))]
    loss, grads, stats = loss_and_grad(model, batch, np.random.default_rng(1))
    probs = clf._forward(model, batch, train=False, dropout_rng=None)[0]
    served = predict_proba(model, series)
    with monkeypatch.context() as patched:
        patched.setattr(clf, "_conv_backward",
                        lambda dy, xp, w, input_grad: carry_conv_backward(dy, xp, w))
        patched.setattr(clf, "_lstm_forward",
                        lambda x, wx, wh, b, train: carry_lstm_forward(x, mask, wx, wh, b))
        patched.setattr(clf, "_lstm_backward", lambda d_hidden, hidden, cache, wh:
                        carry_lstm_backward(d_hidden, mask, hidden, cache, wh))
        want_loss, want_grads, want_stats = loss_and_grad(model, batch,
                                                          np.random.default_rng(1))
        want_probs = clf._forward(model, batch, train=False, dropout_rng=None)[0]
        want_served = predict_proba(model, series)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for key in grads:
        assert np.array_equal(grads[key], want_grads[key]), key
    for got, want in zip(stats, want_stats):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(probs, want_probs)
    assert np.array_equal(served, want_served) and np.array_equal(served, probs)


def test_block_zero_input_gradient_is_never_computed(monkeypatch):
    # Block 0's input is the data: its gradient would be thrown away.
    calls = []
    conv_backward = clf._conv_backward

    def spy(dy, xp, w, input_grad):
        calls.append((w.shape, input_grad))
        return conv_backward(dy, xp, w, input_grad)

    monkeypatch.setattr(clf, "_conv_backward", spy)
    model = init_model(ClassifierConfig(**TOY))
    loss_and_grad(model, toy_batch(np.random.default_rng(88)))
    assert calls == [((3, 4, 2), True), ((4, 3, 3), False)]


@pytest.mark.parametrize("mask", [
    [[1, 1, 0], [0, 0, 0]],
    [[0, 1, 1], [1, 1, 1]],
    [[1, 0.5, 0], [1, 1, 1]],
], ids=["empty row", "leading padding", "fractional"])
def test_mask_rows_must_be_valid_steps_then_padding(mask):
    # masks pad_batch never builds; interior holes are checked by the carry
    # oracle's holed cases above
    mask = np.array(mask, dtype=float)
    batch = PaddedBatch(np.ones((2, 3, 3)) * mask[:, None, :], mask, np.array([0, 1]))
    with pytest.raises(ShapeMismatch, match="ones followed by zeros"):
        loss_and_grad(init_model(ClassifierConfig(**TOY)), batch)


def test_padding_cannot_change_anything():
    rng = np.random.default_rng(74)
    model = init_model(ClassifierConfig(**TOY))
    batch = toy_batch(rng, lengths=(5, 7))
    # same samples, four extra all-zero padded steps
    extra = 4
    series = np.concatenate(
        [batch.series, np.zeros((2, 3, extra))], axis=2)
    mask = np.concatenate([batch.mask, np.zeros((2, extra))], axis=1)
    padded = PaddedBatch(series, mask, batch.labels)

    loss_a, grads_a, stats_a = loss_and_grad(model, batch)
    loss_b, grads_b, stats_b = loss_and_grad(model, padded)
    # extra padded steps regroup the reductions, so agreement is to machine
    # precision rather than bitwise
    assert abs(loss_a - loss_b) < 1e-14
    for key in grads_a:
        np.testing.assert_allclose(grads_b[key], grads_a[key], rtol=1e-10, atol=1e-13)
    for (ma, va), (mb, vb) in zip(stats_a, stats_b):
        np.testing.assert_allclose(mb, ma, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(vb, va, rtol=1e-12, atol=1e-15)
    # garbage beyond the mask must be erased by the input masking
    series_junk = series.copy()
    series_junk[:, :, -extra:] = 1e6
    loss_c, _, _ = loss_and_grad(model, PaddedBatch(series_junk, mask, batch.labels))
    assert loss_c == loss_b


@pytest.mark.parametrize("dropout", [True, False])
def test_eval_outputs_independent_of_batch_padding(dropout):
    # evaluation ignores dropout
    rng = np.random.default_rng(75)
    config = ClassifierConfig(**{**TOY, "dropout": 0.5 if dropout else 0.0})
    model = init_model(config)
    model.running["bn0_mean"] = rng.normal(0.0, 0.1, 4)
    model.running["bn0_var"] = rng.uniform(0.5, 1.5, 4)
    short = rng.normal(0.0, 1.0, (3, 4))
    long = rng.normal(0.0, 1.0, (3, 9))
    together = predict_proba(model, [short, long])
    alone_short = predict_proba(model, [short])
    alone_long = predict_proba(model, [long])
    np.testing.assert_allclose(together[0], alone_short[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(together[1], alone_long[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(together.sum(axis=1), 1.0, atol=1e-12)


def separable_dataset(rng, n_per_class=8, channels=3, classes=3):
    data = []
    for y in range(classes):
        for _ in range(n_per_class):
            T = int(rng.integers(6, 12))
            s = rng.normal(0.0, 0.1, (channels, T))
            s[y % channels] += 3.0   # easy class signature
            data.append((s, y))
    return data


def test_train_learns_separable_data_and_restores_best():
    rng = np.random.default_rng(76)
    data = separable_dataset(rng)
    config = ClassifierConfig(**{**TOY, "max_epochs": 30, "patience": 3,
                                 "batch_size": 8, "learning_rate": 5e-3})
    model, history = train(config, data, data[::2])
    best = max(h["val_accuracy"] for h in history)
    assert best > 0.9
    # returned model carries the best-epoch parameters and statistics
    assert accuracy(model, data[::2]) == best
    # early stopping: it either hit the epoch cap or went stale past patience
    if len(history) < config.max_epochs:
        accs = [h["val_accuracy"] for h in history]
        stale = 0
        top = -1.0
        for a in accs:
            if a > top:
                top, stale = a, 0
            else:
                stale += 1
        assert stale == config.patience + 1


def test_train_is_deterministic():
    rng = np.random.default_rng(77)
    data = separable_dataset(rng, n_per_class=4)
    config = ClassifierConfig(**{**TOY, "max_epochs": 3, "batch_size": 6,
                                 "dropout": 0.3})
    a, hist_a = train(config, data, data[:6])
    b, hist_b = train(config, data, data[:6])
    assert hist_a == hist_b
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    for key in a.running:
        np.testing.assert_array_equal(a.running[key], b.running[key])


def test_train_validates_inputs():
    rng = np.random.default_rng(78)
    data = separable_dataset(rng, n_per_class=2)
    config = ClassifierConfig(**{**TOY, "max_epochs": 1})
    with pytest.raises(ValueError):
        train(config, [], data)
    bad = [(rng.normal(0.0, 1.0, (5, 6)), 0)]
    with pytest.raises(ShapeMismatch):
        train(config, bad, bad)
    with pytest.raises(ValueError):
        train(config, [(data[0][0], 7)], data)


def test_non_finite_loss_is_reported():
    rng = np.random.default_rng(79)
    data = separable_dataset(rng, n_per_class=3)
    poisoned = [(s.copy(), y) for s, y in data]
    poisoned[0][0][0, 0] = 1e300   # finite input whose gradients overflow
    config = ClassifierConfig(**{**TOY, "max_epochs": 4, "batch_size": len(data)})
    with pytest.raises(NumericError):
        with np.errstate(all="ignore"):
            train(config, poisoned, data[:3])


def test_train_rejects_non_finite_series():
    rng = np.random.default_rng(79)
    data = separable_dataset(rng, n_per_class=3)
    config = ClassifierConfig(**{**TOY, "max_epochs": 2, "batch_size": len(data)})
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = [(s.copy(), y) for s, y in data]
        poisoned[4][0][1, 2] = bad
        for train_set, val_set in ((poisoned, data[:3]), (data, poisoned[4:5])):
            with pytest.raises(NonFiniteInput, match="non-finite") as caught:
                train(config, train_set, val_set)
            assert isinstance(caught.value, DataError)
            assert not isinstance(caught.value, NumericError)


def test_predict_and_accuracy():
    rng = np.random.default_rng(81)
    model = init_model(ClassifierConfig(**TOY))
    series = [rng.normal(0.0, 1.0, (3, 5)) for _ in range(4)]
    probs = predict_proba(model, series)
    np.testing.assert_array_equal(predict(model, series), probs.argmax(axis=1))
    labels = probs.argmax(axis=1)
    assert accuracy(model, list(zip(series, labels))) == 1.0
    assert accuracy(model, []) == 0.0
    assert predict_proba(model, []).shape == (0, 3)
    assert predict(model, []).shape == (0,)
    with pytest.raises(ShapeMismatch):
        predict_proba(model, [rng.normal(0.0, 1.0, (4, 5))])


def test_predict_proba_keeps_no_training_state():
    # The serving model's shape: 106 channels, 16 clips of 240 frames. The
    # forward must not hold the LSTM's step histories, a masked copy of the
    # batch or every block's padded input, which training alone reads.
    rng = np.random.default_rng(89)
    model = init_model(ClassifierConfig(channels=106, classes=8,
                                        conv_blocks=((32, 7), (32, 3)), recurrent_units=16))
    series = [rng.normal(0.0, 1.0, (106, 240)) for _ in range(16)]
    tracemalloc.start()
    try:
        predict_proba(model, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 106 * 240 * 8, f"peak {peak} bytes"


def test_predict_proba_rejects_non_finite_series():
    rng = np.random.default_rng(83)
    model = init_model(ClassifierConfig(**TOY))
    good = rng.normal(0.0, 1.0, (3, 5))
    for bad in (np.nan, np.inf, -np.inf):
        series = rng.normal(0.0, 1.0, (3, 7))
        series[2, 6] = bad
        with pytest.raises(NonFiniteInput, match="batch series 1 ") as caught:
            predict_proba(model, [good, series])
        assert caught.value.exit_code == DataError.exit_code
        with pytest.raises(NonFiniteInput, match="batch series 0 "):
            predict_proba(model, [series])


def test_non_finite_series_is_named_by_the_callers_index():
    rng = np.random.default_rng(84)
    data = separable_dataset(rng, n_per_class=3)
    config = ClassifierConfig(**{**TOY, "max_epochs": 1, "batch_size": 2})
    poisoned = [(s.copy(), y) for s, y in data]
    poisoned[5][0][0, 0] = np.nan
    with pytest.raises(NonFiniteInput, match=r"train_set\[5\] "):
        train(config, poisoned, data[:2])
    with pytest.raises(NonFiniteInput, match=r"val_set\[5\] "):
        train(config, data, poisoned)
    # series 5 is the second of the third chunk of two
    with pytest.raises(NonFiniteInput, match="batch series 5 "):
        predict_proba(init_model(config), [s for s, _ in poisoned])


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(82)
    data = separable_dataset(rng, n_per_class=2)
    config = ClassifierConfig(**{**TOY, "max_epochs": 2, "batch_size": 4})
    model, _ = train(config, data, data[:3])
    path = tmp_path / "model.npz"
    save_model(path, model, actions=["still", "wave", "jump"])
    back, actions = load_model(path)
    assert actions == ["still", "wave", "jump"]
    assert back.config == model.config
    for key in model.params:
        np.testing.assert_array_equal(back.params[key], model.params[key])
    for key in model.running:
        np.testing.assert_array_equal(back.running[key], model.running[key])
    series = [s for s, _ in data[:4]]
    np.testing.assert_array_equal(predict_proba(back, series),
                                  predict_proba(model, series))

    # a model names its classes: an archive without them is refused
    write_model_with_config(tmp_path / "anon.npz")
    with pytest.raises(ParseError, match="anon.npz: actions must list 3 distinct names"):
        load_model(tmp_path / "anon.npz")

    with open(tmp_path / "junk.npz", "wb") as fh:
        np.savez(fh, x=np.zeros(2))
    with pytest.raises(ParseError):
        load_model(tmp_path / "junk.npz")


def test_first_format_model_is_refused(tmp_path):
    rng = np.random.default_rng(83)
    data = separable_dataset(rng, n_per_class=2)
    config = ClassifierConfig(**{**TOY, "max_epochs": 2, "batch_size": 4})
    model, _ = train(config, data, data[:3])
    # The same network as a posehar-classifier/1 archive: a conv bias b per
    # block, and running means shifted by that b, so conv + b - mean is unchanged.
    arrays = {f"param/{key}": value for key, value in model.params.items()}
    arrays.update((f"running/{key}", value) for key, value in model.running.items())
    for i, (filters, _) in enumerate(config.conv_blocks):
        bias = rng.normal(0.0, 1.0, filters)
        arrays[f"param/conv{i}_b"] = bias
        arrays[f"running/bn{i}_mean"] = model.running[f"bn{i}_mean"] + bias
    meta = {"config": asdict(config), "actions": ["still", "wave", "jump"]}
    path = tmp_path / "first.npz"
    write_archive(path, "posehar-classifier/1", meta, arrays)
    with pytest.raises(ParseError, match="first.npz: format 'posehar-classifier/1' "
                                         "is not posehar-classifier/3$"):
        load_model(path)
    # Tagged as the current format, its conv biases are entries no layout holds.
    write_archive(path, clf.MODEL_FORMAT, meta, arrays)
    with pytest.raises(ParseError, match="first.npz: unexpected entries param/conv0_b, "
                                         "param/conv1_b$"):
        load_model(path)


def test_load_model_checks_entries_against_config(tmp_path):
    model = init_model(ClassifierConfig(**TOY))
    path = tmp_path / "model.npz"
    save_model(path, model, ["still", "wave", "jump"])
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    for key, change in (("param/out_w", lambda a: a[:-1]),       # wrong shape
                        ("running/bn0_var", None),               # missing entry
                        ("meta", lambda a: np.array("[1]"))):    # meta not an object
        edited = dict(arrays)
        if change is None:
            del edited[key]
        else:
            edited[key] = change(arrays[key])
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **edited)
        with pytest.raises(ParseError, match="bad.npz"):
            load_model(bad)
    for content in (b"garbage", b""):
        (tmp_path / "raw.npz").write_bytes(content)
        with pytest.raises(ParseError, match="raw.npz"):
            load_model(tmp_path / "raw.npz")


def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(channels=0, classes=2)
    with pytest.raises(ValueError):
        ClassifierConfig(channels=3, classes=1)
    with pytest.raises(ValueError):
        ClassifierConfig(channels=3, classes=2, conv_blocks=())
    with pytest.raises(ValueError):
        ClassifierConfig(channels=3, classes=2, dropout=1.0)
    config = ClassifierConfig(channels=3, classes=2)
    assert config.feature_dim == 64 + 32


@pytest.mark.parametrize("setting", [{"learning_rate": -0.01}, {"learning_rate": 0.0},
                                     {"learning_rate": float("nan")}, {"rng_seed": -1}])
def test_config_refuses_ascent_and_negative_seeds(setting):
    # a negative rate trains by gradient ascent and a zero rate not at all
    with pytest.raises(ValueError, match=next(iter(setting))):
        ClassifierConfig(channels=3, classes=2, **setting)


@pytest.mark.parametrize("setting", [
    {"conv_blocks": [[6, 3.7]]}, {"conv_blocks": [[True, "3"]]}, {"conv_blocks": [[6]]},
    {"conv_blocks": "63"}, {"batch_size": 2.5}, {"recurrent_units": True},
    {"attention": 1}, {"class_weighting": "yes"}, {"dropout": "0.1"},
    {"learning_rate": False},
], ids=["fractional width", "bool and string block", "block without width",
        "string blocks", "fractional batch_size", "bool units", "int attention",
        "string class_weighting", "string dropout", "bool learning_rate"])
def test_config_checks_field_types(setting):
    # int() once turned a width of 3.7 into 3 and [True, "3"] into (1, 3).
    # attention and class_weighting are deleted settings: any value of
    # theirs is an unexpected keyword.
    with pytest.raises(TypeError, match=next(iter(setting))):
        ClassifierConfig(channels=3, classes=2, **setting)


def test_config_stores_numpy_scalars_as_plain_ones():
    config = ClassifierConfig(channels=np.int64(3), classes=2,
                              conv_blocks=[(np.int32(4), 3)])
    assert type(config.channels) is int
    assert config.conv_blocks == ((4, 3),) and type(config.conv_blocks[0][0]) is int
    som = SomConfig(q=np.int64(2), m=np.int32(2))
    assert (type(som.q), type(som.m)) == (int, int)
    augment = AugmentConfig(z=np.int64(1), sigma=np.float32(0.1), flip=np.bool_(False))
    assert (type(augment.z), type(augment.sigma)) == (int, float) and augment.flip is False
    pipeline = PipelineConfig(som=som, pca_components=np.int64(2), seed=np.uint8(4),
                              classifier={"max_epochs": np.int64(2), "dropout": np.float32(0.5)})
    assert (type(pipeline.pca_components), type(pipeline.seed)) == (int, int)
    assert pipeline.classifier == {"max_epochs": 2, "dropout": 0.5}
    assert type(pipeline.classifier["max_epochs"]) is int


def write_model_with_config(path, **changes):
    """A toy model archive, without action names, whose meta config has
    ``changes`` applied."""
    model = init_model(ClassifierConfig(**TOY))
    arrays = {f"param/{key}": value for key, value in model.params.items()}
    arrays.update((f"running/{key}", value) for key, value in model.running.items())
    write_archive(path, clf.MODEL_FORMAT,
                  {"config": {**asdict(model.config), **changes}}, arrays)
    return path


@pytest.mark.parametrize("changes", [
    {"batch_size": 2.5},                          # once loaded, then failed in predict
    {"conv_blocks": [[4, 3.7], [3, 2]]},          # once loaded as a width-3 block
    {"attention": "no"},                          # a deleted setting
], ids=["fractional batch_size", "fractional conv width", "string attention"])
def test_load_model_refuses_a_config_field_of_the_wrong_type(tmp_path, changes):
    path = write_model_with_config(tmp_path / "model.npz", **changes)
    with pytest.raises(ParseError, match="model.npz: not a valid classifier model"):
        load_model(path)
