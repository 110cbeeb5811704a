import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import global_norm, sub, take, zeros_like

from fldp.errors import StructureError
from fldp.models import (
    Batch,
    ModelKind,
    ModelSpec,
    _layernorm_forward,
    evaluate,
    finite_diff_grad,
    grad,
    init_params,
    logits,
    loss,
)

LINEAR = ModelSpec(ModelKind.LINEAR_SOFTMAX, input_dim=5, num_classes=4)
MLP = ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=5, num_classes=3, hidden_dim=6)
ATTN = ModelSpec(
    ModelKind.TINY_ATTENTION, input_dim=4, num_classes=3, hidden_dim=4, seq_len=3
)
ALL_SPECS = [LINEAR, MLP, ATTN]


def random_batch(spec, rng, n=8):
    if spec.kind == ModelKind.TINY_ATTENTION:
        x = rng.normal(size=(n, spec.seq_len, spec.input_dim))
    else:
        x = rng.normal(size=(n, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=n)
    return Batch(x, y)


def random_params(spec, rng):
    base = init_params(spec, seed=int(rng.integers(0, 2**31)))
    return base.with_flat(rng.normal(scale=0.5, size=base.layout.total))


def max_rel_error(a, b):
    worst = 0.0
    for (_, x), (_, y) in zip(a.items(), b.items()):
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-3)
        worst = max(worst, float(np.max(np.abs(x - y) / denom)))
    return worst


# -- init --------------------------------------------------------------------


def test_init_is_deterministic():
    for spec in ALL_SPECS:
        assert init_params(spec, 5) == init_params(spec, 5)


def test_init_layernorm_gains_are_ones_biases_zero():
    p = init_params(ATTN, 3)
    d = ATTN.hidden_dim
    for name in ("ln1", "ln2"):
        assert np.all(p[name][:d] == 1.0)
        assert np.all(p[name][d:] == 0.0)
    m = init_params(MLP, 3)
    assert np.all(m["ln"][: MLP.hidden_dim] == 1.0)


def test_init_differs_across_seeds():
    for spec in ALL_SPECS:
        a, b = init_params(spec, 1), init_params(spec, 2)
        assert any(
            not np.array_equal(x, y) for (_, x), (_, y) in zip(a.items(), b.items())
        )


def test_tiny_attention_exposes_figure_group_names():
    names = set(init_params(ATTN, 0).names)
    assert {"wqkv", "wf", "ln1", "w1", "w2", "ln2"} <= names


# -- loss ----------------------------------------------------------------------


def test_zero_params_give_uniform_softmax_loss():
    p = zeros_like(init_params(LINEAR, 0))
    rng = np.random.default_rng(0)
    b = random_batch(LINEAR, rng, n=11)
    assert loss(LINEAR, p, b) == pytest.approx(math.log(4), rel=1e-12)


def test_loss_invariant_under_duplicating_batch():
    rng = np.random.default_rng(1)
    for spec in ALL_SPECS:
        p = random_params(spec, rng)
        b = random_batch(spec, rng, n=6)
        doubled = Batch(
            np.concatenate([b.inputs, b.inputs]),
            np.concatenate([b.labels, b.labels]),
        )
        assert loss(spec, p, doubled) == pytest.approx(loss(spec, p, b), rel=1e-12)


def test_loss_permutation_invariant():
    rng = np.random.default_rng(2)
    for spec in ALL_SPECS:
        p = random_params(spec, rng)
        b = random_batch(spec, rng, n=9)
        perm = rng.permutation(b.size)
        assert loss(spec, p, take(b, perm)) == pytest.approx(
            loss(spec, p, b), rel=1e-12
        )
        g1, g2 = grad(spec, p, b), grad(spec, p, take(b, perm))
        assert max_rel_error(g1, g2) < 1e-10


def test_linear_softmax_loss_matches_scalar_reimplementation():
    rng = np.random.default_rng(3)
    p = random_params(LINEAR, rng)
    b = random_batch(LINEAR, rng, n=5)
    w = p["w"].reshape(LINEAR.num_classes, LINEAR.input_dim)
    total = 0.0
    for i in range(b.size):
        scores = [
            sum(w[c][j] * b.inputs[i][j] for j in range(LINEAR.input_dim)) + p["b"][c]
            for c in range(LINEAR.num_classes)
        ]
        z = sum(math.exp(s) for s in scores)
        total += -math.log(math.exp(scores[b.labels[i]]) / z)
    assert loss(LINEAR, p, b) == pytest.approx(total / b.size, rel=1e-12)


def test_loss_finite_and_shape_mismatch_raises():
    rng = np.random.default_rng(4)
    p = random_params(LINEAR, rng)
    b = random_batch(LINEAR, rng)
    assert math.isfinite(loss(LINEAR, p, b))
    bad = Batch(rng.normal(size=(4, LINEAR.input_dim + 1)), np.zeros(4, dtype=int))
    with pytest.raises(StructureError):
        loss(LINEAR, p, bad)
    with pytest.raises(StructureError):
        loss(MLP, p, b)  # params from another layout


def test_empty_batch_rejected():
    with pytest.raises(StructureError):
        Batch(np.zeros((0, 5)), np.zeros(0, dtype=int))


def test_label_out_of_range_rejected():
    rng = np.random.default_rng(5)
    p = random_params(LINEAR, rng)
    b = Batch(rng.normal(size=(2, 5)), np.array([0, 4]))
    with pytest.raises(StructureError, match="label out of range"):
        loss(LINEAR, p, b)


# -- grad ----------------------------------------------------------------------


def test_linear_softmax_grad_closed_form_at_zero():
    p = zeros_like(init_params(LINEAR, 0))
    rng = np.random.default_rng(6)
    b = random_batch(LINEAR, rng, n=7)
    g = grad(LINEAR, p, b)
    k, f = LINEAR.num_classes, LINEAR.input_dim
    probs = np.full((b.size, k), 1.0 / k)
    onehot = np.eye(k)[b.labels]
    expect_w = (probs - onehot).T @ b.inputs / b.size
    expect_b = (probs - onehot).mean(axis=0)
    np.testing.assert_allclose(g["w"].reshape(k, f), expect_w, atol=1e-14)
    np.testing.assert_allclose(g["b"], expect_b, atol=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_grad_matches_finite_differences(spec):
    # >= 20 random (params, batch) instances per kind; max relative error
    # against central differences below 1e-4.
    rng = np.random.default_rng(99)
    for _ in range(20):
        p = random_params(spec, rng)
        b = random_batch(spec, rng, n=int(rng.integers(2, 7)))
        g = grad(spec, p, b)
        fd = finite_diff_grad(spec, p, b, h=1e-5)
        assert max_rel_error(g, fd) < 1e-4


def test_finite_diff_close_to_analytic_at_small_params():
    rng = np.random.default_rng(8)
    base = init_params(LINEAR, 1)
    p = base.with_flat(rng.normal(scale=1e-2, size=base.layout.total))
    b = random_batch(LINEAR, rng, n=6)
    fd = finite_diff_grad(LINEAR, p, b, h=1e-5)
    g = grad(LINEAR, p, b)
    assert global_norm(sub(fd, g)) < 1e-6


def test_finite_diff_large_step_is_inaccurate_but_not_an_error():
    rng = np.random.default_rng(9)
    p = random_params(LINEAR, rng)
    b = random_batch(LINEAR, rng)
    coarse = finite_diff_grad(LINEAR, p, b, h=1.0)
    fine = finite_diff_grad(LINEAR, p, b, h=1e-5)
    assert global_norm(sub(coarse, fine)) > 0.0
    with pytest.raises(ValueError):
        finite_diff_grad(LINEAR, p, b, h=0.0)


def test_symmetric_problem_gives_symmetric_gradient():
    # Two mirrored examples with swapped labels: the bias gradient vanishes
    # and the weight rows are mirrored.
    spec = ModelSpec(ModelKind.LINEAR_SOFTMAX, input_dim=2, num_classes=2)
    p = zeros_like(init_params(spec, 0))
    b = Batch(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]))
    g = grad(spec, p, b)
    w = g["w"].reshape(2, 2)
    np.testing.assert_allclose(g["b"], 0.0, atol=1e-15)
    np.testing.assert_allclose(w[0], -w[1], atol=1e-15)


# -- helpers -------------------------------------------------------------------


def test_logits_and_accuracy_agree_with_loss_path():
    rng = np.random.default_rng(10)
    for spec in ALL_SPECS:
        p = random_params(spec, rng)
        b = random_batch(spec, rng, n=30)
        lg = logits(spec, p, b.inputs)
        assert lg.shape == (30, spec.num_classes)
        probe_loss, acc = evaluate(spec, p, b)
        assert 0.0 <= acc <= 1.0
        by_hand = float(np.mean(np.argmax(lg, axis=1) == b.labels))
        assert acc == by_hand
        assert probe_loss == loss(spec, p, b)
        # Cross-entropy computed by hand from the logits must equal loss().
        shifted = lg - lg.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        ce = float(np.mean(lse - shifted[np.arange(30), b.labels]))
        assert loss(spec, p, b) == pytest.approx(ce, rel=1e-12)


@st.composite
def layernorm_stacks(draw):
    """(C, B, n) or (C, B, S, n) pre-activations, some rows constant or offset."""
    seq = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 3))))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), *seq,
             draw(st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    z = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 50.0])), size=shape)
    rows = z.reshape(-1, shape[-1])
    for i in draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=3)):
        rows[i] = rows[i, 0]  # a constant row: zero variance
    for i in draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=3)):
        rows[i] += draw(st.sampled_from([1e4, -3e6, 1e9]))
    gain = rng.normal(size=(shape[0],) + (1,) * (len(shape) - 2) + shape[-1:])
    bias = rng.normal(size=gain.shape)
    return z, gain, bias, draw(st.sampled_from([1e-5, 1e-12, 0.5]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=layernorm_stacks())
def test_layernorm_forward_equals_var_form_bitwise(case):
    z, gain, bias, eps = case
    mu = z.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(z.var(axis=-1, keepdims=True) + eps)
    xhat = (z - mu) * inv
    out, (got_xhat, got_inv) = _layernorm_forward(z, gain, bias, eps)
    assert got_inv.tobytes() == inv.tobytes()
    assert got_xhat.tobytes() == xhat.tobytes()
    assert out.tobytes() == (gain * xhat + bias).tobytes()
