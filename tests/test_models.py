import math
from contextlib import contextmanager

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    finite_diff_grad,
    global_norm,
    grad,
    logits,
    loss,
    sub,
    take,
    zeros_like,
)
from simtools import linear_model, make_config, small_population

from fldp import models
from fldp.engine import run_simulation
from fldp.errors import StructureError
from fldp.models import (
    Batch,
    ModelKind,
    ModelSpec,
    _cross_entropy_grad,
    _layernorm_backward,
    _layernorm_forward,
    _max_last,
    _softmax,
    _sum_batch,
    _sum_last,
    check_inputs,
    evaluate,
    init_params,
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
    for spec in ALL_SPECS:
        batch = random_batch(spec, rng)
        check_inputs(spec, batch.inputs, batch.labels)
    with pytest.raises(StructureError, match=r"inputs must be \(batch, 5\)"):
        check_inputs(LINEAR, rng.normal(size=(4, LINEAR.input_dim + 1)))
    with pytest.raises(StructureError, match=r"inputs must be \(batch, 5\)"):
        check_inputs(MLP, rng.normal(size=(4, 1, MLP.input_dim)))
    s, f = ATTN.seq_len, ATTN.input_dim
    for shape in [(4, s + 1, f), (4, s, f + 1), (4, s * f), (1, 4, s, f)]:
        with pytest.raises(StructureError, match="tiny_attention inputs must be"):
            check_inputs(ATTN, rng.normal(size=shape))
    # A seed model from another layout is rejected before any round.
    _, population = small_population()
    other = ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=4, num_classes=3,
                      hidden_dim=2)
    cfg = make_config(population, num_rounds=1, seed_model=init_params(other, 0))
    with pytest.raises(StructureError, match="layer 0 name mismatch"):
        run_simulation(cfg, population, linear_model())


def test_empty_batch_rejected():
    with pytest.raises(StructureError):
        Batch(np.zeros((0, 5)), np.zeros(0, dtype=int))


def test_label_out_of_range_rejected():
    x = np.random.default_rng(5).normal(size=(2, 5))
    check_inputs(LINEAR, x, np.array([0, 3]))
    with pytest.raises(StructureError, match="label out of range"):
        check_inputs(LINEAR, x, np.array([0, 4]))


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


# -- short-axis reductions: the column forms are numpy's bits ----------------


@contextmanager
def forms(column):
    """Force the helpers' column forms on (cut-offs 0) or off (past any stack)."""
    cut = 0 if column else 10**12
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_SUM_ROWS_PER_COLUMN", "_MAX_ROWS_PER_COLUMN", "_BATCH_ROWS"):
            mp.setattr(models, name, cut)
        yield


def assert_same_bits(got, want):
    """Bitwise equal where numpy's result is a number; NaN where it is NaN.

    A NaN's sign and payload are not compared: numpy's max reduction returns
    a NaN of its own, and where NaNs of both signs meet in a sum (inf - inf
    makes a negative one) the sign follows the operand order that numpy's
    compiler chose.
    """
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


SPECIAL_VALUES = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]


@st.composite
def short_axis_stacks(draw, max_n):
    """(..., n) stacks: magnitudes 1e-8 to 1e8, some ±0, inf, NaN or 1e308 rows."""
    lead = draw(st.sampled_from([(1,), (5,), (2, 3), (2, 2, 3)]))
    shape = (*lead, draw(st.integers(1, max_n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    z = 10.0 ** rng.uniform(-8, 8, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    rows = z.reshape(-1, shape[-1])
    kind = draw(st.sampled_from(
        ["finite", "special", "signed zeros", "negative zero", "overflow"]))
    if kind == "special":
        mask = rng.random(rows.shape) < draw(st.sampled_from([0.05, 0.3]))
        rows[mask] = rng.choice(SPECIAL_VALUES, size=int(mask.sum()))
    elif kind == "signed zeros":
        rows[:] = rng.choice([-0.0, 0.0, -1.0], size=rows.shape)
    elif kind == "negative zero":
        rows[: draw(st.integers(1, rows.shape[0]))] = -0.0
    elif kind == "overflow":
        rows[0] = draw(st.sampled_from([1e308, -1e308]))
    return z


def both_forms(helper, z):
    with np.errstate(over="ignore", invalid="ignore"):
        with forms(column=True):
            column = helper(z)
        with forms(column=False):
            whole = helper(z)
    return column, whole


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(z=short_axis_stacks(max_n=130))
def test_sum_last_is_add_reduce_bitwise(z):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.add.reduce(z, axis=-1, keepdims=True)
    for got in both_forms(_sum_last, z):
        assert_same_bits(got, want)


def test_sum_last_of_negative_zeros_is_positive_zero():
    for n in (1, 7, 8, 9, 17):
        with forms(column=True):
            got = _sum_last(np.full((3, n), -0.0))
        assert got.tobytes() == np.zeros((3, 1)).tobytes()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(z=short_axis_stacks(max_n=12))
def test_max_last_is_max_bitwise(z):
    z.reshape(-1)[::7] = -math.nan  # NaNs of both signs, signed zeros above
    want = z.max(axis=-1, keepdims=True)
    for got in both_forms(_max_last, z):
        assert_same_bits(got, want)


def test_max_last_gives_numpy_sign_of_a_zero_maximum():
    # Past 8 columns numpy takes them in another order, and the sign of a
    # zero maximum would differ; the helper leaves those widths to numpy.
    rng = np.random.default_rng(9)
    for n in range(2, 34):
        z = rng.choice([-0.0, 0.0], size=(300, n))
        for got in both_forms(_max_last, z):
            assert got.tobytes() == z.max(axis=-1, keepdims=True).tobytes()


@st.composite
def batch_stacks(draw):
    """(C, B, n) and (C, B, S, n) stacks of the values of short_axis_stacks."""
    z = draw(short_axis_stacks(max_n=9))
    middle = draw(st.sampled_from([(1,), (4,), (13,), (3, 5), (8, 2)]))
    c = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = rng.choice(z.reshape(-1, z.shape[-1]), size=c * math.prod(middle))
    return rows.reshape(c, *middle, z.shape[-1])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(z=batch_stacks())
def test_sum_batch_is_middle_axes_sum_bitwise(z):
    with np.errstate(over="ignore", invalid="ignore"):
        want = z.sum(axis=tuple(range(1, z.ndim - 1)))
    for got in both_forms(_sum_batch, z):
        assert_same_bits(got, want)


def non_contiguous(z):
    """z's values in a stack whose axes are not in C order."""
    return np.asfortranarray(z), np.stack([z, z], axis=-1)[..., 0]


@pytest.mark.parametrize("shape", [(5, 12, 8), (3, 8, 2, 16)])
def test_helpers_on_non_contiguous_stacks(shape):
    z = np.random.default_rng(3).normal(size=shape)
    for view in non_contiguous(z):
        assert not view.flags.c_contiguous
        with forms(column=True):
            assert _sum_last(view).tobytes() == np.add.reduce(
                view, axis=-1, keepdims=True).tobytes()
            assert _max_last(view[..., :4]).tobytes() == view[..., :4].max(
                axis=-1, keepdims=True).tobytes()
            assert _sum_batch(view).tobytes() == view.sum(
                axis=tuple(range(1, view.ndim - 1))).tobytes()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_helpers_either_side_of_their_cut_offs(n):
    rng = np.random.default_rng(n)
    cuts = {
        _sum_last: models._SUM_ROWS_PER_COLUMN * n,
        _max_last: models._MAX_ROWS_PER_COLUMN * n,
        _sum_batch: models._BATCH_ROWS,
    }
    for helper, cut in cuts.items():
        for rows in (cut - 1, cut):
            z = rng.normal(size=(rows, 1, n))
            if helper is _sum_last:
                want = np.add.reduce(z, axis=-1, keepdims=True)
            elif helper is _max_last:
                want = z.max(axis=-1, keepdims=True)
            else:
                want = z.sum(axis=1)
            assert helper(z).tobytes() == want.tobytes()


# Kernel stacks of the paper's shape (clients, batch 12, width 8 or 4
# classes) and of the attention shape (clients, batch 8, sequence 8, width
# 16 or 8 scores), from one client to a paper cohort.
KERNEL_SHAPES = [(1025, 12, 8), (1025, 12, 4), (16, 12, 8), (1, 12, 4),
                 (32, 8, 8, 16), (32, 8, 8, 8), (4, 8, 8, 16), (1, 8, 8, 8)]


@st.composite
def kernel_stacks(draw):
    shape = draw(st.sampled_from(KERNEL_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    z = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 50.0])), size=shape)
    rows = z.reshape(-1, shape[-1])
    for i in draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=3)):
        rows[i] = draw(st.sampled_from([0.0, -0.0, 1e4, -3e6]))
    return z, rng


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=kernel_stacks())
def test_softmax_equals_reference_bitwise(case):
    z, _ = case
    assert _softmax(z).tobytes() == reference.softmax(z).tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=kernel_stacks(), padded=st.booleans())
def test_cross_entropy_grad_equals_reference_bitwise(case, padded):
    z, rng = case
    logits = z.reshape(-1, z.shape[-2], z.shape[-1])
    c, b, k = logits.shape
    labels = rng.integers(0, k, size=(c, b))
    if padded:
        valid = rng.random((c, b)) < 0.7
        count = np.maximum(valid.sum(axis=1), 1)[:, None, None]
    else:
        valid, count = None, b
    got = _cross_entropy_grad(logits, labels, count, valid)
    want = reference.cross_entropy_grad(logits, labels, count, valid)
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=kernel_stacks())
def test_layernorm_backward_equals_reference_bitwise(case):
    z, rng = case
    gain = rng.normal(size=(z.shape[0],) + (1,) * (z.ndim - 2) + z.shape[-1:])
    _, cache = _layernorm_forward(z, gain, rng.normal(size=gain.shape), 1e-5)
    dy = rng.normal(size=z.shape)
    out, t = np.empty((z.shape[0], 2 * z.shape[-1])), np.empty_like(dy)
    got = _layernorm_backward(dy.copy(), gain, cache, out, t)  # dz is written over dy
    want = reference.layernorm_backward(dy, gain, cache)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()

