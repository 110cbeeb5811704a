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

from fldp import engine, models
from fldp.engine import run_simulation
from fldp.errors import ConfigError, StructureError
from fldp.models import (
    Batch,
    ModelKind,
    ModelSpec,
    Workspace,
    _cross_entropy_grad,
    _layernorm_backward,
    _layernorm_forward,
    _layers,
    _max_last,
    _softmax,
    _sum_last,
    _sum_leading,
    _views,
    check_inputs,
    evaluate,
    init_params,
)
from fldp.param_tree import ParamTree
from fldp.streams import generator

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
    return ParamTree(rng.normal(scale=0.5, size=base.layout.total), base.layout)


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


def init_by_hand(spec, seed):
    """The documented init, from a layer list written out here: (name,
    size, fan-in) for a weight, "ln" or "bias" in place of the fan-in for
    the others. Weights draw in layout order from the init stream."""
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    table = {
        ModelKind.LINEAR_SOFTMAX: [("w", k * f, f), ("b", k, "bias")],
        ModelKind.MLP_LAYERNORM: [
            ("w1", d * f, f), ("b1", d, "bias"), ("ln", 2 * d, "ln"),
            ("w2", k * d, d), ("b2", k, "bias")],
        ModelKind.TINY_ATTENTION: [
            ("win", d * f, f), ("ln1", 2 * d, "ln"), ("wqkv", 3 * d * d, d),
            ("wf", d * d, d), ("ln2", 2 * d, "ln"), ("w1", d * d, d),
            ("w2", d * d, d), ("wout", k * d, d), ("bout", k, "bias")],
    }[spec.kind]
    rng = generator(seed, 0xA11D)
    layers = []
    for name, size, rule in table:
        if rule == "bias":
            values = np.zeros(size)
        elif rule == "ln":
            values = np.array([1.0] * (size // 2) + [0.0] * (size // 2))
        else:
            values = rng.normal(size=size) / math.sqrt(rule)
        layers.append((name, values))
    return layers


INIT_SPECS = [
    ModelSpec(ModelKind.LINEAR_SOFTMAX, input_dim=1, num_classes=2),
    ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=1, num_classes=2, hidden_dim=1),
    ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=3, num_classes=2, hidden_dim=2),
    ModelSpec(ModelKind.TINY_ATTENTION, input_dim=1, num_classes=2, hidden_dim=1),
    ModelSpec(ModelKind.TINY_ATTENTION, input_dim=1, num_classes=2, hidden_dim=2,
              seq_len=3),
    *ALL_SPECS,
]


@pytest.mark.parametrize("spec", INIT_SPECS, ids=lambda s: (
    f"{s.kind.value}-f{s.input_dim}-k{s.num_classes}-d{s.hidden_dim}-s{s.seq_len}"))
@pytest.mark.parametrize("seed", [0, 12345])
def test_init_equals_the_documented_construction_bitwise(spec, seed):
    got = init_params(spec, seed)
    want = init_by_hand(spec, seed)
    assert got.names == tuple(name for name, _ in want)
    assert got.layout.sizes == tuple(values.size for _, values in want)
    assert got.flat.tobytes() == np.concatenate([v for _, v in want]).tobytes()


@st.composite
def model_specs(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    width = st.integers(1, 16)
    return ModelSpec(
        kind, input_dim=draw(width), num_classes=draw(st.integers(2, 16)),
        hidden_dim=0 if kind == ModelKind.LINEAR_SOFTMAX else draw(width),
        seq_len=draw(width) if kind == ModelKind.TINY_ATTENTION else 1)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=model_specs(), c=st.integers(1, 5))
def test_views_are_the_rows_layer_slices(spec, c):
    layout = spec.layout()
    rows = np.arange(c * layout.total, dtype=np.float64).reshape(c, -1)
    views = _views(spec, rows)
    assert len(views) == len(layout.names)
    for view, (_, shape, _), size in zip(views, _layers(spec), layout.sizes):
        assert view.shape == (c, *shape) and math.prod(shape) == size
        assert np.shares_memory(view, rows)
    flat = np.concatenate([view.reshape(c, -1) for view in views], axis=1)
    assert flat.tobytes() == rows.tobytes()
    # The kernels write each layer's gradient through its view.
    grad = Workspace().take("grad", rows.shape)
    for i, view in enumerate(_views(spec, grad)):
        view[...] = i
    for i, span in enumerate(layout.slices):
        assert np.all(grad[:, span] == i)


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
        perm = rng.permutation(b.labels.size)
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
    for i in range(b.labels.size):
        scores = [
            sum(w[c][j] * b.inputs[i][j] for j in range(LINEAR.input_dim)) + p["b"][c]
            for c in range(LINEAR.num_classes)
        ]
        z = sum(math.exp(s) for s in scores)
        total += -math.log(math.exp(scores[b.labels[i]]) / z)
    assert loss(LINEAR, p, b) == pytest.approx(total / b.labels.size, rel=1e-12)


def test_loss_finite_and_shape_mismatch_raises():
    rng = np.random.default_rng(4)
    p = random_params(LINEAR, rng)
    b = random_batch(LINEAR, rng)
    assert math.isfinite(loss(LINEAR, p, b))
    for spec in ALL_SPECS:
        batch = random_batch(spec, rng)
        check_inputs(spec, batch.inputs)
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


@pytest.mark.parametrize("model_classes", [2, 4])
def test_class_count_mismatch_rejected_before_round_one(model_classes, monkeypatch):
    # The partition holds its labels below its own num_classes; this check
    # is what ties them to the model's.
    _, population = small_population(num_classes=3)
    monkeypatch.setattr(engine, "train_cohort",
                        lambda *args: pytest.fail("trained a round"))
    with pytest.raises(ConfigError, match="disagree on num_classes"):
        run_simulation(make_config(population, num_rounds=1), population,
                       linear_model(num_classes=model_classes))


# -- grad ----------------------------------------------------------------------


def test_linear_softmax_grad_closed_form_at_zero():
    p = zeros_like(init_params(LINEAR, 0))
    rng = np.random.default_rng(6)
    b = random_batch(LINEAR, rng, n=7)
    g = grad(LINEAR, p, b)
    k, f = LINEAR.num_classes, LINEAR.input_dim
    probs = np.full((b.labels.size, k), 1.0 / k)
    onehot = np.eye(k)[b.labels]
    expect_w = (probs - onehot).T @ b.inputs / b.labels.size
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
    p = ParamTree(rng.normal(scale=1e-2, size=base.layout.total), base.layout)
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
        probe_loss, acc = evaluate(spec, p.flat, b, Workspace())
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
    """(B, C, n) or (B, S, C, n) pre-activations, some rows constant or offset."""
    seq = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 3))))
    shape = (draw(st.integers(1, 4)), *seq, draw(st.integers(1, 3)),
             draw(st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    z = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 50.0])), size=shape)
    rows = z.reshape(-1, shape[-1])
    for i in draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=3)):
        rows[i] = rows[i, 0]  # a constant row: zero variance
    for i in draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=3)):
        rows[i] += draw(st.sampled_from([1e4, -3e6, 1e9]))
    gain = rng.normal(size=shape[-2:])  # per client, as the kernels copy them
    bias = rng.normal(size=gain.shape)
    return z, gain, bias, draw(st.sampled_from([1e-5, 1e-12, 0.5]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=layernorm_stacks())
def test_layernorm_forward_equals_var_form_bitwise(case):
    z, gain, bias, eps = case
    mu = z.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(z.var(axis=-1, keepdims=True) + eps)
    xhat = (z - mu) * inv
    out, (got_xhat, got_inv) = _layernorm_forward(z, gain, bias, eps, Workspace(), "ln")
    assert got_inv.tobytes() == inv.tobytes()
    assert got_xhat.tobytes() == xhat.tobytes()
    assert out.tobytes() == (gain * xhat + bias).tobytes()


# -- short-axis reductions: the column forms are numpy's bits ----------------


@contextmanager
def forms(column):
    """Force the helpers' column forms on (cut-offs 0) or off (past any stack)."""
    cut = 0 if column else 10**12
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_SUM_ROWS_PER_COLUMN", "_MAX_ROWS_PER_COLUMN"):
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
    """Batch-major (B, C, n) and (B, S, C, n) stacks of the values of
    short_axis_stacks."""
    z = draw(short_axis_stacks(max_n=9))
    lead = draw(st.sampled_from([(1,), (4,), (13,), (5, 3), (2, 8)]))
    c = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = rng.choice(z.reshape(-1, z.shape[-1]), size=c * math.prod(lead))
    return rows.reshape(*lead, c, z.shape[-1])


def client_first_sum(z):
    """Each client's sum as numpy sums a client-first stack, over its middle axes."""
    first = np.ascontiguousarray(np.moveaxis(z, -2, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        return first.sum(axis=tuple(range(1, first.ndim - 1)))


def sum_leading(z):
    """_sum_leading into the columns of a wider array, as into gradient rows."""
    c, n = z.shape[-2:]
    grad = np.full((c, n + 3), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _sum_leading(z, grad[:, 1 : n + 1], Workspace())
    assert np.shares_memory(got, grad)
    assert np.isnan(grad[:, 0]).all() and np.isnan(grad[:, n + 1 :]).all()
    return got


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(z=batch_stacks())
def test_sum_leading_is_the_client_first_sum_bitwise(z):
    # Sequential over a client's rows for n >= 2, pairwise along its
    # contiguous run for n == 1, as numpy sums the client-first stack.
    assert_same_bits(sum_leading(z), client_first_sum(z))


@pytest.mark.parametrize("lead", [(12,), (8, 8), (512,)])
@pytest.mark.parametrize("c", [1, 2, 32])
def test_sum_leading_of_a_one_wide_stack_is_pairwise_per_client(lead, c):
    # numpy's reduction of a (..., C, 1) stack over its leading axes adds
    # the rows in sequence when C > 1 and pairwise when C == 1; the helper
    # gives every client the pairwise sum of its client-first run.
    z = np.random.default_rng(c).normal(size=(*lead, c, 1))
    want = client_first_sum(z)
    got = sum_leading(z)
    assert got.tobytes() == want.tobytes()
    for j in range(c):
        assert got[j].tobytes() == sum_leading(z[..., j : j + 1, :])[0].tobytes()


def non_contiguous(z):
    """z's values in a stack whose axes are not in C order."""
    return np.asfortranarray(z), np.stack([z, z], axis=-1)[..., 0]


@pytest.mark.parametrize("shape", [(12, 5, 8), (8, 2, 3, 16)])
def test_helpers_on_non_contiguous_stacks(shape):
    z = np.random.default_rng(3).normal(size=shape)
    for view in non_contiguous(z):
        assert not view.flags.c_contiguous
        with forms(column=True):
            assert _sum_last(view).tobytes() == np.add.reduce(
                view, axis=-1, keepdims=True).tobytes()
            assert _max_last(view[..., :4]).tobytes() == view[..., :4].max(
                axis=-1, keepdims=True).tobytes()
        # Off C order the rows need not be summed in sequence; the helper
        # is then numpy's reduction over the leading axis.
        want = np.add.reduce(view.reshape(-1, *view.shape[-2:]), axis=0)
        assert sum_leading(view).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_helpers_either_side_of_their_cut_offs(n):
    rng = np.random.default_rng(n)
    cuts = {
        _sum_last: models._SUM_ROWS_PER_COLUMN * n,
        _max_last: models._MAX_ROWS_PER_COLUMN * n,
    }
    for helper, cut in cuts.items():
        for rows in (cut - 1, cut):
            z = rng.normal(size=(rows, 1, n))
            if helper is _sum_last:
                want = np.add.reduce(z, axis=-1, keepdims=True)
            else:
                want = z.max(axis=-1, keepdims=True)
            assert helper(z).tobytes() == want.tobytes()


# Batch-major kernel stacks of the paper's shape (batch 12, clients, width 8
# or 4 classes) and of the attention shape (batch 8, sequence 8, clients,
# width 16 or 8 scores), from one client to a paper cohort.
KERNEL_SHAPES = [(12, 1025, 8), (12, 1025, 4), (12, 16, 8), (12, 1, 4),
                 (8, 8, 32, 16), (8, 8, 32, 8), (8, 8, 4, 16), (8, 8, 1, 8)]


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
    got = z.copy()  # in place, as the attention kernel calls it
    assert _softmax(got, out=got).tobytes() == reference.softmax(z).tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=kernel_stacks(), padded=st.booleans())
def test_cross_entropy_grad_equals_reference_bitwise(case, padded):
    z, rng = case
    logits = z.reshape(-1, z.shape[-2], z.shape[-1])
    b, c, k = logits.shape
    labels = rng.integers(0, k, size=(b, c))
    if padded:
        valid = rng.random((b, c)) < 0.7
        count = np.maximum(valid.sum(axis=0), 1)[:, None]
    else:
        valid, count = np.ones((b, c), dtype=bool), b
    got = logits.copy()  # in place, as cohort_grad calls it
    _cross_entropy_grad(got, labels, count, valid, out=got)
    want = reference.cross_entropy_grad(logits, labels, count, valid)
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=kernel_stacks())
def test_cross_entropy_grad_float_masks_equal_bool_and_int_masks_bitwise(case):
    # The engine hands the kernel float64 counts and 0/1 weights; they must
    # give the bits of the integer counts and the bool mask they stand for.
    z, rng = case
    logits = z.reshape(-1, z.shape[-2], z.shape[-1])
    b, c, k = logits.shape
    labels = rng.integers(0, k, size=(b, c))
    valid = rng.random((b, c)) < 0.7
    count = np.maximum(valid.sum(axis=0), 1)[:, None]
    assert count.dtype == np.int64
    got, want = logits.copy(), logits.copy()
    _cross_entropy_grad(got, labels, count.astype(np.float64),
                        valid.astype(np.float64), out=got)
    _cross_entropy_grad(want, labels, count, valid, out=want)
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=kernel_stacks())
def test_layernorm_backward_equals_reference_bitwise(case):
    z, rng = case
    gain = rng.normal(size=z.shape[-2:])
    ws, n = Workspace(), z.shape[-1]
    _, cache = _layernorm_forward(z, gain, rng.normal(size=gain.shape), 1e-5, ws, "ln")
    dy = rng.normal(size=z.shape)
    out, t = np.empty((z.shape[-2], 2, n)), np.empty_like(dy)
    dz = _layernorm_backward(dy.copy(), gain, cache, out, t, ws)  # written over dy
    want = reference.layernorm_backward(dy, gain, cache)
    for g, w in zip((dz, out[:, 0], out[:, 1]), want):
        assert g.tobytes() == w.tobytes()

