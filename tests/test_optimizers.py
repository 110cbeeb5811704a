from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import layer_norms, sub, zeros_like

from fldp.errors import ConfigError, StructureError
from fldp.optimizers import (
    OptimizerHyper,
    OptimizerKind,
    Schedule,
    ScheduleKind,
    apply,
    init_state,
    lr_at,
)
from fldp.param_tree import ParamTree

ALL_KINDS = list(OptimizerKind)

# Exponential decay constants used throughout the published training curves:
# base 0.006, start 1000, rate 0.6, transition 500.
FIG2_SCHEDULE = Schedule(
    base_lr=0.006,
    kind=ScheduleKind.EXPONENTIAL_DECAY,
    decay_start=1000,
    decay_rate=0.6,
    transition_steps=500,
)


def tree_apply(state, params, grad, lr):
    """``apply`` on the trees' vectors; the new parameters come back as a tree."""
    new_params, new_state = apply(state, params.flat, grad.flat, lr)
    return ParamTree(new_params, params.layout), new_state


def small_tree(rng=None, scale=1.0):
    rng = rng or np.random.default_rng(0)
    return ParamTree(
        [("w", scale * rng.normal(size=6)), ("b", scale * rng.normal(size=2))]
    )


# -- schedules ----------------------------------------------------------------


def test_exponential_decay_before_start():
    assert lr_at(FIG2_SCHEDULE, 0) == 0.006
    assert lr_at(FIG2_SCHEDULE, 999) == 0.006


def test_exponential_decay_at_one_transition():
    assert lr_at(FIG2_SCHEDULE, 1500) == pytest.approx(0.006 * 0.6, rel=1e-12)


def test_exponential_decay_at_two_transitions():
    assert lr_at(FIG2_SCHEDULE, 2000) == pytest.approx(0.006 * 0.36, rel=1e-12)


def test_exponential_decay_continuous_exponent():
    assert lr_at(FIG2_SCHEDULE, 1250) == pytest.approx(0.006 * 0.6**0.5, rel=1e-12)


def test_step_decay_uses_floor():
    s = Schedule(0.1, ScheduleKind.STEP_DECAY, decay_start=10, decay_rate=0.5,
                 transition_steps=4)
    assert lr_at(s, 9) == 0.1
    assert lr_at(s, 13) == 0.1  # floor((13-10)/4) == 0
    assert lr_at(s, 14) == pytest.approx(0.05)
    assert lr_at(s, 21) == pytest.approx(0.025)


def test_schedule_non_increasing():
    for s in (
        FIG2_SCHEDULE,
        Schedule(0.1),
        Schedule(0.1, ScheduleKind.STEP_DECAY, 5, 0.7, 3),
    ):
        lrs = [lr_at(s, t) for t in range(0, 3000, 7)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(0.0)
    with pytest.raises(ConfigError):
        Schedule(0.1, ScheduleKind.EXPONENTIAL_DECAY, 0, 1.5, 10)


# -- optimizer basics ---------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_zero_gradient_is_a_no_op(kind):
    params = small_tree()
    state = init_state(kind, params.layout, OptimizerHyper())
    out, new_state = tree_apply(state, params, zeros_like(params), lr=0.1)
    assert out == params
    assert new_state.step_count == 1


def test_sgd_step_with_grad_equal_params():
    params = small_tree()
    state = init_state(OptimizerKind.SGD, params.layout, OptimizerHyper())
    out, _ = tree_apply(state, params, params, lr=0.1)
    for (_, p), (_, o) in zip(params.items(), out.items()):
        np.testing.assert_allclose(o, 0.9 * p, rtol=1e-15)


def test_adam_first_step_hand_computed():
    # scalar parameter, g=2, lr=0.01, betas (0.9, 0.999):
    # mhat = 2, vhat = 4, update = -0.01 * 2 / (2 + eps) ~ -0.01.
    params = ParamTree([("x", [1.0])])
    grad = ParamTree([("x", [2.0])])
    hyper = OptimizerHyper(epsilon=1e-8)
    state = init_state(OptimizerKind.ADAM, params.layout, hyper)
    out, _ = tree_apply(state, params, grad, lr=0.01)
    assert out["x"][0] == pytest.approx(1.0 - 0.01, rel=1e-8)


def test_adagrad_first_step():
    params = ParamTree([("x", [1.0])])
    grad = ParamTree([("x", [3.0])])
    state = init_state(OptimizerKind.ADAGRAD, params.layout, OptimizerHyper(epsilon=0.0))
    out, _ = tree_apply(state, params, grad, lr=0.5)
    # accumulator = 9, update = lr * 3 / 3 = lr
    assert out["x"][0] == pytest.approx(0.5)


def test_lamb_first_step_update_norm_is_lr_times_param_norm():
    rng = np.random.default_rng(7)
    params = small_tree(rng)
    grad = ParamTree(rng.normal(size=params.layout.total), params.layout)
    state = init_state(OptimizerKind.LAMB, params.layout, OptimizerHyper(epsilon=1e-12))
    lr = 0.02
    out, _ = tree_apply(state, params, grad, lr=lr)
    update_norms = layer_norms(sub(params, out))
    for name, pn in layer_norms(params).items():
        assert update_norms[name] == pytest.approx(lr * pn, rel=1e-6)


def test_lars_trust_ratio_scaling():
    params = ParamTree([("w", [3.0, 4.0])])  # norm 5
    grad = ParamTree([("w", [0.0, 2.0])])  # norm 2 -> ratio 2.5
    state = init_state(OptimizerKind.LARS, params.layout, OptimizerHyper())
    out, _ = tree_apply(state, params, grad, lr=0.1)
    np.testing.assert_allclose(out["w"], [3.0, 4.0 - 0.1 * 2.5 * 2.0], rtol=1e-15)


@pytest.mark.parametrize("kind", [OptimizerKind.LARS, OptimizerKind.LAMB])
def test_trust_ratio_guarded_to_one_on_zero_norms(kind):
    zero_params = ParamTree([("w", [0.0, 0.0])])
    grad = ParamTree([("w", [1.0, 0.0])])
    state = init_state(kind, zero_params.layout, OptimizerHyper())
    out, _ = tree_apply(state, zero_params, grad, lr=0.1)
    assert np.all(np.isfinite(out["w"]))
    assert not np.array_equal(out["w"], zero_params["w"])


def test_lamb_first_step_scale_equivariance_per_layer():
    # Multiplying one layer's gradient by c > 0 leaves that layer's
    # first-step update unchanged (trust normalization at zero moments).
    rng = np.random.default_rng(11)
    params = small_tree(rng)
    grad = ParamTree(rng.normal(size=params.layout.total), params.layout)
    scaled = ParamTree([("w", 100.0 * grad["w"]), ("b", grad["b"])])
    hyper = OptimizerHyper(epsilon=1e-15)
    state = init_state(OptimizerKind.LAMB, params.layout, hyper)
    out1, _ = tree_apply(state, params, grad, 0.05)
    out2, _ = tree_apply(state, params, scaled, 0.05)
    np.testing.assert_allclose(out1["w"], out2["w"], rtol=1e-9)
    np.testing.assert_allclose(out1["b"], out2["b"], rtol=1e-15)


def test_adam_update_magnitude_bounded():
    # |step| <= lr * (1 - beta1) / sqrt(1 - beta2) for bounded gradients.
    hyper = OptimizerHyper(beta1=0.9, beta2=0.999, epsilon=1e-8)
    bound = 0.01 * (1 - hyper.beta1) / np.sqrt(1 - hyper.beta2) * (1 + 1e-9)
    rng = np.random.default_rng(13)
    params = small_tree(rng)
    state = init_state(OptimizerKind.ADAM, params.layout, hyper)
    for _ in range(200):
        grad = ParamTree(rng.uniform(-10.0, 10.0, size=params.layout.total),
                         params.layout)
        new_params, state = tree_apply(state, params, grad, lr=0.01)
        step = sub(params, new_params)
        assert np.max(np.abs(step.flat)) <= bound
        params = new_params


def test_apply_is_pure_and_deterministic():
    rng = np.random.default_rng(17)
    params = small_tree(rng)
    grad = ParamTree(rng.normal(size=params.layout.total), params.layout)
    for kind in ALL_KINDS:
        state = init_state(kind, params.layout, OptimizerHyper())
        p0 = params.flat.copy()
        out1, s1 = tree_apply(state, params, grad, lr=0.03)
        out2, s2 = tree_apply(state, params, grad, lr=0.03)
        assert out1 == out2
        assert np.array_equal(s1.first_moment, s2.first_moment)
        assert np.array_equal(s1.second_moment, s2.second_moment)
        assert np.array_equal(params.flat, p0)


def test_step_count_increments_by_one():
    params = small_tree()
    state = init_state(OptimizerKind.ADAM, params.layout, OptimizerHyper())
    for expected in (1, 2, 3):
        params, state = tree_apply(state, params, zeros_like(params), lr=0.1)
        assert state.step_count == expected


@pytest.mark.parametrize("which", ["params", "grad"])
@pytest.mark.parametrize("size", [7, 9])
def test_apply_rejects_a_vector_off_the_layout(which, size):
    params = small_tree()
    state = init_state(OptimizerKind.ADAM, params.layout, OptimizerHyper())
    vectors = {"params": params.flat, "grad": np.zeros(params.layout.total)}
    vectors[which] = np.zeros(size)
    with pytest.raises(StructureError, match="layout of 8 values"):
        apply(state, vectors["params"], vectors["grad"], 0.1)
    assert state.step_count == 0


# -- the flat step against the per-layer reference -------------------------------


def _reference_trust_ratio(param_norm, update_norm, clip):
    if param_norm == 0.0 or update_norm == 0.0:
        return 1.0
    ratio = param_norm / update_norm
    if clip > 0.0:
        ratio = min(ratio, clip)
    return ratio


def reference_apply(state, params, grad, lr):
    """One optimizer step computed layer by layer, with scalar trust ratios."""
    h = state.hyper
    t = state.step_count + 1
    new_params, new_m, new_v = [], [], []
    for (name, p), (_, g), m, v in zip(
        params.items(), grad.items(),
        (state.first_moment[s] for s in state.layout.slices),
        (state.second_moment[s] for s in state.layout.slices),
    ):
        if state.kind == OptimizerKind.SGD:
            if h.momentum > 0.0:
                m = h.momentum * m + g
                step = m
            else:
                step = g
            new_params.append(p - lr * step)
        elif state.kind == OptimizerKind.ADAGRAD:
            v = v + g * g
            new_params.append(p - lr * g / (np.sqrt(v) + h.epsilon))
        elif state.kind == OptimizerKind.ADAM:
            m = h.beta1 * m + (1.0 - h.beta1) * g
            v = h.beta2 * v + (1.0 - h.beta2) * g * g
            mhat = m / (1.0 - h.beta1**t)
            vhat = v / (1.0 - h.beta2**t)
            new_params.append(p - lr * mhat / (np.sqrt(vhat) + h.epsilon))
        elif state.kind == OptimizerKind.LARS:
            direction = g + h.weight_decay * p if h.weight_decay > 0.0 else g
            ratio = _reference_trust_ratio(
                float(np.linalg.norm(p)), float(np.linalg.norm(direction)),
                h.trust_clip,
            )
            if h.momentum > 0.0:
                m = h.momentum * m + ratio * direction
                step = m
            else:
                step = ratio * direction
            new_params.append(p - lr * step)
        else:
            m = h.beta1 * m + (1.0 - h.beta1) * g
            v = h.beta2 * v + (1.0 - h.beta2) * g * g
            mhat = m / (1.0 - h.beta1**t)
            vhat = v / (1.0 - h.beta2**t)
            direction = mhat / (np.sqrt(vhat) + h.epsilon)
            if h.weight_decay > 0.0:
                direction = direction + h.weight_decay * p
            ratio = _reference_trust_ratio(
                float(np.linalg.norm(p)), float(np.linalg.norm(direction)),
                h.trust_clip,
            )
            new_params.append(p - lr * ratio * direction)
        new_m.append(m)
        new_v.append(v)

    def tree(arrays):
        return ParamTree(zip(params.names, arrays))

    return tree(new_params), replace(state, step_count=t, first_moment=tree(new_m).flat,
                                     second_moment=tree(new_v).flat)


_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@st.composite
def layer_values(draw, size):
    """A layer's values, all zero a quarter of the time."""
    if draw(st.integers(0, 3)) == 0:
        return [0.0] * size
    return draw(st.lists(_ENTRIES, min_size=size, max_size=size))


def _on_or_off(low, high):
    return st.one_of(st.just(0.0), st.floats(low, high))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(ALL_KINDS),
       sizes=st.lists(st.integers(1, 6), max_size=4),
       momentum=_on_or_off(0.1, 0.99), weight_decay=_on_or_off(1e-4, 0.5),
       trust_clip=_on_or_off(0.1, 5.0), lr=st.floats(1e-3, 1.0))
def test_apply_equals_per_layer_reference_bitwise(
        data, kind, sizes, momentum, weight_decay, trust_clip, lr):
    def draw_tree():
        return ParamTree((f"l{i}", data.draw(layer_values(size)))
                         for i, size in enumerate(sizes))

    params = draw_tree()
    hyper = OptimizerHyper(momentum=momentum, weight_decay=weight_decay,
                           trust_clip=trust_clip)
    state = want_state = init_state(kind, params.layout, hyper)
    want = params
    for _ in range(3):
        grad = draw_tree()
        params, state = tree_apply(state, params, grad, lr)
        want, want_state = reference_apply(want_state, want, grad, lr)
        for got, ref in ((params.flat, want.flat),
                         (state.first_moment, want_state.first_moment),
                         (state.second_moment, want_state.second_moment)):
            assert got.tobytes() == ref.tobytes()
        assert state.step_count == want_state.step_count
