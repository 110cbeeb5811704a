import math

import numpy as np
import pytest

from fldp.errors import StructureError
from fldp.param_tree import (
    ParamTree,
    add,
    axpy,
    global_norm,
    layer_norms,
    scale,
    sub,
    tree_mean,
    zeros_like,
)


def random_tree(rng, num_layers=3, max_dim=17):
    layers = []
    for i in range(num_layers):
        dim = int(rng.integers(1, max_dim + 1))
        layers.append((f"layer{i}", rng.normal(size=dim)))
    return ParamTree(layers)


def flat_norm_oracle(tree):
    # Independent scalar loop over the flat concatenation.
    total = 0.0
    for _, arr in tree.items():
        for v in arr:
            total += float(v) * float(v)
    return math.sqrt(total)


def test_global_norm_345_triangle():
    t = ParamTree([("a", [3.0]), ("b", [4.0])])
    assert global_norm(t) == 5.0


def test_global_norm_zero_tree():
    t = ParamTree([("a", [0.0, 0.0]), ("b", [0.0])])
    assert global_norm(t) == 0.0


def test_global_norm_matches_flat_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        t = random_tree(rng)
        assert global_norm(t) == pytest.approx(flat_norm_oracle(t), rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e200])
def test_norms_survive_underflow_and_overflow_of_squares(scale):
    # The squares of these entries under- or overflow float64.
    t = ParamTree([("a", [3.0 * scale]), ("b", [4.0 * scale])])
    assert global_norm(t) == pytest.approx(5.0 * scale, rel=1e-15)
    norms = layer_norms(ParamTree([("a", [3.0 * scale, 4.0 * scale])]))
    assert norms["a"] == pytest.approx(5.0 * scale, rel=1e-15)


def test_layer_norms_simple():
    t = ParamTree([("a", [3.0, 4.0]), ("b", [0.0])])
    assert layer_norms(t) == {"a": 5.0, "b": 0.0}


def test_layer_norms_all_zero():
    t = ParamTree([("a", [0.0, 0.0]), ("b", [0.0, 0.0, 0.0])])
    assert all(v == 0.0 for v in layer_norms(t).values())


def test_layer_norms_matches_scalar_loop():
    rng = np.random.default_rng(7)
    t = random_tree(rng, num_layers=4)
    for name, arr in t.items():
        expected = math.sqrt(sum(float(v) ** 2 for v in arr))
        assert layer_norms(t)[name] == pytest.approx(expected, rel=1e-12)


def test_norm_decomposition_identity_fuzzed():
    # global_norm(t)^2 == sum of squared layer norms, relative 1e-12.
    rng = np.random.default_rng(1234)
    for _ in range(200):
        t = random_tree(rng, num_layers=int(rng.integers(1, 6)))
        lhs = global_norm(t) ** 2
        rhs = sum(v**2 for v in layer_norms(t).values())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_axpy_alpha_zero_copies_y():
    rng = np.random.default_rng(0)
    x, y = random_tree(rng), None
    y = x.replace(rng.normal(size=a.size) for a in x.arrays())
    assert axpy(0.0, x, y) == y


def test_axpy_identity_cases():
    rng = np.random.default_rng(1)
    x = random_tree(rng)
    zero = zeros_like(x)
    assert axpy(1.0, x, zero) == x
    assert axpy(-1.0, x, x) == zero


def test_axpy_exact_for_integers():
    x = ParamTree([("a", [1.0, 2.0, 3.0]), ("b", [4.0])])
    y = ParamTree([("a", [10.0, 20.0, 30.0]), ("b", [40.0])])
    out = axpy(2.0, x, y)
    assert out["a"].tolist() == [12.0, 24.0, 36.0]
    assert out["b"].tolist() == [48.0]


def test_axpy_rejects_non_congruent_naming_layer():
    x = ParamTree([("a", [1.0]), ("b", [2.0])])
    y = ParamTree([("a", [1.0]), ("c", [2.0])])
    with pytest.raises(StructureError, match="'b' vs 'c'"):
        axpy(1.0, x, y)
    z = ParamTree([("a", [1.0]), ("b", [2.0, 3.0])])
    with pytest.raises(StructureError, match="layer 'b' dim mismatch"):
        axpy(1.0, x, z)


def test_operations_preserve_congruence_and_inputs():
    rng = np.random.default_rng(3)
    x = random_tree(rng)
    y = x.replace(rng.normal(size=a.size) for a in x.arrays())
    x_before = [a.copy() for a in x.arrays()]
    for out in (axpy(2.5, x, y), add(x, y), sub(x, y), scale(-3.0, x)):
        assert out.congruent_with(x)
    for a, b in zip(x.arrays(), x_before):
        assert np.array_equal(a, b)


def test_arrays_are_read_only():
    t = ParamTree([("a", [1.0, 2.0])])
    with pytest.raises(ValueError):
        t["a"][0] = 9.0


def test_duplicate_layer_names_rejected():
    with pytest.raises(StructureError, match="duplicate"):
        ParamTree([("a", [1.0]), ("a", [2.0])])


def test_empty_layer_rejected():
    with pytest.raises(StructureError, match="empty"):
        ParamTree([("a", [])])


def test_json_round_trip_preserves_order_and_values():
    rng = np.random.default_rng(11)
    t = random_tree(rng, num_layers=5)
    back = ParamTree.from_json(t.to_json())
    assert back == t
    assert back.names == t.names


def test_tree_mean():
    a = ParamTree([("w", [1.0, 2.0])])
    b = ParamTree([("w", [3.0, 6.0])])
    assert tree_mean([a]) == a
    assert tree_mean([a, scale(-1.0, a)]) == zeros_like(a)
    m = tree_mean([b, b, b])
    assert m == b


def test_tree_mean_reduces_in_list_order():
    # 1 + 1e16 rounds to 1e16, so only the list order gives exactly 0.
    trees = [ParamTree([("w", [v])]) for v in (1.0, 1e16, -1e16)]
    assert tree_mean(trees)["w"][0] == 0.0
    assert tree_mean(trees[::-1])["w"][0] == 1.0 / 3.0
