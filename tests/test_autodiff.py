import numpy as np
import pytest

from dynident.autodiff import (
    AdamState,
    MlpParams,
    Tensor,
    adam_init,
    adam_step,
    add,
    backward,
    concat_cols,
    gradient_check,
    matmul,
    mean_all,
    mlp_forward,
    mlp_init,
    mlp_parameters,
    mul,
    relu,
    reshape,
    scale,
    slice_cols,
    square,
    sub,
    sum_all,
    tanh,
    zero_grad,
)
from dynident.errors import InvalidArgumentError
from dynident.seeding import substream


def _leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# Forward values against plain numpy.
# ---------------------------------------------------------------------------


def test_op_forward_values_match_numpy():
    rng = substream(11, "fwd")
    a = _leaf(rng, 4, 3)
    b = _leaf(rng, 3, 5)
    c = _leaf(rng, 4, 3)
    bias = _leaf(rng, 3)

    np.testing.assert_array_equal(matmul(a, b).view(), a.view() @ b.view())
    np.testing.assert_array_equal(add(a, c).view(), a.view() + c.view())
    np.testing.assert_array_equal(add(a, bias).view(), a.view() + bias.view())
    np.testing.assert_array_equal(sub(a, c).view(), a.view() - c.view())
    np.testing.assert_array_equal(mul(a, c).view(), a.view() * c.view())
    np.testing.assert_array_equal(scale(a, -2.5).view(), a.view() * -2.5)
    np.testing.assert_array_equal(square(a).view(), a.view() ** 2)
    np.testing.assert_array_equal(relu(a).view(), np.maximum(a.view(), 0.0))
    np.testing.assert_array_equal(tanh(a).view(), np.tanh(a.view()))
    assert sum_all(a).item() == pytest.approx(a.view().sum(), abs=1e-14)
    assert mean_all(a).item() == pytest.approx(a.view().mean(), abs=1e-14)
    np.testing.assert_array_equal(reshape(a, (2, 6)).view(), a.view().reshape(2, 6))
    np.testing.assert_array_equal(slice_cols(a, [2, 0]).view(), a.view()[:, [2, 0]])
    np.testing.assert_array_equal(
        concat_cols(a, c).view(), np.concatenate([a.view(), c.view()], axis=1)
    )


def test_shape_validation():
    rng = substream(12, "shapes")
    a = _leaf(rng, 4, 3)
    b = _leaf(rng, 4, 3)
    with pytest.raises(InvalidArgumentError):
        matmul(a, b)
    with pytest.raises(InvalidArgumentError):
        add(a, _leaf(rng, 4))  # bias must match the column count
    with pytest.raises(InvalidArgumentError):
        sub(a, _leaf(rng, 3, 4))
    with pytest.raises(InvalidArgumentError):
        reshape(a, (5, 2))
    with pytest.raises(InvalidArgumentError):
        slice_cols(a, [0, 3])
    with pytest.raises(InvalidArgumentError):
        concat_cols(a, _leaf(rng, 5, 3))


# ---------------------------------------------------------------------------
# Backward against central finite differences, op by op.
# ---------------------------------------------------------------------------


def _fd_check(build, params, tol=1e-7):
    """build() -> scalar Tensor; compares backprop to finite differences."""
    err = gradient_check(build, params, h=1e-6, max_coords=200, seed=5)
    assert err < tol, f"gradient mismatch: {err}"


def test_matmul_gradients():
    rng = substream(21, "g-matmul")
    a, b = _leaf(rng, 3, 4), _leaf(rng, 4, 2)
    _fd_check(lambda: sum_all(square(matmul(a, b))), [a, b])


def test_bias_add_gradients():
    rng = substream(22, "g-bias")
    a, bias = _leaf(rng, 5, 3), _leaf(rng, 3)
    _fd_check(lambda: sum_all(square(add(a, bias))), [a, bias])


def test_elementwise_gradients():
    rng = substream(23, "g-elem")
    a, b = _leaf(rng, 4, 4), _leaf(rng, 4, 4)
    _fd_check(lambda: sum_all(mul(a, b)), [a, b])
    _fd_check(lambda: sum_all(square(sub(a, b))), [a, b])
    _fd_check(lambda: mean_all(square(scale(a, 3.0))), [a])
    _fd_check(lambda: sum_all(square(tanh(a))), [a])


def test_relu_gradient_away_from_kink():
    rng = substream(24, "g-relu")
    vals = rng.standard_normal((6, 3))
    vals[np.abs(vals) < 0.05] = 0.5  # keep finite differences off the kink
    a = Tensor(vals, requires_grad=True)
    _fd_check(lambda: sum_all(square(relu(a))), [a])


def test_relu_subgradient_at_zero_is_zero():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    zero_grad([a])
    backward(sum_all(relu(a)))
    np.testing.assert_array_equal(a.grad, np.zeros(4))


def test_slice_concat_reshape_gradients():
    rng = substream(25, "g-slice")
    a, b = _leaf(rng, 4, 5), _leaf(rng, 4, 2)

    def build():
        joined = concat_cols(slice_cols(a, [1, 3, 4]), b)
        return sum_all(square(reshape(joined, (2, 10))))

    _fd_check(build, [a, b])


def test_shared_input_accumulates_both_paths():
    # mul(a, a) must produce d/da = 2a via accumulation across parents.
    a = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
    zero_grad([a])
    backward(sum_all(mul(a, a)))
    np.testing.assert_allclose(a.grad, 2.0 * a.data, rtol=0, atol=1e-15)


def test_diamond_graph_gradient():
    # y = sum((a + a)^2) = 4 sum(a^2): grad = 8a through two converging paths.
    a = Tensor([[0.5, -1.5]], requires_grad=True)
    zero_grad([a])
    backward(sum_all(square(add(a, a))))
    np.testing.assert_allclose(a.grad, 8.0 * a.data, rtol=0, atol=1e-14)


def test_backward_requires_scalar_loss():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(InvalidArgumentError):
        backward(square(a))


def test_backward_accumulates_until_zeroed():
    a = Tensor([2.0, 3.0], requires_grad=True)
    zero_grad([a])
    loss = sum_all(square(a))
    backward(loss)
    first = a.grad.copy()
    backward(sum_all(square(a)))
    np.testing.assert_allclose(a.grad, 2.0 * first, rtol=0, atol=0)
    zero_grad([a])
    np.testing.assert_array_equal(a.grad, np.zeros(2))


def test_untouched_leaf_keeps_zero_grad():
    a = Tensor([1.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    zero_grad([a, unused])
    backward(sum_all(square(a)))
    np.testing.assert_array_equal(unused.grad, np.zeros(1))


def test_constants_do_not_collect_gradients():
    a = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    zero_grad([a])
    backward(sum_all(mul(a, c)))
    np.testing.assert_allclose(a.grad, c.data, rtol=0, atol=0)
    assert c.grad is None


# ---------------------------------------------------------------------------
# MLP.
# ---------------------------------------------------------------------------


def _reference_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Straight-line numpy re-statement of the forward pass."""
    act = (lambda z: np.maximum(z, 0.0)) if params.activation == "relu" else np.tanh
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.view() + b.view()
        if i != params.depth - 1:
            h = act(h)
    return h


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_mlp_forward_matches_reference(activation):
    rng = substream(31, "mlp", activation)
    params = mlp_init(6, 2, 16, depth=3, activation=activation, rng=rng)
    x = rng.standard_normal((10, 6))
    got = mlp_forward(params, Tensor(x)).view()
    np.testing.assert_allclose(got, _reference_forward(params, x), rtol=0, atol=1e-12)


def test_mlp_depth_one_is_affine():
    rng = substream(32, "mlp-affine")
    params = mlp_init(3, 2, 99, depth=1, activation="tanh", rng=rng)
    assert params.depth == 1
    assert params.weights[0].shape == (3, 2)
    x = rng.standard_normal((7, 3))
    got = mlp_forward(params, Tensor(x)).view()
    np.testing.assert_allclose(
        got, x @ params.weights[0].view() + params.biases[0].view(), atol=1e-14
    )


def test_mlp_init_bounds_and_determinism():
    p1 = mlp_init(8, 3, 32, depth=2, rng=substream(7, "init"))
    p2 = mlp_init(8, 3, 32, depth=2, rng=substream(7, "init"))
    for w1, w2 in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(w1.data, w2.data)
    bound0 = np.sqrt(6.0 / (8 + 32))
    assert np.abs(p1.weights[0].data).max() <= bound0
    # With 256 uniform draws the maximum should land near the bound.
    assert np.abs(p1.weights[0].data).max() > 0.8 * bound0
    for b in p1.biases:
        np.testing.assert_array_equal(b.data, np.zeros(b.data.size))


def test_mlp_parameters_order_and_grads_flow():
    rng = substream(33, "mlp-grad")
    params = mlp_init(4, 2, 8, depth=3, activation="tanh", rng=rng)
    tensors = mlp_parameters(params)
    assert len(tensors) == 6
    x = Tensor(rng.standard_normal((12, 4)))
    target = Tensor(rng.standard_normal((12, 2)))

    def build():
        return mean_all(square(sub(mlp_forward(params, x), target)))

    err = gradient_check(build, tensors, h=1e-5, max_coords=200, seed=3)
    assert err < 1e-4


def test_mlp_validation():
    rng = substream(34, "mlp-bad")
    with pytest.raises(InvalidArgumentError):
        mlp_init(4, 2, 8, depth=0, rng=rng)
    with pytest.raises(InvalidArgumentError):
        mlp_init(4, 2, 8, depth=2, activation="sigmoid", rng=rng)
    params = mlp_init(4, 2, 8, depth=2, rng=rng)
    with pytest.raises(InvalidArgumentError):
        mlp_forward(params, Tensor(np.zeros((3, 5))))
    with pytest.raises(InvalidArgumentError):
        MlpParams(
            weights=[Tensor(np.zeros((4, 8))), Tensor(np.zeros((7, 2)))],
            biases=[Tensor(np.zeros(8)), Tensor(np.zeros(2))],
            activation="tanh",
        )


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


def test_adam_first_step_hand_oracle():
    # Scalar parameter, gradient 1, lr 0.1:
    #   m = 0.1, v = 0.001, m_hat = 1, v_hat = 1, step = -0.1 / (1 + 1e-8).
    w = Tensor([5.0], requires_grad=True)
    state = adam_init([w], lr=0.1)
    w.grad = np.array([1.0])
    adam_step(state, [w])
    expected = 5.0 - 0.1 / (1.0 + 1e-8)
    assert w.data[0] == pytest.approx(expected, abs=1e-15)
    assert state.t == 1


def test_adam_matches_reference_implementation():
    rng = substream(41, "adam-ref")
    w0 = rng.standard_normal(6)
    target = rng.standard_normal(6)

    w = Tensor(w0, requires_grad=True)
    state = adam_init([w], lr=0.05)
    for _ in range(25):
        zero_grad([w])
        backward(sum_all(square(sub(w, Tensor(target)))))
        adam_step(state, [w])

    # Independent textbook Adam on the same quadratic.
    ref, m, v = w0.copy(), np.zeros(6), np.zeros(6)
    for t in range(1, 26):
        g = 2.0 * (ref - target)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    np.testing.assert_allclose(w.data, ref, rtol=0, atol=1e-12)


def test_adam_one_flat_buffer_is_bit_identical_to_per_tensor():
    """In-place Adam on one concatenated buffer equals the textbook
    expression applied per tensor, bit for bit, for the same gradients."""
    rng = substream(43, "adam-flat")
    sizes = (6, 1, 70_000)
    values = [rng.standard_normal(n) for n in sizes]
    grads = [[rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3) for n in sizes]
             for _ in range(30)]

    flat = Tensor(np.concatenate(values), requires_grad=True)
    state = adam_init([flat], lr=3e-3)
    ref = [v.copy() for v in values]
    ms = [np.zeros(n) for n in sizes]
    vs = [np.zeros(n) for n in sizes]
    for t, gs in enumerate(grads, start=1):
        adam_step(state, [flat], [np.concatenate(gs)])
        for p, g, m, v in zip(ref, gs, ms, vs):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= 3e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    assert flat.data.tobytes() == np.concatenate(ref).tobytes()


def test_adam_converges_on_quadratic():
    w = Tensor(np.full(4, 10.0), requires_grad=True)
    state = adam_init([w], lr=0.5)
    for _ in range(400):
        zero_grad([w])
        backward(sum_all(square(w)))
        adam_step(state, [w])
    assert np.abs(w.data).max() < 1e-3


def test_adam_requires_gradients():
    w = Tensor([1.0], requires_grad=True)
    state = adam_init([w])
    w.grad = None
    with pytest.raises(InvalidArgumentError):
        adam_step(state, [w])


def test_adam_explicit_grads_override():
    w = Tensor([0.0], requires_grad=True)
    state = adam_init([w], lr=0.1)
    params, state = adam_step(state, [w], grads=[np.array([-1.0])])
    assert params[0].data[0] == pytest.approx(0.1 / (1.0 + 1e-8), abs=1e-15)
    assert isinstance(state, AdamState)


# ---------------------------------------------------------------------------
# gradient_check itself.
# ---------------------------------------------------------------------------


def test_gradient_check_passes_on_smooth_model():
    rng = substream(51, "gc-pass")
    params = mlp_init(5, 3, 12, depth=2, activation="tanh", rng=rng)
    x = Tensor(rng.standard_normal((8, 5)))

    def build():
        return mean_all(square(mlp_forward(params, x)))

    assert gradient_check(build, mlp_parameters(params)) < 1e-4


def test_gradient_check_flags_wrong_gradient():
    # A loss whose graph disagrees with the probe: perturbing the parameter
    # changes the loss, but the graph treats the input as a constant.
    w = Tensor([1.0], requires_grad=True)

    def build():
        return sum_all(square(Tensor(w.data * 2.0, requires_grad=True)))

    assert gradient_check(build, [w]) > 1e-2


def test_gradient_check_with_explicit_gradients():
    # Code that differentiates without the graph hands its gradients over.
    rng = substream(53, "gc-explicit")
    a = rng.standard_normal((5, 3))
    w = Tensor(rng.standard_normal(3), requires_grad=True)

    def loss():
        return float(np.sum((a @ w.data) ** 2))

    right = 2.0 * a.T @ (a @ w.data)
    assert gradient_check(loss, [w], grads=[right]) < 1e-6
    assert gradient_check(loss, [w], grads=[0.5 * right]) > 1e-2
    with pytest.raises(InvalidArgumentError):
        gradient_check(loss, [w], grads=[])


def test_gradient_check_respects_coordinate_cap():
    rng = substream(52, "gc-cap")
    params = mlp_init(30, 10, 64, depth=3, rng=rng)
    x = Tensor(rng.standard_normal((4, 30)))
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        return mean_all(square(mlp_forward(params, x)))

    gradient_check(build, mlp_parameters(params), max_coords=50, seed=9)
    # One analytic evaluation plus two per probed coordinate.
    assert calls["n"] == 1 + 2 * 50
