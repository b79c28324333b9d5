"""Minimal reverse-mode automatic differentiation over dense arrays, plus
Adam and a gradient check on flat parameter buffers.

Tensors holding flat float64 buffers, the nine differentiable operations
that a tanh MLP and the multiview loss need, topological-sort
backpropagation and Glorot-initialized tanh MLPs.  No general
broadcasting, no views, no higher-order gradients — every operation states
exactly what shapes it accepts.  The tests build the multiview loss from
these operations as the reference for its closed-form gradients (see
:mod:`dynident.multiview`), which train the model's flat parameter buffer
with :func:`adam_step`.  No training, evaluation or file code runs the
tape.  It stays in the package, rather than beside the tests, only because
the traced benchmark run (``benchmarks/layers.py``) patches
:func:`mlp_forward` and :func:`backward` by name.

Determinism: all computation is plain single-threaded numpy with a fixed
reduction order, so repeated runs from the same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .seeding import substream


class Tensor:
    """A node in the computation graph.

    ``data`` is always a flat float64 buffer; ``shape`` carries the logical
    layout.  Gradients of the same flat layout accumulate in ``grad`` for
    leaves created with ``requires_grad=True``.
    """

    __slots__ = ("shape", "data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(
        self,
        values,
        requires_grad: bool = False,
        _parents: tuple = (),
        _vjp: Optional[Callable] = None,
    ):
        arr = np.asarray(values, dtype=float)
        self.shape = arr.shape
        self.data = arr.reshape(-1).copy() if _vjp is None else arr.reshape(-1)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._vjp = _vjp

    def view(self) -> np.ndarray:
        """The buffer reshaped to the logical shape (shares memory)."""
        return self.data.reshape(self.shape)

    def item(self) -> float:
        if self.data.size != 1:
            raise InvalidArgumentError("item() requires a single-element tensor")
        return float(self.data[0])


def _node(values: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    out = Tensor(values, requires_grad=needs, _parents=parents if needs else (), _vjp=vjp)
    return out


def _check_2d(t: Tensor, op: str) -> None:
    if len(t.shape) != 2:
        raise InvalidArgumentError(f"{op}: expected a 2-d tensor, got shape {t.shape}")


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(n, k) @ (k, m) -> (n, m)."""
    _check_2d(a, "matmul")
    _check_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise InvalidArgumentError(f"matmul: inner dimensions differ ({a.shape} @ {b.shape})")
    av, bv = a.view(), b.view()

    def vjp(g):
        gv = g.reshape(a.shape[0], b.shape[1])
        return (gv @ bv.T).reshape(-1), (av.T @ gv).reshape(-1)

    return _node(av @ bv, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a 1-d ``b`` broadcasts across the rows of a 2-d ``a``."""
    if a.shape == b.shape:
        def vjp(g):
            return g, g

        return _node(a.view() + b.view(), (a, b), vjp)
    if len(a.shape) == 2 and b.shape == (a.shape[1],):
        def vjp(g):
            return g, g.reshape(a.shape).sum(axis=0)

        return _node(a.view() + b.view()[None, :], (a, b), vjp)
    raise InvalidArgumentError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise InvalidArgumentError(f"sub: shapes differ ({a.shape} vs {b.shape})")

    def vjp(g):
        return g, -g

    return _node(a.view() - b.view(), (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _node(a.view() * c, (a,), vjp)


def square(a: Tensor) -> Tensor:
    def vjp(g):
        return (2.0 * g * a.data,)

    return _node(a.view() ** 2, (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.view())
    flat = out.reshape(-1)

    def vjp(g):
        return (g * (1.0 - flat**2),)

    return _node(out, (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.full(a.data.size, g[0]),)

    return _node(a.data.sum(), (a,), vjp)


def slice_cols(a: Tensor, cols: Sequence[int]) -> Tensor:
    """Select columns of a 2-d tensor; backward scatters into place."""
    _check_2d(a, "slice_cols")
    cols = np.asarray(cols, dtype=int)
    if cols.size == 0 or cols.min() < 0 or cols.max() >= a.shape[1]:
        raise InvalidArgumentError(f"slice_cols: column index out of range for shape {a.shape}")

    def vjp(g):
        full = np.zeros(a.shape)
        full[:, cols] = g.reshape(a.shape[0], cols.size)
        return (full.reshape(-1),)

    return _node(a.view()[:, cols], (a,), vjp)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Column-wise concatenation of two 2-d tensors with equal row counts."""
    _check_2d(a, "concat_cols")
    _check_2d(b, "concat_cols")
    if a.shape[0] != b.shape[0]:
        raise InvalidArgumentError("concat_cols: row counts differ")
    na = a.shape[1]

    def vjp(g):
        gv = g.reshape(a.shape[0], na + b.shape[1])
        return gv[:, :na].reshape(-1), gv[:, na:].reshape(-1)

    return _node(np.concatenate([a.view(), b.view()], axis=1), (a, b), vjp)


# ---------------------------------------------------------------------------
# Backpropagation.
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    ``loss`` must hold a single element.  Repeated calls keep accumulating;
    use :func:`zero_grad` between steps.  Leaves that do not participate in
    the graph are simply left untouched (their grads stay as zeroed).
    """
    if loss.data.size != 1:
        raise InvalidArgumentError("backward: loss must be a scalar tensor")
    if not loss.requires_grad:
        return

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones(1)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            # Leaf: accumulate into the public grad buffer.
            if node.grad is None:
                node.grad = np.zeros(node.data.size)
            node.grad += g
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p.requires_grad or pg is None:
                continue
            acc = grads.get(id(p))
            if acc is None:
                grads[id(p)] = pg.copy()
            else:
                acc += pg


def zero_grad(params: Sequence[Tensor]) -> None:
    """Reset (and materialize) the gradient buffers of ``params``."""
    for p in params:
        p.grad = np.zeros(p.data.size)


# ---------------------------------------------------------------------------
# MLP.
# ---------------------------------------------------------------------------


@dataclass
class MlpParams:
    """Affine stack with tanh between layers (none after the last).

    ``depth`` counts affine layers; weights[i] has shape (fan_in, fan_out).
    """

    weights: list
    biases: list

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise InvalidArgumentError("weights and biases must pair up")
        for w, b, w_next in zip(self.weights, self.biases, self.weights[1:] + [None]):
            if b.shape != (w.shape[1],):
                raise InvalidArgumentError("bias shape must match weight fan-out")
            if w_next is not None and w_next.shape[0] != w.shape[1]:
                raise InvalidArgumentError("consecutive layer shapes do not chain")

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]


def mlp_init(
    in_dim: int,
    out_dim: int,
    hidden_dim: int,
    depth: int,
    rng: np.random.Generator,
) -> MlpParams:
    """Glorot-uniform weights (+/- sqrt(6 / (fan_in + fan_out))), zero biases."""
    if depth < 1:
        raise InvalidArgumentError("mlp_init: depth must be >= 1")
    dims = [in_dim] + [hidden_dim] * (depth - 1) + [out_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return MlpParams(weights=weights, biases=biases)


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    """Apply the stack to a (batch, in_dim) tensor."""
    _check_2d(x, "mlp_forward")
    if x.shape[1] != params.in_dim:
        raise InvalidArgumentError(
            f"mlp_forward: input width {x.shape[1]} != expected {params.in_dim}"
        )
    h = x
    last = params.depth - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = add(matmul(h, w), b)
        if i != last:
            h = tanh(h)
    return h


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


#: Adam's moment decay rates and denominator offset (Kingma & Ba 2015 defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments of one flat parameter buffer."""

    lr: float
    t: int
    m: np.ndarray
    v: np.ndarray


def adam_init(params: np.ndarray, lr: float = 1e-3) -> AdamState:
    """Zero moments shaped like ``params``."""
    return AdamState(lr, 0, np.zeros_like(params), np.zeros_like(params))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One update of ``params`` in place, for the gradient ``grad``.

    Every element gets m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / bias1) / (sqrt(v / bias2) + eps), with in-place
    operations in that order, so one buffer holding many parameters is
    updated exactly as those parameters would be one buffer each.
    """
    grad = np.asarray(grad)
    if not grad.shape == params.shape == state.m.shape:
        raise InvalidArgumentError("adam_step: gradient, parameters and moments differ in shape")
    state.t += 1
    b1, b2 = _BETA1, _BETA2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    m, v = state.m, state.v
    step = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += step
    np.multiply(grad, 1.0 - b2, out=step)
    step *= grad
    v *= b2
    v += step
    denom = np.divide(v, bias2)
    np.sqrt(denom, out=denom)
    denom += _EPS
    np.divide(m, bias1, out=step)
    step *= state.lr
    step /= denom
    params -= step


# ---------------------------------------------------------------------------
# Finite-difference gradient verification.
# ---------------------------------------------------------------------------


def gradient_check(
    loss_fn: Callable[[], float],
    params: np.ndarray,
    grad: np.ndarray,
    h: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between an analytic gradient and central finite differences.

    ``loss_fn()`` returns the loss at the current values of the flat buffer
    ``params``, which is perturbed in place one coordinate at a time and
    restored; ``grad`` is the analytic gradient at the unperturbed values.
    At most ``max_coords`` coordinates are probed, sampled uniformly without
    replacement.  The relative error of a coordinate is
    |ad - fd| / max(|ad|, |fd|, 1e-6).
    """
    grad = np.asarray(grad)
    if params.ndim != 1 or grad.shape != params.shape:
        raise InvalidArgumentError("gradient_check: need a flat buffer and a gradient of its shape")
    coords = range(params.size)
    if params.size > max_coords:
        rng = substream(seed, "gradient-check")
        coords = rng.choice(params.size, size=max_coords, replace=False)

    worst = 0.0
    for j in coords:
        keep = params[j]
        params[j] = keep + h
        up = float(loss_fn())
        params[j] = keep - h
        down = float(loss_fn())
        params[j] = keep
        fd = (up - down) / (2.0 * h)
        ad = grad[j]
        worst = max(worst, abs(ad - fd) / max(abs(ad), abs(fd), 1e-6))
    return worst
