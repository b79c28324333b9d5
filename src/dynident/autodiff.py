"""Minimal reverse-mode automatic differentiation over dense arrays.

Tensors holding flat float64 buffers, a dozen differentiable operations,
topological-sort backpropagation, Glorot-initialized MLPs, bias-corrected
Adam and a finite-difference gradient check.  No general broadcasting, no
views, no higher-order gradients — every operation states exactly what
shapes it accepts.

The multiview identifier keeps its parameters as this module's tensors and
trains them with :func:`adam_step`, but computes its gradients in closed
form without the tape (see :mod:`dynident.multiview`); tests build the same
loss from these operations as the reference for those gradients.

Determinism: all computation is plain single-threaded numpy with a fixed
reduction order, so repeated runs from the same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .seeding import substream

_ACTIVATIONS = ("relu", "tanh")


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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise InvalidArgumentError(f"mul: shapes differ ({a.shape} vs {b.shape})")

    def vjp(g):
        return g * b.data, g * a.data

    return _node(a.view() * b.view(), (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _node(a.view() * c, (a,), vjp)


def square(a: Tensor) -> Tensor:
    def vjp(g):
        return (2.0 * g * a.data,)

    return _node(a.view() ** 2, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _node(np.where(mask.reshape(a.shape), a.view(), 0.0), (a,), vjp)


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


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def vjp(g):
        return (np.full(n, g[0] / n),)

    return _node(a.data.sum() / n, (a,), vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise InvalidArgumentError(f"reshape: cannot view {a.shape} as {shape}")

    def vjp(g):
        return (g,)

    return _node(a.view().reshape(shape), (a,), vjp)


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
    """Affine stack with a fixed activation between layers (none after the last).

    ``depth`` counts affine layers; weights[i] has shape (fan_in, fan_out).
    """

    weights: list
    biases: list
    activation: str

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise InvalidArgumentError(f"activation must be one of {_ACTIVATIONS}")
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

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]


def mlp_init(
    in_dim: int,
    out_dim: int,
    hidden_dim: int,
    depth: int,
    activation: str = "tanh",
    rng: Optional[np.random.Generator] = None,
) -> MlpParams:
    """Glorot-uniform weights (+/- sqrt(6 / (fan_in + fan_out))), zero biases."""
    if depth < 1:
        raise InvalidArgumentError("mlp_init: depth must be >= 1")
    if rng is None:
        rng = substream(0, "mlp-init")
    dims = [in_dim] + [hidden_dim] * (depth - 1) + [out_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return MlpParams(weights=weights, biases=biases, activation=activation)


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    """Apply the stack to a (batch, in_dim) tensor."""
    _check_2d(x, "mlp_forward")
    if x.shape[1] != params.in_dim:
        raise InvalidArgumentError(
            f"mlp_forward: input width {x.shape[1]} != expected {params.in_dim}"
        )
    act = relu if params.activation == "relu" else tanh
    h = x
    last = params.depth - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = add(matmul(h, w), b)
        if i != last:
            h = act(h)
    return h


def mlp_parameters(params: MlpParams) -> list[Tensor]:
    out = []
    for w, b in zip(params.weights, params.biases):
        out.extend((w, b))
    return out


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one buffer pair per parameter tensor."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    t: int
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(
    params: Sequence[Tensor],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        t=0,
        m=[np.zeros(p.data.size) for p in params],
        v=[np.zeros(p.data.size) for p in params],
    )


def adam_step(
    state: AdamState,
    params: Sequence[Tensor],
    grads: Optional[Sequence[np.ndarray]] = None,
) -> tuple[Sequence[Tensor], AdamState]:
    """One update in place; returns (params, state) for convenience.

    Every element gets m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / bias1) / (sqrt(v / bias2) + eps), with in-place
    operations in that order, so one tensor holding many parameters is
    updated exactly as those parameters would be one tensor each.
    """
    if grads is None:
        grads = [p.grad for p in params]
    if len(grads) != len(state.m):
        raise InvalidArgumentError("adam_step: parameter/moment count mismatch")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            raise InvalidArgumentError("adam_step: missing gradient (call backward first)")
        g = np.asarray(g, dtype=float)
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        denom = np.divide(v, bias2)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, bias1, out=step)
        step *= state.lr
        step /= denom
        p.data -= step
    return params, state


# ---------------------------------------------------------------------------
# Finite-difference gradient verification.
# ---------------------------------------------------------------------------


def gradient_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
    grads: Optional[Sequence[np.ndarray]] = None,
) -> float:
    """Max relative error between analytic gradients and central finite differences.

    ``loss_fn`` must rebuild the graph (deterministically) on every call and
    return a scalar tensor, whose backpropagation gives the analytic
    gradients.  Code that differentiates without the graph passes its
    gradients as ``grads`` (one array per parameter, in the order of
    ``params``); ``loss_fn`` may then return a plain float.  At most
    ``max_coords`` coordinates are probed, sampled uniformly without
    replacement across all parameters.  The relative error of a coordinate
    is |ad - fd| / max(|ad|, |fd|, 1e-6).
    """
    if grads is None:
        zero_grad(params)
        backward(loss_fn())
        analytic = [p.grad.copy() for p in params]
    else:
        if len(grads) != len(params):
            raise InvalidArgumentError("gradient_check: need one gradient per parameter")
        analytic = [np.asarray(g, dtype=float).reshape(-1) for g in grads]

    def value() -> float:
        loss = loss_fn()
        return loss.item() if isinstance(loss, Tensor) else float(loss)

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.data.size)]
    rng = substream(seed, "gradient-check")
    if len(coords) > max_coords:
        idx = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[k] for k in idx]

    worst = 0.0
    for i, j in coords:
        p = params[i]
        keep = p.data[j]
        p.data[j] = keep + h
        up = value()
        p.data[j] = keep - h
        down = value()
        p.data[j] = keep
        fd = (up - down) / (2.0 * h)
        ad = analytic[i][j]
        err = abs(ad - fd) / max(abs(ad), abs(fd), 1e-6)
        worst = max(worst, err)
    return worst
