"""Partial identification of shared parameters from paired trajectory views.

The setting: several "views" of the same underlying experiment, where a
declared subset S of the system parameters is common to all views while the
remaining parameters and the initial condition vary per view.  An encoder
per view maps a compressed trajectory to a latent vector that is split into
contiguous blocks; the first block is the *shared* one.  Training combines

  * a sufficiency term — each view's trajectory must be reconstructable
    from its own full latent (plus a short initial-state stub), and
  * an alignment term — the shared blocks of paired views must agree.

Minimising ``reg_align * alignment + sufficiency`` pushes the cross-view
information (exactly the shared parameters) into the shared block, while
view-specific nuisance (private parameters, initial conditions) is squeezed
into the remaining blocks by capacity pressure.

Trajectories are compressed with an orthonormal DCT, keeping the lower half
of the coefficients, before encoding; all encoder/decoder inputs and targets
are standardized with statistics frozen at model-building time.  Two decoder
styles are available: ``direct`` (an MLP emits the whole standardized
trajectory) and ``field`` (an MLP is a latent-conditioned vector field rolled
out with RK4, one step per grid interval).  Every hidden layer is tanh.

Every encoder and decoder parameter lives in one flat buffer, the model's
``params``; per-layer views of it stack the views' networks, so that one
batched matmul serves every view.  Training uses no autodiff tape.  The
loss and its gradient are written out in closed form, the gradient into a
buffer of the same layout, and Adam updates ``params`` in place.  For the
field decoder, the gradient comes from a hand-written reverse pass through
the four RK4 stages of each step.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .archive import (
    _DATASET_KIND,
    _MODEL_KIND,
    _PREP_FIELDS,
    _grid_from_record,
    _grid_record,
    _read_archive,
    _write_archive,
)
from .errors import (
    ConfigError,
    FileFormatError,
    InvalidArgumentError,
    NumericDomainError,
    TrainingDivergedError,
    require_int,
)
from .seeding import substream
from .solver import TimeGrid, dct_truncate, integrate_batch
from .systems import OdeSystem, get_system

_STD_FLOOR = 1e-8
#: The share of each channel's DCT coefficients that the encoder sees.
_KEEP_FRACTION = 0.5


# ---------------------------------------------------------------------------
# Latent layout.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionLayout:
    """Contiguous latent blocks; block 0 is the shared one."""

    block_sizes: tuple

    def __post_init__(self):
        sizes = tuple(require_int(s, "block_sizes") for s in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidArgumentError("block_sizes: need at least two blocks of positive size")

    @property
    def latent_dim(self) -> int:
        return sum(self.block_sizes)

    def block_indices(self, b: int) -> np.ndarray:
        if not 0 <= b < len(self.block_sizes):
            raise InvalidArgumentError("PartitionLayout: block index out of range")
        start = sum(self.block_sizes[:b])
        return np.arange(start, start + self.block_sizes[b])

    @property
    def shared_indices(self) -> np.ndarray:
        return np.arange(self.block_sizes[0])

    @property
    def private_indices(self) -> np.ndarray:
        return np.arange(self.block_sizes[0], self.latent_dim)


# ---------------------------------------------------------------------------
# Synthetic paired-view datasets.
# ---------------------------------------------------------------------------


@dataclass
class MultiviewDataset:
    """Paired trajectories with a known shared-parameter split (for scoring)."""

    system_id: str
    shared_param_indices: tuple
    grid: TimeGrid
    states: np.ndarray  # (n_views, n_pairs, T, d)
    thetas: np.ndarray  # (n_views, n_pairs, N)
    x0s: np.ndarray  # (n_views, n_pairs, d)
    labels: Optional[np.ndarray] = None  # (n_pairs,) int class ids, when discrete

    def __post_init__(self):
        self.shared_param_indices = tuple(
            require_int(i, "shared_param_indices") for i in self.shared_param_indices
        )
        if self.states.ndim != 4:
            raise InvalidArgumentError("MultiviewDataset: states must be 4-d")
        v, n, t, d = self.states.shape
        if self.thetas.ndim != 3 or self.thetas.shape[:2] != (v, n) or self.x0s.shape != (v, n, d):
            raise InvalidArgumentError("MultiviewDataset: array shapes disagree")
        if not all(0 <= i < self.thetas.shape[2] for i in self.shared_param_indices):
            raise InvalidArgumentError(
                f"MultiviewDataset: shared_param_indices {self.shared_param_indices} "
                f"out of range for {self.thetas.shape[2]} parameters"
            )
        if t != self.grid.n_points:
            raise InvalidArgumentError("MultiviewDataset: grid length mismatch")
        if self.labels is not None and self.labels.shape != (n,):
            raise InvalidArgumentError("MultiviewDataset: labels shape mismatch")

    @property
    def n_views(self) -> int:
        return self.states.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.states.shape[1]

    @property
    def theta_shared(self) -> np.ndarray:
        """(n_pairs, |S|) — identical across views by construction."""
        return self.thetas[0][:, list(self.shared_param_indices)]

    def theta_private(self, view: int) -> np.ndarray:
        keep = [
            j
            for j in range(self.thetas.shape[2])
            if j not in self.shared_param_indices
        ]
        return self.thetas[view][:, keep]


def _shared_index_set(indices, system: OdeSystem, where: str) -> tuple:
    """S as a sorted tuple: non-empty, distinct integers in range for
    ``system``, and not every parameter; else :class:`InvalidArgumentError`."""
    shared = tuple(sorted(require_int(i, "shared_param_indices") for i in indices))
    if len(shared) == 0 or len(set(shared)) != len(shared):
        raise InvalidArgumentError(f"{where}: bad shared index set")
    if shared[0] < 0 or shared[-1] >= system.param_dim:
        raise InvalidArgumentError(
            f"{where}: shared index out of range "
            f"for {system.id} with {system.param_dim} parameters"
        )
    if len(shared) == system.param_dim:
        raise InvalidArgumentError(
            f"{where}: S covers every parameter — views would "
            "be copies with nothing view-specific to disentangle"
        )
    return shared


def generate_multiview_dataset(
    system_id: str,
    n_pairs: int,
    seed: int,
    shared_param_indices: Sequence[int],
    *,
    n_views: int = 2,
    grid_points: int = 50,
    t_max: Optional[float] = None,
    x0_jitter: float = 0.1,
    shared_prototypes: Optional[np.ndarray] = None,
) -> MultiviewDataset:
    """Sample paired experiments that agree on the parameters in S.

    Per pair: one draw of theta_S (shared by every view) and, per view, an
    independent draw of the remaining parameters plus a multiplicatively
    jittered initial condition ``x0 * (1 + U(-x0_jitter, x0_jitter))``.
    Divergent rows are redrawn (private coordinates and initial condition
    only) a bounded number of times.

    ``shared_prototypes`` — a finite (K, |S|) array — switches theta_S from uniform
    box draws to uniformly sampled rows of the array; the chosen row index is
    recorded in ``labels`` for downstream classification probes.
    """
    system = get_system(system_id)
    if n_pairs < 1:
        raise InvalidArgumentError("generate_multiview_dataset: n_pairs must be >= 1")
    if n_views < 2:
        raise InvalidArgumentError("generate_multiview_dataset: need at least 2 views")
    shared = _shared_index_set(shared_param_indices, system, "generate_multiview_dataset")
    if not 0.0 <= x0_jitter < 1.0:
        raise InvalidArgumentError("generate_multiview_dataset: x0_jitter must be in [0, 1)")

    grid = TimeGrid.uniform(
        0.0, system.t_max if t_max is None else float(t_max), grid_points
    )
    lo, hi = system.param_lo, system.param_hi

    labels = None
    rng_shared = substream(seed, "mv-shared", system_id)
    if shared_prototypes is None:
        theta_shared = rng_shared.uniform(
            lo[list(shared)], hi[list(shared)], size=(n_pairs, len(shared))
        )
    else:
        protos = np.asarray(shared_prototypes, dtype=float)
        if protos.ndim != 2 or protos.shape[1] != len(shared) or not np.all(np.isfinite(protos)):
            raise InvalidArgumentError(
                "generate_multiview_dataset: shared_prototypes must be a finite (K, |S|) array"
            )
        labels = rng_shared.integers(0, protos.shape[0], size=n_pairs)
        theta_shared = protos[labels]

    private = [j for j in range(system.param_dim) if j not in shared]
    states = np.empty((n_views, n_pairs, grid.n_points, system.state_dim))
    thetas = np.empty((n_views, n_pairs, system.param_dim))
    x0s = np.empty((n_views, n_pairs, system.state_dim))

    for v in range(n_views):
        rng_priv = substream(seed, "mv-private", system_id, v)
        rng_x0 = substream(seed, "mv-x0", system_id, v)

        def draw_rows(n):
            th = np.empty((n, system.param_dim))
            if private:
                th[:, private] = rng_priv.uniform(
                    lo[private], hi[private], size=(n, len(private))
                )
            jit = rng_x0.uniform(-x0_jitter, x0_jitter, size=(n, system.state_dim))
            return th, system.x0 * (1.0 + jit)

        th_v, x0_v = draw_rows(n_pairs)
        th_v[:, list(shared)] = theta_shared
        st_v, _, ok, _ = integrate_batch(system, th_v, x0_v, grid)

        attempts = 0
        while not np.all(ok):
            attempts += 1
            if attempts > 100:
                raise NumericDomainError(
                    f"generate_multiview_dataset: could not sample {n_pairs} "
                    f"non-divergent trajectories for {system_id}"
                )
            bad = np.flatnonzero(~ok)
            th_new, x0_new = draw_rows(bad.size)
            th_new[:, list(shared)] = theta_shared[bad]
            th_v[bad], x0_v[bad] = th_new, x0_new
            st_new, _, ok_new, _ = integrate_batch(system, th_new, x0_new, grid)
            st_v[bad] = st_new
            ok[bad] = ok_new

        states[v], thetas[v], x0s[v] = st_v, th_v, x0_v

    return MultiviewDataset(
        system_id=system_id,
        shared_param_indices=shared,
        grid=grid,
        states=states,
        thetas=thetas,
        x0s=x0s,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# Dataset files (see :mod:`dynident.archive` for the format).
# ---------------------------------------------------------------------------


def save_dataset(path, dataset: MultiviewDataset) -> None:
    """Write ``dataset`` as an archive: ``meta.json`` (kind, schema_version,
    system_id, shared_param_indices, grid, n_views, n_pairs, labeled) and
    the float64 members ``states``, ``thetas``, ``x0s``, plus integer
    ``labels`` when the dataset has them.

    Loading reproduces every array bit-exactly, and equal datasets produce
    equal files.
    """
    meta = {
        "system_id": dataset.system_id,
        "shared_param_indices": list(dataset.shared_param_indices),
        "grid": _grid_record(dataset.grid),
        "n_views": dataset.n_views,
        "n_pairs": dataset.n_pairs,
        "labeled": dataset.labels is not None,
    }
    arrays = {
        name: np.asarray(getattr(dataset, name), dtype=np.float64)
        for name in ("states", "thetas", "x0s")
    }
    if dataset.labels is not None:
        arrays["labels"] = np.asarray(dataset.labels, dtype=np.int64)
    _write_archive(path, _DATASET_KIND, meta, arrays)


def load_dataset(path) -> MultiviewDataset:
    """Read a dataset written by :func:`save_dataset`.

    Raises :class:`FileFormatError` naming ``path`` unless the file is an
    intact dataset archive whose arrays agree with ``meta.json`` and whose
    ``shared_param_indices`` pass the checks of
    :func:`generate_multiview_dataset` for its system, the rule
    :func:`load_identifier` applies too.
    """
    meta, arrays = _read_archive(path, _DATASET_KIND)
    try:
        system = get_system(meta["system_id"])  # refuses an id outside the catalog
        dataset = MultiviewDataset(
            system_id=meta["system_id"],
            shared_param_indices=tuple(meta["shared_param_indices"]),
            grid=_grid_from_record(meta["grid"]),
            states=arrays["states"],
            thetas=arrays["thetas"],
            x0s=arrays["x0s"],
            labels=arrays.get("labels"),
        )
        dataset.shared_param_indices = _shared_index_set(
            dataset.shared_param_indices, system, "shared_param_indices"
        )
    except (LookupError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed multiview dataset file ({exc})") from exc
    stored = (dataset.n_views, dataset.n_pairs, dataset.labels is not None)
    declared = (meta["n_views"], meta["n_pairs"], meta["labeled"])
    if stored != declared:
        raise FileFormatError(
            f"{path}: malformed multiview dataset file (the arrays hold "
            f"(n_views, n_pairs, labeled) = {stored}, meta.json declares {declared})"
        )
    return dataset


# ---------------------------------------------------------------------------
# Model configuration and construction.
# ---------------------------------------------------------------------------


_FIELD_TYPES = {  # annotation -> (accepted type, stored as, description); bools are refused
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number"),
    "str": (str, str, "a string"),
}


def _is_a(value, annotation: str) -> bool:
    return isinstance(value, _FIELD_TYPES[annotation][0]) and not isinstance(value, bool)


@dataclass(frozen=True)
class IdentifierConfig:
    """Architecture plus training hyper-parameters for one identifier.

    Fixed for every identifier: tanh hidden layers, block 0 as the shared
    block, and the lower half of the DCT coefficients as encoder input.
    """

    block_sizes: tuple = (4, 4)
    hidden_dim: int = 64
    depth: int = 3
    n_init: int = 10
    reg_align: float = 10.0
    decoder: str = "direct"  # "direct" | "field"
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 200

    def __post_init__(self):
        """Raise an error naming the first field of the wrong type or out of range."""
        if not isinstance(self.block_sizes, (tuple, list)) or not all(
            _is_a(s, "int") for s in self.block_sizes
        ):
            raise ConfigError("block_sizes: must be a list of integers")
        object.__setattr__(self, "block_sizes", tuple(int(s) for s in self.block_sizes))
        for f in fields(self)[1:]:  # after block_sizes
            value = getattr(self, f.name)
            if not _is_a(value, f.type):
                raise ConfigError(f"{f.name}: must be {_FIELD_TYPES[f.type][2]}")
            object.__setattr__(self, f.name, _FIELD_TYPES[f.type][1](value))
        PartitionLayout(self.block_sizes)  # checks the block sizes
        for key, ok, rule in (
            ("hidden_dim", self.hidden_dim >= 1, "must be >= 1"),
            ("depth", self.depth >= 1, "must be >= 1"),
            ("n_init", self.n_init >= 1, "must be >= 1"),
            ("reg_align", 0 <= self.reg_align < np.inf, "must be finite and >= 0"),
            ("decoder", self.decoder in ("direct", "field"), "must be one of direct, field"),
            ("lr", 0 < self.lr < np.inf, "must be finite and > 0"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
        ):
            if not ok:
                raise ConfigError(f"{key}: {rule}")

    @property
    def layout(self) -> PartitionLayout:
        return PartitionLayout(self.block_sizes)


@dataclass
class Preprocessing:
    """Frozen standardization statistics, one row per view."""

    enc_mean: np.ndarray
    enc_std: np.ndarray
    aux_mean: np.ndarray
    aux_std: np.ndarray
    tgt_mean: np.ndarray  # per state channel
    tgt_std: np.ndarray


@dataclass
class _Stack:
    """One MLP per view, each layer's parameters stacked along a leading view axis.

    ``weights[i]`` is (V, fan_in, fan_out) and ``biases[i]`` is (V, fan_out),
    so a (V, B, fan_in) batch goes through layer i of every view in one
    batched matmul.
    """

    weights: list
    biases: list

    def select(self, view: int) -> "_Stack":
        """The network of one view, as a stack of one."""
        return _Stack(
            [w[view : view + 1] for w in self.weights],
            [b[view : view + 1] for b in self.biases],
        )


@dataclass
class IdentifierModel:
    """Encoders and decoders of every view, with their preprocessing.

    ``params`` holds every encoder and decoder parameter in one flat float64
    buffer, layer by layer, encoders first: a layer's weights for all views
    as one (V, fan_in, fan_out) block, then its biases as (V, fan_out).
    ``encoders`` and ``decoders`` are :class:`_Stack` views into it, so
    writing through them edits the model.  Training works on a float32 copy
    of the buffer and writes the result back, so a model, its file and
    everything computed from it stay float64.
    """

    config: IdentifierConfig
    system_id: str
    shared_param_indices: tuple
    grid: TimeGrid
    prep: Preprocessing
    params: np.ndarray

    @property
    def layout(self) -> PartitionLayout:
        return self.config.layout

    @property
    def n_views(self) -> int:
        return self.prep.tgt_mean.shape[0]

    def stacks(self, buf: np.ndarray) -> tuple[_Stack, _Stack]:
        """The encoder and decoder stacks viewing ``buf``, a buffer laid out
        as ``params`` (the parameters themselves, or a gradient).

        ``buf`` is float64, or float32 for training's working copy and its
        gradient; the stacks share its dtype.
        """
        shapes = _block_shapes(self.config, self.prep, self.grid)
        sizes = [math.prod(shape) for shape in shapes]
        if buf.shape != (sum(sizes),) or buf.dtype not in (np.float32, np.float64):
            raise InvalidArgumentError(
                f"parameter buffer of shape {buf.shape} and dtype {buf.dtype}: the model's "
                f"config, grid and views call for params of ({sum(sizes)},) float32 or float64"
            )
        pieces = np.split(buf, np.cumsum(sizes)[:-1])
        blocks = [piece.reshape(shape) for piece, shape in zip(pieces, shapes)]
        n_enc = 2 * self.config.depth
        enc, dec = blocks[:n_enc], blocks[n_enc:]
        return _Stack(enc[0::2], enc[1::2]), _Stack(dec[0::2], dec[1::2])

    @property
    def encoders(self) -> _Stack:
        return self.stacks(self.params)[0]

    @property
    def decoders(self) -> _Stack:
        return self.stacks(self.params)[1]


def _encoder_features(states: np.ndarray) -> np.ndarray:
    """(n, T, d) trajectories -> (n, F) truncated-DCT features, time-major."""
    return dct_truncate(states, _KEEP_FRACTION).reshape(states.shape[0], -1)


def _aux_features(states: np.ndarray, n_init: int) -> np.ndarray:
    """First ``n_init`` states, flattened: the decoder's initial-condition stub."""
    if n_init > states.shape[1]:
        raise InvalidArgumentError("n_init exceeds the number of grid points")
    n = states.shape[0]
    return states[:, :n_init].reshape(n, -1)


def _target_features(states: np.ndarray) -> np.ndarray:
    return states.reshape(states.shape[0], -1)


def _stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    std = np.maximum(rows.std(axis=0), _STD_FLOOR)
    return mean, std


def _block_shapes(config: IdentifierConfig, prep: Preprocessing, grid: TimeGrid) -> list:
    """The stacked shape of every block of a model's parameter buffer, in
    order: for the encoder and then the decoder, each layer's weights
    (V, fan_in, fan_out) followed by its biases (V, fan_out)."""
    n_views, d = prep.tgt_mean.shape
    latent, hidden = config.layout.latent_dim, [config.hidden_dim] * (config.depth - 1)
    if config.decoder == "direct":
        dec_in, dec_out = latent + config.n_init * d, grid.n_points * d
    else:  # latent-conditioned vector field
        dec_in, dec_out = latent + d, d
    return [
        shape
        for dims in ([prep.enc_mean.shape[1], *hidden, latent], [dec_in, *hidden, dec_out])
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
        for shape in ((n_views, fan_in, fan_out), (n_views, fan_out))
    ]


def build_identifier(
    dataset: MultiviewDataset, config: IdentifierConfig, seed: int
) -> IdentifierModel:
    """Freeze standardization statistics and draw Glorot-uniform weights
    (+/- sqrt(6 / (fan_in + fan_out))) with zero biases."""
    t_pts, d = dataset.grid.n_points, dataset.states.shape[3]
    if config.n_init > t_pts:
        raise ConfigError(f"n_init ({config.n_init}) exceeds grid points ({t_pts})")

    per_view = [  # the fields of Preprocessing, in order, for each view
        (
            *_stats(_encoder_features(states)),
            *_stats(_aux_features(states, config.n_init)),
            *_stats(states.reshape(-1, d)),  # per state channel
        )
        for states in dataset.states
    ]
    prep = Preprocessing(*(np.stack(column) for column in zip(*per_view)))

    size = sum(math.prod(shape) for shape in _block_shapes(config, prep, dataset.grid))
    model = IdentifierModel(
        config=config,
        system_id=dataset.system_id,
        shared_param_indices=dataset.shared_param_indices,
        grid=dataset.grid,
        prep=prep,
        params=np.zeros(size),
    )
    for role, net in (("encoder", model.encoders), ("decoder", model.decoders)):
        for v in range(dataset.n_views):
            rng = substream(seed, "mv-init", role, v)
            for w in net.weights:
                _, fan_in, fan_out = w.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                w[v] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return model


# ---------------------------------------------------------------------------
# Batched passes: every view's network at once.
# ---------------------------------------------------------------------------


def _tanh_derivative(h: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """tanh's derivative from its output ``h``: 1 - h²."""
    out = np.multiply(h, h, out=out)
    return np.subtract(1.0, out, out=out)


def _transposed(w: np.ndarray) -> np.ndarray:
    """(V, fan_in, fan_out) -> contiguous (V, fan_out, fan_in).

    A batched matmul against the contiguous copy runs about twice as fast
    as against a transposed view.
    """
    return np.ascontiguousarray(np.swapaxes(w, 1, 2))


def _mlp_forward(net: _Stack, x: np.ndarray, saved: Optional[list] = None) -> np.ndarray:
    """(V, B, fan_in) -> (V, B, fan_out) through every view's network at once.

    With ``saved``, appends each layer's input for :func:`_mlp_backward`.
    """
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if saved is not None:
            saved.append(x)
        x = np.matmul(x, w)
        x += b[:, None, :]
        if i != last:
            np.tanh(x, out=x)
    return x


def _mlp_backward(
    net: _Stack, grad: _Stack, saved: list, g: np.ndarray, input_cols: Optional[slice] = None
) -> Optional[np.ndarray]:
    """Vector-Jacobian product of :func:`_mlp_forward` for d loss / d output ``g``.

    Writes every layer's weight and bias gradient into ``grad`` and returns
    d loss / d input, restricted to ``input_cols`` (None: not needed).
    """
    for i in reversed(range(len(net.weights))):
        np.matmul(np.swapaxes(saved[i], 1, 2), g, out=grad.weights[i])
        g.sum(axis=1, out=grad.biases[i])
        if i == 0:
            break
        g = np.matmul(g, _transposed(net.weights[i]))
        g *= _tanh_derivative(saved[i])
    if input_cols is None:
        return None
    return np.matmul(g, _transposed(net.weights[0][:, input_cols]))


def _field_mlp(
    dec: _Stack,
    x: np.ndarray,
    c: np.ndarray,
    hidden: Sequence[np.ndarray] = (),
    derivs: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """The field MLP at states x (V, R, d), given the latent part c (V, R, H)
    of its first layer; returns the field (V, R, d).

    With ``hidden`` and ``derivs`` (one buffer per hidden layer), the hidden
    layers' outputs and their activation derivatives are written there.
    """
    a = np.matmul(x, dec.weights[0][:, -x.shape[2] :], out=hidden[0] if hidden else None)
    a += c
    for i in range(1, len(dec.weights)):
        np.tanh(a, out=a)
        if derivs:
            _tanh_derivative(a, out=derivs[i - 1])
        a = np.matmul(a, dec.weights[i], out=hidden[i] if i < len(hidden) else None)
        a += dec.biases[i][:, None, :]
    return a


def _field_rollout(
    dec: _Stack, z: np.ndarray, x0: np.ndarray, steps: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 rollout, one step per grid interval, of the field x' = MLP([z, x]).

    z (V, B, L) and standardized x0 (V, B, d) -> the trajectory (V, B, T, d)
    and the states the four stages of each step evaluate the field at,
    (V, T - 1, 4, B, d), for :func:`_field_backward`.  The latent part of
    the first layer, z @ W0[:L] + b0, is the same at every stage, so it is
    computed once.  Both outputs have x0's dtype; the step sizes are Python
    floats, which do not promote a float32 rollout to float64.
    """
    n_views, batch, d = x0.shape
    c = np.matmul(z, dec.weights[0][:, : z.shape[2]])
    c += dec.biases[0][:, None, :]
    traj = np.empty((n_views, batch, len(steps) + 1, d), dtype=x0.dtype)
    traj[:, :, 0] = x0
    stages = np.empty((n_views, len(steps), 4, batch, d), dtype=x0.dtype)
    x = traj[:, :, 0]
    for n, h in enumerate(steps):
        s = stages[:, n]
        s[:, 0] = x
        k1 = _field_mlp(dec, s[:, 0], c)
        k2 = _field_mlp(dec, np.add(x, k1 * (0.5 * h), out=s[:, 1]), c)
        k3 = _field_mlp(dec, np.add(x, k2 * (0.5 * h), out=s[:, 2]), c)
        k4 = _field_mlp(dec, np.add(x, k3 * h, out=s[:, 3]), c)
        incr = k1 + (k2 + k3) * 2.0
        incr += k4
        incr *= h / 6.0
        x = np.add(x, incr, out=traj[:, :, n + 1])
    return traj, stages


def _field_backward(
    dec: _Stack, grad: _Stack, z: np.ndarray, steps: Sequence[float], stages: np.ndarray,
    g_traj: np.ndarray,
) -> np.ndarray:
    """Reverse pass of :func:`_field_rollout` for d loss / d trajectory ``g_traj``.

    Walks the steps backwards.  Each step first recomputes the hidden
    activations of its four stages as one batch of 4 B rows, then takes the
    stages k4 to k1 in turn through the same MLP vector-Jacobian product,
    and adds the step's weight gradients with one matmul per layer.
    Recomputing from the stage states, instead of storing every stage's
    activations, keeps the working set in cache.  Writes the decoder
    gradient into ``grad`` and returns d loss / d z.
    """
    n_lat = z.shape[2]
    n_views, _, _, batch, d = stages.shape
    rows = 4 * batch
    w_t = [_transposed(w) for w in dec.weights]
    w0x_t = np.ascontiguousarray(w_t[0][:, :, n_lat:])
    c4 = np.tile(np.matmul(z, dec.weights[0][:, :n_lat]), (1, 4, 1))
    c4 += dec.biases[0][:, None, :]
    # Buffers that every step reuses, for its 4 stages: the hidden layers'
    # outputs and their activation derivatives, and every layer's
    # d loss / d pre-activation with its running sum over the steps (for
    # the biases and the latent part of the first layer).
    hidden = [np.empty((n_views, rows, w.shape[2]), dtype=z.dtype) for w in dec.weights[:-1]]
    derivs = [np.empty_like(h) for h in hidden]
    deltas = [np.empty((n_views, rows, w.shape[2]), dtype=z.dtype) for w in dec.weights]
    sums = [np.zeros_like(delta) for delta in deltas]
    for w in grad.weights:
        w[...] = 0.0

    def stage_vjp(g, k):
        # d loss / d k at stage k of the step -> d loss / d stage state.
        part = slice(k * batch, (k + 1) * batch)
        deltas[-1][:, part] = g
        for i in range(len(hidden), 0, -1):
            delta = deltas[i - 1][:, part]
            np.multiply(np.matmul(g, w_t[i]), derivs[i - 1][:, part], out=delta)
            g = delta
        return np.matmul(g, w0x_t)

    xbar = g_traj[:, :, -1].copy()  # d loss / d x at the end of step n
    for n in reversed(range(len(steps))):
        inputs = [stages[:, n].reshape(n_views, rows, d)] + hidden
        _field_mlp(dec, inputs[0], c4, hidden, derivs)

        h = steps[n]
        gs4 = stage_vjp(xbar * (h / 6.0), 3)
        gs3 = stage_vjp(xbar * (h / 3.0) + gs4 * h, 2)
        gs2 = stage_vjp(xbar * (h / 3.0) + gs3 * (0.5 * h), 1)
        gs1 = stage_vjp(xbar * (h / 6.0) + gs2 * (0.5 * h), 0)
        xbar += gs1 + gs2 + gs3 + gs4
        xbar += g_traj[:, :, n]

        grad.weights[0][:, n_lat:] += np.matmul(np.swapaxes(inputs[0], 1, 2), deltas[0])
        for i in range(1, len(inputs)):
            grad.weights[i] += np.matmul(np.swapaxes(inputs[i], 1, 2), deltas[i])
        for total, delta in zip(sums, deltas):
            total += delta

    for i in range(1, len(sums)):
        sums[i].sum(axis=1, out=grad.biases[i])
    gc = sums[0].reshape(n_views, 4, batch, -1).sum(axis=1)  # the latent part feeds every stage
    grad.weights[0][:, :n_lat] = np.matmul(np.swapaxes(z, 1, 2), gc)
    gc.sum(axis=1, out=grad.biases[0])
    return np.matmul(gc, w_t[0][:, :, :n_lat])


# ---------------------------------------------------------------------------
# Forward paths.
# ---------------------------------------------------------------------------


def _standardized_inputs(
    model: IdentifierModel, states: np.ndarray, view: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(enc_in, aux_in, targets) for one view, all standardized."""
    cfg, prep = model.config, model.prep
    enc = _encoder_features(states)
    enc = (enc - prep.enc_mean[view]) / prep.enc_std[view]
    aux = _aux_features(states, cfg.n_init)
    aux = (aux - prep.aux_mean[view]) / prep.aux_std[view]
    std_states = (states - prep.tgt_mean[view]) / prep.tgt_std[view]
    tgt = _target_features(std_states)
    return enc, aux, tgt


def _stacked_inputs(model: IdentifierModel, states: np.ndarray, dtype=np.float64) -> list:
    """(enc_in, aux_in, targets), each (V, n, width) of ``dtype``, for
    states (V, n, T, d)."""
    per_view = [_standardized_inputs(model, states[v], v) for v in range(states.shape[0])]
    return [np.stack(parts, dtype=dtype) for parts in zip(*per_view)]


def encode(model: IdentifierModel, states: np.ndarray, view: int) -> np.ndarray:
    """Latents (n, L) for raw trajectories (n, T, d) of one view."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1] != model.grid.n_points:
        raise InvalidArgumentError("encode: states must be (n, T, d) on the model grid")
    enc_in, _, _ = _standardized_inputs(model, states, view)
    return _mlp_forward(model.encoders.select(view), enc_in[None])[0]


def decode_forecast(
    model: IdentifierModel, z: np.ndarray, init_states: np.ndarray, view: int
) -> np.ndarray:
    """Reconstruct trajectories (n, T, d) from latents and an initial stub.

    ``init_states`` is (n, n_init, d) raw states for the direct decoder, or
    (n, 1, d)/(n, d) raw initial conditions for the field decoder.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    prep, cfg = model.prep, model.config
    t_pts = model.grid.n_points
    d = prep.tgt_mean.shape[1]
    dec = model.decoders.select(view)
    if cfg.decoder == "direct":
        init_states = np.asarray(init_states, dtype=float).reshape(z.shape[0], -1)
        aux = (init_states - prep.aux_mean[view]) / prep.aux_std[view]
        out = _mlp_forward(dec, np.concatenate([z, aux], axis=1)[None])[0]
    else:
        x0 = np.asarray(init_states, dtype=float).reshape(z.shape[0], d)
        x0 = (x0 - prep.tgt_mean[view]) / prep.tgt_std[view]
        out = _field_rollout(dec, z[None], x0[None], np.diff(model.grid.points).tolist())[0][0]
    std_states = out.reshape(z.shape[0], t_pts, d)
    return std_states * prep.tgt_std[view] + prep.tgt_mean[view]


# ---------------------------------------------------------------------------
# Loss.
# ---------------------------------------------------------------------------


def _loss(
    model: IdentifierModel,
    nets: tuple[_Stack, _Stack],
    enc_in: np.ndarray,
    aux_in: np.ndarray,
    targets: np.ndarray,
    grads: Optional[tuple[_Stack, _Stack]] = None,
) -> dict:
    """Float loss components for one standardized batch, all views at once.

    ``enc_in``, ``aux_in`` and ``targets`` are (V, B, width); ``nets`` are
    the encoder and decoder stacks.  With ``grads`` (stacks of the same
    layout), d total / d parameter is written there as well.  The inputs
    and stacks are all float32 (training) or all float64, and every pass
    keeps that dtype.

    total = reg_align * alignment + sufficiency, where alignment is the mean
    over view pairs of the batch-mean squared shared-block difference and
    sufficiency is the sum over views of the batch-mean squared
    reconstruction error.
    """
    cfg = model.config
    enc, dec = nets
    n_views, batch = enc_in.shape[:2]
    keep = grads is not None
    saved_enc = [] if keep else None
    z = _mlp_forward(enc, enc_in, saved_enc)
    if cfg.decoder == "direct":
        saved_dec = [] if keep else None
        out = _mlp_forward(dec, np.concatenate([z, aux_in], axis=2), saved_dec)
    else:
        d = model.prep.tgt_mean.shape[1]
        steps = np.diff(model.grid.points).tolist()
        traj, stages = _field_rollout(dec, z, targets[:, :, :d], steps)
        out = traj.reshape(targets.shape)
    resid = out - targets
    sufficiency = sum(float(np.square(r).sum()) * (1.0 / batch) for r in resid)

    cols = slice(0, model.layout.block_sizes[0])  # the shared block
    pairs = list(itertools.combinations(range(n_views), 2))
    diffs = [z[i, :, cols] - z[j, :, cols] for i, j in pairs]
    alignment = sum(float(np.square(diff).sum()) * (1.0 / batch) for diff in diffs)
    if len(pairs) > 1:
        alignment = alignment * (1.0 / len(pairs))
    components = {
        "total": alignment * cfg.reg_align + sufficiency,
        "sufficiency": sufficiency,
        "alignment": alignment,
    }
    if not keep:
        return components

    g_out = resid * (2.0 / batch)
    if cfg.decoder == "direct":
        g_z = _mlp_backward(dec, grads[1], saved_dec, g_out, slice(0, z.shape[2]))
    else:
        g_z = _field_backward(dec, grads[1], z, steps, stages, g_out.reshape(traj.shape))
    coef = 2.0 * cfg.reg_align / (batch * len(pairs))
    for (i, j), diff in zip(pairs, diffs):
        g_z[i, :, cols] += coef * diff
        g_z[j, :, cols] -= coef * diff
    _mlp_backward(enc, grads[0], saved_enc, g_z)
    return components


def _loss_and_grads(
    model: IdentifierModel,
    enc_in: Sequence[np.ndarray],
    aux_in: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
) -> tuple[dict, np.ndarray]:
    """Loss components and d total / d ``model.params`` for one standardized
    batch, given as per-view lists."""
    grad = np.empty_like(model.params)
    components = _loss(
        model,
        model.stacks(model.params),
        np.stack(enc_in),
        np.stack(aux_in),
        np.stack(targets),
        model.stacks(grad),
    )
    return components, grad


def multiview_loss(
    model: IdentifierModel,
    dataset: MultiviewDataset,
    indices: Optional[np.ndarray] = None,
) -> dict:
    """Loss components over a dataset (or a subset of its pairs)."""
    if indices is None:
        indices = np.arange(dataset.n_pairs)
    enc_in, aux_in, targets = _stacked_inputs(model, dataset.states[:, indices])
    return _loss(model, model.stacks(model.params), enc_in, aux_in, targets)


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def train_identifier(
    dataset: MultiviewDataset,
    config: IdentifierConfig,
    seed: int,
) -> tuple[IdentifierModel, list]:
    """Adam on minibatches; returns (model, per-epoch component history).

    Training computes in float32: the standardized inputs, a working copy
    of ``params``, its gradient, Adam's moments and every forward and
    reverse pass.  After the last step the working copy is written back
    into the model's float64 ``params``; with ``epochs=0`` no step runs and
    the model is :func:`build_identifier`'s, bit for bit.

    Deterministic for fixed (dataset, config, seed): initialization and
    shuffling run on named substreams and all arithmetic is single-threaded.
    Raises :class:`TrainingDivergedError` the moment a batch loss goes
    non-finite, reporting the epoch/step and last components.
    """
    model = build_identifier(dataset, config, seed)
    n = dataset.n_pairs
    enc_all, aux_all, tgt_all = _stacked_inputs(model, dataset.states, np.float32)

    params = model.params.astype(np.float32)
    nets = model.stacks(params)
    grad = np.empty_like(params)
    grads = model.stacks(grad)
    opt = ad.adam_init(params, lr=config.lr)
    history: list[dict] = []
    batch = min(config.batch_size, n)

    for epoch in range(config.epochs):
        perm = substream(seed, "mv-shuffle", epoch).permutation(n)
        sums = {"total": 0.0, "sufficiency": 0.0, "alignment": 0.0}
        n_steps = 0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            # Non-finite values are detected explicitly below, so numpy's
            # overflow chatter on the way there is just noise.
            with np.errstate(all="ignore"):
                comps = _loss(
                    model, nets, enc_all[:, idx], aux_all[:, idx], tgt_all[:, idx], grads
                )
                if not np.isfinite(comps["total"]):
                    raise TrainingDivergedError(
                        f"training loss went non-finite at epoch {epoch}, step {n_steps}",
                        epoch=epoch,
                        step=n_steps,
                        components=comps,
                    )
                ad.adam_step(opt, params, grad)
            for k in sums:
                sums[k] += comps[k]
            n_steps += 1
        history.append({k: sums[k] / n_steps for k in sums})
    if opt.t:
        model.params[...] = params
    return model, history


def alignment_ratio(model: IdentifierModel, dataset: MultiviewDataset) -> float:
    """Cross-view disagreement of the shared block relative to the others.

    For each block B after the shared block 0, compare the median (over pairs and view
    pairs) disagreement norms: ``median ||z_S - z~_S|| / median ||z_B - z~_B||``.
    The worst (largest) ratio over those blocks is returned.  Values
    well below 1 mean the shared block agrees across views while the other
    blocks keep carrying view-specific content.
    """
    layout = model.layout
    lat = np.stack(
        [encode(model, dataset.states[v], v) for v in range(dataset.n_views)]
    )  # (V, n, L)
    pairs = list(itertools.combinations(range(lat.shape[0]), 2))

    def med_diff(cols: np.ndarray) -> float:
        norms = [
            np.linalg.norm(lat[i][:, cols] - lat[j][:, cols], axis=1)
            for i, j in pairs
        ]
        return float(np.median(np.concatenate(norms)))

    num = med_diff(layout.shared_indices)
    worst = 0.0
    for b in range(1, len(layout.block_sizes)):
        den = med_diff(layout.block_indices(b))
        worst = max(worst, num / max(den, _STD_FLOOR))
    return worst


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


def save_identifier(path, model: IdentifierModel) -> None:
    """Write ``model`` as an archive: ``meta.json`` (kind, schema_version 4,
    config, system_id, shared_param_indices, grid), the six float64 members
    ``prep.<statistic>`` and the float64 member ``params``, the model's
    parameter buffer as it is.

    Reloading is bit-exact.
    """
    meta = {
        "config": asdict(model.config),
        "system_id": model.system_id,
        "shared_param_indices": list(model.shared_param_indices),
        "grid": _grid_record(model.grid),
    }
    arrays = {f"prep.{name}": getattr(model.prep, name) for name in _PREP_FIELDS}
    _write_archive(path, _MODEL_KIND, meta, {**arrays, "params": model.params})


def load_identifier(path) -> IdentifierModel:
    """Read a model written by :func:`save_identifier`.

    Raises :class:`FileFormatError` naming ``path`` unless the file is an
    intact schema-4 model archive whose config is well typed, whose
    ``shared_param_indices`` pass the checks of
    :func:`generate_multiview_dataset` for its system, and whose ``prep``
    rows and ``params`` buffer have the shapes that the config, the grid and
    the state dimension call for.
    """
    meta, arrays = _read_archive(path, _MODEL_KIND)
    try:
        system = get_system(meta["system_id"])  # refuses an id outside the catalog
        model = IdentifierModel(
            config=IdentifierConfig(**meta["config"]),
            system_id=meta["system_id"],
            shared_param_indices=_shared_index_set(
                meta["shared_param_indices"], system, "shared_param_indices"
            ),
            grid=_grid_from_record(meta["grid"]),
            prep=Preprocessing(**{name: arrays[f"prep.{name}"] for name in _PREP_FIELDS}),
            params=arrays["params"],
        )
        prep = model.prep
        if prep.tgt_mean.ndim != 2 or len(prep.tgt_mean) == 0:
            raise ValueError("prep.tgt_mean is not 2-d with a row per view")
        n_views, d = prep.tgt_mean.shape
        n_enc = int(np.ceil(_KEEP_FRACTION * model.grid.n_points)) * d
        n_aux = model.config.n_init * d
        for name, width in zip(_PREP_FIELDS, (n_enc, n_enc, n_aux, n_aux, d, d)):
            shape = getattr(prep, name).shape
            if shape != (n_views, width):
                raise ValueError(f"prep.{name} has shape {shape}, expected {(n_views, width)}")
        model.stacks(model.params)  # refuses a buffer that does not fit the layout
    except (LookupError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed model file ({exc})") from exc
    return model


__all__ = [
    "PartitionLayout",
    "MultiviewDataset",
    "generate_multiview_dataset",
    "save_dataset",
    "load_dataset",
    "IdentifierConfig",
    "Preprocessing",
    "IdentifierModel",
    "build_identifier",
    "encode",
    "decode_forecast",
    "multiview_loss",
    "train_identifier",
    "alignment_ratio",
    "save_identifier",
    "load_identifier",
]
