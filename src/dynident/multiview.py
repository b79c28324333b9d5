"""Partial identification of shared parameters from paired trajectory views.

The setting: several "views" of the same underlying experiment, where a
declared subset S of the system parameters is common to all views while the
remaining parameters and the initial condition vary per view.  An encoder
per view maps a compressed trajectory to a latent vector that is split into
contiguous blocks; one block is declared *shared*.  Training combines

  * a sufficiency term — each view's trajectory must be reconstructable
    from its own full latent (plus a short initial-state stub), and
  * an alignment term — the shared blocks of paired views must agree.

Minimising ``reg_align * alignment + sufficiency`` pushes the cross-view
information (exactly the shared parameters) into the shared block, while
view-specific nuisance (private parameters, initial conditions) is squeezed
into the remaining blocks by capacity pressure.

Trajectories are compressed with an orthonormal DCT before encoding; all
encoder/decoder inputs and targets are standardized with statistics frozen
at model-building time.  Two decoder styles are available: ``direct``
(an MLP emits the whole standardized trajectory) and ``field`` (an MLP is a
latent-conditioned vector field integrated with RK4 inside the autodiff
graph).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import MlpParams, Tensor
from .errors import (
    ConfigError,
    FileFormatError,
    InvalidArgumentError,
    NumericDomainError,
    TrainingDivergedError,
)
from .seeding import substream
from .solver import TimeGrid, dct_truncate, integrate_batch
from .systems import get_system

_STD_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# Latent layout.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionLayout:
    """Contiguous latent blocks with one block declared shared."""

    block_sizes: tuple
    shared_block: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidArgumentError(
                "PartitionLayout: need at least two blocks of positive size"
            )
        if not 0 <= self.shared_block < len(sizes):
            raise InvalidArgumentError("PartitionLayout: shared_block out of range")

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
        return self.block_indices(self.shared_block)

    @property
    def private_indices(self) -> np.ndarray:
        keep = [
            self.block_indices(b)
            for b in range(len(self.block_sizes))
            if b != self.shared_block
        ]
        return np.concatenate(keep)


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
        self.shared_param_indices = tuple(int(i) for i in self.shared_param_indices)
        if self.states.ndim != 4:
            raise InvalidArgumentError("MultiviewDataset: states must be 4-d")
        v, n, t, d = self.states.shape
        if self.thetas.shape[:2] != (v, n) or self.x0s.shape != (v, n, d):
            raise InvalidArgumentError("MultiviewDataset: array shapes disagree")
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

    ``shared_prototypes`` — a (K, |S|) array — switches theta_S from uniform
    box draws to uniformly sampled rows of the array; the chosen row index is
    recorded in ``labels`` for downstream classification probes.
    """
    system = get_system(system_id)
    if n_pairs < 1:
        raise InvalidArgumentError("generate_multiview_dataset: n_pairs must be >= 1")
    if n_views < 2:
        raise InvalidArgumentError("generate_multiview_dataset: need at least 2 views")
    shared = tuple(sorted(int(i) for i in shared_param_indices))
    if len(shared) == 0 or len(set(shared)) != len(shared):
        raise InvalidArgumentError("generate_multiview_dataset: bad shared index set")
    if shared[0] < 0 or shared[-1] >= system.param_dim:
        raise InvalidArgumentError(
            "generate_multiview_dataset: shared index out of range "
            f"for {system_id} with {system.param_dim} parameters"
        )
    if len(shared) == system.param_dim:
        raise InvalidArgumentError(
            "generate_multiview_dataset: S covers every parameter — views would "
            "be copies with nothing view-specific to disentangle"
        )
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
        if protos.ndim != 2 or protos.shape[1] != len(shared):
            raise InvalidArgumentError(
                "generate_multiview_dataset: shared_prototypes must be (K, |S|)"
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


def save_dataset(path, dataset: MultiviewDataset) -> None:
    """JSON-lines: a header record, then one record per pair.

    Floats are written in shortest round-trip form, so loading reproduces
    every array bit-exactly and equal datasets produce equal files.
    """
    header = {
        "kind": "multiview-dataset",
        "schema_version": 1,
        "system_id": dataset.system_id,
        "shared_param_indices": list(dataset.shared_param_indices),
        "grid": {
            "t0": dataset.grid.t0,
            "t_max": dataset.grid.t_max,
            "n_points": dataset.grid.n_points,
        },
        "n_views": dataset.n_views,
        "n_pairs": dataset.n_pairs,
        "labeled": dataset.labels is not None,
    }
    with open(path, "w") as fh:
        json.dump(header, fh)
        fh.write("\n")
        for i in range(dataset.n_pairs):
            rec = {
                "states": dataset.states[:, i].tolist(),
                "thetas": dataset.thetas[:, i].tolist(),
                "x0s": dataset.x0s[:, i].tolist(),
            }
            if dataset.labels is not None:
                rec["label"] = int(dataset.labels[i])
            json.dump(rec, fh)
            fh.write("\n")


def load_dataset(path) -> MultiviewDataset:
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
            rows = [json.loads(line) for line in fh if line.strip()]
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{path}: not a JSON-lines dataset file ({exc})") from exc
    if not isinstance(header, dict) or header.get("kind") != "multiview-dataset":
        raise InvalidArgumentError(f"{path}: not a multiview dataset file")
    if len(rows) != header["n_pairs"]:
        raise FileFormatError(
            f"{path}: expected {header['n_pairs']} pair records, found {len(rows)}"
        )
    g = header["grid"]
    # Pair records carry view-major arrays; stack back to (n_views, n, ...).
    states = np.stack([np.asarray(r["states"], dtype=float) for r in rows], axis=1)
    thetas = np.stack([np.asarray(r["thetas"], dtype=float) for r in rows], axis=1)
    x0s = np.stack([np.asarray(r["x0s"], dtype=float) for r in rows], axis=1)
    labels = None
    if header["labeled"]:
        labels = np.array([int(r["label"]) for r in rows])
    return MultiviewDataset(
        system_id=header["system_id"],
        shared_param_indices=tuple(header["shared_param_indices"]),
        grid=TimeGrid.uniform(g["t0"], g["t_max"], g["n_points"]),
        states=states,
        thetas=thetas,
        x0s=x0s,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# Model configuration and construction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentifierConfig:
    """Architecture plus training hyper-parameters for one identifier."""

    block_sizes: tuple = (4, 4)
    shared_block: int = 0
    hidden_dim: int = 64
    depth: int = 3
    activation: str = "tanh"
    keep_fraction: float = 0.5
    n_init: int = 10
    reg_align: float = 10.0
    decoder: str = "direct"  # "direct" | "field"
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 200

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(s) for s in self.block_sizes))
        PartitionLayout(self.block_sizes, self.shared_block)  # validates
        if self.decoder not in ("direct", "field"):
            raise ConfigError(f"decoder must be 'direct' or 'field', got {self.decoder!r}")
        if self.hidden_dim < 1 or self.depth < 1:
            raise ConfigError("hidden_dim and depth must be positive")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError("keep_fraction must be in (0, 1]")
        if self.n_init < 1:
            raise ConfigError("n_init must be >= 1")
        if self.reg_align < 0:
            raise ConfigError("reg_align must be >= 0")
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("lr must be > 0, batch_size >= 1, epochs >= 0")

    @property
    def layout(self) -> PartitionLayout:
        return PartitionLayout(self.block_sizes, self.shared_block)


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
class IdentifierModel:
    config: IdentifierConfig
    system_id: str
    shared_param_indices: tuple
    grid: TimeGrid
    prep: Preprocessing
    encoders: list  # MlpParams per view
    decoders: list  # MlpParams per view

    @property
    def layout(self) -> PartitionLayout:
        return self.config.layout

    @property
    def n_views(self) -> int:
        return len(self.encoders)


def _encoder_features(states: np.ndarray, keep_fraction: float) -> np.ndarray:
    """(n, T, d) trajectories -> (n, F) truncated-DCT features, time-major."""
    n = states.shape[0]
    rows = [dct_truncate(states[i], keep_fraction).reshape(-1) for i in range(n)]
    return np.stack(rows, axis=0)


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


def build_identifier(
    dataset: MultiviewDataset, config: IdentifierConfig, seed: int
) -> IdentifierModel:
    """Initialize encoders/decoders and freeze standardization statistics."""
    layout = config.layout
    n_views = dataset.n_views
    t_pts, d = dataset.grid.n_points, dataset.states.shape[3]
    if config.n_init > t_pts:
        raise ConfigError(f"n_init ({config.n_init}) exceeds grid points ({t_pts})")

    enc_m, enc_s, aux_m, aux_s, tgt_m, tgt_s = [], [], [], [], [], []
    for v in range(n_views):
        em, es = _stats(_encoder_features(dataset.states[v], config.keep_fraction))
        am, as_ = _stats(_aux_features(dataset.states[v], config.n_init))
        flat = dataset.states[v].reshape(-1, d)
        tm = flat.mean(axis=0)
        ts = np.maximum(flat.std(axis=0), _STD_FLOOR)
        enc_m.append(em)
        enc_s.append(es)
        aux_m.append(am)
        aux_s.append(as_)
        tgt_m.append(tm)
        tgt_s.append(ts)
    prep = Preprocessing(
        enc_mean=np.stack(enc_m),
        enc_std=np.stack(enc_s),
        aux_mean=np.stack(aux_m),
        aux_std=np.stack(aux_s),
        tgt_mean=np.stack(tgt_m),
        tgt_std=np.stack(tgt_s),
    )

    feat_dim = prep.enc_mean.shape[1]
    encoders, decoders = [], []
    for v in range(n_views):
        encoders.append(
            ad.mlp_init(
                feat_dim,
                layout.latent_dim,
                config.hidden_dim,
                config.depth,
                config.activation,
                rng=substream(seed, "mv-init", "encoder", v),
            )
        )
        if config.decoder == "direct":
            dec_in = layout.latent_dim + config.n_init * d
            dec_out = t_pts * d
        else:  # latent-conditioned vector field
            dec_in = layout.latent_dim + d
            dec_out = d
        decoders.append(
            ad.mlp_init(
                dec_in,
                dec_out,
                config.hidden_dim,
                config.depth,
                config.activation,
                rng=substream(seed, "mv-init", "decoder", v),
            )
        )
    return IdentifierModel(
        config=config,
        system_id=dataset.system_id,
        shared_param_indices=dataset.shared_param_indices,
        grid=dataset.grid,
        prep=prep,
        encoders=encoders,
        decoders=decoders,
    )


def model_parameters(model: IdentifierModel) -> list:
    params = []
    for net in itertools.chain(model.encoders, model.decoders):
        params.extend(ad.mlp_parameters(net))
    return params


# ---------------------------------------------------------------------------
# Forward paths.
# ---------------------------------------------------------------------------


def _numpy_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Inference-only forward pass without building a graph."""
    act = (lambda z: np.maximum(z, 0.0)) if params.activation == "relu" else np.tanh
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.view() + b.view()
        if i != params.depth - 1:
            h = act(h)
    return h


def _standardized_inputs(
    model: IdentifierModel, states: np.ndarray, view: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(enc_in, aux_in, targets) for one view, all standardized."""
    cfg, prep = model.config, model.prep
    enc = _encoder_features(states, cfg.keep_fraction)
    enc = (enc - prep.enc_mean[view]) / prep.enc_std[view]
    aux = _aux_features(states, cfg.n_init)
    aux = (aux - prep.aux_mean[view]) / prep.aux_std[view]
    std_states = (states - prep.tgt_mean[view]) / prep.tgt_std[view]
    tgt = _target_features(std_states)
    return enc, aux, tgt


def encode(model: IdentifierModel, states: np.ndarray, view: int) -> np.ndarray:
    """Latents (n, L) for raw trajectories (n, T, d) of one view."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1] != model.grid.n_points:
        raise InvalidArgumentError("encode: states must be (n, T, d) on the model grid")
    enc_in, _, _ = _standardized_inputs(model, states, view)
    return _numpy_forward(model.encoders[view], enc_in)


def shared_latents(model: IdentifierModel, dataset: MultiviewDataset) -> np.ndarray:
    """(n_views, n, |shared block|) latent coordinates."""
    idx = model.layout.shared_indices
    return np.stack(
        [encode(model, dataset.states[v], v)[:, idx] for v in range(dataset.n_views)]
    )


def private_latents(model: IdentifierModel, dataset: MultiviewDataset) -> np.ndarray:
    idx = model.layout.private_indices
    return np.stack(
        [encode(model, dataset.states[v], v)[:, idx] for v in range(dataset.n_views)]
    )


def _field_rollout_graph(
    model: IdentifierModel, view: int, z: Tensor, x0_std: np.ndarray
) -> Tensor:
    """Integrate the latent-conditioned field with RK4 inside the graph.

    Works in standardized state space; one step per grid interval.  Returns
    the whole rolled-out trajectory as a (batch, T*d) tensor.
    """
    dec = model.decoders[view]
    x = Tensor(x0_std)
    pieces = [x]

    def f(state: Tensor) -> Tensor:
        return ad.mlp_forward(dec, ad.concat_cols(z, state))

    for h in np.diff(model.grid.points):
        k1 = f(x)
        k2 = f(ad.add(x, ad.scale(k1, 0.5 * h)))
        k3 = f(ad.add(x, ad.scale(k2, 0.5 * h)))
        k4 = f(ad.add(x, ad.scale(k3, h)))
        incr = ad.add(ad.add(k1, ad.scale(ad.add(k2, k3), 2.0)), k4)
        x = ad.add(x, ad.scale(incr, h / 6.0))
        pieces.append(x)
    out = pieces[0]
    for piece in pieces[1:]:
        out = ad.concat_cols(out, piece)
    return out


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
    if cfg.decoder == "direct":
        init_states = np.asarray(init_states, dtype=float).reshape(z.shape[0], -1)
        aux = (init_states - prep.aux_mean[view]) / prep.aux_std[view]
        out = _numpy_forward(model.decoders[view], np.concatenate([z, aux], axis=1))
    else:
        x0 = np.asarray(init_states, dtype=float).reshape(z.shape[0], d)
        x0 = (x0 - prep.tgt_mean[view]) / prep.tgt_std[view]
        out = _field_rollout_graph(model, view, Tensor(z), x0).view()
    std_states = out.reshape(z.shape[0], t_pts, d)
    return std_states * prep.tgt_std[view] + prep.tgt_mean[view]


# ---------------------------------------------------------------------------
# Loss.
# ---------------------------------------------------------------------------


def _loss_graph(
    model: IdentifierModel,
    enc_in: Sequence[np.ndarray],
    aux_in: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
) -> tuple[Tensor, dict]:
    """Total-loss tensor plus float components for one (already standardized) batch.

    total = reg_align * alignment + sufficiency, where alignment is the mean
    over view pairs of the batch-mean squared shared-block difference and
    sufficiency is the sum over views of the batch-mean squared
    reconstruction error.
    """
    cfg = model.config
    layout = model.layout
    n_views = model.n_views
    batch = enc_in[0].shape[0]
    shared_cols = layout.shared_indices

    latents, suff_terms = [], []
    for v in range(n_views):
        h = ad.mlp_forward(model.encoders[v], Tensor(enc_in[v]))
        latents.append(h)
        if cfg.decoder == "direct":
            dec_in = ad.concat_cols(h, Tensor(aux_in[v]))
            out = ad.mlp_forward(model.decoders[v], dec_in)
        else:
            d = model.prep.tgt_mean.shape[1]
            x0_std = targets[v][:, :d]
            out = _field_rollout_graph(model, v, h, x0_std)
        resid = ad.sub(out, Tensor(targets[v]))
        suff_terms.append(ad.scale(ad.sum_all(ad.square(resid)), 1.0 / batch))
    sufficiency = suff_terms[0]
    for term in suff_terms[1:]:
        sufficiency = ad.add(sufficiency, term)

    pair_terms = []
    for i, j in itertools.combinations(range(n_views), 2):
        diff = ad.sub(
            ad.slice_cols(latents[i], shared_cols),
            ad.slice_cols(latents[j], shared_cols),
        )
        pair_terms.append(ad.scale(ad.sum_all(ad.square(diff)), 1.0 / batch))
    alignment = pair_terms[0]
    for term in pair_terms[1:]:
        alignment = ad.add(alignment, term)
    if len(pair_terms) > 1:
        alignment = ad.scale(alignment, 1.0 / len(pair_terms))

    total = ad.add(ad.scale(alignment, cfg.reg_align), sufficiency)
    components = {
        "total": total.item(),
        "sufficiency": sufficiency.item(),
        "alignment": alignment.item(),
    }
    return total, components


def multiview_loss(
    model: IdentifierModel,
    dataset: MultiviewDataset,
    indices: Optional[np.ndarray] = None,
) -> dict:
    """Loss components over a dataset (or a subset of its pairs)."""
    if indices is None:
        indices = np.arange(dataset.n_pairs)
    enc_in, aux_in, targets = [], [], []
    for v in range(dataset.n_views):
        e, a, t = _standardized_inputs(model, dataset.states[v][indices], v)
        enc_in.append(e)
        aux_in.append(a)
        targets.append(t)
    _, components = _loss_graph(model, enc_in, aux_in, targets)
    return components


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def train_identifier(
    dataset: MultiviewDataset,
    config: IdentifierConfig,
    seed: int,
) -> tuple[IdentifierModel, list]:
    """Adam on minibatches; returns (model, per-epoch component history).

    Deterministic for fixed (dataset, config, seed): initialization and
    shuffling run on named substreams and all arithmetic is single-threaded.
    Raises :class:`TrainingDivergedError` the moment a batch loss goes
    non-finite, reporting the epoch/step and last components.
    """
    model = build_identifier(dataset, config, seed)
    n = dataset.n_pairs
    enc_all, aux_all, tgt_all = [], [], []
    for v in range(dataset.n_views):
        e, a, t = _standardized_inputs(model, dataset.states[v], v)
        enc_all.append(e)
        aux_all.append(a)
        tgt_all.append(t)

    params = model_parameters(model)
    opt = ad.adam_init(params, lr=config.lr)
    history: list[dict] = []
    batch = min(config.batch_size, n)

    for epoch in range(config.epochs):
        perm = substream(seed, "mv-shuffle", epoch).permutation(n)
        sums = {"total": 0.0, "sufficiency": 0.0, "alignment": 0.0}
        n_steps = 0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            enc_b = [e[idx] for e in enc_all]
            aux_b = [a[idx] for a in aux_all]
            tgt_b = [t[idx] for t in tgt_all]
            ad.zero_grad(params)
            # Non-finite values are detected explicitly below, so numpy's
            # overflow chatter on the way there is just noise.
            with np.errstate(all="ignore"):
                total, comps = _loss_graph(model, enc_b, aux_b, tgt_b)
                if not np.isfinite(comps["total"]):
                    raise TrainingDivergedError(
                        f"training loss went non-finite at epoch {epoch}, step {n_steps}",
                        epoch=epoch,
                        step=n_steps,
                        components=comps,
                    )
                ad.backward(total)
                ad.adam_step(opt, params)
            for k in sums:
                sums[k] += comps[k]
            n_steps += 1
        history.append({k: sums[k] / n_steps for k in sums})
    return model, history


def alignment_ratio(model: IdentifierModel, dataset: MultiviewDataset) -> float:
    """Cross-view disagreement of the shared block relative to the others.

    For each non-shared block B, compare the median (over pairs and view
    pairs) disagreement norms: ``median ||z_S - z~_S|| / median ||z_B - z~_B||``.
    The worst (largest) ratio over non-shared blocks is returned.  Values
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
    for b in range(len(layout.block_sizes)):
        if b == layout.shared_block:
            continue
        den = med_diff(layout.block_indices(b))
        worst = max(worst, num / max(den, _STD_FLOOR))
    return worst


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


def _mlp_record(params: MlpParams) -> dict:
    return {
        "activation": params.activation,
        "weights": [w.view().tolist() for w in params.weights],
        "biases": [b.view().tolist() for b in params.biases],
    }


def _mlp_from_record(rec: dict) -> MlpParams:
    return MlpParams(
        weights=[Tensor(np.asarray(w, dtype=float), requires_grad=True) for w in rec["weights"]],
        biases=[Tensor(np.asarray(b, dtype=float), requires_grad=True) for b in rec["biases"]],
        activation=rec["activation"],
    )


def save_identifier(path, model: IdentifierModel) -> None:
    """JSON checkpoint; reload is bit-exact."""
    cfg = {f.name: getattr(model.config, f.name) for f in fields(model.config)}
    cfg["block_sizes"] = list(cfg["block_sizes"])
    rec = {
        "config": cfg,
        "system_id": model.system_id,
        "shared_param_indices": list(model.shared_param_indices),
        "grid": {
            "t0": model.grid.t0,
            "t_max": model.grid.t_max,
            "n_points": model.grid.n_points,
        },
        "prep": {
            name: getattr(model.prep, name).tolist()
            for name in (
                "enc_mean",
                "enc_std",
                "aux_mean",
                "aux_std",
                "tgt_mean",
                "tgt_std",
            )
        },
        "encoders": [_mlp_record(e) for e in model.encoders],
        "decoders": [_mlp_record(d) for d in model.decoders],
    }
    with open(path, "w") as fh:
        json.dump(rec, fh)
        fh.write("\n")


def load_identifier(path) -> IdentifierModel:
    with open(path) as fh:
        try:
            rec = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{path}: not a JSON model file ({exc})") from exc
    cfg_raw = dict(rec["config"])
    cfg_raw["block_sizes"] = tuple(cfg_raw["block_sizes"])
    config = IdentifierConfig(**cfg_raw)
    g = rec["grid"]
    prep = Preprocessing(
        **{k: np.asarray(v, dtype=float) for k, v in rec["prep"].items()}
    )
    return IdentifierModel(
        config=config,
        system_id=rec["system_id"],
        shared_param_indices=tuple(rec["shared_param_indices"]),
        grid=TimeGrid.uniform(g["t0"], g["t_max"], g["n_points"]),
        prep=prep,
        encoders=[_mlp_from_record(e) for e in rec["encoders"]],
        decoders=[_mlp_from_record(d) for d in rec["decoders"]],
    )


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
    "model_parameters",
    "encode",
    "shared_latents",
    "private_latents",
    "decode_forecast",
    "multiview_loss",
    "train_identifier",
    "alignment_ratio",
    "save_identifier",
    "load_identifier",
]
