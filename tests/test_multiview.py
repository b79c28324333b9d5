import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynident import autodiff as ad
from dynident.autodiff import MlpParams, Tensor, gradient_check
from dynident.errors import (
    ConfigError,
    FileFormatError,
    InvalidArgumentError,
    NumericDomainError,
    TrainingDivergedError,
)
from dynident.archive import _read_archive, _write_archive
from dynident.multiview import (
    IdentifierConfig,
    PartitionLayout,
    _loss,
    _loss_and_grads,
    _stacked_inputs,
    _standardized_inputs,
    alignment_ratio,
    build_identifier,
    decode_forecast,
    encode,
    generate_multiview_dataset,
    load_dataset,
    load_identifier,
    multiview_loss,
    save_dataset,
    save_identifier,
    train_identifier,
)
from dynident.multiview import MultiviewDataset
from dynident.seeding import substream
from dynident.solver import TimeGrid, integrate_batch
from dynident.systems import CATALOG, OdeSystem, get_system, sample_parameters


def _small_dataset(n_pairs=48, seed=3, **kw):
    kw.setdefault("grid_points", 30)
    kw.setdefault("t_max", 8.0)
    return generate_multiview_dataset("ode27", n_pairs, seed, (0, 1), **kw)


def _identical_view_dataset(n_pairs=10, grid_points=12, t_max=5.0, seed=6):
    """Both views are literally the same trajectories (for loss edge cases)."""
    system = get_system("ode27")
    grid = TimeGrid.uniform(0.0, t_max, grid_points)
    thetas = np.stack([d.theta for d in sample_parameters(system, n_pairs, seed)])
    states, _, ok, _ = integrate_batch(system, thetas, system.x0, grid)
    assert ok.all()
    x0s = np.tile(system.x0, (n_pairs, 1))
    return MultiviewDataset(
        system_id="ode27",
        shared_param_indices=(0, 1),
        grid=grid,
        states=np.stack([states, states]),
        thetas=np.stack([thetas, thetas]),
        x0s=np.stack([x0s, x0s]),
    )


def _tape_networks(model):
    """Tape copies of the model's networks: per-view encoder and decoder
    :class:`MlpParams`, and every tape tensor in the order of ``model.params``."""
    nets, leaves = [], []
    for stack in (model.encoders, model.decoders):
        layers = [
            [Tensor(block[v], requires_grad=True) for v in range(model.n_views)]
            for pair in zip(stack.weights, stack.biases)
            for block in pair
        ]
        leaves += [t for layer in layers for t in layer]
        nets.append([
            MlpParams(
                weights=[layer[v] for layer in layers[0::2]],
                biases=[layer[v] for layer in layers[1::2]],
            )
            for v in range(model.n_views)
        ])
    return nets[0], nets[1], leaves


def _tape_loss(model, enc_in, aux_in, targets):
    """Reference: the total loss as an autodiff graph, plus float components
    and the graph's parameter tensors (see :func:`_tape_networks`).

    Built from the public autodiff operations, one view at a time, with the
    field decoder's RK4 rollout unrolled inside the graph.
    """
    cfg = model.config
    encoders, decoders, leaves = _tape_networks(model)
    batch = enc_in[0].shape[0]
    latents, suff_terms = [], []
    for v in range(model.n_views):
        h = ad.mlp_forward(encoders[v], Tensor(enc_in[v]))
        latents.append(h)
        if cfg.decoder == "direct":
            out = ad.mlp_forward(decoders[v], ad.concat_cols(h, Tensor(aux_in[v])))
        else:
            d = model.prep.tgt_mean.shape[1]
            x = Tensor(targets[v][:, :d])
            out = x

            def f(state, v=v, h=h):
                return ad.mlp_forward(decoders[v], ad.concat_cols(h, state))

            for step in np.diff(model.grid.points):
                k1 = f(x)
                k2 = f(ad.add(x, ad.scale(k1, 0.5 * step)))
                k3 = f(ad.add(x, ad.scale(k2, 0.5 * step)))
                k4 = f(ad.add(x, ad.scale(k3, step)))
                incr = ad.add(ad.add(k1, ad.scale(ad.add(k2, k3), 2.0)), k4)
                x = ad.add(x, ad.scale(incr, step / 6.0))
                out = ad.concat_cols(out, x)
        resid = ad.sub(out, Tensor(targets[v]))
        suff_terms.append(ad.scale(ad.sum_all(ad.square(resid)), 1.0 / batch))
    sufficiency = suff_terms[0]
    for term in suff_terms[1:]:
        sufficiency = ad.add(sufficiency, term)

    shared = model.layout.shared_indices
    pair_terms = []
    for i, j in itertools.combinations(range(model.n_views), 2):
        diff = ad.sub(ad.slice_cols(latents[i], shared), ad.slice_cols(latents[j], shared))
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
    return total, components, leaves


def _batch_inputs(model, dataset, rows):
    """Per-view lists (enc_in, aux_in, targets) for the pairs ``rows``."""
    parts = [
        _standardized_inputs(model, dataset.states[v][rows], v) for v in range(model.n_views)
    ]
    return [list(p) for p in zip(*parts)]


def _closed_form_gradient_error(model, inputs, seed):
    """gradient_check of the closed-form gradient: 120 coordinates, bar 1e-4."""
    _, grad = _loss_and_grads(model, *inputs)
    return gradient_check(
        lambda: _loss_and_grads(model, *inputs)[0]["total"],
        model.params,
        grad,
        max_coords=120,
        seed=seed,
    )


def _small_config(**kw):
    kw.setdefault("block_sizes", (3, 3))
    kw.setdefault("hidden_dim", 16)
    kw.setdefault("depth", 2)
    kw.setdefault("epochs", 4)
    kw.setdefault("batch_size", 16)
    return IdentifierConfig(**kw)


# ---------------------------------------------------------------------------
# Layout.
# ---------------------------------------------------------------------------


def test_partition_layout_indices():
    lay = PartitionLayout((4, 4))
    assert lay.latent_dim == 8
    np.testing.assert_array_equal(lay.shared_indices, [0, 1, 2, 3])
    np.testing.assert_array_equal(lay.private_indices, [4, 5, 6, 7])
    lay2 = PartitionLayout((2, 3, 2))
    np.testing.assert_array_equal(lay2.shared_indices, [0, 1])
    np.testing.assert_array_equal(lay2.private_indices, [2, 3, 4, 5, 6])
    np.testing.assert_array_equal(lay2.block_indices(1), [2, 3, 4])


def test_partition_layout_validation():
    with pytest.raises(InvalidArgumentError):
        PartitionLayout((8,))
    with pytest.raises(InvalidArgumentError):
        PartitionLayout((4, 0))


# The ids are those the cases had when the shared block was an argument.
@pytest.mark.parametrize(
    "sizes",
    [pytest.param((2.7, 2), id="sizes0-0-block_sizes"),
     pytest.param((2, True), id="sizes1-0-block_sizes")],
)
def test_partition_layout_refuses_non_integers(sizes):
    with pytest.raises(InvalidArgumentError, match="block_sizes: expected an integer"):
        PartitionLayout(sizes)


def test_partition_layout_accepts_numpy_integers():
    lay = PartitionLayout(tuple(np.array([3, 2])))
    assert lay.block_sizes == (3, 2) and type(lay.block_sizes[0]) is int


@pytest.mark.parametrize("indices", [(0.9, 1.7), (True, 1), (0, 1.0)])
def test_dataset_refuses_non_integer_shared_indices(indices):
    data = _identical_view_dataset(n_pairs=2)
    with pytest.raises(InvalidArgumentError, match="shared_param_indices: expected an integer"):
        dataclasses.replace(data, shared_param_indices=indices)
    with pytest.raises(InvalidArgumentError, match="shared_param_indices: expected an integer"):
        generate_multiview_dataset("ode27", 2, 0, indices, grid_points=5)


# ---------------------------------------------------------------------------
# Dataset generation.
# ---------------------------------------------------------------------------


def test_dataset_shapes_and_shared_parameters():
    ds = _small_dataset(n_pairs=20)
    assert ds.states.shape == (2, 20, 30, 2)
    assert ds.thetas.shape == (2, 20, 4)
    assert ds.x0s.shape == (2, 20, 2)
    assert np.all(np.isfinite(ds.states))
    # Declared parameters agree across views; the others genuinely differ.
    np.testing.assert_array_equal(ds.thetas[0][:, [0, 1]], ds.thetas[1][:, [0, 1]])
    assert np.all(np.abs(ds.thetas[0][:, 2] - ds.thetas[1][:, 2]) > 0)
    assert ds.theta_shared.shape == (20, 2)
    assert ds.theta_private(0).shape == (20, 2)


def test_dataset_draws_stay_in_box_and_jitter_bounds():
    ds = _small_dataset(n_pairs=30, x0_jitter=0.2)
    from dynident.systems import get_system

    system = get_system("ode27")
    for v in range(2):
        assert np.all(ds.thetas[v] >= system.param_lo - 1e-12)
        assert np.all(ds.thetas[v] <= system.param_hi + 1e-12)
        rel = ds.x0s[v] / system.x0 - 1.0
        assert np.all(np.abs(rel) <= 0.2 + 1e-12)


def test_dataset_generation_is_deterministic():
    a = _small_dataset(n_pairs=12, seed=9)
    b = _small_dataset(n_pairs=12, seed=9)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.thetas, b.thetas)
    c = _small_dataset(n_pairs=12, seed=10)
    assert np.any(a.thetas != c.thetas)


def test_dataset_with_class_prototypes():
    protos = np.array([[0.6, 0.6], [1.0, 1.0], [1.8, 1.8]])
    ds = _small_dataset(n_pairs=40, shared_prototypes=protos)
    assert ds.labels is not None and ds.labels.shape == (40,)
    assert set(np.unique(ds.labels)) <= {0, 1, 2}
    np.testing.assert_array_equal(ds.theta_shared, protos[ds.labels])


def test_nonshared_draws_uncorrelated_across_views():
    # Components outside S are drawn independently per view, so their
    # across-view sample correlation should be near zero.
    ds = generate_multiview_dataset("ode27", 500, 21, (0, 1), grid_points=12, t_max=6.0)
    for j in (2, 3):
        r = np.corrcoef(ds.thetas[0][:, j], ds.thetas[1][:, j])[0, 1]
        assert abs(r) <= 0.1
    np.testing.assert_array_equal(ds.thetas[0][:, :2], ds.thetas[1][:, :2])


def test_dataset_validation():
    with pytest.raises(InvalidArgumentError):
        _small_dataset(n_pairs=0)
    with pytest.raises(InvalidArgumentError):
        generate_multiview_dataset("ode27", 4, 0, (0, 7))
    with pytest.raises(InvalidArgumentError):
        generate_multiview_dataset("ode27", 4, 0, ())
    with pytest.raises(InvalidArgumentError):
        generate_multiview_dataset("ode27", 4, 0, (0, 1, 2, 3))  # S must be proper
    with pytest.raises(InvalidArgumentError):
        generate_multiview_dataset("ode27", 4, 0, (0,), n_views=1)
    with pytest.raises(InvalidArgumentError):
        generate_multiview_dataset("ode27", 4, 0, (0,), x0_jitter=1.5)


def test_dataset_redraws_divergent_rows():
    # x' = theta0 * x^2 from x0 = 1 blows up at t = 1/theta0; over t_max = 0.5
    # draws with theta0 > ~2 diverge and must be replaced by fresh ones.
    blowup = OdeSystem(
        id="blowup-mv",
        name="quadratic blow-up probe",
        field=lambda th, x: np.stack((th[..., 0] * x[..., 0] ** 2,), axis=-1),
        param_lo=np.array([0.1, 0.5]),
        param_hi=np.array([5.0, 2.0]),
        x0=np.array([1.0]),
        t_max=0.5,
    )
    CATALOG[blowup.id] = blowup
    try:
        ds = generate_multiview_dataset(
            blowup.id, 25, 4, (1,), grid_points=20, x0_jitter=0.05
        )
        assert np.all(np.isfinite(ds.states))
        # Survivors are exactly the draws whose blow-up time clears t_max.
        assert np.all(ds.thetas[:, :, 0] * ds.x0s[:, :, 0] < 1.0 / 0.5 + 0.1)
    finally:
        del CATALOG[blowup.id]


def test_dataset_redraw_gives_up_when_all_draws_diverge():
    blowup = OdeSystem(
        id="blowup-mv-hopeless",
        name="always diverges",
        field=lambda th, x: np.stack((th[..., 0] * x[..., 0] ** 2,), axis=-1),
        param_lo=np.array([5.0, 0.5]),
        param_hi=np.array([10.0, 2.0]),
        x0=np.array([1.0]),
        t_max=3.0,
    )
    CATALOG[blowup.id] = blowup
    try:
        with pytest.raises(NumericDomainError):
            generate_multiview_dataset(blowup.id, 5, 0, (1,), grid_points=10)
    finally:
        del CATALOG[blowup.id]


def test_dataset_roundtrip_is_bit_exact(tmp_path):
    ds = _small_dataset(n_pairs=8)
    path = tmp_path / "pairs.npz"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.system_id == ds.system_id
    assert back.shared_param_indices == ds.shared_param_indices
    np.testing.assert_array_equal(back.states, ds.states)
    np.testing.assert_array_equal(back.thetas, ds.thetas)
    np.testing.assert_array_equal(back.x0s, ds.x0s)
    assert back.labels is None

    protos = np.array([[0.7, 1.1]])
    ds2 = _small_dataset(n_pairs=5, shared_prototypes=protos)
    save_dataset(path, ds2)
    np.testing.assert_array_equal(load_dataset(path).labels, ds2.labels)


def test_same_seed_writes_identical_dataset_files(tmp_path):
    path_a = tmp_path / "a.npz"
    path_b = tmp_path / "b.npz"
    save_dataset(path_a, _small_dataset(n_pairs=8, seed=5))
    save_dataset(path_b, _small_dataset(n_pairs=8, seed=5))
    assert path_a.read_bytes() == path_b.read_bytes()


# ---------------------------------------------------------------------------
# Model construction and encoding.
# ---------------------------------------------------------------------------


def test_build_identifier_shapes_and_standardization():
    ds = _small_dataset()
    cfg = _small_config(n_init=6)
    model = build_identifier(ds, cfg, seed=0)
    # ceil(0.5 * 30) = 15 DCT rows, 2 channels; (views, fan_in, fan_out).
    assert model.encoders.weights[0].shape == (2, 30, 16)
    assert model.encoders.weights[-1].shape == (2, 16, 6)
    assert model.decoders.weights[0].shape == (2, 6 + 6 * 2, 16)
    assert model.decoders.weights[-1].shape == (2, 16, 30 * 2)
    assert model.params.size == sum(
        a.size for net in (model.encoders, model.decoders) for a in net.weights + net.biases
    )
    # Each view's network is the tape's mlp_init drawn from that view's stream.
    for role, net in (("encoder", model.encoders), ("decoder", model.decoders)):
        for v in range(2):
            in_dim, out_dim = net.weights[0].shape[1], net.weights[-1].shape[2]
            ref = ad.mlp_init(in_dim, out_dim, 16, 2, rng=substream(0, "mv-init", role, v))
            for k in range(2):
                assert net.weights[k][v].tobytes() == ref.weights[k].view().tobytes()
                assert net.biases[k][v].tobytes() == ref.biases[k].view().tobytes()
    enc, aux, tgt = _standardized_inputs(model, ds.states[0], 0)
    for block in (enc, aux):
        np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(block.std(axis=0), 1.0, atol=1e-9)
    # Targets standardize per channel over all pairs and times.
    assert abs(tgt.mean()) < 1e-12


def test_config_validation():
    with pytest.raises(ConfigError):
        _small_config(decoder="transformer")
    with pytest.raises(ConfigError):
        _small_config(reg_align=-1.0)
    with pytest.raises(ConfigError):
        _small_config(epochs=-1)
    ds = _small_dataset(n_pairs=6)
    with pytest.raises(ConfigError):
        build_identifier(ds, _small_config(n_init=31), seed=0)


def test_encode_shapes_and_determinism():
    ds = _small_dataset(n_pairs=10)
    model = build_identifier(ds, _small_config(), seed=1)
    z0 = encode(model, ds.states[0], 0)
    assert z0.shape == (10, 6)
    np.testing.assert_array_equal(z0, encode(model, ds.states[0], 0))
    with pytest.raises(InvalidArgumentError):
        encode(model, ds.states[0][:, :-1], 0)
    np.testing.assert_array_equal(model.layout.shared_indices, [0, 1, 2])


# ---------------------------------------------------------------------------
# Loss.
# ---------------------------------------------------------------------------


def test_loss_decomposition_is_exact():
    ds = _small_dataset(n_pairs=16)
    cfg = _small_config(reg_align=7.5)
    model = build_identifier(ds, cfg, seed=2)
    comps = multiview_loss(model, ds)
    assert comps["total"] == 7.5 * comps["alignment"] + comps["sufficiency"]
    assert comps["sufficiency"] > 0
    assert comps["alignment"] > 0


def test_alignment_vanishes_for_identical_views_and_encoders():
    # Bit-identical views plus cloned encoder weights force z1 == z2.
    ds = _identical_view_dataset(n_pairs=12, grid_points=20, t_max=6.0, seed=5)
    np.testing.assert_array_equal(ds.states[0], ds.states[1])
    model = build_identifier(ds, _small_config(), seed=3)
    enc = model.encoders
    for k in range(len(enc.weights)):
        enc.weights[k][1] = enc.weights[k][0]
        enc.biases[k][1] = enc.biases[k][0]
    comps = multiview_loss(model, ds)
    assert comps["alignment"] == 0.0
    assert comps["total"] == comps["sufficiency"]
    assert alignment_ratio(model, ds) == 0.0


def test_handcrafted_affine_model_reaches_zero_loss():
    # With identical views, affine networks, and an initial stub covering the
    # whole trajectory, a decoder that re-scales the stub back to target
    # standardization is exact: the loss floor is pure rounding.
    ds = _identical_view_dataset(n_pairs=10, grid_points=12, t_max=5.0, seed=6)
    cfg = _small_config(depth=1, n_init=12)
    model = build_identifier(ds, cfg, seed=4)
    lat = model.layout.latent_dim
    d = 2
    enc, dec = model.encoders, model.decoders
    _, dec_in, dec_out = dec.weights[0].shape
    for v in range(2):
        enc.weights[0][v] = enc.weights[0][0]
        enc.biases[0][v] = enc.biases[0][0]
        w = np.zeros((dec_in, dec_out))
        b = np.zeros(dec_out)
        for j in range(dec_out):
            c = j % d
            w[lat + j, j] = model.prep.aux_std[v][j] / model.prep.tgt_std[v][c]
            b[j] = (model.prep.aux_mean[v][j] - model.prep.tgt_mean[v][c]) / model.prep.tgt_std[v][c]
        dec.weights[0][v] = w
        dec.biases[0][v] = b
    comps = multiview_loss(model, ds)
    assert comps["alignment"] == 0.0
    assert comps["sufficiency"] < 1e-12
    assert comps["total"] < 1e-12

    # The same construction must make decode_forecast reproduce the states.
    z = encode(model, ds.states[0], 0)
    recon = decode_forecast(model, z, ds.states[0][:, :12], 0)
    np.testing.assert_allclose(recon, ds.states[0], atol=1e-8)


def test_loss_batch_subset_matches_manual_graph():
    ds = _small_dataset(n_pairs=20)
    model = build_identifier(ds, _small_config(), seed=7)
    idx = np.array([3, 7, 11])
    comps = multiview_loss(model, ds, idx)
    inputs = _batch_inputs(model, ds, idx)
    assert comps == _loss_and_grads(model, *inputs)[0]
    _, manual, _ = _tape_loss(model, *inputs)
    for key, value in manual.items():
        assert comps[key] == pytest.approx(value, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    decoder=st.sampled_from(["direct", "field"]),
    depth=st.integers(1, 3),
    n_views=st.integers(2, 3),
    init_seed=st.integers(0, 2**16),
)
def test_closed_form_loss_and_gradients_match_the_tape(decoder, depth, n_views, init_seed):
    ds = generate_multiview_dataset(
        "ode27", 8, 17, (0, 1), n_views=n_views, grid_points=6, t_max=2.0
    )
    cfg = _small_config(
        decoder=decoder, depth=depth, hidden_dim=5,
        block_sizes=(2, 3), n_init=2, reg_align=3.0,
    )
    model = build_identifier(ds, cfg, seed=init_seed)
    inputs = _batch_inputs(model, ds, np.arange(5))
    comps, grad = _loss_and_grads(model, *inputs)

    total, ref, leaves = _tape_loss(model, *inputs)
    ad.zero_grad(leaves)
    ad.backward(total)
    for key, value in ref.items():
        assert comps[key] == pytest.approx(value, rel=1e-12, abs=0.0)
    assert grad.size == sum(p.data.size for p in leaves)
    offset = 0
    for p in leaves:
        g = grad[offset : offset + p.data.size]
        offset += p.data.size
        scale = np.max(np.abs(p.grad))
        assert np.max(np.abs(g - p.grad)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def test_training_reduces_loss_and_is_deterministic():
    ds = _small_dataset(n_pairs=48)
    cfg = _small_config(epochs=6, lr=3e-3)
    model_a, hist_a = train_identifier(ds, cfg, seed=11)
    model_b, hist_b = train_identifier(ds, cfg, seed=11)
    assert len(hist_a) == 6
    assert hist_a[-1]["total"] < hist_a[0]["total"]
    assert hist_a == hist_b
    assert model_a.params.tobytes() == model_b.params.tobytes()


def test_smoothed_training_loss_is_nonincreasing():
    ds = _small_dataset(n_pairs=48)
    cfg = _small_config(epochs=30)
    _, history = train_identifier(ds, cfg, seed=11)
    totals = np.array([h["total"] for h in history])
    smoothed = np.convolve(totals, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(smoothed) <= 0.0)


def test_reg_align_zero_degenerates_to_autoencoder():
    # Without the alignment term training still drives reconstruction down,
    # but nothing pulls the shared blocks of the two views together.
    ds = _small_dataset(n_pairs=48)
    model_0, hist_0 = train_identifier(
        ds, _small_config(epochs=12, reg_align=0.0), seed=11
    )
    model_a, hist_a = train_identifier(
        ds, _small_config(epochs=12, reg_align=30.0), seed=11
    )
    assert hist_0[-1]["sufficiency"] < hist_0[0]["sufficiency"]
    assert hist_0[-1]["alignment"] > hist_a[-1]["alignment"]
    assert alignment_ratio(model_0, ds) > alignment_ratio(model_a, ds)


def test_heldout_reconstruction_matches_trained_sufficiency():
    ds_train = generate_multiview_dataset(
        "ode27", 384, 3, (0, 1), grid_points=30, t_max=8.0
    )
    ds_held = generate_multiview_dataset(
        "ode27", 64, 4, (0, 1), grid_points=30, t_max=8.0
    )
    cfg = _small_config(hidden_dim=32, epochs=30, batch_size=32)
    model, history = train_identifier(ds_train, cfg, seed=11)
    held = multiview_loss(model, ds_held)
    assert held["sufficiency"] <= history[-1]["sufficiency"]


def test_direct_decoder_gradients_at_initialization():
    ds = _small_dataset(n_pairs=6, grid_points=12, t_max=5.0)
    cfg = _small_config(hidden_dim=6, block_sizes=(2, 2), epochs=0, n_init=2)
    model = build_identifier(ds, cfg, seed=12)
    err = _closed_form_gradient_error(model, _batch_inputs(model, ds, np.arange(3)), seed=1)
    assert err < 1e-4


def test_training_zero_epochs_returns_fresh_model():
    ds = _small_dataset(n_pairs=10)
    cfg = _small_config(epochs=0)
    model, history = train_identifier(ds, cfg, seed=5)
    assert history == []
    fresh = build_identifier(ds, cfg, seed=5)
    assert model.params.tobytes() == fresh.params.tobytes()


def test_training_divergence_is_reported_with_location():
    ds = _small_dataset(n_pairs=32)
    cfg = _small_config(
        epochs=3, batch_size=16, lr=1e200, reg_align=1.0
    )
    with pytest.raises(TrainingDivergedError) as exc:
        train_identifier(ds, cfg, seed=6)
    err = exc.value
    assert err.epoch == 0
    assert err.step >= 1
    assert not np.isfinite(err.components["total"])


def test_three_views_train_and_align():
    ds = generate_multiview_dataset(
        "ode27", 24, 8, (0, 1), n_views=3, grid_points=20, t_max=6.0
    )
    assert ds.states.shape[0] == 3
    np.testing.assert_array_equal(ds.thetas[0][:, :2], ds.thetas[1][:, :2])
    np.testing.assert_array_equal(ds.thetas[0][:, :2], ds.thetas[2][:, :2])
    cfg = _small_config(epochs=2)
    model, history = train_identifier(ds, cfg, seed=9)
    assert model.n_views == 3
    assert np.isfinite(history[-1]["total"])
    assert encode(model, ds.states[2], 2).shape == (24, 6)
    assert alignment_ratio(model, ds) > 0


# ---------------------------------------------------------------------------
# Float32 training compute.
# ---------------------------------------------------------------------------


def _float32_config(decoder, **kw):
    return _small_config(decoder=decoder, hidden_dim=8, batch_size=8, n_init=2, **kw)


def _float32_dataset():
    return _small_dataset(n_pairs=16, grid_points=8, t_max=3.0)


@pytest.mark.parametrize("decoder", ["direct", "field"])
def test_training_steps_in_float32_and_returns_float64(monkeypatch, decoder):
    """Adam sees float32 parameters, gradient and moments; the model that
    training returns holds the float32 result in its float64 buffer, and a
    rerun gives the same bytes."""
    seen = []
    adam_step = ad.adam_step

    def spy(state, params, grad):
        seen.append((params.dtype, grad.dtype, state.m.dtype, state.v.dtype))
        adam_step(state, params, grad)

    monkeypatch.setattr(ad, "adam_step", spy)
    ds = _float32_dataset()
    cfg = _float32_config(decoder, epochs=2)
    model, history = train_identifier(ds, cfg, seed=13)
    assert seen == [(np.dtype(np.float32),) * 4] * 4
    assert model.params.dtype == np.float64
    np.testing.assert_array_equal(model.params.astype(np.float32), model.params)
    assert not np.array_equal(model.params, build_identifier(ds, cfg, seed=13).params)
    again, history_again = train_identifier(ds, cfg, seed=13)
    assert history_again == history
    assert again.params.tobytes() == model.params.tobytes()


@pytest.mark.parametrize("decoder", ["direct", "field"])
def test_float32_loss_and_gradient_match_float64(decoder):
    """One batch through :func:`_loss` in both precisions: the components
    and the gradient agree to about float32's resolution, and the float32
    gradient is not the float64 one rounded (the passes ran in float32)."""
    ds = _float32_dataset()
    model = build_identifier(ds, _float32_config(decoder), seed=12)
    results = []
    for dtype in (np.float64, np.float32):
        params = model.params.astype(dtype)
        grad = np.empty_like(params)
        inputs = _stacked_inputs(model, ds.states[:, :8], dtype)
        results.append((_loss(model, model.stacks(params), *inputs, model.stacks(grad)), grad))
    (comps64, grad64), (comps32, grad32) = results
    for key, value in comps64.items():
        assert comps32[key] == pytest.approx(value, rel=1e-5)
    assert np.linalg.norm(grad32 - grad64) <= 1e-5 * np.linalg.norm(grad64)
    assert not np.array_equal(grad32, grad64.astype(np.float32))


# ---------------------------------------------------------------------------
# Field decoder.
# ---------------------------------------------------------------------------


def test_field_decoder_gradients_through_rollout():
    ds = _small_dataset(n_pairs=6, grid_points=5, t_max=2.0)
    cfg = _small_config(
        decoder="field", hidden_dim=6, depth=2, block_sizes=(2, 2), epochs=0, n_init=2
    )
    model = build_identifier(ds, cfg, seed=12)
    err = _closed_form_gradient_error(model, _batch_inputs(model, ds, np.arange(2)), seed=1)
    assert err < 1e-4


def test_field_decoder_trains_and_forecasts():
    ds = _small_dataset(n_pairs=16, grid_points=8, t_max=3.0)
    cfg = _small_config(
        decoder="field", hidden_dim=8, depth=2, epochs=3, batch_size=8, lr=3e-3, n_init=2
    )
    model, history = train_identifier(ds, cfg, seed=13)
    assert history[-1]["total"] < history[0]["total"]
    again, history_again = train_identifier(ds, cfg, seed=13)
    assert history_again == history
    assert model.params.tobytes() == again.params.tobytes()
    z = encode(model, ds.states[0], 0)
    recon = decode_forecast(model, z, ds.states[0][:, 0], 0)
    assert recon.shape == (16, 8, 2)
    # The rollout is anchored at the supplied initial condition.
    np.testing.assert_allclose(recon[:, 0], ds.states[0][:, 0], atol=1e-10)
    # decode_forecast rolls out exactly what the training loss compares.
    sufficiency = 0.0
    for v in range(2):
        recon_v = decode_forecast(model, encode(model, ds.states[v], v), ds.states[v][:, 0], v)
        sufficiency += np.sum(((recon_v - ds.states[v]) / model.prep.tgt_std[v]) ** 2) / 16
    assert multiview_loss(model, ds)["sufficiency"] == pytest.approx(sufficiency, rel=1e-9)


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    ds = _small_dataset(n_pairs=24)
    cfg = _small_config(epochs=2)
    model, _ = train_identifier(ds, cfg, seed=14)
    path = tmp_path / "identifier.npz"
    save_identifier(path, model)
    back = load_identifier(path)
    assert back.config == model.config
    assert back.system_id == model.system_id
    assert back.shared_param_indices == model.shared_param_indices
    assert back.params.tobytes() == model.params.tobytes()
    np.testing.assert_array_equal(back.prep.enc_mean, model.prep.enc_mean)
    np.testing.assert_array_equal(back.prep.tgt_std, model.prep.tgt_std)
    np.testing.assert_array_equal(
        encode(back, ds.states[0], 0), encode(model, ds.states[0], 0)
    )
    assert multiview_loss(back, ds) == multiview_loss(model, ds)


def _edited_checkpoint(tmp_path, edit):
    """A saved model whose arrays ``edit`` changed in place."""
    model = build_identifier(_small_dataset(n_pairs=12), _small_config(), seed=15)
    path = tmp_path / "identifier.npz"
    save_identifier(path, model)
    meta, arrays = _read_archive(path, "multiview-model")
    edit(arrays)
    _write_archive(path, "multiview-model", meta, arrays)
    return path


def test_checkpoint_with_a_short_preprocessing_row_is_rejected(tmp_path):
    def cut_one_column(arrays):
        arrays["prep.enc_mean"] = arrays["prep.enc_mean"][:, :-1]

    path = _edited_checkpoint(tmp_path, cut_one_column)
    with pytest.raises(FileFormatError, match="prep.enc_mean has shape"):
        load_identifier(path)


@pytest.mark.parametrize(
    "edit", [lambda p: p[:-1], lambda p: np.append(p, 0.0)], ids=["short", "long"]
)
def test_checkpoint_whose_params_do_not_fit_is_rejected(tmp_path, edit):
    """A ``params`` member one element short or long does not fit the layout
    that the config, grid and preprocessing call for."""

    def edit_params(arrays):
        arrays["params"] = edit(arrays["params"])

    path = _edited_checkpoint(tmp_path, edit_params)
    with pytest.raises(FileFormatError, match=r"shape \(\d+,\).* params of \(\d+,\)") as err:
        load_identifier(path)
    assert str(path) in str(err.value)


def test_loss_rejects_a_model_whose_params_disagree_with_its_config():
    """A parameter buffer one element short or long, shaped as a matrix, or
    of a dtype other than float32 and float64 does not fit the config and
    grid; the loss refuses it."""
    ds = _small_dataset(n_pairs=12)
    model = build_identifier(ds, _small_config(), seed=15)
    for params in (
        model.params[:-1],
        np.append(model.params, 0.0),
        model.params.reshape(1, -1),
        model.params.astype(np.float16),
        model.params.astype(np.int64),
    ):
        bad = dataclasses.replace(model, params=params)
        with pytest.raises(InvalidArgumentError, match="parameter buffer"):
            multiview_loss(bad, ds)


# ---------------------------------------------------------------------------
# Archive files: bit-exact round trips, and refusal of damaged files.
# ---------------------------------------------------------------------------


def _random_dataset(rng, n_views, n_pairs, labeled, t_pts=5, d=2, n_params=3):
    """Arrays of arbitrary float64 bit patterns, -0.0, inf and NaN included."""
    states = rng.standard_normal((n_views, n_pairs, t_pts, d)) * 10.0 ** rng.integers(
        -300, 300, size=(n_views, n_pairs, t_pts, d)
    )
    states.flat[:3] = [-0.0, np.inf, np.nan]
    return MultiviewDataset(
        system_id="ode27",
        shared_param_indices=(0, 1),
        grid=TimeGrid.uniform(0.0, 2.5, t_pts),
        states=states,
        thetas=rng.uniform(0.5, 2.0, (n_views, n_pairs, n_params)),
        x0s=rng.standard_normal((n_views, n_pairs, d)),
        labels=rng.integers(0, 4, n_pairs) if labeled else None,
    )


@settings(max_examples=30, deadline=None)
@given(
    n_views=st.sampled_from([2, 3]),
    n_pairs=st.integers(1, 6),
    labeled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dataset_archive_roundtrip_is_bit_exact(tmp_path_factory, n_views, n_pairs, labeled, seed):
    ds = _random_dataset(np.random.default_rng(seed), n_views, n_pairs, labeled)
    path = tmp_path_factory.mktemp("archive") / "pairs.npz"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert (back.system_id, back.shared_param_indices) == (ds.system_id, ds.shared_param_indices)
    assert back.grid.points.tobytes() == ds.grid.points.tobytes()
    for name in ("states", "thetas", "x0s"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()
        assert getattr(back, name).shape == getattr(ds, name).shape
    if labeled:
        np.testing.assert_array_equal(back.labels, ds.labels)
    else:
        assert back.labels is None


@functools.lru_cache(maxsize=None)
def _archive_dataset(n_views):
    return generate_multiview_dataset(
        "ode27", 6, 4, (0, 1), n_views=n_views, grid_points=10, t_max=4.0
    )


@settings(max_examples=20, deadline=None)
@given(
    decoder=st.sampled_from(["direct", "field"]),
    n_views=st.sampled_from([2, 3]),
    depth=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_archive_roundtrip_is_bit_exact(tmp_path_factory, decoder, n_views, depth, seed):
    ds = _archive_dataset(n_views)
    cfg = _small_config(decoder=decoder, depth=depth, hidden_dim=5, n_init=2, block_sizes=(2, 1))
    model = build_identifier(ds, cfg, seed=seed % 1000)
    path = tmp_path_factory.mktemp("archive") / "model.npz"
    save_identifier(path, model)
    back = load_identifier(path)
    assert back.config == model.config
    assert (back.system_id, back.shared_param_indices) == (model.system_id, model.shared_param_indices)
    assert back.n_views == n_views
    assert back.params.shape == model.params.shape
    assert back.params.tobytes() == model.params.tobytes()
    for name in ("enc_mean", "enc_std", "aux_mean", "aux_std", "tgt_mean", "tgt_std"):
        assert getattr(back.prep, name).tobytes() == getattr(model.prep, name).tobytes()
    assert multiview_loss(back, ds) == multiview_loss(model, ds)


def _payload_offsets(data: bytes) -> list:
    """Offsets of the bytes that hold the members' contents (not the zip headers)."""
    import io
    import struct
    import zipfile

    offsets = []
    for info in zipfile.ZipFile(io.BytesIO(data)).infolist():
        name_len, extra_len = struct.unpack("<HH", data[info.header_offset + 26:info.header_offset + 30])
        start = info.header_offset + 30 + name_len + extra_len
        offsets.extend(range(start, start + info.compress_size))
    return offsets


_ARCHIVE_BYTES = {}


def _archive_bytes(kind, tmp_dir):
    """The bytes of a small saved dataset or model."""
    if kind not in _ARCHIVE_BYTES:
        path = tmp_dir / f"{kind}.npz"
        ds = _archive_dataset(2)
        if kind == "dataset":
            save_dataset(path, ds)
        else:
            save_identifier(path, build_identifier(ds, _small_config(hidden_dim=5), seed=2))
        _ARCHIVE_BYTES[kind] = path.read_bytes()
    return _ARCHIVE_BYTES[kind]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["dataset", "model"]),
    cut=st.booleans(),
    where=st.floats(0.0, 1.0, exclude_max=True),
    xor=st.integers(1, 255),
)
def test_cut_or_flipped_archive_is_refused(tmp_path_factory, kind, cut, where, xor):
    """Cutting a file at any offset, or changing any one byte of a member's
    contents, raises FileFormatError naming the file."""
    tmp = tmp_path_factory.mktemp("damaged")
    data = bytearray(_archive_bytes(kind, tmp))
    if cut:
        data = data[: int(where * len(data))]
    else:
        payload = _payload_offsets(bytes(data))
        data[payload[int(where * len(payload))]] ^= xor
    path = tmp / f"damaged-{kind}.npz"
    path.write_bytes(bytes(data))
    load = load_dataset if kind == "dataset" else load_identifier
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert str(path) in str(err.value)


def test_archive_refuses_wrong_kind_missing_members_and_wrong_dtypes(tmp_path):
    ds = _archive_dataset(2)
    data, model = tmp_path / "pairs.npz", tmp_path / "model.npz"
    save_dataset(data, ds)
    save_identifier(model, build_identifier(ds, _small_config(hidden_dim=5), seed=2))
    with pytest.raises(FileFormatError, match="not a multiview-model file"):
        load_identifier(data)
    with pytest.raises(FileFormatError, match="not a multiview-dataset file"):
        load_dataset(model)

    meta, arrays = _read_archive(data, "multiview-dataset")
    _write_archive(tmp_path / "no-x0s.npz", "multiview-dataset", meta,
                   {k: v for k, v in arrays.items() if k != "x0s"})
    with pytest.raises(FileFormatError, match=r"missing x0s\.npy"):
        load_dataset(tmp_path / "no-x0s.npz")
    _write_archive(tmp_path / "f32.npz", "multiview-dataset", meta,
                   {**arrays, "thetas": arrays["thetas"].astype(np.float32)})
    with pytest.raises(FileFormatError, match="thetas has dtype float32"):
        load_dataset(tmp_path / "f32.npz")
    _write_archive(tmp_path / "labels.npz", "multiview-dataset", meta,
                   {**arrays, "labels": np.zeros(ds.n_pairs)})
    with pytest.raises(FileFormatError, match="labels has dtype float64"):
        load_dataset(tmp_path / "labels.npz")
    _write_archive(tmp_path / "v1.npz", "multiview-dataset", {**meta, "schema_version": 1}, arrays)
    with pytest.raises(FileFormatError, match="schema_version 1"):
        load_dataset(tmp_path / "v1.npz")
    _write_archive(tmp_path / "short.npz", "multiview-dataset",
                   {**meta, "n_pairs": ds.n_pairs + 1}, arrays)
    with pytest.raises(FileFormatError, match="meta.json declares"):
        load_dataset(tmp_path / "short.npz")
    _write_archive(tmp_path / "idx.npz", "multiview-dataset",
                   {**meta, "shared_param_indices": [0, 9]}, arrays)
    with pytest.raises(FileFormatError, match=r"shared_param_indices \(0, 9\) out of range"):
        load_dataset(tmp_path / "idx.npz")

    meta, arrays = _read_archive(model, "multiview-model")
    del arrays["params"]
    _write_archive(tmp_path / "no-params.npz", "multiview-model", meta, arrays)
    with pytest.raises(FileFormatError, match=r"missing params\.npy"):
        load_identifier(tmp_path / "no-params.npz")


def test_dataset_shared_indices_load_sorted(tmp_path):
    """load_dataset applies the rule that load_identifier and the generator
    apply, which also sorts a hand-edited S."""
    path = tmp_path / "pairs.npz"
    save_dataset(path, _archive_dataset(2))
    meta, arrays = _read_archive(path, "multiview-dataset")
    _write_archive(path, "multiview-dataset", {**meta, "shared_param_indices": [1, 0]}, arrays)
    assert load_dataset(path).shared_param_indices == (0, 1)


def test_archive_entries_carry_the_fixed_timestamp(tmp_path):
    """A dataset holds its three arrays and a model its six preprocessing
    rows and its one parameter buffer, each entry stored with the fixed
    timestamp."""
    import zipfile

    data, model = tmp_path / "pairs.npz", tmp_path / "model.npz"
    save_dataset(data, _archive_dataset(2))
    save_identifier(model, build_identifier(_archive_dataset(2), _small_config(hidden_dim=5), seed=2))
    prep = ["enc_mean", "enc_std", "aux_mean", "aux_std", "tgt_mean", "tgt_std"]
    for path, members in (
        (data, ["states", "thetas", "x0s"]),
        (model, [f"prep.{name}" for name in prep] + ["params"]),
    ):
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
        assert [i.filename for i in infos] == ["meta.json"] + [f"{m}.npy" for m in members]
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
