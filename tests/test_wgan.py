"""Loss identities, training-loop behavior, checkpoints, and sampling."""

import importlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csigen.atomic
from csigen.core import ArrayGeometry, CsiDataset, MinMaxScaler
from csigen.gan.fastgrad import critic_forward, critic_loss_fast, generator_loss_fast
from csigen.gan.mlp import DenseLayer, FlatArrays, MlpParams, init_mlp, mlp_forward
from csigen.gan.nets import (
    CriticParams,
    delay_spread_flat,
    flatten_csi,
    init_critic,
    init_generator,
)
from csigen.gan.sample import sample_fixed, sample_variable
from csigen.gan.train import (
    TRAINING_DTYPE,
    AdamState,
    Checkpoint,
    CheckpointBadMagicError,
    CheckpointFormatError,
    CheckpointLengthError,
    CheckpointMetadataError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    TrainingConfig,
    TrainingDivergedError,
    adam_update,
    load_checkpoint,
    save_checkpoint,
    train,
)
from graph_reference import critic_loss, generator_loss

TRAIN_MODULE = importlib.import_module("csigen.gan.train")

# Each loss identity holds for the routine that trains and for the graph-built
# reference alike.
CRITIC_LOSSES = (critic_loss, critic_loss_fast)
GENERATOR_LOSSES = (generator_loss, generator_loss_fast)

GEO = ArrayGeometry(1, 1, 2, 4, 1.272e9, 50e6)
CSI_WIDTH = 2 * GEO.num_antennas * GEO.num_taps


def toy_dataset(n=64, seed=0, geometry=GEO):
    rng = np.random.default_rng(seed)
    shape = (n,) + geometry.csi_shape
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    positions = rng.uniform(0, 10, size=(n, 2))
    return CsiDataset(geometry, csi, positions)


def toy_config(**overrides):
    defaults = dict(
        generator_steps=1,
        seed=0,
        batch_size=8,
        n_critic=2,
        noise_dim=6,
        hidden_scale=0.02,  # hidden widths collapse to the floor of 8
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def scaler_pair():
    return (
        MinMaxScaler(np.array([0.0, 0.0]), np.array([10.0, 10.0])),
        MinMaxScaler(0.0, GEO.num_taps * GEO.tap_duration),
    )


class TestSpecs:
    @staticmethod
    def widths(params):
        """[input width, then each layer's output width] of an MLP."""
        return [params.input_width] + [layer.weights.shape[0] for layer in params.layers]

    def test_generator_widths_match_reference_architecture(self):
        geometry = ArrayGeometry(4, 2, 4, 48, 1.272e9, 50e6)
        generator = init_generator(geometry, 128, 1.0, np.random.default_rng(0))
        assert self.widths(generator) == [130, 512, 512, 1024, 2048, 3072]
        assert generator.activations == ["relu", "relu", "relu", "relu", "linear"]

    def test_critic_widths_match_reference_architecture(self):
        geometry = ArrayGeometry(4, 2, 4, 48, 1.272e9, 50e6)
        critic = init_critic(geometry, 1.0, np.random.default_rng(0))
        assert self.widths(critic.trunk) == [3072, 160, 100, 50]
        assert self.widths(critic.fusion) == [50 + 32 + 2, 20, 10, 1]
        assert critic.trunk.activations == ["relu", "relu", "relu"]
        assert critic.fusion.activations == ["relu", "relu", "linear"]

    def test_hidden_scale_shrinks_only_hidden(self):
        generator = init_generator(GEO, 16, 0.25, np.random.default_rng(0))
        assert self.widths(generator) == [18, 128, 128, 256, 512, CSI_WIDTH]

    def test_flatten_layout(self):
        """All real parts in C order over (array, row, column, tap), then all
        imaginary parts in the same order."""
        geometry = ArrayGeometry(2, 3, 2, 4, 1.272e9, 50e6)
        rng = np.random.default_rng(1)
        shape = (5,) + geometry.csi_shape
        csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = flatten_csi(csi)
        half = math.prod(geometry.csi_shape)
        assert flat.shape == (5, 2 * half)
        for n in range(5):
            for b, r, c, t in np.ndindex(geometry.csi_shape):
                antenna = (b * geometry.rows_per_array + r) * geometry.cols_per_array + c
                k = antenna * geometry.num_taps + t
                assert flat[n, k] == csi[n, b, r, c, t].real
                assert flat[n, half + k] == csi[n, b, r, c, t].imag


class TestCriticLoss:
    def test_identical_batches_zero_loss_without_penalty(self):
        rng = np.random.default_rng(2)
        critic = init_critic(GEO, 0.05, rng)
        generator = init_generator(GEO, 6, 0.05, rng)
        _, ds_scaler = scaler_pair()
        batch = toy_dataset(8, seed=3)
        real_flat = flatten_csi(batch.csi)
        pos = np.zeros((8, 2))
        noise = rng.standard_normal((8, 6))
        fake_flat = mlp_forward(generator, np.concatenate([noise, pos], axis=1))[0]
        # overwrite the real batch with the fakes: loss must vanish
        ds_scaled = ds_scaler.scale(delay_spread_flat(fake_flat, GEO))
        for loss_fn in CRITIC_LOSSES:
            loss, grads, info = loss_fn(
                critic, generator, GEO, ds_scaler, fake_flat, pos, ds_scaled,
                noise, np.full((8, 1), 0.5), gp_lambda=0.0,
            )
            assert loss == pytest.approx(0.0, abs=1e-12)
            assert info["real_score"] == pytest.approx(info["fake_score"], rel=1e-12)

    def test_linear_critic_loss_is_mean_difference(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(CSI_WIDTH)
        trunk = MlpParams([DenseLayer(w[None, :], np.zeros(1), "linear")])
        fusion_w = np.zeros((1, 1 + GEO.num_antennas + 2))
        fusion_w[0, 0] = 1.0
        critic = CriticParams(trunk, MlpParams([DenseLayer(fusion_w, np.zeros(1), "linear")]))
        generator = init_generator(GEO, 6, 0.05, rng)
        _, ds_scaler = scaler_pair()
        real_flat = rng.standard_normal((16, CSI_WIDTH))
        pos = rng.uniform(-1, 1, (16, 2))
        noise = rng.standard_normal((16, 6))
        fake_flat = mlp_forward(generator, np.concatenate([noise, pos], axis=1))[0]
        expected = w @ (fake_flat.mean(axis=0) - real_flat.mean(axis=0))
        for loss_fn in CRITIC_LOSSES:
            loss, _, _ = loss_fn(
                critic, generator, GEO, ds_scaler, real_flat, pos,
                ds_scaler.scale(delay_spread_flat(real_flat, GEO)),
                noise, np.full((16, 1), 0.3), gp_lambda=0.0,
            )
            assert loss == pytest.approx(expected, rel=1e-10)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(5)
        critic = init_critic(GEO, 0.05, rng)
        generator = init_generator(GEO, 6, 0.05, rng)
        _, ds_scaler = scaler_pair()
        for loss_fn in CRITIC_LOSSES:
            with pytest.raises(ValueError):
                loss_fn(
                    critic, generator, GEO, ds_scaler,
                    np.zeros((0, CSI_WIDTH)), np.zeros((0, 2)), np.zeros((0, GEO.num_antennas)),
                    np.zeros((0, 6)), np.zeros((0, 1)), gp_lambda=10.0,
                )

    def test_critic_improves_on_fixed_toy_problem(self):
        for loss_fn in CRITIC_LOSSES:
            rng = np.random.default_rng(6)
            dataset = toy_dataset(64, seed=7)
            critic = init_critic(GEO, 0.1, rng)
            generator = init_generator(GEO, 6, 0.1, rng)
            cond_scaler, ds_scaler = scaler_pair()
            real_flat = flatten_csi(dataset.csi)
            pos = cond_scaler.scale(dataset.positions)
            ds_real = ds_scaler.scale(delay_spread_flat(real_flat, GEO))
            state = AdamState.zeros_like(critic.arrays())
            adam_cfg = toy_config(learning_rate=1e-3)
            losses = []
            for step in range(50):
                idx = rng.integers(0, 64, size=16)
                noise = rng.standard_normal((16, 6))
                eps = rng.uniform(size=(16, 1))
                loss, grads, _ = loss_fn(
                    critic, generator, GEO, ds_scaler, real_flat[idx], pos[idx], ds_real[idx],
                    noise, eps, gp_lambda=10.0,
                )
                # the graph reference returns separate arrays; Adam takes one buffer
                adam_update(critic.arrays(), FlatArrays.packed(grads), state, adam_cfg)
                losses.append(loss)
            assert np.mean(losses[-10:]) < np.mean(losses[:10]), loss_fn.__name__


class TestGeneratorLoss:
    def test_constant_critic_gives_zero_gradient(self):
        rng = np.random.default_rng(8)
        trunk = MlpParams([DenseLayer(np.zeros((4, CSI_WIDTH)), np.zeros(4), "relu")])
        fusion = MlpParams(
            [DenseLayer(np.zeros((1, 4 + GEO.num_antennas + 2)), np.array([3.0]), "linear")]
        )
        critic = CriticParams(trunk, fusion)
        generator = init_generator(GEO, 6, 0.05, rng)
        _, ds_scaler = scaler_pair()
        pos, noise = rng.uniform(-1, 1, (8, 2)), rng.standard_normal((8, 6))
        for loss_fn in GENERATOR_LOSSES:
            loss, grads = loss_fn(critic, generator, GEO, ds_scaler, pos, noise)
            assert loss == pytest.approx(-3.0)
            for grad in grads:
                assert np.abs(grad).max() == 0.0

    def test_linear_critic_composes_with_generator_jacobian(self):
        # two-layer linear generator so the full Jacobian is writable by hand
        rng = np.random.default_rng(9)
        w1 = rng.standard_normal((5, 8))
        w2 = rng.standard_normal((CSI_WIDTH, 5))
        generator = MlpParams(
            [DenseLayer(w1, np.zeros(5), "linear"), DenseLayer(w2, np.zeros(CSI_WIDTH), "linear")]
        )
        w = rng.standard_normal(CSI_WIDTH)
        trunk = MlpParams([DenseLayer(w[None, :], np.zeros(1), "linear")])
        fusion_w = np.zeros((1, 1 + GEO.num_antennas + 2))
        fusion_w[0, 0] = 1.0
        critic = CriticParams(trunk, MlpParams([DenseLayer(fusion_w, np.zeros(1), "linear")]))
        _, ds_scaler = scaler_pair()
        pos = rng.uniform(-1, 1, (4, 2))
        noise = rng.standard_normal((4, 6))
        inputs = np.concatenate([noise, pos], axis=1)
        # analytic: loss = -mean(w @ W2 W1 x); dW1 = -(W2^T w) mean_x^T
        dw1_expected = -np.outer(w2.T @ w, inputs.mean(axis=0))
        dw2_expected = -np.outer(w, (inputs @ w1.T).mean(axis=0))
        for loss_fn in GENERATOR_LOSSES:
            loss, grads = loss_fn(critic, generator, GEO, ds_scaler, pos, noise)
            assert np.allclose(grads[0], dw1_expected, rtol=1e-10)
            assert np.allclose(grads[2], dw2_expected, rtol=1e-10)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(10)
        critic = init_critic(GEO, 0.05, rng)
        generator = init_generator(GEO, 6, 0.05, rng)
        _, ds_scaler = scaler_pair()
        pos = rng.uniform(-1, 1, (8, 2))
        noise = rng.standard_normal((8, 6))
        for loss_fn in GENERATOR_LOSSES:
            first = loss_fn(critic, generator, GEO, ds_scaler, pos, noise)
            second = loss_fn(critic, generator, GEO, ds_scaler, pos, noise)
            assert first[0] == second[0]
            assert all(np.array_equal(a, b) for a, b in zip(first[1], second[1]))


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("gp_ds_through_csi", "false"),
            ("gp_ds_through_csi", 0),
            ("gp_ds_through_csi", None),
            ("hidden_scale", True),
            ("critic_hidden_scale", True),
            ("learning_rate", True),
            ("adam_beta1", False),
            ("gp_lambda", "1.0"),
            ("adam_eps", "1e-8"),
            ("adam_beta2", None),
        ],
    )
    def test_wrong_typed_fields_are_value_errors(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainingConfig(generator_steps=1, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gp_ds_through_csi", False),
            ("gp_lambda", 10),
            ("learning_rate", np.float32(1e-3)),
            ("adam_beta1", 0),
            ("critic_hidden_scale", None),
        ],
    )
    def test_bools_and_real_numbers_are_accepted(self, field, value):
        assert getattr(TrainingConfig(generator_steps=1, **{field: value}), field) == value

    @pytest.mark.parametrize("field, degenerate, bound", [
        ("learning_rate", 0.0, 2.0**-150),
        ("adam_eps", np.inf, 2.0**128 - 2.0**103),
    ])
    def test_a_value_that_training_rounds_away_is_a_value_error(self, field, degenerate, bound):
        # the oracle is numpy's own cast to the training dtype, at the
        # float64 values around where that cast starts to give 0 or inf
        outcomes = set()
        for value in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
            with np.errstate(over="ignore"):
                rounds_away = TRAINING_DTYPE(value) == degenerate
            outcomes.add(rounds_away)
            if rounds_away:
                with pytest.raises(ValueError, match=field):
                    TrainingConfig(generator_steps=1, **{field: float(value)})
            else:
                TrainingConfig(generator_steps=1, **{field: float(value)})
        assert outcomes == {True, False}


class TestTrain:
    def test_one_step_deterministic(self, tmp_path):
        dataset = toy_dataset(32, seed=11)
        config = toy_config(generator_steps=1)
        first = train(dataset, config)
        second = train(dataset, config)
        save_checkpoint(first.checkpoint, tmp_path / "a.wgck")
        save_checkpoint(second.checkpoint, tmp_path / "b.wgck")
        assert (tmp_path / "a.wgck").read_bytes() == (tmp_path / "b.wgck").read_bytes()
        assert first.log_rows == second.log_rows

    def test_log_rows_structure(self):
        dataset = toy_dataset(32, seed=12)
        result = train(dataset, toy_config(generator_steps=3))
        assert len(result.log_rows) == 3
        assert [row["step"] for row in result.log_rows] == [1, 2, 3]
        for key in ("critic_loss", "gen_loss", "real_score", "fake_score"):
            assert all(math.isfinite(row[key]) for row in result.log_rows)

    def test_checkpoint_records_training_scalers(self):
        from csigen.metrics import dataset_delay_spreads

        dataset = toy_dataset(32, seed=18)
        checkpoint = train(dataset, toy_config(generator_steps=1)).checkpoint
        fitted = MinMaxScaler.fit(dataset.positions)
        assert np.array_equal(checkpoint.condition_scaler.minimum, fitted.minimum)
        assert np.array_equal(checkpoint.condition_scaler.maximum, fitted.maximum)
        spreads = dataset_delay_spreads(dataset)
        assert checkpoint.ds_scaler.minimum == pytest.approx(spreads.min(), rel=1e-6)
        assert checkpoint.ds_scaler.maximum == pytest.approx(spreads.max(), rel=1e-6)

    def test_resume_continues_bit_identically(self, tmp_path):
        dataset = toy_dataset(32, seed=13)
        full = train(dataset, toy_config(generator_steps=4))
        half = train(dataset, toy_config(generator_steps=2))
        # save/load round trip, then continue for the remaining steps
        save_checkpoint(half.checkpoint, tmp_path / "half.wgck")
        resumed = train(dataset, toy_config(generator_steps=2),
                        resume=load_checkpoint(tmp_path / "half.wgck"))
        assert resumed.checkpoint.step == 4
        for a, b in zip(
            full.checkpoint.generator.arrays() + full.checkpoint.critic.arrays(),
            resumed.checkpoint.generator.arrays() + resumed.checkpoint.critic.arrays(),
        ):
            assert np.array_equal(a, b)
        for a, b in zip(
            full.checkpoint.gen_adam.m + full.checkpoint.critic_adam.v,
            resumed.checkpoint.gen_adam.m + resumed.checkpoint.critic_adam.v,
        ):
            assert np.array_equal(a, b)
        assert full.checkpoint.rng_state == resumed.checkpoint.rng_state

    def test_divergence_aborts_with_diagnostic(self, tmp_path):
        dataset = toy_dataset(32, seed=14)
        seeded = train(dataset, toy_config(generator_steps=1))
        # poison one generator weight; the next step must trip the NaN guard
        seeded.checkpoint.generator.layers[0].weights[0, 0] = math.nan
        with pytest.raises(TrainingDivergedError):
            train(dataset, toy_config(generator_steps=3), out_dir=tmp_path,
                  resume=seeded.checkpoint)
        assert (tmp_path / "checkpoint_diverged.wgck").exists()

    def test_periodic_checkpoints(self, tmp_path):
        # every multiple of checkpoint_every before the last step: the end
        # state is the returned checkpoint, which the caller saves
        dataset = toy_dataset(32, seed=15)
        result = train(dataset, toy_config(generator_steps=6, checkpoint_every=2), out_dir=tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "checkpoint_0000002.wgck", "checkpoint_0000004.wgck"
        ]
        assert load_checkpoint(tmp_path / "checkpoint_0000002.wgck").step == 2
        assert load_checkpoint(tmp_path / "checkpoint_0000004.wgck").step == 4
        assert result.checkpoint.step == 6

    @pytest.mark.parametrize("through_csi", [True, False])
    def test_input_blocks_change_no_bit(self, tmp_path, monkeypatch, through_csi):
        dataset = toy_dataset(40, seed=24)
        config = toy_config(generator_steps=2, gp_ds_through_csi=through_csi)
        results = []
        for chunk in (1, 3 * GEO.num_antennas * GEO.num_taps, None):  # rows of 1, 3, all
            if chunk is not None:
                monkeypatch.setattr(TRAIN_MODULE, "INPUT_CHUNK", chunk)
            else:
                monkeypatch.undo()
            result = train(dataset, config)
            path = tmp_path / f"{chunk}.wgck"
            save_checkpoint(result.checkpoint, path)
            results.append((path.read_bytes(), result.log_rows))
        assert results[0] == results[1] == results[2]

    def test_real_rows_delay_spreads_are_computed_once(self, monkeypatch):
        # the critic scores the scaled spreads of the real rows, and the
        # penalty without the delay-spread path mixes those same spreads
        dataset = toy_dataset(40, seed=26)
        counted = []

        def counting(csi_flat, geometry):
            counted.append(csi_flat.shape[0])
            return delay_spread_flat(csi_flat, geometry)

        monkeypatch.setattr(TRAIN_MODULE, "INPUT_CHUNK", 3 * GEO.num_antennas * GEO.num_taps)
        monkeypatch.setattr(TRAIN_MODULE, "delay_spread_flat", counting)
        train(dataset, toy_config(generator_steps=0, gp_ds_through_csi=False))
        assert counted == [3] * 13 + [1]

    def test_input_preparation_holds_the_payload_once(self):
        # the critic's calibration probe adds a fixed cost of 256 rows, so
        # the rows are many and narrow
        geometry = ArrayGeometry(1, 1, 4, 16, 1.272e9, 50e6)
        dataset = toy_dataset(8192, seed=25, geometry=geometry)
        payload = dataset.csi.nbytes  # C, the complex128 payload
        assert payload > 8_000_000
        config = toy_config(generator_steps=0, gp_ds_through_csi=False)
        # a first run does the one-time set-up (about 0.06 C here), which
        # is no part of the payload's cost
        train(toy_dataset(8, geometry=geometry), config)
        # tracemalloc also sees numpy's array buffers
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            train(dataset, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 0.8 * payload, f"peak {peak - start} B beyond a {payload} B payload"

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(toy_dataset(0), toy_config())

    def test_resume_leaves_the_checkpoint_unchanged(self):
        dataset = toy_dataset(32, seed=23)
        checkpoint = train(dataset, toy_config(generator_steps=2)).checkpoint
        arrays = (
            checkpoint.generator.arrays() + checkpoint.critic.arrays()
            + checkpoint.gen_adam.m + checkpoint.gen_adam.v
            + checkpoint.critic_adam.m + checkpoint.critic_adam.v
        )
        before = [a.copy() for a in arrays]
        steps = (checkpoint.step, checkpoint.gen_adam.t, checkpoint.critic_adam.t)
        resumed = train(dataset, toy_config(generator_steps=2), resume=checkpoint)
        assert resumed.checkpoint.step == 4
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert (checkpoint.step, checkpoint.gen_adam.t, checkpoint.critic_adam.t) == steps


def reference_adam(arrays, grads, m_list, v_list, t, config):
    """Adam written out per array, in the operation order training uses."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for array, gradient, m, v in zip(arrays, grads, m_list, v_list):
        m *= b1
        m += (1.0 - b1) * gradient
        v *= b2
        v += (1.0 - b2) * gradient * gradient
        array -= config.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + config.adam_eps
        )


class TestFlatBuffers:
    def test_networks_view_one_buffer_in_canonical_order(self):
        rng = np.random.default_rng(24)
        generator = init_generator(GEO, 6, 0.05, rng)
        critic = init_critic(GEO, 0.05, rng)
        for arrays in (generator.arrays(), critic.arrays()):
            flat = arrays.flat
            assert flat.size == sum(a.size for a in arrays)
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))

    @staticmethod
    def assert_tiles(arrays):
        """``arrays`` is a FlatArrays whose views lie back to back in ``.flat``."""
        assert isinstance(arrays, FlatArrays)
        assert arrays.flat.ndim == 1
        assert all(np.shares_memory(a, arrays.flat) for a in arrays)
        assert np.array_equal(arrays.flat, np.concatenate([a.ravel() for a in arrays]))
        arrays.flat[...] = np.arange(arrays.flat.size)  # views change with the buffer
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), arrays.flat)

    def test_every_network_and_gradient_owns_its_flat_buffer(self, tmp_path):
        rng = np.random.default_rng(27)
        dataset = toy_dataset(16, seed=28)
        checkpoint = train(dataset, toy_config(generator_steps=1)).checkpoint
        path = tmp_path / "ck.wgck"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        cond_scaler, ds_scaler = scaler_pair()
        real = flatten_csi(dataset.csi[:4])
        pos = cond_scaler.scale(dataset.positions[:4])
        noise = rng.standard_normal((4, 6))
        _, cgrads, _ = critic_loss_fast(
            checkpoint.critic, checkpoint.generator, GEO, ds_scaler, real, pos,
            ds_scaler.scale(delay_spread_flat(real, GEO)), noise, rng.uniform(size=(4, 1)), 10.0,
        )
        _, ggrads = generator_loss_fast(
            checkpoint.critic, checkpoint.generator, GEO, ds_scaler, pos, noise
        )
        assert [a.shape for a in cgrads] == [a.shape for a in checkpoint.critic.arrays()]
        assert [a.shape for a in ggrads] == [a.shape for a in checkpoint.generator.arrays()]
        networks = []
        for ck in (checkpoint, loaded):
            networks += [ck.generator, ck.critic, ck.critic.trunk, ck.critic.fusion]
            networks += [ck.generator.copy(), ck.critic.copy()]
        arrays = [net.arrays() for net in networks] + [cgrads, ggrads]
        for ck in (checkpoint, loaded):
            arrays += [ck.gen_adam.m, ck.gen_adam.v, ck.critic_adam.m, ck.critic_adam.v]
        for group in arrays:
            self.assert_tiles(group)
        # the networks' layers view their buffers, the critic's trunk then fusion
        for net in networks:
            views = net.arrays()
            views.flat[...] = np.arange(views.flat.size)  # distinct values locate each view
            layers = net.layers if isinstance(net, MlpParams) else net.trunk.layers + net.fusion.layers
            canonical = [a for layer in layers for a in (layer.weights, layer.bias)]
            assert len(canonical) == len(views)
            assert all(np.shares_memory(a, b) and np.array_equal(a, b) for a, b in zip(canonical, views))
        for critic in (checkpoint.critic, loaded.critic):
            assert np.shares_memory(critic.trunk.arrays().flat, critic.arrays().flat)
            assert np.shares_memory(critic.fusion.arrays().flat, critic.arrays().flat)

    def test_networks_built_from_layers_copy_them(self):
        rng = np.random.default_rng(29)
        weights, bias = rng.standard_normal((3, 4)), rng.standard_normal(3)
        params = MlpParams([DenseLayer(weights, bias, "relu")])
        trunk_w = rng.standard_normal((2, 3))
        trunk = MlpParams([DenseLayer(trunk_w, np.zeros(2), "relu")])
        fusion = MlpParams([DenseLayer(np.ones((1, 2)), np.zeros(1), "linear")])
        critic = CriticParams(trunk, fusion)
        before = [a.copy() for a in params.arrays() + critic.arrays()]
        weights += 1.0
        bias[...] = 0.0
        trunk.layers[0].weights += 1.0
        fusion.layers[0].bias += 1.0
        assert not np.shares_memory(critic.trunk.layers[0].weights, trunk.layers[0].weights)
        for a, b in zip(params.arrays() + critic.arrays(), before):
            assert np.array_equal(a, b)
        self.assert_tiles(params.arrays())
        self.assert_tiles(critic.arrays())

    def test_flat_arrays_reject_a_buffer_that_does_not_tile(self):
        shapes = [(2, 3), (2,)]
        assert [a.shape for a in FlatArrays(np.zeros(8), shapes)] == shapes
        for flat in (np.zeros(7), np.zeros(9), np.zeros((2, 4))):
            with pytest.raises(ValueError):
                FlatArrays(flat, shapes)
        packed = FlatArrays.packed([np.ones((2, 3)), np.arange(2.0)])
        head, tail = packed.split(1)
        assert isinstance(head, FlatArrays) and isinstance(tail, FlatArrays)
        assert np.shares_memory(head.flat, packed.flat) and np.shares_memory(tail.flat, packed.flat)
        assert np.array_equal(tail[0], [0.0, 1.0])
        # list operations return plain lists, which carry no buffer
        for other in (packed[:1], packed + [], packed.copy()):
            assert type(other) is list

    def test_init_draws_the_same_weights_as_per_layer_arrays(self):
        widths, activations = [5, 7, 3], ["relu", "linear"]
        params = init_mlp(widths, activations, np.random.default_rng(25))
        rng = np.random.default_rng(25)
        for layer, fan_in, fan_out in zip(params.layers, widths[:-1], widths[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            expected = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            assert np.array_equal(layer.weights, expected)
            assert np.array_equal(layer.bias, np.zeros(fan_out))

    @pytest.mark.parametrize("beta1", [0.0, 0.5])
    def test_adam_matches_per_array_reference_bitwise(self, beta1):
        rng = np.random.default_rng(26)
        config = toy_config(learning_rate=3e-3, adam_beta1=beta1)
        arrays = init_generator(GEO, 6, 0.05, rng).arrays()
        state = AdamState.zeros_like(arrays)
        ref_arrays = [a.copy() for a in arrays]
        ref_m = [np.zeros_like(a) for a in arrays]
        ref_v = [np.zeros_like(a) for a in arrays]
        for step in range(1, 5):
            grads = [rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3) for a in arrays]
            if step % 2 == 0:
                # gradients outside one buffer are rejected before any update
                before = [a.copy() for a in arrays + state.m + state.v]
                with pytest.raises(ValueError):
                    adam_update(arrays, grads, state, config)
                assert state.t == step - 1
                assert all(
                    a.tobytes() == b.tobytes() for a, b in zip(arrays + state.m + state.v, before)
                )
            # the training losses hand over views into one gradient buffer
            adam_update(arrays, FlatArrays.packed(grads), state, config)
            reference_adam(ref_arrays, grads, ref_m, ref_v, step, config)
            assert state.t == step
            for ours, theirs in ((arrays, ref_arrays), (state.m, ref_m), (state.v, ref_v)):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))

    def test_adam_at_beta1_zero_keeps_signed_zeros_and_non_finite_moments(self):
        # at beta1 = 0 adam_update skips its multiplications and divisions by
        # exactly 1.0; the reference runs them
        rng = np.random.default_rng(27)
        config = toy_config(learning_rate=3e-3, adam_beta1=0.0)
        arrays = FlatArrays.packed(init_generator(GEO, 6, 0.05, rng).arrays(), np.float32)
        state = AdamState.zeros_like(arrays)
        state.m.flat[:4] = [-0.0, 0.0, np.inf, np.nan]
        state.v.flat[:4] = [0.0, -0.0, 1.0, np.nan]
        groups = (arrays, state.m, state.v)
        ref_arrays, ref_m, ref_v = ([a.copy() for a in group] for group in groups)
        for step in range(1, 4):
            flat = rng.standard_normal(arrays.flat.size).astype(np.float32)
            flat[:6] = [-0.0, 0.0, -0.0, 1.0, 0.0, -0.0]
            grads = FlatArrays(flat, [a.shape for a in arrays])
            with np.errstate(invalid="ignore"):  # 0 * inf
                adam_update(arrays, grads, state, config)
                reference_adam(ref_arrays, grads, ref_m, ref_v, step, config)
            for ours, theirs in ((arrays, ref_arrays), (state.m, ref_m), (state.v, ref_v)):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))
        # -0 * 0 + -0 stays -0; 0 * inf is NaN
        assert np.signbit(state.m.flat[0]) and np.isnan(state.m.flat[2:4]).all()

    def test_adam_rejects_parameters_outside_one_buffer(self):
        arrays = [np.zeros((2, 3)), np.zeros(2)]
        state = AdamState.zeros_like(arrays)
        with pytest.raises(ValueError):
            adam_update(arrays, [np.ones((2, 3)), np.ones(2)], state, toy_config())

    def test_adam_state_rejects_moments_outside_one_buffer(self):
        separate = [np.zeros((2, 3)), np.zeros(2)]
        packed = FlatArrays.packed(separate)
        with pytest.raises(ValueError):
            AdamState(separate, FlatArrays.packed(separate))
        with pytest.raises(ValueError):
            AdamState(packed, [a.copy() for a in separate])
        assert AdamState(packed, FlatArrays.packed(separate)).m.flat.size == 8


class TestCheckpointFormat:
    def make_checkpoint(self):
        dataset = toy_dataset(16, seed=16)
        return train(dataset, toy_config(generator_steps=1)).checkpoint

    def test_round_trip(self, tmp_path):
        checkpoint = self.make_checkpoint()
        path = tmp_path / "ck.wgck"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.step == checkpoint.step
        assert loaded.config == checkpoint.config
        assert loaded.geometry == checkpoint.geometry
        for a, b in zip(loaded.generator.arrays(), checkpoint.generator.arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.critic.arrays(), checkpoint.critic.arrays()):
            assert np.array_equal(a, b)
        assert loaded.rng_state == checkpoint.rng_state
        # saving the loaded checkpoint reproduces the file byte-for-byte
        second = tmp_path / "ck2.wgck"
        save_checkpoint(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointBadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        import struct

        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointLengthError):
            load_checkpoint(path)

    def test_truncated_inside_a_value(self, tmp_path):
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        blob = path.read_bytes()
        for cut in range(1, 16):
            path.write_bytes(blob[: len(blob) - cut])
            with pytest.raises(CheckpointTruncatedError):
                load_checkpoint(path)

    def test_undecodable_metadata(self, tmp_path):
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[10] = 0xFF  # not UTF-8
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMetadataError):
            load_checkpoint(path)
        blob[10] = ord("[")  # UTF-8, not JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMetadataError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda meta: meta.pop("layers"),
            lambda meta: meta["layers"].update(generator=5),
            lambda meta: meta["layers"]["critic_trunk"][0].__setitem__(0, -3),
            lambda meta: meta["layers"]["generator"][0].__setitem__(2, "tanh"),
            lambda meta: meta["config"].update(warp_factor=9),
            lambda meta: meta["geometry"].pop("num_taps"),
            lambda meta: meta.update(rng_state=[1, 2]),
            lambda meta: meta.update(condition_scaler={"min": 0.0, "max": 1.0}),
            lambda meta: meta.update(ds_scaler={"min": [0.0, 0.0], "max": [1.0, 1.0]}),
            lambda meta: meta["ds_scaler"].update(min=meta["ds_scaler"]["max"]),
            lambda meta: meta.update(step="4"),
            lambda meta: meta.update(step=4.5),
            lambda meta: meta.update(step=True),
            lambda meta: meta["adam_t"].update(critic="20"),
            lambda meta: meta["adam_t"].update(generator=-2),
            lambda meta: meta["config"].update(generator_steps=8.0),
            lambda meta: meta["config"].update(noise_dim=13.0),
            lambda meta: meta["config"].update(checkpoint_every=True),
            lambda meta: meta["config"].update(gp_ds_through_csi="false"),
            lambda meta: meta["config"].update(hidden_scale=True),
            lambda meta: meta["config"].update(gp_lambda="1.0"),
        ],
        ids=["no-layers", "table-not-a-list", "negative-width", "unknown-activation",
             "unknown-config-key", "missing-geometry-key", "bad-rng-state",
             "scalar-condition-bounds", "vector-ds-bounds", "degenerate-ds-bounds",
             "string-step", "fractional-step", "bool-step", "string-adam-t",
             "negative-adam-t", "float-generator-steps", "float-noise-dim",
             "bool-checkpoint-every", "string-gp-ds-through-csi", "bool-hidden-scale",
             "string-gp-lambda"],
    )
    def test_metadata_schema_violations(self, tmp_path, corrupt):
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        blob = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 6)
        meta = json.loads(blob[10 : 10 + meta_len])
        corrupt(meta)
        meta_bytes = json.dumps(meta).encode()
        path.write_bytes(blob[:6] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                         + blob[10 + meta_len :])
        with pytest.raises(CheckpointMetadataError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda meta: meta["config"].update(noise_dim=3), "generator input width 8, expected 5"),
            (lambda meta: meta["geometry"].update(num_taps=2),
             "generator output width 16, expected 8"),
            (lambda meta: meta["geometry"].update(cols_per_array=1),
             "generator output width 16, expected 8"),
            (lambda meta: meta["layers"]["critic_trunk"][0].__setitem__(1, 12),
             "critic trunk input width 12, expected 16"),
            (lambda meta: meta["layers"]["critic_fusion"][0].__setitem__(1, 13),
             "critic fusion input width 13, expected 12"),
            (lambda meta: meta["layers"]["critic_fusion"][-1].__setitem__(0, 2),
             "critic fusion output width 2, expected 1"),
        ],
        ids=["noise-dim", "num-taps", "antennas", "trunk-input", "fusion-input", "fusion-output"],
    )
    def test_layer_widths_must_fit_geometry_and_noise_dim(self, tmp_path, corrupt, message):
        """A payload sized for the edited tables loads only when the tables
        chain from noise_dim + 2 through the geometry's CSI width to one score."""
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        blob = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 6)
        meta = json.loads(blob[10 : 10 + meta_len])
        corrupt(meta)
        count = sum(out_width * (in_width + 1)
                    for table in meta["layers"].values() for out_width, in_width, _ in table)
        meta_bytes = json.dumps(meta).encode()
        path.write_bytes(blob[:6] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                         + np.zeros(3 * count, "<f8").tobytes())
        with pytest.raises(CheckpointMetadataError, match=message):
            load_checkpoint(path)

    def test_loaded_arrays_are_writable_and_private(self, tmp_path):
        path = tmp_path / "ck.wgck"
        save_checkpoint(self.make_checkpoint(), path)
        first, second = load_checkpoint(path), load_checkpoint(path)
        groups = lambda ck: (ck.generator.arrays(), ck.critic.arrays(), ck.gen_adam.m,
                             ck.gen_adam.v, ck.critic_adam.m, ck.critic_adam.v)
        for ours, theirs in zip(groups(first), groups(second)):
            assert isinstance(ours, FlatArrays)
            for a, b in zip(ours, theirs):
                assert a.flags.writeable
                assert not np.shares_memory(a, b)
        first.generator.layers[0].weights += 1.0
        assert not np.array_equal(first.generator.layers[0].weights,
                                  second.generator.layers[0].weights)

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        config = toy_config(generator_steps=0, hidden_scale=0.25)
        path = tmp_path / "ck.wgck"
        save_checkpoint(train(toy_dataset(16, seed=16), config).checkpoint, path)
        size = path.stat().st_size
        assert size > 1_000_000
        # tracemalloc also sees numpy's array buffers
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, f"peak {peak} B while loading a {size} B file"

    def test_interrupted_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.wgck"
        checkpoint = self.make_checkpoint()
        save_checkpoint(checkpoint, path)
        previous = path.read_bytes()

        class Exploding:
            """A file handle whose third payload write raises."""

            def __init__(self, handle):
                self.handle, self.payload_writes = handle, 0

            def write(self, data):
                if isinstance(data, np.ndarray):
                    self.payload_writes += 1
                    if self.payload_writes == 3:
                        raise RuntimeError("injected write failure")
                return self.handle.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

        def exploding_open(*args, **kwargs):
            return Exploding(open(*args, **kwargs))

        monkeypatch.setattr(csigen.atomic, "open", exploding_open, raising=False)
        checkpoint.step += 1
        with pytest.raises(RuntimeError, match="injected"):
            save_checkpoint(checkpoint, path)
        assert path.read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.wgck"]

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=3),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_corrupt_header_or_metadata_loads_or_raises_a_format_error(
        self, tmp_path, wgck_blob, flips, cut
    ):
        blob = bytearray(wgck_blob)
        (meta_len,) = struct.unpack_from("<I", blob, 6)
        for position, mask in flips:
            blob[position % (10 + meta_len)] ^= mask
        if cut is not None:
            del blob[cut % len(blob):]
        path = tmp_path / "fuzz.wgck"
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except CheckpointFormatError:
            pass


@pytest.fixture(scope="module")
def wgck_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("wgck") / "ck.wgck"
    checkpoint = train(toy_dataset(16, seed=16), toy_config(generator_steps=1)).checkpoint
    save_checkpoint(checkpoint, path)
    return path.read_bytes()


def bimodal_marginal_jsd(seed: int, out_dir) -> float:
    """Learn a bimodal 1-D marginal on the degenerate geometry (single
    antenna, two taps) with training seed ``seed``, writing a checkpoint
    into ``out_dir`` every 100 steps before the last.  Returns the JSD
    between the target mixture and the generated tap-0 real part, pooled
    over the 21 states of steps 4000-6000: the late marginal oscillates, so a few
    snapshots would measure its phase.  For another seed, from the
    repository root:

        PYTHONPATH=src:tests python -c "import test_wgan as t; print(t.bimodal_marginal_jsd(1, 'out'))"
    """
    from scipy.special import erf

    from csigen.metrics import Density, histogram_density, js_distance

    geometry = ArrayGeometry(1, 1, 1, 2, 1.272e9, 50e6)
    rng = np.random.default_rng(42)
    n = 2000
    low_mode = rng.uniform(size=n) < 0.5
    tap0 = np.where(low_mode, rng.normal(-1.0, 0.3, n), rng.normal(1.5, 0.35, n))
    csi = np.zeros((n, 1, 1, 1, 2), dtype=complex)
    csi[:, 0, 0, 0, 0] = tap0 + 1j * rng.normal(0.3, 0.15, n)
    csi[:, 0, 0, 0, 1] = rng.normal(0.5, 0.25, n) + 1j * rng.normal(-0.2, 0.15, n)
    positions = rng.uniform(0, 10, size=(n, 2))
    config = TrainingConfig(
        generator_steps=6000, seed=seed, batch_size=64, noise_dim=16,
        hidden_scale=0.125, critic_hidden_scale=1.0, learning_rate=1e-4,
        gp_lambda=1.0, checkpoint_every=100,
    )
    final = train(CsiDataset(geometry, csi, positions), config, out_dir=out_dir).checkpoint

    def mixture_cdf(x):
        return 0.25 * (1 + erf((x + 1.0) / (0.3 * np.sqrt(2)))) + 0.25 * (
            1 + erf((x - 1.5) / (0.35 * np.sqrt(2)))
        )

    edges = np.linspace(-2.2, 3.0, 51)
    target_probs = np.diff(mixture_cdf(edges))
    target = Density(edges, target_probs / target_probs.sum())
    pools = []
    for step in range(4000, 6001, 100):
        # the last step's state is not written as a periodic checkpoint
        path = Path(out_dir) / f"checkpoint_{step:07d}.wgck"
        checkpoint = final if step == final.step else load_checkpoint(path)
        generated = sample_variable(checkpoint, positions, seed=99 + step)
        pools.append(generated.csi[:, 0, 0, 0, 0].real)
    pooled = np.clip(np.concatenate(pools), edges[0], edges[-1])
    return js_distance(histogram_density(pooled, edges), target)


@pytest.mark.slow
class TestToyDistribution:
    """Desk-scale smoke experiment: the generated marginal approaches a known
    non-Gaussian target distribution (histogram oracle)."""

    def test_marginal_reaches_target_jsd(self, tmp_path):
        distance = bimodal_marginal_jsd(0, tmp_path)
        assert distance < 0.15, f"generated marginal JSD {distance:.3f}"

    def test_critic_separates_held_out_synth_real_from_fake(self):
        # train on multipath data; the not-yet-converged model keeps genuine
        # mismatch, so the critic's witness generalizes to fresh positions
        # (near full convergence the gap would tend to zero by design)
        from csigen.synth import ArrayPlacement, Reflector, Scenario, grid_positions, synth_dataset

        geometry = ArrayGeometry(1, 1, 2, 8, 1.272e9, 100e6)
        scene = Scenario(
            geometry=geometry,
            placements=(ArrayPlacement(np.array([3.0, 0.0]), math.pi / 2),),
            reflectors=(Reflector(np.array([0.0, 4.0]), 1.5),),
            noise_power=1e-6,
            seed=11,
            bounds=((0.0, 1.0), (6.0, 7.0)),
            delay_offset_taps=3.0,
        )
        dataset = synth_dataset(scene, grid_positions(((0.2, 1.2), (5.8, 6.8)), 25, 24))
        config = TrainingConfig(
            generator_steps=800, seed=0, batch_size=64, noise_dim=32,
            hidden_scale=0.1, critic_hidden_scale=1.0, learning_rate=1e-4, gp_lambda=1.0,
        )
        checkpoint = train(dataset, config).checkpoint

        held_pos = np.random.default_rng(555).uniform([0.3, 1.3], [5.7, 6.7], size=(256, 2))
        held = synth_dataset(
            Scenario(
                geometry=scene.geometry, placements=scene.placements,
                reflectors=scene.reflectors, noise_power=scene.noise_power,
                seed=999, bounds=scene.bounds, delay_offset_taps=scene.delay_offset_taps,
            ),
            held_pos,
        )
        fake = sample_variable(checkpoint, held_pos, seed=31337)

        def scores(csi_batch):
            flat = flatten_csi(csi_batch)
            ds_scaled = checkpoint.ds_scaler.scale(delay_spread_flat(flat, checkpoint.geometry))
            pos_scaled = checkpoint.condition_scaler.scale(held_pos)
            return critic_forward(checkpoint.critic, flat, ds_scaled, pos_scaled)[0]

        assert scores(held.csi).mean() > scores(fake.csi).mean()


class TestSampling:
    def make_checkpoint(self):
        dataset = toy_dataset(16, seed=17)
        return train(dataset, toy_config(generator_steps=1)).checkpoint

    def test_fixed_same_seed_bitwise_equal(self):
        checkpoint = self.make_checkpoint()
        positions = np.random.default_rng(18).uniform(0, 10, (20, 2))
        first = sample_fixed(checkpoint, positions, seed=5)
        second = sample_fixed(checkpoint, positions, seed=5)
        assert np.array_equal(first.csi, second.csi)

    def test_fixed_different_seeds_differ(self):
        checkpoint = self.make_checkpoint()
        positions = np.random.default_rng(19).uniform(0, 10, (10, 2))
        first = sample_fixed(checkpoint, positions, seed=1)
        second = sample_fixed(checkpoint, positions, seed=2)
        assert not np.array_equal(first.csi, second.csi)

    def test_untrained_generator_output_finite_and_shaped(self):
        rng = np.random.default_rng(20)
        generator = init_generator(GEO, 6, 1.0, rng)
        cond_scaler, ds_scaler = scaler_pair()
        checkpoint = Checkpoint(
            generator=generator,
            critic=init_critic(GEO, 1.0, rng),
            config=toy_config(),
            geometry=GEO,
            condition_scaler=cond_scaler,
            ds_scaler=ds_scaler,
            step=0,
            rng_state=np.random.default_rng(0).bit_generator.state,
            gen_adam=AdamState.zeros_like(generator.arrays()),
            critic_adam=AdamState.zeros_like(init_critic(GEO, 1.0, rng).arrays()),
        )
        positions = np.random.default_rng(21).uniform(0, 10, (100, 2))
        out = sample_fixed(checkpoint, positions, seed=0)
        assert out.csi.shape == (100,) + GEO.csi_shape
        assert np.all(np.isfinite(out.csi.view(np.float64)))

    def test_variable_per_position_determinism(self):
        checkpoint = self.make_checkpoint()
        positions = np.random.default_rng(22).uniform(0, 10, (15, 2))
        batch = sample_variable(checkpoint, positions, seed=7)
        single = sample_variable(checkpoint, positions[9:10], seed=7, start_index=9)
        assert np.array_equal(batch.csi[9], single.csi[0])

    def test_variable_empty_conditions(self):
        checkpoint = self.make_checkpoint()
        out = sample_variable(checkpoint, np.zeros((0, 2)), seed=3)
        assert len(out) == 0
