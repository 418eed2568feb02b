"""A network's parameter buffer decides the dtype that training computes in,
and ``train()`` computes in float32 while handing out float64 state.

float32 copies of desk-shape float64 networks run the losses, the critic
backward pass and Adam in float32 throughout, and agree with the float64
networks to float32 tolerance.  In either dtype, the losses on rows that
one generator forward computed for a whole step equal, bit for bit, the
losses that run the generator on their own batch.  A trained checkpoint is
float64 holding float32 values, the same arrays that its file loads back,
and resumed training follows the documented per-step draw order.  The
gradient tests elsewhere stay float64.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from csigen.core import ArrayGeometry, CsiDataset, MinMaxScaler
from csigen.gan import fastgrad
from csigen.gan.fastgrad import (
    critic_backward,
    critic_forward,
    critic_loss_fast,
    generator_loss_fast,
)
from csigen.gan.mlp import FlatArrays, cache_rows
from csigen.gan.nets import (
    DelaySpreadCache,
    delay_spread_flat,
    flatten_csi,
    generator_forward,
    init_critic,
    init_generator,
)
from csigen.gan.sample import sample_variable
from csigen.gan.train import (
    AdamState,
    TrainingConfig,
    adam_update,
    load_checkpoint,
    save_checkpoint,
    train,
)

# the desk configuration: criterion-8 geometry, generator at hidden_scale
# 0.25, full-width critic, batch 64, noise_dim 128
GEO = ArrayGeometry(1, 2, 4, 16, 1.272e9, 100e6)
BATCH, NOISE_DIM = 64, 128
# the module; the package's name ``train`` is the function
TRAIN_MODULE = importlib.import_module("csigen.gan.train")
# the kernels under test, each wrapped to record the arrays it sees
KERNELS = ("mlp_forward", "mlp_backward", "_mlp_jvp", "generator_forward",
           "delay_spread_forward", "delay_spread_flat", "_ds_vjp", "_ds_jvp")


def floating_arrays(value):
    """Every floating ndarray in ``value``, looking inside tuples, lists,
    dicts' values and delay-spread caches."""
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating):
            yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from floating_arrays(item)
    elif isinstance(value, dict):
        yield from floating_arrays(list(value.values()))
    elif isinstance(value, DelaySpreadCache):
        for slot in DelaySpreadCache.__slots__:
            yield from floating_arrays(getattr(value, slot))


@pytest.fixture
def seen(monkeypatch):
    """The floating arrays that the kernels in ``KERNELS`` take and return
    while a test runs: inputs, outputs, forward and JVP caches, gradients."""
    arrays = []
    for name in KERNELS:
        def recording(*args, _kernel=getattr(fastgrad, name), **kwargs):
            result = _kernel(*args, **kwargs)
            arrays.extend(floating_arrays([args, kwargs, result]))
            return result

        monkeypatch.setattr(fastgrad, name, recording)
    return arrays


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(13)
    generator = init_generator(GEO, NOISE_DIM, 0.25, rng)
    critic = init_critic(GEO, 1.0, rng)
    ds_scaler = MinMaxScaler(0.0, GEO.num_taps * GEO.tap_duration)
    real = rng.standard_normal((BATCH, 2 * GEO.num_antennas * GEO.num_taps))
    inputs = {
        "real_flat": real,
        "pos_scaled": rng.uniform(-1, 1, (BATCH, 2)),
        "ds_real_scaled": ds_scaler.scale(delay_spread_flat(real, GEO)),
        "noise": rng.standard_normal((BATCH, NOISE_DIM)),
        "eps_mix": rng.uniform(size=(BATCH, 1)),
    }
    # the float64 run sees the float32 inputs' values exactly
    inputs32 = {name: value.astype(np.float32) for name, value in inputs.items()}
    inputs64 = {name: value.astype(np.float64) for name, value in inputs32.items()}
    return generator, critic, ds_scaler, inputs32, inputs64


def assert_float32(arrays):
    dtypes = {str(array.dtype) for array in arrays}
    assert dtypes == {"float32"}, dtypes


def assert_close(ours, theirs, tolerance=1e-5):
    """Agreement to float32 tolerance, relative to the norm of ``theirs``:
    measured at 1e-7 to 6e-7 here for losses, gradients and moments."""
    ours, theirs = np.asarray(ours, np.float64), np.asarray(theirs, np.float64)
    assert np.linalg.norm(ours - theirs) <= tolerance * np.linalg.norm(theirs)


@pytest.mark.parametrize("ds_through_csi", [True, False])
def test_critic_loss_runs_in_the_critic_dtype(setup, seen, ds_through_csi):
    generator, critic, ds_scaler, inputs32, inputs64 = setup
    loss32, grads32, diagnostics32 = critic_loss_fast(
        critic.copy(np.float32), generator.copy(np.float32), GEO, ds_scaler, **inputs32,
        gp_lambda=10.0, ds_through_csi=ds_through_csi,
    )
    assert seen and isinstance(grads32, FlatArrays)
    assert_float32(seen + [grads32.flat])
    loss64, grads64, diagnostics64 = critic_loss_fast(
        critic, generator, GEO, ds_scaler, **inputs64, gp_lambda=10.0,
        ds_through_csi=ds_through_csi,
    )
    assert diagnostics32["penalty"] > 0.0
    assert loss32 == pytest.approx(loss64, rel=1e-5, abs=1e-6)
    for name in diagnostics64:
        assert diagnostics32[name] == pytest.approx(diagnostics64[name], rel=1e-5, abs=1e-6)
    assert_close(grads32.flat, grads64.flat)


def test_generator_loss_runs_in_the_networks_dtype(setup, seen):
    generator, critic, ds_scaler, inputs32, inputs64 = setup
    names = ("pos_scaled", "noise")
    loss32, grads32 = generator_loss_fast(
        critic.copy(np.float32), generator.copy(np.float32), GEO, ds_scaler, *(inputs32[n] for n in names)
    )
    assert seen and isinstance(grads32, FlatArrays)
    assert_float32(seen + [grads32.flat])
    loss64, grads64 = generator_loss_fast(
        critic, generator, GEO, ds_scaler, *(inputs64[n] for n in names)
    )
    assert loss32 == pytest.approx(loss64, rel=1e-5, abs=1e-6)
    assert_close(grads32.flat, grads64.flat)


def critic_backward_run(critic, ds_scaler, inputs):
    ds_scaled = ds_scaler.scale(delay_spread_flat(inputs["real_flat"], GEO))
    scores, cache = critic_forward(critic, inputs["real_flat"], ds_scaled, inputs["pos_scaled"])
    seed = np.ones((BATCH, 1), critic.dtype)
    return scores, cache, critic_backward(critic, cache, seed)


def test_critic_backward_runs_in_the_critic_dtype(setup, seen):
    generator, critic, ds_scaler, inputs32, inputs64 = setup
    scores32, cache32, adjoints32 = critic_backward_run(critic.copy(np.float32), ds_scaler, inputs32)
    assert seen
    assert_float32(seen + list(floating_arrays([scores32, cache32, adjoints32])))
    scores64, _, adjoints64 = critic_backward_run(critic, ds_scaler, inputs64)
    assert_close(scores32, scores64)
    for adjoint32, adjoint64 in zip(adjoints32, adjoints64):
        assert_close(adjoint32, adjoint64)


@pytest.mark.parametrize("ds_through_csi", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_precomputed_rows_give_the_losses_bits(setup, dtype, ds_through_csi):
    """As train() runs a step: one generator forward over five critic
    batches and a generator batch, the fakes' scaled delay spreads over the
    critic rows, and the real rows' over the whole dataset, gathered."""
    generator, critic, ds_scaler, _, _ = setup
    generator, critic = generator.copy(dtype), critic.copy(dtype)
    rng = np.random.default_rng(17)
    n_critic, dataset_rows = 5, 300
    real = rng.standard_normal((dataset_rows, 2 * GEO.num_antennas * GEO.num_taps)).astype(dtype)
    ds_real = delay_spread_flat(real, GEO)
    ds_real_scaled = ds_scaler.scale(ds_real).astype(dtype)
    idx = rng.integers(0, dataset_rows, size=(n_critic + 1) * BATCH)
    pos = rng.uniform(-1, 1, (dataset_rows, 2)).astype(dtype)
    noise = rng.standard_normal((idx.size, NOISE_DIM))
    fake, cache = generator_forward(generator, pos[idx], noise)
    ds_fake_scaled = ds_scaler.scale(delay_spread_flat(fake[: n_critic * BATCH], GEO))

    for k in range(n_critic):
        rows = slice(k * BATCH, (k + 1) * BATCH)
        batch = idx[rows]
        args = (critic, generator, GEO, ds_scaler, real[batch], pos[batch], ds_real_scaled[batch],
                noise[rows], rng.uniform(size=(BATCH, 1)), 10.0, ds_through_csi)
        given = dict(fake_flat=fake[rows], ds_fake_scaled=ds_fake_scaled[rows])
        loss, grads, diagnostics = critic_loss_fast(*args, **given)
        theirs = critic_loss_fast(*args)
        assert (loss, diagnostics) == (theirs[0], theirs[2])
        assert grads.flat.tobytes() == theirs[1].flat.tobytes()
    rows = slice(n_critic * BATCH, None)
    args = (critic, generator, GEO, ds_scaler, pos[idx[rows]], noise[rows])
    loss, grads = generator_loss_fast(*args, fake_flat=fake[rows], gen_cache=cache_rows(cache, rows))
    theirs = generator_loss_fast(*args)
    assert loss == theirs[0]
    assert grads.flat.tobytes() == theirs[1].flat.tobytes()


def test_adam_keeps_the_parameters_dtype(setup):
    generator, critic, ds_scaler, inputs32, inputs64 = setup
    config = TrainingConfig(generator_steps=1, learning_rate=1e-3, adam_beta1=0.5)
    runs = []
    for network, gen, inputs in ((critic.copy(np.float32), generator.copy(np.float32), inputs32),
                                 (critic.copy(), generator, inputs64)):
        start = network.arrays().flat.copy()
        state = AdamState.zeros_like(network.arrays())
        for _ in range(2):
            _, grads, _ = critic_loss_fast(network, gen, GEO, ds_scaler, **inputs, gp_lambda=10.0)
            adam_update(network.arrays(), grads, state, config)
        runs.append((network.arrays().flat - start, state))
    (step32, state32), (step64, state64) = runs
    assert_float32([step32, state32.m.flat, state32.v.flat, state32.work])
    assert state32.t == 2
    # a float32 weight near 0.1 rounds a 1e-3 step to about 6e-6 of it
    # (measured 8e-6 overall), so the steps agree to 1e-4
    assert_close(step32, step64, 1e-4)
    assert_close(state32.m.flat, state64.m.flat)
    assert_close(state32.v.flat, state64.v.flat)


def small_run(**overrides):
    """A small dataset and the config of a few cheap training steps."""
    geometry = ArrayGeometry(1, 1, 2, 8, 1.272e9, 100e6)
    rng = np.random.default_rng(5)
    shape = (48,) + geometry.csi_shape
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dataset = CsiDataset(geometry, csi, rng.uniform(0, 10, (48, 2)))
    settings = dict(generator_steps=3, batch_size=8, n_critic=2, noise_dim=6, hidden_scale=0.02)
    return dataset, TrainingConfig(**{**settings, **overrides})


def state_arrays(checkpoint):
    """Every parameter and Adam-moment buffer of ``checkpoint``."""
    return [checkpoint.generator.arrays().flat, checkpoint.critic.arrays().flat,
            checkpoint.gen_adam.m.flat, checkpoint.gen_adam.v.flat,
            checkpoint.critic_adam.m.flat, checkpoint.critic_adam.v.flat]


def assert_float32_values(checkpoint):
    for array in state_arrays(checkpoint):
        assert array.dtype == np.float64
        np.testing.assert_array_equal(array, array.astype(np.float32).astype(np.float64))


def test_trained_state_is_float64_holding_float32_values():
    dataset, config = small_run()
    checkpoint = train(dataset, config).checkpoint
    assert checkpoint.generator.dtype == checkpoint.critic.dtype == np.float64
    assert_float32_values(checkpoint)
    # not a float32 round of an untrained network: the moments moved
    assert np.any(checkpoint.gen_adam.v.flat > 0) and np.any(checkpoint.critic_adam.v.flat > 0)


def test_trained_state_equals_its_saved_file(tmp_path, monkeypatch):
    # a chunk smaller than every buffer: each one is widened in several writes
    monkeypatch.setattr(TRAIN_MODULE, "SAVE_CHUNK", 7)
    dataset, config = small_run(checkpoint_every=3)
    result = train(dataset, config)
    longer = dataclasses.replace(config, generator_steps=6)
    train(dataset, longer, out_dir=tmp_path)
    # the longer run's periodic save writes its live float32 state at step
    # 3, the final save the float64 state the 3-step run returns: under
    # one config, both hold the same values
    save_checkpoint(dataclasses.replace(result.checkpoint, config=longer), tmp_path / "final.wgck")
    assert (tmp_path / "final.wgck").read_bytes() == (tmp_path / "checkpoint_0000003.wgck").read_bytes()
    loaded = load_checkpoint(tmp_path / "final.wgck")
    assert_float32_values(loaded)
    for ours, theirs in zip(state_arrays(result.checkpoint), state_arrays(loaded)):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    positions = dataset.positions[:20]
    ours = sample_variable(result.checkpoint, positions, seed=4).csi
    theirs = sample_variable(loaded, positions, seed=4).csi
    assert ours.tobytes() == theirs.tobytes()


def test_resume_rounds_float64_state_once(tmp_path):
    dataset, config = small_run()
    checkpoint = train(dataset, config).checkpoint
    for array in state_arrays(checkpoint):
        array *= 1.0 + 2.0**-40  # no nonzero value stays float32-representable
    rounded = [array.astype(np.float32).astype(np.float64) for array in state_arrays(checkpoint)]
    assert not all(np.array_equal(a, b) for a, b in zip(state_arrays(checkpoint), rounded))

    checkpoint.config = dataclasses.replace(config, generator_steps=0)
    unchanged = train(dataset, config, resume=checkpoint).checkpoint
    for ours, theirs in zip(state_arrays(unchanged), rounded):
        assert np.array_equal(ours, theirs)

    checkpoint.config = config
    result = train(dataset, config, resume=checkpoint)
    assert result.checkpoint.step == 6
    assert all(np.isfinite([row["critic_loss"], row["gen_loss"]]).all() for row in result.log_rows)
    assert_float32_values(result.checkpoint)


@pytest.mark.parametrize("ds_through_csi", [True, False])
def test_resumed_steps_follow_the_documented_draw_order(ds_through_csi):
    """A 0-step run's checkpoint resumed for 3 steps against a loop over the
    per-batch kernels: per step, each critic batch draws (idx, noise, eps)
    and updates the critic, then the generator batch draws (idx, noise)."""
    dataset, config = small_run(generator_steps=0, gp_ds_through_csi=ds_through_csi)
    start = train(dataset, config).checkpoint
    steps = 3
    start.config = dataclasses.replace(config, generator_steps=steps)
    result = train(dataset, start.config, resume=start)

    state = start.astype(np.float32)
    rng = np.random.default_rng()
    rng.bit_generator.state = start.rng_state
    geometry, ds_scaler = start.geometry, start.ds_scaler
    real = flatten_csi(dataset.csi)
    ds_real = ds_scaler.scale(delay_spread_flat(real, geometry)).astype(np.float32)
    real = real.astype(np.float32)
    pos = start.condition_scaler.scale(dataset.positions).astype(np.float32)
    count, batch, losses = len(dataset), config.batch_size, []
    for _ in range(steps):
        for _ in range(config.n_critic):
            idx = rng.integers(0, count, size=batch)
            noise = rng.standard_normal((batch, config.noise_dim))
            eps_mix = rng.uniform(size=(batch, 1))
            closs, grads, _ = critic_loss_fast(
                state.critic, state.generator, geometry, ds_scaler, real[idx], pos[idx],
                ds_real[idx], noise, eps_mix, config.gp_lambda, ds_through_csi,
            )
            adam_update(state.critic.arrays(), grads, state.critic_adam, config)
        idx = rng.integers(0, count, size=batch)
        noise = rng.standard_normal((batch, config.noise_dim))
        gloss, grads = generator_loss_fast(
            state.critic, state.generator, geometry, ds_scaler, pos[idx], noise
        )
        adam_update(state.generator.arrays(), grads, state.gen_adam, config)
        losses.append([closs, gloss])

    assert [[row["critic_loss"], row["gen_loss"]] for row in result.log_rows] == [
        pytest.approx(pair, rel=1e-5, abs=1e-6) for pair in losses
    ]
    # the steps taken, not the values: a draw out of order moves them by O(1);
    # measured equal here, the tolerance allows rows that round differently
    # in the step's one generator forward
    for ours, theirs, before in zip(
        state_arrays(result.checkpoint), state_arrays(state), state_arrays(start)
    ):
        assert_close(ours - before, theirs - before, 1e-3)
