"""A network's parameter buffer decides the dtype that training computes in.

float32 copies of desk-shape float64 networks run the losses, the critic
backward pass and Adam in float32 throughout, and agree with the float64
networks to float32 tolerance.  The gradient tests elsewhere stay float64.
"""

import numpy as np
import pytest

from csigen.core import ArrayGeometry, MinMaxScaler
from csigen.gan import fastgrad
from csigen.gan.fastgrad import CriticPass, critic_backward, critic_loss_fast, generator_loss_fast
from csigen.gan.mlp import FlatArrays, MlpParams
from csigen.gan.nets import (
    CriticParams,
    DelaySpreadCache,
    delay_spread_flat,
    init_critic,
    init_generator,
)
from csigen.gan.train import AdamState, TrainingConfig, adam_update

# the desk configuration: criterion-8 geometry, generator at hidden_scale
# 0.25, full-width critic, batch 64, noise_dim 128
GEO = ArrayGeometry(1, 2, 4, 16, 1.272e9, 100e6)
BATCH, NOISE_DIM = 64, 128
# the kernels under test, each wrapped to record the arrays it sees
KERNELS = ("mlp_forward", "mlp_backward", "_mlp_jvp", "generator_forward",
           "delay_spread_forward", "delay_spread_flat", "_ds_vjp", "_ds_jvp")


def as_float32(network):
    """A float32 copy of a generator or critic."""
    arrays = network.arrays()
    flat = FlatArrays(arrays.flat.astype(np.float32), [a.shape for a in arrays])
    if isinstance(network, MlpParams):
        return MlpParams.on_arrays(flat, network.activations)
    trunk, fusion = flat.split(2 * len(network.trunk.layers))
    return CriticParams(
        MlpParams.on_arrays(trunk, network.trunk.activations),
        MlpParams.on_arrays(fusion, network.fusion.activations),
        flat,
    )


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
        as_float32(critic), as_float32(generator), GEO, ds_scaler, **inputs32,
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
        as_float32(critic), as_float32(generator), GEO, ds_scaler, *(inputs32[n] for n in names)
    )
    assert seen and isinstance(grads32, FlatArrays)
    assert_float32(seen + [grads32.flat])
    loss64, grads64 = generator_loss_fast(
        critic, generator, GEO, ds_scaler, *(inputs64[n] for n in names)
    )
    assert loss32 == pytest.approx(loss64, rel=1e-5, abs=1e-6)
    assert_close(grads32.flat, grads64.flat)


def critic_backward_run(critic, ds_scaler, inputs):
    forward = CriticPass(critic, GEO, ds_scaler, inputs["real_flat"], inputs["pos_scaled"])
    grads = FlatArrays.zeros_like(critic.arrays())
    seed = np.ones((BATCH, 1), critic.dtype)
    return forward, critic_backward(critic, GEO, ds_scaler, forward, seed, grads), grads


def test_critic_backward_runs_in_the_critic_dtype(setup, seen):
    generator, critic, ds_scaler, inputs32, inputs64 = setup
    pass32, input_grad32, grads32 = critic_backward_run(as_float32(critic), ds_scaler, inputs32)
    assert seen and pass32.ds_cache is not None
    caches = [pass32.trunk, pass32.fusion, pass32.ds_cache, pass32.scores]
    assert_float32(seen + list(floating_arrays(caches)) + [input_grad32, grads32.flat])
    pass64, input_grad64, grads64 = critic_backward_run(critic, ds_scaler, inputs64)
    assert_close(pass32.scores, pass64.scores)
    assert_close(input_grad32, input_grad64)
    assert_close(grads32.flat, grads64.flat)


def test_adam_keeps_the_parameters_dtype(setup):
    generator, critic, ds_scaler, inputs32, inputs64 = setup
    config = TrainingConfig(generator_steps=1, learning_rate=1e-3, adam_beta1=0.5)
    runs = []
    for network, gen, inputs in ((as_float32(critic), as_float32(generator), inputs32),
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
