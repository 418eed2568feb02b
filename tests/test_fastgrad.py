"""The hand-written training gradients must agree with the graph-autodiff
reference (``graph_reference``) on identical inputs — two independent
routes to the same math."""

import numpy as np
import pytest

from csigen.core import ArrayGeometry, MinMaxScaler
from csigen.gan import fastgrad
from csigen.gan.fastgrad import critic_loss_fast, generator_loss_fast
from csigen.gan.nets import delay_spread_flat, generator_forward, init_critic, init_generator
from graph_reference import critic_loss, generator_loss

GEO = ArrayGeometry(1, 2, 2, 5, 1.272e9, 50e6)
CSI_WIDTH = 2 * GEO.num_antennas * GEO.num_taps


def setup(seed, hidden_scale=0.05, noise_dim=7):
    rng = np.random.default_rng(seed)
    generator = init_generator(GEO, noise_dim, hidden_scale, rng)
    critic = init_critic(GEO, hidden_scale, rng)
    for params in (generator, critic.trunk, critic.fusion):
        for layer in params.layers:
            layer.bias += rng.uniform(-0.2, 0.2, size=layer.bias.shape)
    ds_scaler = MinMaxScaler(0.0, GEO.num_taps * GEO.tap_duration)
    batch = 6
    real = rng.standard_normal((batch, CSI_WIDTH))
    pos = rng.uniform(-1, 1, (batch, 2))
    noise = rng.standard_normal((batch, noise_dim))
    eps = rng.uniform(0.1, 0.9, (batch, 1))
    ds_real = ds_scaler.scale(delay_spread_flat(real, GEO))
    return generator, critic, ds_scaler, real, pos, ds_real, noise, eps


def max_rel_err(a_list, b_list):
    worst = 0.0
    for a, b in zip(a_list, b_list):
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
        worst = max(worst, np.abs(a - b).max() / scale)
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("ds_through", [True, False])
def test_critic_loss_routes_agree(seed, ds_through):
    generator, critic, ds_scaler, real, pos, ds_real, noise, eps = setup(seed)
    slow = critic_loss(
        critic, generator, GEO, ds_scaler, real, pos, ds_real, noise, eps,
        gp_lambda=10.0, ds_through_csi=ds_through,
    )
    fast = critic_loss_fast(
        critic, generator, GEO, ds_scaler, real, pos, ds_real, noise, eps,
        gp_lambda=10.0, ds_through_csi=ds_through,
    )
    assert fast[0] == pytest.approx(slow[0], rel=1e-10)
    assert max_rel_err(fast[1], slow[1]) < 1e-10
    assert fast[2]["penalty"] == pytest.approx(slow[2]["penalty"], rel=1e-10)


@pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
def test_generator_loss_routes_agree(seed):
    generator, critic, ds_scaler, real, pos, ds_real, noise, eps = setup(seed)
    slow = generator_loss(critic, generator, GEO, ds_scaler, pos, noise)
    fast = generator_loss_fast(critic, generator, GEO, ds_scaler, pos, noise)
    assert fast[0] == pytest.approx(slow[0], rel=1e-10)
    assert max_rel_err(fast[1], slow[1]) < 1e-10


def test_lambda_zero_skips_penalty():
    generator, critic, ds_scaler, real, pos, ds_real, noise, eps = setup(11)
    slow = critic_loss(
        critic, generator, GEO, ds_scaler, real, pos, ds_real, noise, eps, gp_lambda=0.0
    )
    fast = critic_loss_fast(
        critic, generator, GEO, ds_scaler, real, pos, ds_real, noise, eps, gp_lambda=0.0
    )
    assert fast[0] == pytest.approx(slow[0], rel=1e-12)
    assert max_rel_err(fast[1], slow[1]) < 1e-12


@pytest.mark.parametrize("ds_through", [True, False])
def test_penalty_adds_exactly_zero_to_bias_gradients(ds_through):
    # the penalty's bias gradient is exactly 0 for a piecewise-linear critic
    generator, critic, ds_scaler, real, pos, ds_real, noise, eps = setup(12)
    args = (critic, generator, GEO, ds_scaler, real, pos, ds_real, noise, eps)
    _, without, _ = critic_loss_fast(*args, gp_lambda=0.0, ds_through_csi=ds_through)
    _, with_penalty, diagnostics = critic_loss_fast(
        *args, gp_lambda=10.0, ds_through_csi=ds_through
    )
    assert diagnostics["penalty"] > 0.0
    for bias_without, bias_with in zip(without[1::2], with_penalty[1::2]):
        assert bias_with.tobytes() == bias_without.tobytes()
    # the weights do receive a penalty gradient
    assert any(not np.array_equal(a, b) for a, b in zip(without[::2], with_penalty[::2]))


def test_penalty_without_the_delay_spread_path_mixes_the_scaled_spreads(monkeypatch):
    # the interpolates' side input is the mix of the scaled spreads the
    # critic scores for the real rows and the fakes, bit for bit
    generator, critic, ds_scaler, real, pos, ds_real, noise, eps = setup(13)
    side_inputs, forward = [], fastgrad.critic_forward

    def recording(critic, csi_flat, ds_scaled, pos_scaled):
        side_inputs.append(ds_scaled)
        return forward(critic, csi_flat, ds_scaled, pos_scaled)

    monkeypatch.setattr(fastgrad, "critic_forward", recording)
    critic_loss_fast(
        critic, generator, GEO, ds_scaler, real, pos, ds_real, noise, eps,
        gp_lambda=10.0, ds_through_csi=False,
    )
    fake, _ = generator_forward(generator, pos, noise)
    ds_fake = ds_scaler.scale(delay_spread_flat(fake, GEO))
    (side_input,) = side_inputs
    n = real.shape[0]
    assert side_input[:n].tobytes() == ds_fake.tobytes()
    assert side_input[n : 2 * n].tobytes() == ds_real.tobytes()
    assert side_input[2 * n :].tobytes() == (eps * ds_real + (1.0 - eps) * ds_fake).tobytes()
