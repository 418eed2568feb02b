"""The WGAN-GP training losses and their exact gradients.

Straight-line numpy over the one MLP forward and backward
(:func:`csigen.gan.mlp.mlp_forward` / :func:`~csigen.gan.mlp.mlp_backward`),
the generator input layout that sampling shares
(:func:`csigen.gan.nets.generator_forward`) and
:func:`csigen.gan.nets.delay_spread_forward`.

The penalty's parameter gradient uses the directional-derivative identity:
with u = d(penalty)/d(gradient) held constant,

    d(penalty)/d(theta) = d/d(theta) [ u . grad_x C(x) ]

and u . grad_x C equals the forward-mode derivative of C along u, so one
JVP pass through the frozen activation masks followed by one
:func:`~csigen.gan.mlp.mlp_backward` sweep over that pass (the tangents
standing in for the layer inputs) yields exact double backpropagation for
the piecewise-linear critic.  The biases' tangent is zero, so their penalty
gradient is exactly 0; the sweep's bias slots are zeroed before the merge.

Both losses take the generator and a batch's noise.  A caller that already
ran the generator over the batch, as :func:`csigen.gan.train.train` does
once for all batches of a step, hands its rows in as the keyword arguments
``fake_flat`` (with ``ds_fake`` and ``ds_real`` for the critic loss, and
``gen_cache`` for the generator loss) instead, and the losses then run no
generator forward.
"""

from __future__ import annotations

import numpy as np

from csigen.core import ArrayGeometry, MinMaxScaler
from csigen.gan.mlp import FlatArrays, MlpParams, mlp_backward, mlp_forward
from csigen.gan.nets import (
    CriticParams,
    GRAD_NORM_FLOOR,
    DelaySpreadCache,
    delay_spread_flat,
    delay_spread_forward,
    generator_forward,
)


def _ds_vjp(adjoint: np.ndarray, cache: DelaySpreadCache, geometry: ArrayGeometry) -> np.ndarray:
    """Input gradient of the delay spread given an adjoint on the seconds
    output; reverse of every step in :func:`delay_spread_forward`."""
    a_var = adjoint * geometry.tap_duration * 0.5 / cache.ds_taps
    centered_sq = cache.centered * cache.centered
    a_s2c = a_var / cache.total
    a_total = -a_var * cache.var / cache.total
    a_power = a_s2c[:, :, None] * centered_sq
    # mean path: sum_t p_t (t - mean) is ~0 up to the 1e-30 regularizer
    cross = (cache.power * cache.centered).sum(axis=2)
    a_mean = -2.0 * a_s2c * cross
    a_s1 = a_mean / cache.total
    a_total += -a_mean * cache.mean / cache.total
    a_power += a_s1[:, :, None] * cache.taps
    a_power += a_total[:, :, None]
    a_re = 2.0 * cache.re * a_power
    a_im = 2.0 * cache.im * a_power
    n = a_re.shape[0]
    return np.concatenate([a_re.reshape(n, -1), a_im.reshape(n, -1)], axis=1)


def _ds_jvp(direction: np.ndarray, cache: DelaySpreadCache, geometry: ArrayGeometry) -> np.ndarray:
    """Forward-mode derivative of the delay spread along ``direction``."""
    n = direction.shape[0]
    n_ant, n_tap = cache.re.shape[1], cache.re.shape[2]
    half = n_ant * n_tap
    d_re = direction[:, :half].reshape(n, n_ant, n_tap)
    d_im = direction[:, half:].reshape(n, n_ant, n_tap)
    d_power = 2.0 * (cache.re * d_re + cache.im * d_im)
    d_total = d_power.sum(axis=2)
    d_s1 = (d_power * cache.taps).sum(axis=2)
    d_mean = (d_s1 - cache.mean * d_total) / cache.total
    centered_sq = cache.centered * cache.centered
    d_s2c = (d_power * centered_sq).sum(axis=2) + (
        cache.power * (-2.0 * cache.centered)
    ).sum(axis=2) * d_mean
    d_var = (d_s2c - cache.var * d_total) / cache.total
    d_ds_taps = d_var * 0.5 / cache.ds_taps
    return d_ds_taps * geometry.tap_duration


def _mlp_jvp(params: MlpParams, cache: tuple, direction: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Forward-mode pass through the frozen masks of a :func:`mlp_forward`
    cache.  Returns the output perturbation and a cache of the same form,
    holding the per-layer input perturbations, for :func:`mlp_backward`."""
    _, masks = cache
    tangents = []
    tangent = direction
    for layer, mask in zip(params.layers, masks):
        tangents.append(tangent)
        tangent = tangent @ layer.weights.T
        if mask is not None:
            tangent = tangent * mask
    return tangent, (tangents, masks)


class CriticPass:
    """One critic evaluation: the scores (N, 1) and everything the backward
    passes need.

    With ``ds_scaled`` given, the delay-spread side input is that constant;
    without it, the pass computes it from ``csi_flat`` (cast to the critic's
    dtype) and :func:`critic_backward` then carries the input gradient
    through it.
    """

    __slots__ = ("trunk", "fusion", "ds_cache", "scores")

    def __init__(
        self,
        critic: CriticParams,
        geometry: ArrayGeometry,
        ds_scaler: MinMaxScaler,
        csi_flat: np.ndarray,
        pos_scaled: np.ndarray,
        ds_scaled: np.ndarray | None = None,
    ) -> None:
        csi_flat = np.asarray(csi_flat, dtype=critic.dtype)
        trunk_out, self.trunk = mlp_forward(critic.trunk, csi_flat)
        if ds_scaled is None:
            ds_seconds, self.ds_cache = delay_spread_forward(csi_flat, geometry)
            ds_scaled = ds_scaler.scale(ds_seconds)
        else:
            self.ds_cache = None
        fused = np.concatenate([trunk_out, ds_scaled, pos_scaled], axis=1)
        self.scores, self.fusion = mlp_forward(critic.fusion, fused)


def critic_backward(
    critic: CriticParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
    forward: CriticPass,
    seed: np.ndarray,
    grads: list[np.ndarray] | None = None,
    *,
    input_adjoint: bool = True,
) -> np.ndarray | None:
    """Backward pass seeded on the scores.

    Adds the critic parameter gradients to ``grads`` (canonical order) when
    a list is given, and returns the CSI input gradient, including the
    delay-spread side path when ``forward`` computed the delay spread.
    With ``input_adjoint`` False it computes no input gradient and returns
    None.
    """
    fusion_offset = 2 * len(critic.trunk.layers)
    adj_fused = mlp_backward(critic.fusion, forward.fusion, seed, grads, fusion_offset)
    trunk_width = critic.trunk.output_width
    input_grad = mlp_backward(
        critic.trunk, forward.trunk, adj_fused[:, :trunk_width], grads, input_adjoint=input_adjoint
    )
    if input_adjoint and forward.ds_cache is not None:
        adj_ds_scaled = adj_fused[:, trunk_width : trunk_width + geometry.num_antennas]
        adj_ds = ds_scaler.times_gain(adj_ds_scaled)
        input_grad = input_grad + _ds_vjp(adj_ds, forward.ds_cache, geometry)
    return input_grad


def critic_loss_fast(
    critic: CriticParams,
    generator: MlpParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
    real_flat: np.ndarray,
    pos_scaled: np.ndarray,
    ds_real_scaled: np.ndarray,
    noise: np.ndarray,
    eps_mix: np.ndarray,
    gp_lambda: float,
    ds_through_csi: bool = True,
    *,
    fake_flat: np.ndarray | None = None,
    ds_fake: np.ndarray | None = None,
    ds_real: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray], dict]:
    """Critic objective mean[C(fake)] - mean[C(real)] + lambda * penalty and
    its gradients with respect to the critic parameters only.

    Fake samples share the real samples' conditions.  The fakes are
    ``generator``'s output on ``noise``, or ``fake_flat`` when given, with
    ``ds_fake`` their delay spreads in seconds (``generator`` and ``noise``
    are then not read).  A penalty without the delay-spread path mixes
    ``ds_real``, the real rows' delay spreads, computed from ``real_flat``
    when not given.  Returns (loss, gradients in canonical parameter order,
    diagnostics); the gradients are a :class:`~csigen.gan.mlp.FlatArrays`.
    """
    n = real_flat.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    ones = np.ones((n, 1), critic.dtype)  # seeds on the scores
    grads = FlatArrays.zeros_like(critic.arrays())
    if fake_flat is None:
        fake_flat, _ = generator_forward(generator, pos_scaled, noise)
        ds_fake = delay_spread_flat(fake_flat, geometry)
    ds_fake_scaled = ds_scaler.scale(ds_fake)

    # the passes on the fakes and the real rows discard their input gradient
    fake_pass = CriticPass(critic, geometry, ds_scaler, fake_flat, pos_scaled, ds_fake_scaled)
    critic_backward(critic, geometry, ds_scaler, fake_pass, ones / n, grads, input_adjoint=False)
    real_pass = CriticPass(critic, geometry, ds_scaler, real_flat, pos_scaled, ds_real_scaled)
    critic_backward(critic, geometry, ds_scaler, real_pass, -ones / n, grads, input_adjoint=False)
    loss = float(fake_pass.scores.mean() - real_pass.scores.mean())

    penalty_value = 0.0
    if gp_lambda != 0.0:
        eps_mix = np.asarray(eps_mix, dtype=critic.dtype).reshape(-1, 1)
        mixed = eps_mix * real_flat + (1.0 - eps_mix) * fake_flat
        if ds_through_csi:
            mixed_pass = CriticPass(critic, geometry, ds_scaler, mixed, pos_scaled)
        else:
            ds_real = delay_spread_flat(real_flat, geometry) if ds_real is None else ds_real
            ds_mixed = ds_scaler.scale(eps_mix * ds_real + (1.0 - eps_mix) * ds_fake)
            mixed_pass = CriticPass(critic, geometry, ds_scaler, mixed, pos_scaled, ds_mixed)
        input_grad = critic_backward(critic, geometry, ds_scaler, mixed_pass, ones)
        norm = np.sqrt((input_grad * input_grad).sum(axis=1) + GRAD_NORM_FLOOR)
        penalty_value = float(((norm - 1.0) ** 2).mean())
        u = (2.0 / n) * ((norm - 1.0) / norm)[:, None] * input_grad

        # JVP along u through the frozen masks, then one backward sweep
        trunk_tangent_out, trunk_jvp = _mlp_jvp(critic.trunk, mixed_pass.trunk, u)
        if mixed_pass.ds_cache is not None:
            ds_tangent = ds_scaler.times_gain(_ds_jvp(u, mixed_pass.ds_cache, geometry))
        else:
            ds_tangent = np.zeros((n, geometry.num_antennas))
        fused_tangent = np.concatenate(
            [trunk_tangent_out, ds_tangent, np.zeros((n, 2))], axis=1, dtype=critic.dtype
        )
        _, fusion_jvp = _mlp_jvp(critic.fusion, mixed_pass.fusion, fused_tangent)

        # backward over the JVP pass: its layer inputs are the tangents
        pgrads = FlatArrays.zeros_like(grads)
        fusion_offset = 2 * len(critic.trunk.layers)
        adj = mlp_backward(critic.fusion, fusion_jvp, ones, pgrads, fusion_offset)
        trunk_width = critic.trunk.output_width
        mlp_backward(critic.trunk, trunk_jvp, adj[:, :trunk_width], pgrads, input_adjoint=False)
        # the biases' tangent is zero, so their penalty gradient is exactly 0
        for bias_grad in pgrads[1::2]:
            bias_grad[...] = 0.0
        pgrads.flat *= gp_lambda
        grads.flat += pgrads.flat
        loss += gp_lambda * penalty_value

    diagnostics = {
        "real_score": float(real_pass.scores.mean()),
        "fake_score": float(fake_pass.scores.mean()),
        "penalty": penalty_value,
    }
    return loss, grads, diagnostics


def generator_loss_fast(
    critic: CriticParams,
    generator: MlpParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
    pos_scaled: np.ndarray,
    noise: np.ndarray,
    *,
    fake_flat: np.ndarray | None = None,
    gen_cache: tuple | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Generator objective -mean[C(G(x, n))] and its gradients with respect
    to the generator parameters, including the path through the
    delay-spread side input.  With ``fake_flat`` given, it and
    ``gen_cache`` stand for :func:`generator_forward`'s output and cache on
    ``noise`` (``noise`` is then not read).  The gradients are a
    :class:`~csigen.gan.mlp.FlatArrays`."""
    n = pos_scaled.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if fake_flat is None:
        fake_flat, gen_cache = generator_forward(generator, pos_scaled, noise)
    critic_pass = CriticPass(critic, geometry, ds_scaler, fake_flat, pos_scaled)
    loss = float(-critic_pass.scores.mean())
    seed = np.full((n, 1), -1.0 / n, critic.dtype)
    adj_fake = critic_backward(critic, geometry, ds_scaler, critic_pass, seed)
    grads = FlatArrays.zeros_like(generator.arrays())
    mlp_backward(generator, gen_cache, adj_fake, grads, input_adjoint=False)
    return loss, grads
