"""The WGAN-GP training losses and their exact gradients.

Straight-line numpy over the one MLP forward and backward
(:func:`csigen.gan.mlp.mlp_forward` / :func:`~csigen.gan.mlp.mlp_backward`),
the generator input layout that sampling shares
(:func:`csigen.gan.nets.generator_forward`) and
:func:`csigen.gan.nets.delay_spread_forward`.

The critic has one forward, :func:`critic_forward`, and one backward,
:func:`critic_backward`.  The forward's ``_fusion_input`` is the only code
that lays out the fusion input [trunk output | scaled delay spreads |
scaled position], and it lays out the penalty's tangent of it too; the
backward is the only code that splits the fusion adjoint into its trunk
and delay-spread parts.
:func:`critic_loss_fast` runs the pair once over the stacked rows [fakes;
real; interpolates].  The parameter gradients sum the fakes' rows, then
the real rows', each part on its own, so every gradient entry is summed in
the order of separate passes over each batch.  Only the interpolates get a
first-layer input adjoint.  :func:`generator_loss_fast` and the critic's
calibration in training read the scores and the CSI input gradient
through the delay spreads from :func:`critic_input_gradient`.

The penalty's parameter gradient uses the directional-derivative identity:
with u = d(penalty)/d(gradient) held constant,

    d(penalty)/d(theta) = d/d(theta) [ u . grad_x C(x) ]

and u . grad_x C equals the forward-mode derivative of C along u, so one
JVP pass through the frozen activation masks followed by one backward
sweep over that pass (the tangents standing in for the layer inputs)
yields exact double backpropagation for the piecewise-linear critic.  That
sweep has the interpolates' seed (ones), masks and weights, so its
post-mask adjoints are the ones the stacked backward already computed for
those rows: the sweep reuses them and runs one ``adjoint.T @ tangent`` GEMM
per layer.  The biases' tangent is zero, so their penalty gradient is
exactly 0 and their slots stay zero.

Both losses take the generator and a batch's noise.  A caller that already
ran the generator over the batch, as :func:`csigen.gan.train.train` does
once for all batches of a step, hands its rows in as the keyword arguments
``fake_flat`` (with ``ds_fake`` and ``ds_real`` for the critic loss, and
``gen_cache`` for the generator loss) instead, and the losses then run no
generator forward.

A row's bits can depend on the number of rows in a GEMM (see README), so
the stacked pass may round differently from separate passes at batch
sizes other than the ones checked.
"""

from __future__ import annotations

import numpy as np

from csigen.core import ArrayGeometry, MinMaxScaler
from csigen.gan.mlp import FlatArrays, MlpParams, cache_rows, mlp_backward, mlp_forward
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


def _mlp_jvp(params: MlpParams, masks: list, direction: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward-mode pass through the frozen ReLU ``masks`` of a
    :func:`mlp_forward` cache.  Returns the output perturbation and each
    layer's input perturbation."""
    tangents = []
    tangent = direction
    for layer, mask in zip(params.layers, masks):
        tangents.append(tangent)
        tangent = tangent @ layer.weights.T
        if mask is not None:
            tangent = tangent * mask
    return tangent, tangents


def _fusion_input(
    trunk_out: np.ndarray, ds_scaled: np.ndarray, pos_scaled: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """The critic's fusion input, or its tangent: the trunk output, one
    scaled delay spread per antenna, then the two scaled position columns."""
    return np.concatenate([trunk_out, ds_scaled, pos_scaled], axis=1, dtype=dtype)


def critic_forward(
    critic: CriticParams, csi_flat: np.ndarray, ds_scaled: np.ndarray, pos_scaled: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """The critic's scores (N, 1) of ``csi_flat`` with the side inputs
    ``ds_scaled`` (N, num_antennas) and ``pos_scaled`` (N, 2), in the
    critic's dtype, and the (trunk, fusion) caches of
    :func:`mlp_forward` that :func:`critic_backward` reads."""
    trunk_out, trunk_cache = mlp_forward(critic.trunk, csi_flat)
    fused = _fusion_input(trunk_out, ds_scaled, pos_scaled, critic.dtype)
    scores, fusion_cache = mlp_forward(critic.fusion, fused)
    return scores, (trunk_cache, fusion_cache)


def critic_backward(
    critic: CriticParams, cache: tuple, seed: np.ndarray, grads: list[np.ndarray] | None = None,
    *, parts: tuple[slice, ...] = (slice(None),), input_rows: slice = slice(None),
    adjoints: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass of :func:`critic_forward` from its ``cache`` with
    ``seed`` on the scores: the fusion's :func:`mlp_backward`, then the
    trunk's.  ``grads``, ``parts``, ``input_rows`` and ``adjoints`` go to
    both, ``grads`` in the critic's canonical order and ``adjoints`` then
    holding every critic layer's post-mask adjoint in that order.  Returns
    the adjoints of ``input_rows`` on the CSI through the trunk and on the
    scaled delay spreads."""
    trunk_cache, fusion_cache = cache
    adj_fused = mlp_backward(
        critic.fusion, fusion_cache, seed, grads, 2 * len(critic.trunk.layers),
        parts=parts, adjoints=adjoints,
    )
    trunk_width = critic.trunk.output_width
    adj_csi = mlp_backward(
        critic.trunk, trunk_cache, adj_fused[:, :trunk_width], grads,
        parts=parts, input_rows=input_rows, adjoints=adjoints,
    )
    return adj_csi, adj_fused[input_rows, trunk_width:-2]


def critic_input_gradient(
    critic: CriticParams, geometry: ArrayGeometry, ds_scaler: MinMaxScaler,
    csi_flat: np.ndarray, pos_scaled: np.ndarray, seed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The scores of ``csi_flat`` (cast to the critic's dtype) with its own
    delay spreads as the side input, and their CSI input gradient seeded
    with ``seed``, including the path through the delay spreads."""
    csi_flat = np.asarray(csi_flat, dtype=critic.dtype)
    ds_seconds, ds_cache = delay_spread_forward(csi_flat, geometry)
    scores, cache = critic_forward(critic, csi_flat, ds_scaler.scale(ds_seconds), pos_scaled)
    adj_csi, adj_ds = critic_backward(critic, cache, seed)
    return scores, adj_csi + _ds_vjp(ds_scaler.times_gain(adj_ds), ds_cache, geometry)


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

    The critic runs once over the stacked rows [fakes; real; interpolates]
    (no interpolates when ``gp_lambda`` is 0), forward and backward, with
    the seeds [1/n; -1/n; 1] on the scores.  The parameter gradients sum
    the fakes' rows, then the real rows', as separate passes over each
    batch would; the interpolates' adjoints feed the penalty.
    """
    n = real_flat.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    ones = np.ones((n, 1), critic.dtype)  # seeds on the scores
    grads = FlatArrays.zeros_like(critic.arrays())
    if fake_flat is None:
        fake_flat, _ = generator_forward(generator, pos_scaled, noise)
        ds_fake = delay_spread_flat(fake_flat, geometry)
    rows = [fake_flat, real_flat]
    ds_scaled = [ds_scaler.scale(ds_fake), ds_real_scaled]
    seeds = [ones / n, -ones / n]
    penalty = gp_lambda != 0.0
    if penalty:
        eps_mix = np.asarray(eps_mix, dtype=critic.dtype).reshape(-1, 1)
        rows.append(eps_mix * real_flat + (1.0 - eps_mix) * fake_flat)
        seeds.append(ones)
    fake, real, mixed = slice(0, n), slice(n, 2 * n), slice(2 * n, None)

    # one forward over the stacked rows; the interpolates' delay spreads
    # are computed from their rows (and differentiated) or mixed
    stacked = np.concatenate(rows, dtype=critic.dtype)
    if penalty and ds_through_csi:
        ds_mixed, ds_cache = delay_spread_forward(stacked[mixed], geometry)
        ds_scaled.append(ds_scaler.scale(ds_mixed))
    elif penalty:
        ds_real = delay_spread_flat(real_flat, geometry) if ds_real is None else ds_real
        ds_scaled.append(ds_scaler.scale(eps_mix * ds_real + (1.0 - eps_mix) * ds_fake))
    scores, cache = critic_forward(
        critic, stacked, np.concatenate(ds_scaled), np.concatenate([pos_scaled] * len(rows))
    )
    fake_score, real_score = scores[fake].mean(), scores[real].mean()
    loss = float(fake_score - real_score)

    # one backward; only the interpolates (no rows without a penalty) need
    # the first layer's input adjoint
    adjoints: list[np.ndarray] = []
    input_grad, adj_ds_scaled = critic_backward(
        critic, cache, np.concatenate(seeds), grads,
        parts=(fake, real), input_rows=mixed, adjoints=adjoints,
    )

    penalty_value = 0.0
    if penalty:
        if ds_through_csi:
            adj_ds = ds_scaler.times_gain(adj_ds_scaled)
            input_grad = input_grad + _ds_vjp(adj_ds, ds_cache, geometry)
        norm = np.sqrt((input_grad * input_grad).sum(axis=1) + GRAD_NORM_FLOOR)
        penalty_value = float(((norm - 1.0) ** 2).mean())
        u = (2.0 / n) * ((norm - 1.0) / norm)[:, None] * input_grad

        # JVP along u through the interpolates' frozen masks
        trunk_cache, fusion_cache = cache
        _, trunk_masks = cache_rows(trunk_cache, mixed)
        _, fusion_masks = cache_rows(fusion_cache, mixed)
        trunk_tangent_out, trunk_tangents = _mlp_jvp(critic.trunk, trunk_masks, u)
        if ds_through_csi:
            ds_tangent = ds_scaler.times_gain(_ds_jvp(u, ds_cache, geometry))
        else:
            ds_tangent = np.zeros((n, geometry.num_antennas))
        fused_tangent = _fusion_input(trunk_tangent_out, ds_tangent, np.zeros((n, 2)), critic.dtype)
        _, fusion_tangents = _mlp_jvp(critic.fusion, fusion_masks, fused_tangent)

        # the backward over the JVP pass has the interpolates' seed, masks
        # and weights, so its post-mask adjoints are the ones above; its
        # layer inputs are the tangents.  The biases' tangent is zero, so
        # their penalty gradient is exactly 0 and their slots stay zero.
        pgrads = FlatArrays.zeros_like(grads)
        tangents = trunk_tangents + fusion_tangents
        for index, (adjoint, tangent) in enumerate(zip(adjoints, tangents)):
            pgrads[2 * index] += adjoint[mixed].T @ tangent
        pgrads.flat *= gp_lambda
        grads.flat += pgrads.flat
        loss += gp_lambda * penalty_value

    diagnostics = {
        "real_score": float(real_score),
        "fake_score": float(fake_score),
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
    seed = np.full((n, 1), -1.0 / n, critic.dtype)
    scores, adj_fake = critic_input_gradient(
        critic, geometry, ds_scaler, fake_flat, pos_scaled, seed
    )
    loss = float(-scores.mean())
    grads = FlatArrays.zeros_like(generator.arrays())
    mlp_backward(generator, gen_cache, adj_fake, grads, input_rows=None)
    return loss, grads
