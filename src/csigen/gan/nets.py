"""Generator and critic networks, the delay-spread side input, and the
graph-built WGAN-GP losses.

Layouts follow the dense architecture used throughout: the generator maps
(noise, scaled position) through ReLU layers of widths (512, 512, 1024,
2048) to a linear output holding the flattened real/imag CSI; the critic
compresses the flattened CSI through a (160, 100, 50) ReLU trunk, fuses the
result with per-antenna delay-spread values and the scaled position, and
scores realness through (20, 10, 1) layers.

A CSI tensor of shape (B, M_r, M_c, N_tap) is flattened to a width
2*B*M_r*M_c*N_tap real vector: all real parts in C order, then all
imaginary parts.  The CSI itself is not normalized; only positions and
delay spreads are affinely scaled into [-1, 1].

The numpy forward passes here (:func:`generator_forward`,
:func:`delay_spread_forward`) are the ones training and sampling run; the
training losses and their gradients are in :mod:`csigen.gan.fastgrad`.
The graph-built losses below (:func:`critic_loss`, :func:`generator_loss`,
:func:`gradient_penalty`, over :func:`delay_spread_flat_var`) differentiate
through :mod:`csigen.gan.autodiff` and serve as the independent reference
the tests check the training gradients against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from csigen.core import ArrayGeometry
from csigen.gan import autodiff as ad
from csigen.gan.mlp import MlpParams, init_mlp, mlp_apply, mlp_forward, mlp_vars, packed_copy

GENERATOR_HIDDEN = (512, 512, 1024, 2048)
CRITIC_TRUNK = (160, 100, 50)
CRITIC_FUSION_HIDDEN = (20, 10)

# Variance floor (taps^2) inside the differentiable delay-spread path; keeps
# the sqrt gradient bounded for single-tap profiles.  Relative distortion of
# realistic spreads is below 1e-9.
DS_VARIANCE_FLOOR = 1e-9
# Floor under the gradient-norm sqrt; the usual guard against an exactly
# vanishing critic input gradient.
GRAD_NORM_FLOOR = 1e-12


def _scaled(width: int, scale: float) -> int:
    return max(8, int(round(width * scale)))


@dataclass(frozen=True)
class GeneratorSpec:
    noise_dim: int
    condition_dim: int
    hidden_widths: tuple[int, ...]
    output_width: int

    @classmethod
    def for_geometry(
        cls, geometry: ArrayGeometry, noise_dim: int = 128, hidden_scale: float = 1.0
    ) -> "GeneratorSpec":
        hidden = tuple(_scaled(w, hidden_scale) for w in GENERATOR_HIDDEN)
        return cls(
            noise_dim=noise_dim,
            condition_dim=2,
            hidden_widths=hidden,
            output_width=2 * geometry.num_antennas * geometry.num_taps,
        )

    @property
    def widths(self) -> list[int]:
        return [self.noise_dim + self.condition_dim, *self.hidden_widths, self.output_width]

    @property
    def activations(self) -> list[str]:
        return ["relu"] * len(self.hidden_widths) + ["linear"]


@dataclass(frozen=True)
class CriticSpec:
    csi_width: int
    ds_width: int
    condition_dim: int
    trunk_widths: tuple[int, ...]
    fusion_hidden: tuple[int, ...]

    @classmethod
    def for_geometry(cls, geometry: ArrayGeometry, hidden_scale: float = 1.0) -> "CriticSpec":
        return cls(
            csi_width=2 * geometry.num_antennas * geometry.num_taps,
            ds_width=geometry.num_antennas,
            condition_dim=2,
            trunk_widths=tuple(_scaled(w, hidden_scale) for w in CRITIC_TRUNK),
            fusion_hidden=tuple(_scaled(w, hidden_scale) for w in CRITIC_FUSION_HIDDEN),
        )

    @property
    def trunk_widths_full(self) -> list[int]:
        return [self.csi_width, *self.trunk_widths]

    @property
    def fusion_widths_full(self) -> list[int]:
        fusion_input = self.trunk_widths[-1] + self.ds_width + self.condition_dim
        return [fusion_input, *self.fusion_hidden, 1]


@dataclass
class CriticParams:
    trunk: MlpParams
    fusion: MlpParams

    def arrays(self) -> list[np.ndarray]:
        return self.trunk.arrays() + self.fusion.arrays()

    def copy(self) -> "CriticParams":
        """A copy whose arrays view one new flat buffer, trunk then fusion."""
        arrays = packed_copy(self.arrays())
        split = 2 * len(self.trunk.layers)
        return CriticParams(
            MlpParams.on_arrays(arrays[:split], self.trunk.activations),
            MlpParams.on_arrays(arrays[split:], self.fusion.activations),
        )

    def num_parameters(self) -> int:
        return self.trunk.num_parameters() + self.fusion.num_parameters()


def init_generator(spec: GeneratorSpec, rng: np.random.Generator) -> MlpParams:
    return init_mlp(spec.widths, spec.activations, rng)


def init_critic(spec: CriticSpec, rng: np.random.Generator) -> CriticParams:
    trunk = init_mlp(spec.trunk_widths_full, ["relu"] * len(spec.trunk_widths), rng)
    fusion = init_mlp(
        spec.fusion_widths_full, ["relu"] * len(spec.fusion_hidden) + ["linear"], rng
    )
    return CriticParams(trunk, fusion).copy()


@dataclass(frozen=True)
class DelaySpreadScaler:
    """Affine map of delay spreads (seconds) onto [-1, 1], fitted min/max."""

    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        if not self.minimum < self.maximum:
            raise ValueError("degenerate delay-spread extent")

    def scale(self, ds):
        return 2.0 * (np.asarray(ds) - self.minimum) / (self.maximum - self.minimum) - 1.0

    def scale_var(self, ds: ad.Var) -> ad.Var:
        gain = 2.0 / (self.maximum - self.minimum)
        offset = -2.0 * self.minimum / (self.maximum - self.minimum) - 1.0
        return ad.add(ad.mul(ds, gain), offset)

    @classmethod
    def fit(cls, delay_spreads: np.ndarray) -> "DelaySpreadScaler":
        values = np.asarray(delay_spreads, dtype=np.float64).ravel()
        if values.size == 0:
            raise ValueError("cannot fit a delay-spread scaler on no values")
        return cls(float(values.min()), float(values.max()))


def flatten_csi(csi: np.ndarray) -> np.ndarray:
    """(N, B, M_r, M_c, N_tap) complex -> (N, 2*B*M_r*M_c*N_tap) float."""
    csi = np.asarray(csi)
    flat = csi.reshape(csi.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def unflatten_csi(flat: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Inverse of :func:`flatten_csi`."""
    flat = np.asarray(flat, dtype=np.float64)
    half = flat.shape[1] // 2
    complex_flat = flat[:, :half] + 1j * flat[:, half:]
    return complex_flat.reshape((flat.shape[0],) + geometry.csi_shape)


class DelaySpreadCache:
    """Intermediates of :func:`delay_spread_forward` at one input, read by
    the delay-spread VJP and JVP in :mod:`csigen.gan.fastgrad`."""

    __slots__ = ("re", "im", "power", "total", "taps", "mean", "centered", "var", "ds_taps")


def delay_spread_forward(
    flat: np.ndarray, geometry: ArrayGeometry
) -> tuple[np.ndarray, DelaySpreadCache]:
    """Delay spreads (seconds) from flattened CSI, shape (N, num_antennas),
    and the intermediates their derivatives need.

    Includes the variance floor, as :func:`delay_spread_flat_var` does, so
    the critic sees identical side inputs on either path.
    """
    cache = DelaySpreadCache()
    flat = np.asarray(flat, dtype=np.float64)
    n = flat.shape[0]
    n_ant, n_tap = geometry.num_antennas, geometry.num_taps
    half = n_ant * n_tap
    cache.re = flat[:, :half].reshape(n, n_ant, n_tap)
    cache.im = flat[:, half:].reshape(n, n_ant, n_tap)
    cache.power = cache.re * cache.re + cache.im * cache.im
    cache.total = cache.power.sum(axis=2) + 1e-30
    cache.taps = np.arange(1, n_tap + 1, dtype=np.float64)
    cache.mean = (cache.power * cache.taps).sum(axis=2) / cache.total
    cache.centered = cache.taps - cache.mean[:, :, None]
    cache.var = (cache.power * cache.centered * cache.centered).sum(axis=2) / cache.total
    cache.ds_taps = np.sqrt(cache.var + DS_VARIANCE_FLOOR)
    return cache.ds_taps * geometry.tap_duration, cache


def delay_spread_flat(flat: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Delay spreads (seconds) from flattened CSI, shape (N, num_antennas);
    the value of :func:`delay_spread_forward`."""
    return delay_spread_forward(flat, geometry)[0]


def delay_spread_flat_var(flat: ad.Var, geometry: ArrayGeometry) -> ad.Var:
    """Differentiable delay spread from flattened CSI (graph version)."""
    n = flat.shape[0]
    n_ant, n_tap = geometry.num_antennas, geometry.num_taps
    half = n_ant * n_tap
    re = ad.reshape(ad.narrow(flat, 1, 0, half), (n, n_ant, n_tap))
    im = ad.reshape(ad.narrow(flat, 1, half, half), (n, n_ant, n_tap))
    power = ad.add(ad.square(re), ad.square(im))
    total = ad.add(ad.vsum(power, axis=2), 1e-30)
    taps = np.arange(1, n_tap + 1, dtype=np.float64)
    mean = ad.div(ad.vsum(ad.mul(power, taps), axis=2), total)
    centered = ad.sub(taps, ad.reshape(mean, (n, n_ant, 1)))
    variance = ad.div(ad.vsum(ad.mul(power, ad.square(centered)), axis=2), total)
    ds_taps = ad.sqrt(ad.add(variance, DS_VARIANCE_FLOOR))
    return ad.mul(ds_taps, geometry.tap_duration)


def generator_forward(
    params: MlpParams, conditions_scaled: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Fast generator pass: (noise, condition) -> flattened CSI vector."""
    inputs = np.concatenate(
        [np.asarray(noise, dtype=np.float64), np.asarray(conditions_scaled, dtype=np.float64)],
        axis=1,
    )
    out, _ = mlp_forward(params, inputs)
    return out


def generate_csi(
    params: MlpParams,
    geometry: ArrayGeometry,
    conditions_scaled: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Generator pass returning complex CSI tensors (N, B, M_r, M_c, N_tap)."""
    return unflatten_csi(generator_forward(params, conditions_scaled, noise), geometry)


def critic_apply_var(
    trunk_vars,
    fusion_vars,
    critic: CriticParams,
    csi_flat: ad.Var,
    ds_scaled: ad.Var,
    pos_scaled: ad.Var,
) -> ad.Var:
    trunk_out = mlp_apply(trunk_vars, critic.trunk.activations, csi_flat)
    fused = ad.concat([trunk_out, ds_scaled, pos_scaled], axis=1)
    return mlp_apply(fusion_vars, critic.fusion.activations, fused)


def _penalty_var(
    trunk_vars,
    fusion_vars,
    critic: CriticParams,
    geometry: ArrayGeometry,
    ds_scaler: DelaySpreadScaler,
    real_flat: np.ndarray,
    fake_flat: np.ndarray,
    pos_scaled: np.ndarray,
    eps_mix: np.ndarray,
    ds_through_csi: bool = True,
) -> ad.Var:
    """Graph of the per-batch mean gradient penalty (||grad C(x~)|| - 1)^2.

    x~ mixes real and fake CSI per sample; the delay-spread side input is
    recomputed from x~ (so the input gradient flows through it) unless
    ``ds_through_csi`` is disabled, in which case the delay spreads of the
    endpoints are mixed with the same coefficients and treated as constant.
    """
    eps_mix = np.asarray(eps_mix, dtype=np.float64).reshape(-1, 1)
    mixed_value = eps_mix * real_flat + (1.0 - eps_mix) * fake_flat
    mixed = ad.Var(mixed_value)
    if ds_through_csi:
        ds_scaled = ds_scaler.scale_var(delay_spread_flat_var(mixed, geometry))
    else:
        ds_real = delay_spread_flat(real_flat, geometry)
        ds_fake = delay_spread_flat(fake_flat, geometry)
        ds_scaled = ad.Var(ds_scaler.scale(eps_mix * ds_real + (1.0 - eps_mix) * ds_fake))
    score = critic_apply_var(
        trunk_vars, fusion_vars, critic, mixed, ds_scaled, ad.Var(pos_scaled)
    )
    # one backward seeded with ones gives the per-sample input gradients
    (input_grad,) = ad.grad(ad.vsum(score), [mixed])
    norm = ad.sqrt(ad.add(ad.vsum(ad.square(input_grad), axis=1), GRAD_NORM_FLOOR))
    return ad.mean(ad.square(ad.sub(norm, 1.0)))


def gradient_penalty(
    critic: CriticParams,
    geometry: ArrayGeometry,
    ds_scaler: DelaySpreadScaler,
    real_flat: np.ndarray,
    fake_flat: np.ndarray,
    pos_scaled: np.ndarray,
    eps_mix: np.ndarray,
    ds_through_csi: bool = True,
) -> tuple[float, list[np.ndarray]]:
    """Mean gradient penalty over a batch and its critic-parameter gradients
    (exact double backpropagation with frozen activation patterns)."""
    trunk_vars = mlp_vars(critic.trunk)
    fusion_vars = mlp_vars(critic.fusion)
    penalty = _penalty_var(
        trunk_vars,
        fusion_vars,
        critic,
        geometry,
        ds_scaler,
        real_flat,
        fake_flat,
        pos_scaled,
        eps_mix,
        ds_through_csi,
    )
    param_vars = [v for pair in trunk_vars + fusion_vars for v in pair]
    grads = ad.grad(penalty, param_vars)
    return float(penalty.value), [g.value for g in grads]


def critic_loss(
    critic: CriticParams,
    generator: MlpParams,
    geometry: ArrayGeometry,
    ds_scaler: DelaySpreadScaler,
    real_flat: np.ndarray,
    pos_scaled: np.ndarray,
    ds_real_scaled: np.ndarray,
    noise: np.ndarray,
    eps_mix: np.ndarray,
    gp_lambda: float,
    ds_through_csi: bool = True,
) -> tuple[float, list[np.ndarray], dict]:
    """Critic objective mean[C(fake)] - mean[C(real)] + lambda * penalty and
    its gradients with respect to the critic parameters only.

    Fake samples share the real samples' conditions.  Returns
    (loss, gradients in canonical parameter order, diagnostics).
    """
    if real_flat.shape[0] == 0:
        raise ValueError("empty batch")
    fake_flat = generator_forward(generator, pos_scaled, noise)
    ds_fake_scaled = ds_scaler.scale(delay_spread_flat(fake_flat, geometry))

    trunk_vars = mlp_vars(critic.trunk)
    fusion_vars = mlp_vars(critic.fusion)
    score_real = critic_apply_var(
        trunk_vars, fusion_vars, critic, ad.Var(real_flat), ad.Var(ds_real_scaled), ad.Var(pos_scaled)
    )
    score_fake = critic_apply_var(
        trunk_vars, fusion_vars, critic, ad.Var(fake_flat), ad.Var(ds_fake_scaled), ad.Var(pos_scaled)
    )
    loss = ad.sub(ad.mean(score_fake), ad.mean(score_real))
    if gp_lambda != 0.0:
        penalty = _penalty_var(
            trunk_vars,
            fusion_vars,
            critic,
            geometry,
            ds_scaler,
            real_flat,
            fake_flat,
            pos_scaled,
            eps_mix,
            ds_through_csi,
        )
        loss = ad.add(loss, ad.mul(penalty, gp_lambda))
        penalty_value = float(penalty.value)
    else:
        penalty_value = 0.0
    param_vars = [v for pair in trunk_vars + fusion_vars for v in pair]
    grads = ad.grad(loss, param_vars)
    diagnostics = {
        "real_score": float(score_real.value.mean()),
        "fake_score": float(score_fake.value.mean()),
        "penalty": penalty_value,
    }
    return float(loss.value), [g.value for g in grads], diagnostics


def generator_loss(
    critic: CriticParams,
    generator: MlpParams,
    geometry: ArrayGeometry,
    ds_scaler: DelaySpreadScaler,
    pos_scaled: np.ndarray,
    noise: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Generator objective -mean[C(G(x, n))] and its gradients with respect
    to the generator parameters, including the path through the
    delay-spread side input."""
    if pos_scaled.shape[0] == 0:
        raise ValueError("empty batch")
    gen_vars = mlp_vars(generator)
    inputs = ad.Var(np.concatenate([noise, pos_scaled], axis=1))
    fake = mlp_apply(gen_vars, generator.activations, inputs)
    ds_scaled = ds_scaler.scale_var(delay_spread_flat_var(fake, geometry))
    trunk_vars = mlp_vars(critic.trunk)
    fusion_vars = mlp_vars(critic.fusion)
    score = critic_apply_var(
        trunk_vars, fusion_vars, critic, fake, ds_scaled, ad.Var(pos_scaled)
    )
    loss = ad.mul(ad.mean(score), -1.0)
    param_vars = [v for pair in gen_vars for v in pair]
    grads = ad.grad(loss, param_vars)
    return float(loss.value), [g.value for g in grads]
