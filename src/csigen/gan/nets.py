"""Generator and critic networks and the delay-spread side input.

Layouts follow the dense architecture used throughout: the generator maps
(noise, scaled position) through ReLU layers of widths (512, 512, 1024,
2048) to a linear output holding the flattened real/imag CSI; the critic
compresses the flattened CSI through a (160, 100, 50) ReLU trunk, fuses the
result with per-antenna delay-spread values and the scaled position, and
scores realness through (20, 10, 1) layers.

A CSI tensor of shape (B, M_r, M_c, N_tap) is flattened to a width
2*B*M_r*M_c*N_tap real vector: all real parts in C order, then all
imaginary parts.  The CSI itself is not normalized; only positions and
delay spreads are affinely scaled into [-1, 1], each by a
:class:`csigen.core.MinMaxScaler`.

The forward passes here (:func:`generator_forward`,
:func:`delay_spread_forward`) are the ones training runs; the training
losses and their gradients are in :mod:`csigen.gan.fastgrad`.
:func:`generator_forward` is the one place that lays out the generator's
input, and sampling (:mod:`csigen.gan.sample`) runs it too, in fixed-shape
blocks.

Each network's ``arrays()`` is the :class:`~csigen.gan.mlp.FlatArrays` its
layers view; the critic's holds the trunk's arrays, then the fusion's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from csigen.core import ArrayGeometry, as_floating
from csigen.gan.mlp import FlatArrays, MlpParams, init_mlp, mlp_forward

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


def _csi_width(geometry: ArrayGeometry) -> int:
    return 2 * geometry.num_antennas * geometry.num_taps


def _fusion_width(trunk_width: int, geometry: ArrayGeometry) -> int:
    """The critic fusion's input: the trunk output, one scaled delay spread
    per antenna, the scaled position."""
    return trunk_width + geometry.num_antennas + 2


@dataclass
class CriticParams:
    """Trunk then fusion over one buffer; built without one, a packed copy."""

    trunk: MlpParams
    fusion: MlpParams
    buffer: FlatArrays | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.buffer is None:
            self.buffer = FlatArrays.packed(self.trunk.arrays() + self.fusion.arrays())
            trunk, fusion = self.buffer.split(2 * len(self.trunk.layers))
            self.trunk = MlpParams.on_arrays(trunk, self.trunk.activations)
            self.fusion = MlpParams.on_arrays(fusion, self.fusion.activations)

    def arrays(self) -> FlatArrays:
        return self.buffer

    @property
    def dtype(self) -> np.dtype:
        return self.buffer.flat.dtype

    def copy(self, dtype=None) -> "CriticParams":
        """A copy in a new buffer of ``dtype``, by default the network's."""
        return CriticParams(self.trunk.copy(dtype), self.fusion.copy(dtype))


def init_generator(
    geometry: ArrayGeometry, noise_dim: int, hidden_scale: float, rng: np.random.Generator
) -> MlpParams:
    """Generator for ``geometry``: (noise, scaled position) in, flattened CSI
    out, ReLU hidden layers ``GENERATOR_HIDDEN`` times ``hidden_scale``."""
    hidden = [_scaled(width, hidden_scale) for width in GENERATOR_HIDDEN]
    widths = [noise_dim + 2, *hidden, _csi_width(geometry)]
    return init_mlp(widths, ["relu"] * len(hidden) + ["linear"], rng)


def init_critic(
    geometry: ArrayGeometry, hidden_scale: float, rng: np.random.Generator
) -> CriticParams:
    """Critic for ``geometry`` with ``CRITIC_TRUNK`` and
    ``CRITIC_FUSION_HIDDEN`` widths times ``hidden_scale``; the trunk's
    weights are drawn before the fusion's."""
    trunk = [_scaled(width, hidden_scale) for width in CRITIC_TRUNK]
    fusion = [_scaled(width, hidden_scale) for width in CRITIC_FUSION_HIDDEN]
    trunk_params = init_mlp([_csi_width(geometry), *trunk], ["relu"] * len(trunk), rng)
    fusion_params = init_mlp(
        [_fusion_width(trunk[-1], geometry), *fusion, 1], ["relu"] * len(fusion) + ["linear"], rng
    )
    return CriticParams(trunk_params, fusion_params)


def check_widths(
    generator: MlpParams, critic: CriticParams, geometry: ArrayGeometry, noise_dim: int
) -> None:
    """Raise ``ValueError`` naming the first outer width of the networks that
    does not fit ``geometry`` and ``noise_dim`` as in :func:`init_generator`
    and :func:`init_critic`."""
    fusion_input = _fusion_width(critic.trunk.output_width, geometry)
    for name, width, expected in (
        ("generator input", generator.input_width, noise_dim + 2),
        ("generator output", generator.output_width, _csi_width(geometry)),
        ("critic trunk input", critic.trunk.input_width, _csi_width(geometry)),
        ("critic fusion input", critic.fusion.input_width, fusion_input),
        ("critic fusion output", critic.fusion.output_width, 1),
    ):
        if width != expected:
            raise ValueError(f"{name} width {width}, expected {expected}")


def flatten_csi(csi: np.ndarray) -> np.ndarray:
    """(N, B, M_r, M_c, N_tap) complex -> (N, 2*B*M_r*M_c*N_tap) float."""
    csi = np.asarray(csi)
    flat = csi.reshape(csi.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


class DelaySpreadCache:
    """Intermediates of :func:`delay_spread_forward` at one input, read by
    the delay-spread VJP and JVP in :mod:`csigen.gan.fastgrad`."""

    __slots__ = ("re", "im", "power", "total", "taps", "mean", "centered", "var", "ds_taps")


def delay_spread_forward(
    flat: np.ndarray, geometry: ArrayGeometry
) -> tuple[np.ndarray, DelaySpreadCache]:
    """Delay spreads (seconds) from flattened CSI, shape (N, num_antennas),
    and the intermediates their derivatives need.

    Includes the variance floor ``DS_VARIANCE_FLOOR``.  Computes in the
    dtype that :func:`csigen.core.as_floating` gives ``flat``.
    """
    cache = DelaySpreadCache()
    flat = as_floating(flat)
    n = flat.shape[0]
    n_ant, n_tap = geometry.num_antennas, geometry.num_taps
    half = n_ant * n_tap
    cache.re = flat[:, :half].reshape(n, n_ant, n_tap)
    cache.im = flat[:, half:].reshape(n, n_ant, n_tap)
    cache.power = cache.re * cache.re + cache.im * cache.im
    cache.total = cache.power.sum(axis=2) + 1e-30
    cache.taps = np.arange(1, n_tap + 1, dtype=flat.dtype)
    cache.mean = (cache.power * cache.taps).sum(axis=2) / cache.total
    cache.centered = cache.taps - cache.mean[:, :, None]
    cache.var = (cache.power * cache.centered * cache.centered).sum(axis=2) / cache.total
    cache.ds_taps = np.sqrt(cache.var + DS_VARIANCE_FLOOR)
    return cache.ds_taps * geometry.tap_duration, cache


def delay_spread_flat(flat: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Delay spreads (seconds) from flattened CSI, shape (N, num_antennas);
    the value of :func:`delay_spread_forward`."""
    return delay_spread_forward(flat, geometry)[0]


def generator_forward(
    params: MlpParams, conditions_scaled: np.ndarray, noise: np.ndarray
) -> tuple[np.ndarray, tuple[list, list]]:
    """Generator pass over (N, noise_dim) ``noise`` and (N, 2) scaled
    positions: the input row is the noise columns, then the scaled position,
    in the generator's dtype.  Returns the (N, csi width) flattened CSI and
    the :func:`~csigen.gan.mlp.mlp_forward` cache."""
    inputs = np.concatenate([noise, conditions_scaled], axis=1, dtype=params.dtype)
    return mlp_forward(params, inputs)

