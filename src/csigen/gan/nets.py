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
delay spreads are affinely scaled into [-1, 1].

The forward passes here (:func:`generator_forward`,
:func:`delay_spread_forward`) are the ones training and sampling run; the
training losses and their gradients are in :mod:`csigen.gan.fastgrad`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from csigen.core import ArrayGeometry
from csigen.gan.mlp import MlpParams, init_mlp, mlp_forward, packed_copy

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

    Includes the variance floor ``DS_VARIANCE_FLOOR``.
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

