"""WGAN-GP training loop, Adam optimizer state, and "WGCK" checkpoints.

Training is a pure function of (dataset, config, seed) on one platform:
random draws follow a fixed per-cycle order, parameters update in canonical
order, and the checkpoint stores the generator/critic parameters, the
optimizer moments, the RNG state, and both input scalers, so a resumed run
continues bit-identically.

WGCK file layout: magic b"WGCK", version u16 LE, meta-JSON length u32 LE,
meta JSON (config, geometry, scalers, layer tables, step, RNG state,
optimizer step counts), then one float64 LE payload holding all parameter
arrays followed by the Adam first and second moments in the same canonical
order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csigen.core import ArrayGeometry, CsiDataset
from csigen.dataio import ConditionScaler, fit_condition_scaler
from csigen.gan.mlp import DenseLayer, MlpParams
from csigen.gan.fastgrad import (
    CriticPass,
    critic_backward,
    critic_loss_fast,
    generator_loss_fast,
)
from csigen.gan.nets import (
    CriticParams,
    CriticSpec,
    DelaySpreadScaler,
    GeneratorSpec,
    delay_spread_flat,
    flatten_csi,
    init_critic,
    init_generator,
)

CHECKPOINT_MAGIC = b"WGCK"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """A loss became non-finite; training aborted."""


class CheckpointFormatError(Exception):
    """Base class for WGCK file format violations."""


class CheckpointBadMagicError(CheckpointFormatError):
    pass


class CheckpointVersionError(CheckpointFormatError):
    pass


class CheckpointTruncatedError(CheckpointFormatError):
    pass


class CheckpointLengthError(CheckpointFormatError):
    pass


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one training run.

    ``generator_steps`` is required; everything else defaults to the usual
    WGAN-GP settings (gradient-penalty coefficient 10, five critic updates
    per generator update, batches of 64, Adam at 1e-4 with betas (0, 0.9)).
    ``hidden_scale`` shrinks all hidden layer widths for fast desk-scale
    runs; input/output widths always follow the geometry.
    ``gp_ds_through_csi`` controls whether the penalty's input gradient
    flows through the recomputed delay-spread side input (ablation switch).
    """

    generator_steps: int
    seed: int = 0
    gp_lambda: float = 10.0
    n_critic: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-4
    adam_beta1: float = 0.0
    adam_beta2: float = 0.9
    adam_eps: float = 1e-8
    noise_dim: int = 128
    hidden_scale: float = 1.0
    critic_hidden_scale: float | None = None
    gp_ds_through_csi: bool = True
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.generator_steps < 0:
            raise ValueError("generator_steps must be >= 0")
        if self.n_critic < 1 or self.batch_size < 1 or self.noise_dim < 1:
            raise ValueError("n_critic, batch_size and noise_dim must be >= 1")
        if self.hidden_scale <= 0:
            raise ValueError("hidden_scale must be positive")
        if self.critic_hidden_scale is not None and self.critic_hidden_scale <= 0:
            raise ValueError("critic_hidden_scale must be positive")

    @property
    def critic_scale(self) -> float:
        return self.critic_hidden_scale if self.critic_hidden_scale is not None else self.hidden_scale

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingConfig":
        return cls(**data)


@dataclass
class AdamState:
    """First/second moment estimates per parameter array, plus step count."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, arrays: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays])


def adam_update(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    config: TrainingConfig,
) -> None:
    """In-place Adam step over a canonical parameter list."""
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    for array, gradient, m, v in zip(arrays, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * gradient
        v *= b2
        v += (1.0 - b2) * gradient * gradient
        array -= config.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + config.adam_eps
        )


@dataclass
class Checkpoint:
    generator: MlpParams
    critic: CriticParams
    config: TrainingConfig
    geometry: ArrayGeometry
    condition_scaler: ConditionScaler
    ds_scaler: DelaySpreadScaler
    step: int
    rng_state: dict
    gen_adam: AdamState
    critic_adam: AdamState


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log_rows: list[dict]


def _layer_table(params: MlpParams) -> list[list]:
    return [[l.weights.shape[0], l.weights.shape[1], l.activation] for l in params.layers]


def _geometry_dict(geometry: ArrayGeometry) -> dict:
    return {
        "num_arrays": geometry.num_arrays,
        "rows_per_array": geometry.rows_per_array,
        "cols_per_array": geometry.cols_per_array,
        "num_taps": geometry.num_taps,
        "carrier_frequency": geometry.carrier_frequency,
        "bandwidth": geometry.bandwidth,
    }


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    meta = {
        "config": checkpoint.config.to_dict(),
        "geometry": _geometry_dict(checkpoint.geometry),
        "condition_scaler": {
            "min": list(checkpoint.condition_scaler.minimum),
            "max": list(checkpoint.condition_scaler.maximum),
        },
        "ds_scaler": {
            "min": checkpoint.ds_scaler.minimum,
            "max": checkpoint.ds_scaler.maximum,
        },
        "step": checkpoint.step,
        "rng_state": checkpoint.rng_state,
        "layers": {
            "generator": _layer_table(checkpoint.generator),
            "critic_trunk": _layer_table(checkpoint.critic.trunk),
            "critic_fusion": _layer_table(checkpoint.critic.fusion),
        },
        "adam_t": {"generator": checkpoint.gen_adam.t, "critic": checkpoint.critic_adam.t},
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays = checkpoint.generator.arrays() + checkpoint.critic.arrays()
    adam_arrays = (
        checkpoint.gen_adam.m
        + checkpoint.critic_adam.m
        + checkpoint.gen_adam.v
        + checkpoint.critic_adam.v
    )
    payload = np.concatenate([a.ravel() for a in arrays + adam_arrays]).astype("<f8")
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<H", CHECKPOINT_VERSION))
        handle.write(struct.pack("<I", len(meta_bytes)))
        handle.write(meta_bytes)
        handle.write(payload.tobytes())


def _params_from_table(table: list, values: np.ndarray, offset: int) -> tuple[MlpParams, int]:
    layers = []
    for out_width, in_width, activation in table:
        w_size = out_width * in_width
        weights = values[offset : offset + w_size].reshape(out_width, in_width).copy()
        offset += w_size
        bias = values[offset : offset + out_width].copy()
        offset += out_width
        layers.append(DenseLayer(weights, bias, activation))
    return MlpParams(layers), offset


def load_checkpoint(path: str | Path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointBadMagicError(f"{path}: not a WGCK checkpoint")
    if len(blob) < 10:
        raise CheckpointTruncatedError(f"{path}: file ends inside the header")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    if len(blob) < 10 + meta_len:
        raise CheckpointTruncatedError(f"{path}: file ends inside the metadata block")
    meta = json.loads(blob[10 : 10 + meta_len].decode("utf-8"))
    payload = np.frombuffer(blob[10 + meta_len :], dtype="<f8")

    tables = meta["layers"]
    param_count = sum(
        out * inp + out
        for table in (tables["generator"], tables["critic_trunk"], tables["critic_fusion"])
        for out, inp, _ in table
    )
    expected = 3 * param_count  # parameters + adam m + adam v
    if payload.size < expected:
        raise CheckpointTruncatedError(
            f"{path}: payload holds {payload.size} values, expected {expected}"
        )
    if payload.size > expected:
        raise CheckpointLengthError(
            f"{path}: payload holds {payload.size - expected} unexpected trailing values"
        )

    offset = 0
    generator, offset = _params_from_table(tables["generator"], payload, offset)
    trunk, offset = _params_from_table(tables["critic_trunk"], payload, offset)
    fusion, offset = _params_from_table(tables["critic_fusion"], payload, offset)
    critic = CriticParams(trunk, fusion)

    def take_like(arrays: list[np.ndarray], offset: int) -> tuple[list[np.ndarray], int]:
        out = []
        for array in arrays:
            out.append(payload[offset : offset + array.size].reshape(array.shape).copy())
            offset += array.size
        return out, offset

    gen_arrays = generator.arrays()
    critic_arrays = critic.arrays()
    gen_m, offset = take_like(gen_arrays, offset)
    critic_m, offset = take_like(critic_arrays, offset)
    gen_v, offset = take_like(gen_arrays, offset)
    critic_v, offset = take_like(critic_arrays, offset)

    geometry = ArrayGeometry(**meta["geometry"])
    return Checkpoint(
        generator=generator,
        critic=critic,
        config=TrainingConfig.from_dict(meta["config"]),
        geometry=geometry,
        condition_scaler=ConditionScaler(
            np.array(meta["condition_scaler"]["min"]), np.array(meta["condition_scaler"]["max"])
        ),
        ds_scaler=DelaySpreadScaler(meta["ds_scaler"]["min"], meta["ds_scaler"]["max"]),
        step=meta["step"],
        rng_state=meta["rng_state"],
        gen_adam=AdamState(gen_m, gen_v, meta["adam_t"]["generator"]),
        critic_adam=AdamState(critic_m, critic_v, meta["adam_t"]["critic"]),
    )


def _calibrate_critic_scale(
    critic: CriticParams,
    geometry: ArrayGeometry,
    ds_scaler: DelaySpreadScaler,
    real_flat: np.ndarray,
    pos_scaled: np.ndarray,
) -> None:
    """Rescale the critic's output layer so the median input-gradient norm
    on a probe batch is 1.

    A freshly initialized ReLU critic sits far below the gradient-penalty
    target, and the penalty then spends thousands of optimizer steps
    inflating the network before any real/fake separation starts.  Scaling
    the final linear layer moves the whole score (and its input gradient)
    onto the constraint without changing the function class.
    """
    probe = min(256, real_flat.shape[0])
    forward = CriticPass(critic, geometry, ds_scaler, real_flat[:probe], pos_scaled[:probe])
    input_grad = critic_backward(critic, geometry, ds_scaler, forward, np.ones((probe, 1)))
    median = float(np.median(np.linalg.norm(input_grad, axis=1)))
    if median > 0.0 and np.isfinite(median):
        critic.fusion.layers[-1].weights /= median
        critic.fusion.layers[-1].bias /= median


def train(
    dataset: CsiDataset,
    config: TrainingConfig,
    out_dir: str | Path | None = None,
    resume: Checkpoint | None = None,
) -> TrainResult:
    """Alternating WGAN-GP training on a CSI dataset.

    Per generator step, the critic takes ``n_critic`` updates, each on a
    fresh batch (real samples, matching-condition fakes, one gradient
    penalty with per-sample mixing coefficients).  Emits one log row per
    generator step; writes periodic checkpoints into ``out_dir`` when a
    cadence is configured, and a diagnostic checkpoint on divergence.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    geometry = dataset.geometry
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    if resume is not None:
        if resume.geometry != geometry:
            raise ValueError("checkpoint geometry does not match the training dataset")
        config = resume.config
        generator = resume.generator.copy()
        critic = resume.critic.copy()
        cond_scaler = resume.condition_scaler
        ds_scaler = resume.ds_scaler
        gen_adam = AdamState([m.copy() for m in resume.gen_adam.m],
                             [v.copy() for v in resume.gen_adam.v], resume.gen_adam.t)
        critic_adam = AdamState([m.copy() for m in resume.critic_adam.m],
                                [v.copy() for v in resume.critic_adam.v], resume.critic_adam.t)
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
        start_step = resume.step
    else:
        rng = np.random.default_rng(config.seed)
        gen_spec = GeneratorSpec.for_geometry(
            geometry, noise_dim=config.noise_dim, hidden_scale=config.hidden_scale
        )
        critic_spec = CriticSpec.for_geometry(geometry, hidden_scale=config.critic_scale)
        generator = init_generator(gen_spec, rng)
        critic = init_critic(critic_spec, rng)
        cond_scaler = fit_condition_scaler(dataset)
        ds_scaler = DelaySpreadScaler.fit(delay_spread_flat(flatten_csi(dataset.csi), geometry))
        gen_adam = AdamState.zeros_like(generator.arrays())
        critic_adam = AdamState.zeros_like(critic.arrays())
        start_step = 0

    real_flat = flatten_csi(dataset.csi)
    pos_scaled = cond_scaler.scale(dataset.positions)
    ds_real_scaled = ds_scaler.scale(delay_spread_flat(real_flat, geometry))
    if resume is None:
        _calibrate_critic_scale(critic, geometry, ds_scaler, real_flat, pos_scaled)

    def snapshot(step: int) -> Checkpoint:
        return Checkpoint(
            generator=generator.copy(),
            critic=critic.copy(),
            config=config,
            geometry=geometry,
            condition_scaler=cond_scaler,
            ds_scaler=ds_scaler,
            step=step,
            rng_state=rng.bit_generator.state,
            gen_adam=AdamState([m.copy() for m in gen_adam.m],
                               [v.copy() for v in gen_adam.v], gen_adam.t),
            critic_adam=AdamState([m.copy() for m in critic_adam.m],
                                  [v.copy() for v in critic_adam.v], critic_adam.t),
        )

    log_rows: list[dict] = []
    count = len(dataset)
    gen_arrays = generator.arrays()
    critic_arrays = critic.arrays()

    for step in range(start_step + 1, start_step + config.generator_steps + 1):
        last = {"real_score": math.nan, "fake_score": math.nan}
        closs = math.nan
        for _ in range(config.n_critic):
            idx = rng.integers(0, count, size=config.batch_size)
            noise = rng.standard_normal((config.batch_size, config.noise_dim))
            eps_mix = rng.uniform(size=(config.batch_size, 1))
            closs, cgrads, last = critic_loss_fast(
                critic,
                generator,
                geometry,
                ds_scaler,
                real_flat[idx],
                pos_scaled[idx],
                ds_real_scaled[idx],
                noise,
                eps_mix,
                config.gp_lambda,
                config.gp_ds_through_csi,
            )
            adam_update(critic_arrays, cgrads, critic_adam, config)
        idx = rng.integers(0, count, size=config.batch_size)
        noise = rng.standard_normal((config.batch_size, config.noise_dim))
        gloss, ggrads = generator_loss_fast(
            critic, generator, geometry, ds_scaler, pos_scaled[idx], noise
        )
        adam_update(gen_arrays, ggrads, gen_adam, config)

        row = {
            "step": step,
            "critic_loss": closs,
            "gen_loss": gloss,
            "real_score": last["real_score"],
            "fake_score": last["fake_score"],
        }
        log_rows.append(row)
        if not (math.isfinite(closs) and math.isfinite(gloss)):
            if out_dir is not None:
                save_checkpoint(snapshot(step), out_dir / "checkpoint_diverged.wgck")
            raise TrainingDivergedError(f"non-finite loss at generator step {step}")
        if out_dir is not None and config.checkpoint_every and step % config.checkpoint_every == 0:
            save_checkpoint(snapshot(step), out_dir / f"checkpoint_{step:07d}.wgck")

    return TrainResult(snapshot(start_step + config.generator_steps), log_rows)
