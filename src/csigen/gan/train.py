"""WGAN-GP training loop, Adam optimizer state, and "WGCK" checkpoints.

Training is a pure function of (dataset, config, seed) on one platform and
one BLAS thread count: random draws follow a fixed per-step order,
parameters update in canonical order, and the checkpoint stores the
generator/critic parameters, the optimizer moments, the RNG state, and both
input scalers, so a resumed run continues bit-identically.

One generator step draws from the run's random generator, for each of the
``n_critic`` critic batches in turn, its indices, noise and mixing
coefficients, then the generator batch's indices and noise, into buffers
allocated before the first step.  The generator is frozen while the critic
updates, so the step gathers each input's rows once, runs one generator
forward over all ``(n_critic + 1) * batch_size`` rows, critic batches
first, and the delay spreads of the critic rows in one call.  Each critic
update reads its rows of that block, and the generator update
backpropagates through the block's last rows.  A row's bits can
depend on its place in a GEMM block and on the block's size (see README),
so a network shape or batch size other than the ones checked may round
differently from running each batch alone.

Each network's parameters, gradients and Adam moments are
:class:`~csigen.gan.mlp.FlatArrays`, canonical views over one flat buffer
of the network's dtype, so :func:`adam_update` is a fixed sequence of
in-place vector operations over four ``.flat`` buffers.

:func:`train` computes in ``TRAINING_DTYPE`` (float32).  Its whole state is
one :class:`Checkpoint`: a resumed one narrowed to float32, or on a fresh
start networks cast to float32 as soon as they are built, with Adam moments
zeroed in float32.  It casts its inputs once, before the first step, and
draws its noise and mixing coefficients in float64, which the kernels cast
where they use them.  Everything outside the loop is float64: the returned
state is widened to float64, the checkpoint payload is ``<f8`` (a save
widens the float32 state chunk by chunk), and a resume narrows a
checkpoint back, exactly for one that float32 training wrote.

Every checkpoint :func:`train` writes, periodic or diverged, is a float32
copy of the state that it submits to a one-thread ``ThreadPoolExecutor``,
held by its ``with`` block, which writes the copy while the next steps
run; the training thread writes no checkpoint file.  At most one write is
in flight: :func:`train` waits on its future's ``result()`` before the
next save and before it returns or raises, so no writer thread outlives
it and every file it leaves is whole.  The wait raises the error of a
write that failed on the training thread.  Periodic saves fall at the
multiples of ``checkpoint_every`` before the run's last step: the end
state is the returned checkpoint, which the caller saves once.  The
worker calls ``_write_checkpoint``, the body of :func:`save_checkpoint`,
so that wrappers installed over ``save_checkpoint`` run on the training
thread only.

WGCK file layout: magic b"WGCK", version u16 LE, meta-JSON length u32 LE,
meta JSON (config, geometry, scalers, layer tables, step, RNG state,
optimizer step counts), then one float64 LE payload holding all parameter
arrays followed by the Adam first and second moments in the same canonical
order.  :func:`save_checkpoint` writes to a temporary file in the target
directory and renames it over the target, so an interrupted save leaves the
previous file intact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csigen.atomic import atomic_write
from csigen.core import ArrayGeometry, CsiDataset, MinMaxScaler, all_finite
from csigen.gan.mlp import FlatArrays, MlpParams, cache_rows
from csigen.gan.fastgrad import critic_input_gradient, critic_loss_fast, generator_loss_fast
from csigen.gan.nets import (
    CriticParams,
    check_widths,
    delay_spread_flat,
    flatten_csi,
    generator_forward,
    init_critic,
    init_generator,
)

CHECKPOINT_MAGIC = b"WGCK"
# Bytes per operand in one pass of adam_update: the six operands of one
# block stay in a core's L2 cache across the whole operation sequence.
ADAM_BLOCK = 128 * 1024
# Elements per write when save_checkpoint widens a buffer to <f8 (512 KiB).
SAVE_CHUNK = 65536
# CSI entries per row block while train() prepares its inputs: a block's
# float64 rows and delay-spread temporaries are the only float64 copy made.
INPUT_CHUNK = 32768
CHECKPOINT_VERSION = 1
# the dtype of the networks, Adam moments and inputs inside train(); the
# networks it returns and the checkpoints it writes are float64
TRAINING_DTYPE = np.float32


class TrainingDivergedError(RuntimeError):
    """A loss, parameter or Adam moment became non-finite; training aborted."""


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


class CheckpointMetadataError(CheckpointFormatError):
    """The metadata block does not decode, or does not describe a checkpoint."""


def _count(value, name: str, minimum: int = 0) -> int:
    """``value`` when it is an integer (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


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
        for name, minimum in (("generator_steps", 0), ("seed", 0), ("checkpoint_every", 0),
                              ("n_critic", 1), ("batch_size", 1), ("noise_dim", 1)):
            _count(getattr(self, name), name, minimum)
        if not isinstance(self.gp_ds_through_csi, bool):
            raise ValueError(f"gp_ds_through_csi must be a bool, got {self.gp_ds_through_csi!r}")
        reals = {name: getattr(self, name) for name in (
            "hidden_scale", "learning_rate", "adam_eps", "gp_lambda", "adam_beta1", "adam_beta2")}
        reals["critic_hidden_scale"] = self.critic_scale
        for name, value in reals.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("hidden_scale", "critic_hidden_scale", "learning_rate", "adam_eps"):
            if not 0 < reals[name] < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {reals[name]!r}")
        # adam_update applies both in TRAINING_DTYPE: a learning rate that rounds
        # to 0 there, or an epsilon that rounds to inf, makes every step 0
        narrow = np.finfo(TRAINING_DTYPE)
        if self.learning_rate <= float(narrow.smallest_subnormal) / 2:
            raise ValueError(
                f"learning_rate must not round to 0 in {narrow.dtype}, got {self.learning_rate!r}")
        if self.adam_eps >= (float(narrow.max) + 2.0**narrow.maxexp) / 2:
            raise ValueError(
                f"adam_eps must not round to inf in {narrow.dtype}, got {self.adam_eps!r}")
        if not 0 <= self.gp_lambda < math.inf:
            raise ValueError(f"gp_lambda must be >= 0 and finite, got {self.gp_lambda!r}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= reals[name] < 1:
                raise ValueError(f"{name} must be in [0, 1), got {reals[name]!r}")

    @property
    def critic_scale(self) -> float:
        return self.critic_hidden_scale if self.critic_hidden_scale is not None else self.hidden_scale

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class AdamState:
    """First/second moment estimates per parameter array, plus step count.

    ``m`` and ``v`` are :class:`~csigen.gan.mlp.FlatArrays` in canonical
    order; update them in place, do not rebind them.
    """

    m: FlatArrays
    v: FlatArrays
    t: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.m, FlatArrays) and isinstance(self.v, FlatArrays)):
            raise ValueError("Adam moments must each be a FlatArrays over one buffer")
        self.work: np.ndarray | None = None  # two work vectors for adam_update

    @classmethod
    def zeros_like(cls, arrays: list[np.ndarray]) -> "AdamState":
        return cls(FlatArrays.zeros_like(arrays), FlatArrays.zeros_like(arrays))

    def copy(self, dtype=None) -> "AdamState":
        """A copy in new buffers of ``dtype``, by default the moments'."""
        return AdamState(FlatArrays.packed(self.m, dtype), FlatArrays.packed(self.v, dtype), self.t)


def adam_update(
    arrays: FlatArrays,
    grads: FlatArrays,
    state: AdamState,
    config: TrainingConfig,
) -> None:
    """In-place Adam step over a canonical parameter list.

    ``arrays`` and ``grads`` must each be a
    :class:`~csigen.gan.mlp.FlatArrays`, as the parameters of every network
    built here and the gradients of the training losses are.  Per element
    the arithmetic is

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps)

    evaluated in that order, in place, over the flat buffers in blocks of
    ``ADAM_BLOCK`` bytes per operand, with two work vectors of the
    parameters' dtype kept in ``state``.  A multiplication or division by a
    factor of exactly 1.0 is skipped, as ``(1 - b1)`` and ``1 - b1**t`` are
    at ``b1 = 0``; that changes no bit.  ``b1 * m`` always runs, so a
    non-finite ``m`` still turns into NaN.
    """
    if not (isinstance(arrays, FlatArrays) and isinstance(grads, FlatArrays)):
        raise ValueError("adam_update needs parameters and gradients that are each a FlatArrays")
    params, gradient, m, v = arrays.flat, grads.flat, state.m.flat, state.v.flat
    if not params.size == gradient.size == m.size == v.size:
        raise ValueError("parameters, gradients and Adam moments differ in size")
    block_size = ADAM_BLOCK // params.itemsize
    width = min(block_size, params.size)
    if state.work is None or state.work.shape[1] < width:
        state.work = np.empty((2, width), params.dtype)

    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    gain1, gain2 = 1.0 - b1, 1.0 - b2
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    for start in range(0, params.size, block_size):
        block = slice(start, start + block_size)
        p, g, mb, vb = params[block], gradient[block], m[block], v[block]
        step, denominator = state.work[:, : p.size]
        np.multiply(mb, b1, out=mb)
        if gain1 == 1.0:
            np.add(mb, g, out=mb)
        else:
            np.multiply(g, gain1, out=step)
            np.add(mb, step, out=mb)
        np.multiply(vb, b2, out=vb)
        np.multiply(g, gain2, out=step)
        np.multiply(step, g, out=step)
        np.add(vb, step, out=vb)
        if correction1 == 1.0:
            np.multiply(mb, config.learning_rate, out=step)
        else:
            np.divide(mb, correction1, out=step)
            np.multiply(step, config.learning_rate, out=step)
        np.divide(vb, correction2, out=denominator)
        np.sqrt(denominator, out=denominator)
        np.add(denominator, config.adam_eps, out=denominator)
        np.divide(step, denominator, out=step)
        np.subtract(p, step, out=p)


@dataclass
class Checkpoint:
    generator: MlpParams
    critic: CriticParams
    config: TrainingConfig
    geometry: ArrayGeometry
    condition_scaler: MinMaxScaler  # bounds of shape (2,)
    ds_scaler: MinMaxScaler  # scalar bounds
    step: int
    rng_state: dict
    gen_adam: AdamState
    critic_adam: AdamState

    def astype(self, dtype) -> "Checkpoint":
        """A copy whose networks and Adam moments are in new buffers of ``dtype``."""
        return dataclasses.replace(
            self,
            generator=self.generator.copy(dtype),
            critic=self.critic.copy(dtype),
            gen_adam=self.gen_adam.copy(dtype),
            critic_adam=self.critic_adam.copy(dtype),
        )


# The columns of a training log row, in the order the CLI writes them.
LOG_COLUMNS = ("step", "critic_loss", "gen_loss", "real_score", "fake_score")


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log_rows: list[dict]  # one dict per generator step, keyed by LOG_COLUMNS


def _layer_table(params: MlpParams) -> list[list]:
    return [[l.weights.shape[0], l.weights.shape[1], l.activation] for l in params.layers]


def _scaler_dict(scaler: MinMaxScaler) -> dict:
    return {"min": scaler.minimum.tolist(), "max": scaler.maximum.tolist()}


def _scaler_from(entry: dict, shape: tuple) -> MinMaxScaler:
    scaler = MinMaxScaler(entry["min"], entry["max"])
    if scaler.minimum.shape != shape:
        raise ValueError(f"scaler bounds of shape {scaler.minimum.shape}, expected {shape}")
    return scaler


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write ``checkpoint`` to ``path`` atomically: the bytes go to a
    temporary file beside it, which then replaces ``path``.  Each of the
    six buffers (networks, then Adam moments) is written in slices of
    ``SAVE_CHUNK`` elements, each widened to ``<f8`` when it is not, so no
    full-size float64 copy is made."""
    _write_checkpoint(checkpoint, path)


def _write_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """The body of :func:`save_checkpoint`, under a name that tracers
    leave alone: :func:`train`'s writer thread calls it."""
    meta = {
        "config": checkpoint.config.to_dict(),
        "geometry": dataclasses.asdict(checkpoint.geometry),
        "condition_scaler": _scaler_dict(checkpoint.condition_scaler),
        "ds_scaler": _scaler_dict(checkpoint.ds_scaler),
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
    gen_adam, critic_adam = checkpoint.gen_adam, checkpoint.critic_adam
    # payload order: parameters, first moments, second moments; the
    # generator before the critic in each
    buffers = (
        checkpoint.generator.arrays().flat, checkpoint.critic.arrays().flat,
        gen_adam.m.flat, critic_adam.m.flat, gen_adam.v.flat, critic_adam.v.flat,
    )
    with atomic_write(path) as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<H", CHECKPOINT_VERSION))
        handle.write(struct.pack("<I", len(meta_bytes)))
        handle.write(meta_bytes)
        for buffer in buffers:
            for start in range(0, buffer.size, SAVE_CHUNK):
                handle.write(buffer[start : start + SAVE_CHUNK].astype("<f8", copy=False))


def _layer_shapes(table: list) -> list[tuple[int, ...]]:
    """Canonical array shapes of a metadata layer table [[out, in, activation], ...]."""
    shapes = []
    for out_width, in_width, _ in table:
        if not all(isinstance(width, int) and width >= 1 for width in (out_width, in_width)):
            raise ValueError(
                f"layer widths must be positive integers, got {out_width!r} x {in_width!r}"
            )
        shapes += [(out_width, in_width), (out_width,)]
    if not shapes:
        raise ValueError("empty layer table")
    return shapes


def _params_on(table: list, arrays: FlatArrays) -> MlpParams:
    return MlpParams.on_arrays(arrays, [activation for _, _, activation in table])


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a WGCK file.  The payload is read once, straight into a writable
    float64 buffer; the result's networks and Adam moments are
    :class:`~csigen.gan.mlp.FlatArrays` over parts of it.  The layer tables
    must fit the geometry and ``noise_dim`` (see
    :func:`~csigen.gan.nets.check_widths`)."""
    with open(path, "rb") as handle:
        file_bytes = os.fstat(handle.fileno()).st_size
        header = handle.read(10)
        if len(header) < 4 or header[:4] != CHECKPOINT_MAGIC:
            raise CheckpointBadMagicError(f"{path}: not a WGCK checkpoint")
        if len(header) < 10:
            raise CheckpointTruncatedError(f"{path}: file ends inside the header")
        version, meta_len = struct.unpack_from("<HI", header, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: version {version}, expected {CHECKPOINT_VERSION}"
            )
        if file_bytes < 10 + meta_len:
            raise CheckpointTruncatedError(f"{path}: file ends inside the metadata block")
        try:
            meta = json.loads(handle.read(meta_len).decode("utf-8"))
            layers = meta["layers"]
            tables = [layers[name] for name in ("generator", "critic_trunk", "critic_fusion")]
            gen_shapes = _layer_shapes(tables[0])
            critic_shapes = _layer_shapes(tables[1]) + _layer_shapes(tables[2])
            param_count = sum(math.prod(shape) for shape in gen_shapes + critic_shapes)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointMetadataError(f"{path}: unreadable metadata block: {exc!r}") from exc

        payload_bytes = file_bytes - 10 - meta_len
        expected = 8 * 3 * param_count  # parameters + adam m + adam v
        if payload_bytes < expected:
            raise CheckpointTruncatedError(
                f"{path}: payload holds {payload_bytes} bytes, expected {expected}"
            )
        if payload_bytes > expected:
            raise CheckpointLengthError(
                f"{path}: payload holds {payload_bytes - expected} unexpected trailing bytes"
            )
        payload = np.empty(3 * param_count, dtype="<f8")
        if handle.readinto(payload) != expected:
            raise CheckpointTruncatedError(f"{path}: file shrank while being read")
    payload = payload.astype(np.float64, copy=False)  # a copy only on big-endian hosts

    try:
        # payload order: parameters, first moments, second moments; the
        # generator before the critic in each
        gen_params, critic_params, gen_m, critic_m, gen_v, critic_v = (
            network
            for part in np.split(payload, 3)
            for network in FlatArrays(part, gen_shapes + critic_shapes).split(len(gen_shapes))
        )
        trunk, fusion = critic_params.split(2 * len(tables[1]))
        critic = CriticParams(
            _params_on(tables[1], trunk), _params_on(tables[2], fusion), critic_params
        )
        # the RNG state train() restores on resume
        np.random.default_rng(0).bit_generator.state = meta["rng_state"]
        checkpoint = Checkpoint(
            generator=_params_on(tables[0], gen_params),
            critic=critic,
            config=TrainingConfig(**meta["config"]),
            geometry=ArrayGeometry(**meta["geometry"]),
            condition_scaler=_scaler_from(meta["condition_scaler"], (2,)),
            ds_scaler=_scaler_from(meta["ds_scaler"], ()),
            step=_count(meta["step"], "step"),
            rng_state=meta["rng_state"],
            gen_adam=AdamState(gen_m, gen_v, _count(meta["adam_t"]["generator"], "adam_t")),
            critic_adam=AdamState(critic_m, critic_v, _count(meta["adam_t"]["critic"], "adam_t")),
        )
        check_widths(checkpoint.generator, critic, checkpoint.geometry, checkpoint.config.noise_dim)
        return checkpoint
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CheckpointMetadataError(
            f"{path}: metadata does not describe a checkpoint: {exc!r}"
        ) from exc


def _calibrate_critic_scale(
    critic: CriticParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
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
    seed = np.ones((probe, 1), critic.dtype)
    _, input_grad = critic_input_gradient(
        critic, geometry, ds_scaler, real_flat[:probe], pos_scaled[:probe], seed
    )
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
    penalty with per-sample mixing coefficients), then the generator takes
    one; the fakes of all these batches come from one generator forward
    (see the module docstring for the draw order).  Emits one log row per
    generator step.  With an ``out_dir``, writes a checkpoint at each
    multiple of ``checkpoint_every`` before the last step and a diagnostic
    checkpoint on divergence, each on a worker thread while the next steps
    run.  A step that leaves a loss, parameter or Adam second moment not
    finite raises :class:`TrainingDivergedError`.  Steps run in
    ``TRAINING_DTYPE``; the returned checkpoint, the end state, is float64.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    geometry = dataset.geometry
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    if resume is not None and resume.geometry != geometry:
        raise ValueError("checkpoint geometry does not match the training dataset")
    # the flattened rows in the training dtype, and the float64 delay spreads
    # of the float64 rows, a block of rows at a time; each row's reductions
    # are its own, so the blocks change no bit
    count, entries = len(dataset), geometry.num_antennas * geometry.num_taps
    rows = max(1, INPUT_CHUNK // entries)
    real_flat = np.empty((count, 2 * entries), TRAINING_DTYPE)
    ds_real = np.empty((count, geometry.num_antennas))
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        flat = flatten_csi(dataset.csi[block])
        real_flat[block] = flat
        ds_real[block] = delay_spread_flat(flat, geometry)

    if resume is not None:
        state = resume.astype(TRAINING_DTYPE)
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
    else:
        rng = np.random.default_rng(config.seed)
        generator = init_generator(geometry, config.noise_dim, config.hidden_scale, rng)
        generator = generator.copy(TRAINING_DTYPE)
        critic = init_critic(geometry, config.critic_scale, rng).copy(TRAINING_DTYPE)
        state = Checkpoint(
            generator=generator,
            critic=critic,
            config=config,
            geometry=geometry,
            condition_scaler=MinMaxScaler.fit(dataset.positions),
            ds_scaler=MinMaxScaler.fit(ds_real.ravel()),
            step=0,
            rng_state=rng.bit_generator.state,
            gen_adam=AdamState.zeros_like(generator.arrays()),
            critic_adam=AdamState.zeros_like(critic.arrays()),
        )
    config = state.config

    # cast once, so that no float64 operand promotes the step's arithmetic
    pos_scaled = state.condition_scaler.scale(dataset.positions).astype(TRAINING_DTYPE)
    ds_real_scaled = state.ds_scaler.scale(ds_real).astype(TRAINING_DTYPE)
    if resume is None:
        _calibrate_critic_scale(state.critic, geometry, state.ds_scaler, real_flat, pos_scaled)

    def live_state(step: int) -> Checkpoint:
        """The training state as it stands, sharing its arrays (no copy)."""
        return dataclasses.replace(state, step=step, rng_state=rng.bit_generator.state)

    log_rows: list[dict] = []
    batch = config.batch_size
    critic_rows = config.n_critic * batch
    final_step = state.step + config.generator_steps
    # every step's draws land here; a size no memory holds fails now
    block_idx = np.empty(critic_rows + batch, np.int64)
    block_noise = np.empty((critic_rows + batch, config.noise_dim))
    eps_mix = np.empty((config.n_critic, batch, 1))

    # the write in flight, if any; its result() is the wait, and raises the
    # error of a write that failed
    pending = None
    # a diverging step overflows: the finiteness check below reports it
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="checkpoint writer") as writer, \
            np.errstate(all="ignore"):

        def save(step: int, name: str) -> None:
            """Write a float32 copy of the state at ``step`` to ``out_dir /
            name`` on the writer thread; waiting first keeps at most one
            copy alive."""
            nonlocal pending
            if out_dir is None:
                return
            if pending is not None:
                pending.result()
            copy = live_state(step).astype(TRAINING_DTYPE)
            pending = writer.submit(_write_checkpoint, copy, out_dir / name)

        try:
            for step in range(state.step + 1, final_step + 1):
                for k in range(config.n_critic + 1):
                    part = slice(k * batch, (k + 1) * batch)
                    block_idx[part] = rng.integers(0, count, size=batch)
                    rng.standard_normal(out=block_noise[part])
                    if k < config.n_critic:
                        rng.random(out=eps_mix[k])
                # the generator is frozen while the critic updates: one forward
                # over every batch of the step, critic batches first, and one
                # gather of each input for all of them
                block_pos = pos_scaled[block_idx]
                critic_idx = block_idx[:critic_rows]
                block_real = real_flat[critic_idx]
                block_ds_real = ds_real_scaled[critic_idx]
                fake_flat, gen_cache = generator_forward(state.generator, block_pos, block_noise)
                ds_fake = delay_spread_flat(fake_flat[:critic_rows], geometry)
                ds_fake_scaled = state.ds_scaler.scale(ds_fake)

                for k in range(config.n_critic):
                    part = slice(k * batch, (k + 1) * batch)
                    closs, cgrads, last = critic_loss_fast(
                        state.critic,
                        state.generator,
                        geometry,
                        state.ds_scaler,
                        block_real[part],
                        block_pos[part],
                        block_ds_real[part],
                        block_noise[part],
                        eps_mix[k],
                        config.gp_lambda,
                        config.gp_ds_through_csi,
                        fake_flat=fake_flat[part],
                        ds_fake_scaled=ds_fake_scaled[part],
                    )
                    adam_update(state.critic.arrays(), cgrads, state.critic_adam, config)
                part = slice(critic_rows, None)
                gloss, ggrads = generator_loss_fast(
                    state.critic,
                    state.generator,
                    geometry,
                    state.ds_scaler,
                    block_pos[part],
                    block_noise[part],
                    fake_flat=fake_flat[part],
                    gen_cache=cache_rows(gen_cache, part),
                )
                adam_update(state.generator.arrays(), ggrads, state.gen_adam, config)

                values = (step, closs, gloss, last["real_score"], last["fake_score"])
                log_rows.append(dict(zip(LOG_COLUMNS, values)))
                # an overflowing squared gradient shows in the second moments only
                buffers = (state.generator.arrays(), state.critic.arrays(),
                           state.gen_adam.v, state.critic_adam.v)
                if not (all(map(math.isfinite, (closs, gloss)))
                        and all(all_finite(buffer.flat) for buffer in buffers)):
                    save(step, "checkpoint_diverged.wgck")
                    raise TrainingDivergedError(f"non-finite state at generator step {step}")
                every = config.checkpoint_every
                if every and step % every == 0 and step < final_step:
                    save(step, f"checkpoint_{step:07d}.wgck")
        finally:
            if pending is not None:
                pending.result()

    return TrainResult(live_state(final_step).astype(np.float64), log_rows)
