"""Array geometry, the CSI dataset container and shared numeric conventions.

One channel state information (CSI) measurement is a plain complex ndarray
of time-domain tap coefficients with shape ``geometry.csi_shape``, indexed
[array b][row m_r][col m_c][tap t].  :class:`CsiDataset` is the one
container: it stacks position-labelled measurements and validates them.
All array indices in this package are 0-based.  Internal computation is
float64 / complex128, except that the GAN kernels follow the dtype of the
network's parameter buffer (see :mod:`csigen.gan.mlp`); file payloads are
float32 (see :mod:`csigen.dataio`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def as_floating(values) -> np.ndarray:
    """``values`` as an array of their floating dtype; other values become float64."""
    values = np.asarray(values)
    return values if np.issubdtype(values.dtype, np.floating) else values.astype(np.float64)


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna setup: ``num_arrays`` uniform planar arrays (UPAs) with
    half-wavelength element spacing, each ``rows_per_array`` x
    ``cols_per_array`` antennas, observing ``num_taps`` time-domain taps.
    """

    num_arrays: int
    rows_per_array: int
    cols_per_array: int
    num_taps: int
    carrier_frequency: float
    bandwidth: float

    def __post_init__(self) -> None:
        for name in ("num_arrays", "rows_per_array", "cols_per_array", "num_taps"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (self.bandwidth > 0.0 and np.isfinite(self.bandwidth)):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if not (self.carrier_frequency > 0.0 and np.isfinite(self.carrier_frequency)):
            raise ValueError(f"carrier_frequency must be positive, got {self.carrier_frequency!r}")

    @property
    def tap_duration(self) -> float:
        """Duration of one tap-delay-line tap in seconds."""
        return 1.0 / self.bandwidth

    @property
    def csi_shape(self) -> tuple[int, int, int, int]:
        return (self.num_arrays, self.rows_per_array, self.cols_per_array, self.num_taps)

    @property
    def num_antennas(self) -> int:
        """Total antenna count over all arrays."""
        return self.num_arrays * self.rows_per_array * self.cols_per_array


class CsiDataset:
    """Ordered collection of position-labelled CSI tensors sharing one geometry.

    Backed by stacked read-only arrays: ``csi`` with shape
    (L, B, M_r, M_c, N_tap) complex128 and ``positions`` with shape (L, 2)
    float64.  Index order is the measurement-trajectory order; datapoint
    ``i`` is the pair (``csi[i]``, ``positions[i]``).  Construction rejects
    wrong shapes and non-finite CSI or positions.
    """

    def __init__(self, geometry: ArrayGeometry, csi: np.ndarray, positions: np.ndarray) -> None:
        csi = np.asarray(csi, dtype=np.complex128)
        positions = np.asarray(positions, dtype=np.float64)
        if csi.ndim != 5 or csi.shape[1:] != geometry.csi_shape:
            raise ValueError(
                f"csi must have shape (L,) + {geometry.csi_shape}, got {csi.shape}"
            )
        if positions.shape != (csi.shape[0], 2):
            raise ValueError(
                f"positions must have shape ({csi.shape[0]}, 2), got {positions.shape}"
            )
        if not np.all(np.isfinite(csi.view(np.float64))):
            raise ValueError("dataset CSI contains non-finite entries")
        if not np.all(np.isfinite(positions)):
            raise ValueError("dataset positions contain non-finite entries")
        self.geometry = geometry
        self.csi = csi.copy()
        self.positions = positions.copy()
        self.csi.flags.writeable = False
        self.positions.flags.writeable = False

    def __len__(self) -> int:
        return self.csi.shape[0]

    def subset(self, indices: np.ndarray) -> "CsiDataset":
        """New dataset containing the given indices, in the given order."""
        indices = np.asarray(indices, dtype=np.intp)
        return CsiDataset(self.geometry, self.csi[indices], self.positions[indices])


@dataclass(frozen=True)
class MinMaxScaler:
    """Affine map of values from fitted bounds onto [-1, 1], per component.

    ``minimum`` and ``maximum`` are finite and of equal shape: scalars scale
    every value alike (delay spreads), vectors scale the last axis
    component-wise (2-D positions).  Values outside the bounds map outside
    [-1, 1] without clamping.  The bounds are float64; the maps return the
    floating dtype of their argument, which NEP 50 would otherwise promote.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        minimum = np.asarray(self.minimum, dtype=np.float64)
        maximum = np.asarray(self.maximum, dtype=np.float64)
        if minimum.shape != maximum.shape:
            raise ValueError(f"scaler bounds differ in shape: {minimum.shape} vs {maximum.shape}")
        if not (np.all(np.isfinite(minimum)) and np.all(np.isfinite(maximum))):
            raise ValueError("scaler bounds must be finite")
        if not np.all(minimum < maximum):
            raise ValueError(
                f"degenerate extent: min {minimum} must be strictly below max {maximum}"
            )
        object.__setattr__(self, "minimum", minimum)
        object.__setattr__(self, "maximum", maximum)

    @classmethod
    def fit(cls, values: np.ndarray) -> "MinMaxScaler":
        """Bounds from the extremes of ``values`` along axis 0."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 0 or values.shape[0] == 0:
            raise ValueError("cannot fit a scaler on no values")
        return cls(values.min(axis=0), values.max(axis=0))

    def times_gain(self, values: np.ndarray) -> np.ndarray:
        """``values`` times the derivative of :meth:`scale`, 2 / (max - min)."""
        values = as_floating(values)
        return values * (2.0 / (self.maximum - self.minimum)).astype(values.dtype, copy=False)

    def scale(self, values: np.ndarray) -> np.ndarray:
        values = as_floating(values)
        scaled = 2.0 * (values - self.minimum) / (self.maximum - self.minimum) - 1.0
        return scaled.astype(values.dtype, copy=False)


# numpy's SeedSequence hash (numpy.random.bit_generator): the pool size and
# the constants of its hashmix, mix and generate_state steps
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_WORD = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """``value`` as numpy's SeedSequence reads an integer: uint32 words,
    least significant first, one word for 0."""
    words = [value & _WORD]
    while value > _WORD:
        value >>= 32
        words.append(value & _WORD)
    return words


def _seed_states(entropy: list) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` of assembled entropy words
    (at least the pool size of them), each word an int shared by all rows or
    a uint32 array with one value per row; returns (rows, 4) uint64.  The
    words are masked to 32 bits, so ints and uint32 arrays hash alike."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _WORD
        value = value * hash_const & _WORD
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _WORD) - (_MIX_MULT_R * y & _WORD)) & _WORD
        return result ^ result >> _XSHIFT

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _WORD
        value = value * hash_const & _WORD
        words.append(value ^ value >> _XSHIFT)
    # pairs of uint32 words read as little-endian uint64, as numpy reads them
    return np.column_stack(words).astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """Hands one precomputed ``generate_state(4, uint64)`` result to
    ``PCG64``, which seeds itself from it as from a SeedSequence."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.state) or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed state answers one request only")
        return self.state


def index_rngs(seed: int, first: int, count: int) -> list[np.random.Generator]:
    """The random streams of items ``first, ..., first + count - 1`` under
    ``seed``: one independent stream per datapoint, the same whichever batch
    the item is drawn in.  Synth noise and per-position generator noise both
    come from it.

    Item ``index`` gets the Generator of
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(index,)))``; the
    SeedSequence hash runs once for the whole range, and its result for
    ``first`` is checked against numpy's own, so a numpy release that
    changed the hash raises instead of changing every stream.
    """
    seed, first, count = operator.index(seed), operator.index(first), operator.index(count)
    if seed < 0 or first < 0 or count < 0:
        raise ValueError("expected non-negative integer")
    if count == 0:
        return []
    # SeedSequence pads the entropy to the pool size when a spawn key follows
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    # an index's low word, and the words above it, which change at most once
    # in a range shorter than 2**32
    low = (first & _WORD) + np.arange(count, dtype=np.uint64)
    carry = low >> np.uint64(32)
    states = np.empty((count, 4), dtype=np.uint64)
    for step in np.unique(carry):
        rows = np.flatnonzero(carry == step)
        high = (first >> 32) + int(step)
        upper = _uint32_words(high) if high else []
        low_words = (low[rows] & np.uint64(_WORD)).astype(np.uint32)
        states[rows] = _seed_states(run + [low_words] + upper)
    expected = np.random.SeedSequence(entropy=seed, spawn_key=(first,)).generate_state(4, np.uint64)
    if not np.array_equal(states[0], expected):
        raise RuntimeError("this numpy's SeedSequence hash differs from the one index_rngs computes")
    return [np.random.Generator(np.random.PCG64(_SeedState(state))) for state in states]


def freq_to_time(freq_csi: np.ndarray, n_tap: int) -> np.ndarray:
    """Convert per-subcarrier channel coefficients to time-domain taps.

    ``freq_csi`` has subcarriers on the last axis (N_sub of them).  Returns
    the inverse DFT along that axis truncated to the first ``n_tap`` taps.
    The inverse DFT carries the 1/N_sub scaling, so a flat unit spectrum
    maps to a unit tap at delay zero.  No cyclic delay alignment is applied;
    input data is assumed time-aligned already.
    """
    freq_csi = np.asarray(freq_csi, dtype=np.complex128)
    n_sub = freq_csi.shape[-1]
    if n_sub < 1:
        raise ValueError("need at least one subcarrier")
    if not (1 <= n_tap <= n_sub):
        raise ValueError(f"n_tap must be in [1, {n_sub}], got {n_tap}")
    time = np.fft.ifft(freq_csi, axis=-1)
    return np.ascontiguousarray(time[..., :n_tap])


def dataset_powers(dataset: CsiDataset) -> np.ndarray:
    """Linear received power of each array of each datapoint, shape
    (L, B): the squared norm of the array's slice over its antennas and
    taps."""
    mags = dataset.csi.real**2 + dataset.csi.imag**2
    return mags.sum(axis=(2, 3, 4))


def power_db(power, reference: float = 1.0) -> np.ndarray:
    """Linear power to dB relative to ``reference``. Zero power maps to -inf."""
    power = np.asarray(power, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power / reference)
