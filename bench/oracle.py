"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports csigen.  The file readers and writers follow the CSIT
and WGCK layouts documented in the repository README, and the forward
passes, delay spreads, MUSIC scan and Jensen-Shannon distance are written
from their definitions, so a check that compares the program against this
module compares two separate implementations.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

CSIT_HEADER = struct.Struct("<5I2d")

# Criterion-8 scene of the acceptance suite: one 2x4 array facing +y at
# (6, 0), two point reflectors and a wall with 3% transmission.
SCENE_TEMPLATE = """\
geometry.num_arrays = 1
geometry.rows = 2
geometry.cols = 4
geometry.num_taps = 16
geometry.carrier_hz = 1.272e9
geometry.bandwidth_hz = 100e6
array.0.position = 6.0, 0.0
array.0.broadside_deg = 90
reflector.0.position = 0.0, 6.0
reflector.0.gain = 2.5
reflector.1.position = 12.0, 7.0
reflector.1.gain = 2.0
obstacle.0.start = 2.5, 4.0
obstacle.0.end = 9.5, 4.0
obstacle.0.transmission = 0.03
noise_power = 1e-7
seed = {seed}
delay_offset_taps = 4.0
bounds = 0.0, 1.5, 12.0, 10.5
"""
GRID_BOX = ((0.2, 2.0), (11.8, 10.0))
GEOMETRY = (1, 2, 4, 16, 1.272e9, 100e6)  # B, M_r, M_c, N_tap, carrier, bandwidth


@dataclass
class Csit:
    shape: tuple  # (B, M_r, M_c, N_tap)
    carrier: float
    bandwidth: float
    positions: np.ndarray  # (L, 2) float64
    csi: np.ndarray  # (L, B, M_r, M_c, N_tap) complex128, float32-exact values


def jittered_grid(nx: int, ny: int, jitter: float, rng: np.random.Generator) -> np.ndarray:
    """Serpentine survey grid over the criterion-8 box plus uniform jitter."""
    (x0, y0), (x1, y1) = GRID_BOX
    xs, ys = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
    rows = []
    for j, y in enumerate(ys):
        ordered = xs if j % 2 == 0 else xs[::-1]
        rows.append(np.stack([ordered, np.full(nx, y)], axis=1))
    grid = np.concatenate(rows, axis=0)
    return grid + rng.uniform(-jitter, jitter, size=grid.shape)


def write_positions(path, positions: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("x,y\n")
        for x, y in positions.tolist():
            handle.write(f"{x!r},{y!r}\n")


def read_csit(path) -> Csit:
    blob = open(path, "rb").read()
    if blob[:4] != b"CSIT" or struct.unpack_from("<H", blob, 4)[0] != 1:
        raise ValueError(f"{path}: not a version-1 CSIT file")
    b, m_r, m_c, n_tap, count, carrier, bandwidth = CSIT_HEADER.unpack_from(blob, 6)
    entries = b * m_r * m_c * n_tap
    records = np.frombuffer(blob, dtype="<f4", offset=6 + CSIT_HEADER.size)
    records = records.reshape(count, 2 + 2 * entries).astype(np.float64)
    csi = (records[:, 2::2] + 1j * records[:, 3::2]).reshape(count, b, m_r, m_c, n_tap)
    return Csit((b, m_r, m_c, n_tap), carrier, bandwidth, records[:, :2].copy(), csi)


def write_csit(path, positions: np.ndarray, csi: np.ndarray, geometry=GEOMETRY) -> None:
    b, m_r, m_c, n_tap, carrier, bandwidth = geometry
    count = len(positions)
    records = np.empty((count, 2 + 2 * b * m_r * m_c * n_tap), dtype="<f4")
    records[:, :2] = positions
    flat = np.asarray(csi).reshape(count, -1)
    records[:, 2::2] = flat.real
    records[:, 3::2] = flat.imag
    with open(path, "wb") as handle:
        handle.write(b"CSIT" + struct.pack("<H", 1))
        handle.write(CSIT_HEADER.pack(b, m_r, m_c, n_tap, count, carrier, bandwidth))
        handle.write(records.tobytes())


@dataclass
class Wgck:
    meta: dict
    generator: list  # [(W, b, activation)]
    trunk: list
    fusion: list


def read_wgck(path) -> Wgck:
    blob = open(path, "rb").read()
    if blob[:4] != b"WGCK" or struct.unpack_from("<H", blob, 4)[0] != 1:
        raise ValueError(f"{path}: not a version-1 WGCK file")
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    meta = json.loads(blob[10 : 10 + meta_len])
    payload = np.frombuffer(blob, dtype="<f8", offset=10 + meta_len)
    offset = 0
    stacks = []
    for key in ("generator", "critic_trunk", "critic_fusion"):
        layers = []
        for out_w, in_w, activation in meta["layers"][key]:
            weights = payload[offset : offset + out_w * in_w].reshape(out_w, in_w)
            offset += out_w * in_w
            bias = payload[offset : offset + out_w]
            offset += out_w
            layers.append((weights, bias, activation))
        stacks.append(layers)
    if payload.size != 3 * offset:
        raise ValueError(f"{path}: payload holds {payload.size} values, expected {3 * offset}")
    return Wgck(meta, *stacks)


def mlp(layers: list, x: np.ndarray) -> np.ndarray:
    for weights, bias, activation in layers:
        x = np.einsum("ni,oi->no", x, weights) + bias
        if activation == "relu":
            x = np.maximum(x, 0.0)
    return x


def affine(values, lo, hi):
    """Map [lo, hi] onto [-1, 1]."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    return 2.0 * (np.asarray(values, dtype=np.float64) - lo) / (hi - lo) - 1.0


def flatten(csi: np.ndarray) -> np.ndarray:
    flat = csi.reshape(csi.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def unflatten(flat: np.ndarray, shape: tuple) -> np.ndarray:
    half = flat.shape[1] // 2
    return (flat[:, :half] + 1j * flat[:, half:]).reshape((flat.shape[0],) + tuple(shape))


def delay_spread_taps_brute(profile: np.ndarray) -> float:
    """RMS delay spread of one tap profile in taps, as the explicit pairwise
    double sum sum_ij p_i p_j (t_i - t_j)^2 / (2 P^2)."""
    power = [float(v.real * v.real + v.imag * v.imag) for v in profile]
    total = sum(power)
    if total == 0.0:
        return 0.0
    acc = 0.0
    for i, p_i in enumerate(power):
        for j, p_j in enumerate(power):
            acc += p_i * p_j * float((i - j) * (i - j))
    return math.sqrt(acc / (2.0 * total * total))


def delay_spread_moments(flat: np.ndarray, n_ant: int, n_tap: int, floor: float) -> np.ndarray:
    """Per-antenna RMS delay spread in taps from flattened CSI, (N, n_ant):
    the power-weighted second moment minus the squared mean, plus a
    variance floor.  An all-zero profile gives sqrt(floor)."""
    n = flat.shape[0]
    half = n_ant * n_tap
    power = flat[:, :half].reshape(n, n_ant, n_tap) ** 2 + flat[:, half:].reshape(n, n_ant, n_tap) ** 2
    taps = np.arange(1, n_tap + 1, dtype=np.float64)
    total = power.sum(axis=2) + 1e-30
    mean = np.einsum("nat,t->na", power, taps) / total
    second = np.einsum("nat,t->na", power, taps * taps) / total
    return np.sqrt(np.maximum(second - mean * mean, 0.0) + floor)


def music_scan(csi_array: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Single-source MUSIC denominator over a grid of s = sin(azimuth) in
    [-1, 1): ||a||^2 - |v^H a|^2 with a_k = exp(j pi s k) along the columns
    and v the unit principal eigenvector of the column correlation.  Also
    returns the ratio of the second-largest eigenvalue to the largest."""
    columns = csi_array.shape[1]
    snapshots = np.moveaxis(csi_array, 1, 0).reshape(columns, -1)  # (M_c, rows*taps)
    values, vectors = np.linalg.eigh(snapshots @ snapshots.conj().T)
    grid = np.arange(-1.0, 1.0, step)
    steering = np.exp(1j * math.pi * np.outer(grid, np.arange(columns)))
    denominator = columns - np.abs(steering @ vectors[:, -1].conj()) ** 2
    return grid, denominator, float(values[-2] / values[-1])


def local_minima(values: np.ndarray) -> np.ndarray:
    """Indices of local minima on a circular grid."""
    before, after = np.roll(values, 1), np.roll(values, -1)
    return np.nonzero((values <= before) & (values <= after))[0]


def circular_sine_gap(s_a: float, s_b: float) -> float:
    """Distance between pi*s_a and pi*s_b on the unit circle, in s units."""
    gap = (s_a - s_b) % 2.0
    return min(gap, 2.0 - gap)


def js_distance(p: np.ndarray, q: np.ndarray) -> float:
    m = (p + q) / 2.0
    total = 0.0
    for x in (p, q):
        mask = x > 0
        total += float(np.sum(x[mask] * np.log(x[mask] / m[mask]))) / 2.0
    return math.sqrt(max(total, 0.0))


def histogram(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin probabilities with half-open bins [e_i, e_{i+1}); the last bin is
    closed and values outside the span land in the end bins."""
    index = np.searchsorted(edges, values, side="right") - 1
    index = np.clip(index, 0, edges.size - 2)
    return np.bincount(index, minlength=edges.size - 1) / values.size


# Phase-wrap probe: single-array CSI near endfire, built from fixed seeds.
# ``python3 bench/probe.py`` searches the construction below and prints the
# seeds whose root-MUSIC estimate steps past +-pi.
PROBE_TRIALS = (11842, 15715, 36975, 59241)


def probe_csi(trial: int) -> np.ndarray:
    """One (1, 2, 4, 16) tensor: a plane wave at |sin(azimuth)| in
    [0.995, 1) with random tap gains plus complex noise, from ``trial``."""
    rng = np.random.default_rng(trial)
    s = rng.uniform(0.995, 1.0) * rng.choice([-1, 1])
    noise = 10 ** rng.uniform(-1, 0.3)
    steer = np.exp(1j * math.pi * s * np.arange(4))
    gains = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    csi = gains[:, None, :] * steer[None, :, None]
    csi = csi + noise * (rng.standard_normal(csi.shape) + 1j * rng.standard_normal(csi.shape))
    return csi[None]
