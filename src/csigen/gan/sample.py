"""Sampling a trained generator at given positions.

Two procedures: a single noise vector shared by every position (probes the
spatial consistency of the learned model), or one independent noise vector
per position (probes the learned conditional distribution).  They differ
only in where the noise rows come from.

Both run the generator over blocks of exactly ``SAMPLE_BLOCK_ROWS``
positions, and a short last block is padded with zero rows.  The BLAS picks
its GEMM kernel by the number of rows, and different kernels round
differently, so the fixed block shape is what makes a position's bits
independent of how many positions share its call.  Inside a block the
positions are the GEMM's M dimension (see
:func:`csigen.gan.mlp.mlp_forward_columns`), which makes a position's bits
independent of where it sits.  Changing ``SAMPLE_BLOCK_ROWS`` may change the
bits of every sample.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from csigen.core import CsiDataset
from csigen.gan.mlp import mlp_forward_columns
from csigen.gan.train import Checkpoint

# Positions per generator forward.  With OpenBLAS 0.3.31, blocks of 64 to
# 1024 rows gave the same bits as one another on 18 generator shapes, and
# blocks of 8 to 32 rows did not; at 256 a block's activations stay at a
# few MB.
SAMPLE_BLOCK_ROWS = 256


def _generate(
    checkpoint: Checkpoint,
    positions: np.ndarray,
    fill_noise: Callable[[np.ndarray, int], None],
) -> np.ndarray:
    """Complex CSI (N, B, M_r, M_c, N_tap) at the (N, 2) ``positions``;
    ``fill_noise(noise, start)`` writes the noise rows of positions
    ``start, start + 1, ...`` into ``noise``."""
    conditions = checkpoint.condition_scaler.scale(positions)
    noise_dim = checkpoint.config.noise_dim
    shape = checkpoint.geometry.csi_shape
    csi = np.empty((len(positions),) + shape, dtype=np.complex128)
    half = math.prod(shape)
    csi_rows = csi.reshape(len(positions), half)
    inputs = np.zeros((SAMPLE_BLOCK_ROWS, noise_dim + 2))
    for start in range(0, len(positions), SAMPLE_BLOCK_ROWS):
        stop = min(start + SAMPLE_BLOCK_ROWS, len(positions))
        rows = stop - start
        fill_noise(inputs[:rows, :noise_dim], start)
        inputs[:rows, noise_dim:] = conditions[start:stop]
        inputs[rows:] = 0.0
        flat = mlp_forward_columns(checkpoint.generator, inputs.T)
        csi_rows[start:stop].real = flat[:half, :rows].T
        csi_rows[start:stop].imag = flat[half:, :rows].T
    return csi


def sample_fixed(checkpoint: Checkpoint, positions: np.ndarray, seed: int) -> CsiDataset:
    """One noise vector drawn from ``seed``, held fixed over all positions."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    shared = np.random.default_rng(seed).standard_normal(checkpoint.config.noise_dim)

    def fill_noise(noise: np.ndarray, start: int) -> None:
        noise[...] = shared

    return CsiDataset(checkpoint.geometry, _generate(checkpoint, positions, fill_noise), positions)


def sample_variable(
    checkpoint: Checkpoint, positions: np.ndarray, seed: int, start_index: int = 0
) -> CsiDataset:
    """Independent noise per position, from a per-index stream derived from
    (seed, index); regenerating any single position reproduces its batch
    result bit-exactly when the matching ``start_index`` is passed.

    The contract rests on the fixed block shape (see the module docstring):
    it holds for one ``SAMPLE_BLOCK_ROWS``, not across different values.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)

    def fill_noise(noise: np.ndarray, start: int) -> None:
        for index, out in enumerate(noise, start=start_index + start):
            stream = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
            stream.standard_normal(out=out)

    return CsiDataset(checkpoint.geometry, _generate(checkpoint, positions, fill_noise), positions)
