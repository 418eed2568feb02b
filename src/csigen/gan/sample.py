"""Sampling a trained generator at given positions.

Two procedures: a single noise vector shared by every position (probes the
spatial consistency of the learned model), or one independent noise vector
per position (probes the learned conditional distribution).  They differ
only in where the noise rows come from.

Both run the generator through :func:`csigen.gan.nets.generator_forward`,
the forward that training runs, over blocks of exactly
``SAMPLE_BLOCK_ROWS`` rows.  A row's bits can depend on the GEMM's shape
and on the row's place in it (see :func:`csigen.gan.mlp.mlp_forward`), so
both are fixed: the blocks lie on a grid of absolute position indices, and
the position with index ``k`` always runs in row ``k % SAMPLE_BLOCK_ROWS``
of a full block, the rows without a position in the call being zero.  A
position's bits are then independent of how many positions share its call
and of where the call starts.  Changing ``SAMPLE_BLOCK_ROWS`` may change
the bits of every sample.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from csigen.core import CsiDataset, index_rngs
from csigen.gan.nets import generator_forward
from csigen.gan.train import Checkpoint

# Rows per generator forward.  The bits of every sample depend on it: with
# OpenBLAS 0.3.31, blocks of 8 to 1024 rows other than 256 changed the
# output of 30 to 48 of 48 generator shapes.  At 256 a block's activations
# stay at a few MB.
SAMPLE_BLOCK_ROWS = 256


def _generate(
    checkpoint: Checkpoint,
    positions: np.ndarray,
    fill_noise: Callable[[np.ndarray, int], None],
    first_index: int = 0,
) -> np.ndarray:
    """Complex CSI (N, B, M_r, M_c, N_tap) at the (N, 2) ``positions``,
    whose absolute indices are ``first_index, first_index + 1, ...``;
    ``fill_noise(noise, start)`` writes the noise rows of positions
    ``start, start + 1, ...`` into ``noise``."""
    conditions = checkpoint.condition_scaler.scale(positions)
    shape = checkpoint.geometry.csi_shape
    csi = np.empty((len(positions),) + shape, dtype=np.complex128)
    half = math.prod(shape)
    csi_rows = csi.reshape(len(positions), half)
    # a block holds positions block, block + 1, ..., and first_index + block
    # lies on the index grid, so the first block can start before position 0
    for block in range(-(first_index % SAMPLE_BLOCK_ROWS), len(positions), SAMPLE_BLOCK_ROWS):
        start, stop = max(block, 0), min(block + SAMPLE_BLOCK_ROWS, len(positions))
        rows = slice(start - block, stop - block)
        noise = np.zeros((SAMPLE_BLOCK_ROWS, checkpoint.config.noise_dim))
        fill_noise(noise[rows], start)
        block_conditions = np.zeros((SAMPLE_BLOCK_ROWS, 2))
        block_conditions[rows] = conditions[start:stop]
        flat, _ = generator_forward(checkpoint.generator, block_conditions, noise)
        csi_rows[start:stop].real = flat[rows, :half]
        csi_rows[start:stop].imag = flat[rows, half:]
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
    """Independent noise per position, from the stream
    :func:`csigen.core.index_rngs` derives from (seed, index), the position
    j having index ``start_index + j``; regenerating any single position
    reproduces its batch result bit-exactly when the matching
    ``start_index`` is passed.

    The contract rests on the index-aligned blocks (see the module
    docstring): it holds for one ``SAMPLE_BLOCK_ROWS``, not across different
    values.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)

    def fill_noise(noise: np.ndarray, start: int) -> None:
        for rng, out in zip(index_rngs(seed, start_index + start, len(noise)), noise):
            rng.standard_normal(out=out)

    return CsiDataset(
        checkpoint.geometry, _generate(checkpoint, positions, fill_noise, start_index), positions
    )
