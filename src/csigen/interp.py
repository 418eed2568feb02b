"""Linear CSI interpolation baseline.

Delaunay-triangulates the training positions, locates query points,
computes barycentric coordinates, and blends the vertex CSI tensors with a
coordinate-descent phase alignment: per-vertex global phases and the
blended tensor are alternately updated in closed form until the weighted
squared error stops decreasing.  The result is defined up to one global
phase.

:func:`interpolate_dataset` locates, weights and blends blocks of
``INTERP_BLOCK_ROWS`` queries at once; :meth:`Interpolant.query` is the
batch of one.  Row i of an interpolated dataset is bit-identical to the
query at that position, whatever the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from csigen.core import CsiDataset

MIN_TRIANGLE_AREA = 1e-9  # m^2
# Stopping rule of the phase-aligned blend: relative objective decrease,
# and the iteration cap.
BLEND_TOLERANCE = 1e-10
BLEND_MAX_ITERATIONS = 100
# Barycentric distance from a triangle edge below which a query is located
# on its own (see Interpolant._locate).
LOCATE_MARGIN = 1e-6
# Queries per block in interpolate_dataset.  The blend holds a few
# (rows, 3, N) complex stacks, N the entries of one CSI tensor: about 3 MB
# each for 128-entry tensors at this size.  Results do not depend on it.
INTERP_BLOCK_ROWS = 512


class TriangulationError(ValueError):
    """Training positions do not admit a valid triangulation."""


class OutsideHullError(ValueError):
    """Query point lies outside the convex hull and fallback is disabled."""


@dataclass(frozen=True)
class BarycentricCoords:
    """Affine weights of a point relative to a triangle; sums to 1.  A
    stack (..., 3) holds one weight triple per point."""

    weights: np.ndarray  # (..., 3)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim < 1 or weights.shape[-1] != 3:
            raise ValueError("barycentric coordinates are a 3-vector")
        total = weights.sum(axis=-1)
        off = np.abs(total - 1.0) > 1e-9
        if np.any(off):
            raise ValueError(f"barycentric coordinates must sum to 1, got {total[off].flat[0]!r}")
        object.__setattr__(self, "weights", weights)


@dataclass
class BlendResult:
    """Outcome of :func:`phase_aligned_blend`.  Every field carries a
    leading row axis, and ``objectives[i]`` holds each row's objective after
    iteration i (a row that stopped keeps its last value)."""

    csi: np.ndarray
    phases: np.ndarray  # (rows, 3) aligned vertex phases
    objectives: list  # (rows,) objectives after every iteration
    converged: np.ndarray
    zero_input: np.ndarray


def barycentric(vertices: np.ndarray, x: np.ndarray) -> BarycentricCoords:
    """Barycentric coordinates of ``x`` in the triangle given by three
    2-D ``vertices`` (rows).  Stacks (..., 3, 2) of triangles and (..., 2)
    of points give one weight triple per point."""
    vertices = np.asarray(vertices, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if vertices.shape[-2:] != (3, 2):
        raise ValueError("vertices must be three 2-D points")
    transform = np.stack(
        [vertices[..., 0, :] - vertices[..., 2, :], vertices[..., 1, :] - vertices[..., 2, :]], axis=-1
    )
    det = np.linalg.det(transform)
    degenerate = np.abs(det) < 2.0 * MIN_TRIANGLE_AREA
    if np.any(degenerate):
        raise TriangulationError(
            f"degenerate triangle (area {np.abs(det)[degenerate].flat[0] / 2.0:.3e} m^2)"
        )
    s01 = np.linalg.solve(transform, (x - vertices[..., 2, :])[..., None])[..., 0]
    weights = np.stack([s01[..., 0], s01[..., 1], 1.0 - s01[..., 0] - s01[..., 1]], axis=-1)
    return BarycentricCoords(weights)


def _combine(factors: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """sum_i factors_i tensors_i per row: (rows, 3) with (rows, 3, N)."""
    return (
        factors[:, 0, None] * tensors[:, 0]
        + factors[:, 1, None] * tensors[:, 1]
        + factors[:, 2, None] * tensors[:, 2]
    )


def _gram_step(
    gram: np.ndarray, weights: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(<h_i, H>, objective) per row for H = sum_k w_k exp(-j phi_k) h_k,
    from the Gram matrices G_ik = <h_i, h_k> (rows, 3, 3), the weights and
    the phases (rows, 3)."""
    factors = weights * np.exp(1j * phases)
    inner = _combine(factors, np.swapaxes(gram, 1, 2))  # sum_k w_k e^{j phi_k} G_ik
    # ||H||^2 = sum_i w_i Re(e^{-j phi_i} <h_i, H>), and the objective
    # sum_i w_i ||h_i - e^{j phi_i} H||^2 = sum_i w_i G_ii + ||H||^2 sum_i w_i - 2 ||H||^2
    products = factors.real * inner.real + factors.imag * inner.imag
    norm = products[:, 0] + products[:, 1] + products[:, 2]
    powers = weights * np.diagonal(gram, axis1=1, axis2=2).real
    total_weight = weights[:, 0] + weights[:, 1] + weights[:, 2]
    objective = powers[:, 0] + powers[:, 1] + powers[:, 2] + norm * total_weight - 2.0 * norm
    return inner, objective


def phase_aligned_blend(
    h1: np.ndarray, h2: np.ndarray, h3: np.ndarray, coords: BarycentricCoords
) -> BlendResult:
    """Weighted phase-aligned average of three CSI tensors, row by row.

    Minimizes sum_i s_i ||h_i - exp(j phi_i) H||^2 over (H, phi) by
    coordinate descent, starting from phi = 0:

    - H update (phi fixed):   H = sum_i s_i exp(-j phi_i) h_i
    - phi update (H fixed):   phi_i = arg <h_i, H>, <a, b> = sum a conj(b)

    The inner product runs over the whole tensor, so each vertex gets one
    global phase.  Stops when the objective decreases by less than
    ``BLEND_TOLERANCE`` (relative) or after ``BLEND_MAX_ITERATIONS``
    iterations.  Every quantity the descent reads is a combination of the
    Hermitian 3x3 Gram matrix G_ik = <h_i, h_k>, computed once per row:
    <h_i, H> = sum_k s_k exp(j phi_k) G_ik, and the objective is
    sum_i s_i G_ii + ||H||^2 sum_i s_i - 2 ||H||^2.  So the iterations never
    touch the tensors, and H is built from them once, from the final phases.

    ``coords`` holds one weight triple per row (rows, 3), and ``h1``-``h3``
    are stacks (rows, ...) of tensors.  Each row is blended on its own: a
    row stops at its own convergence, and its result is bit-identical to
    the blend of that row in a stack of one.  The sums
    are elementwise products and last-axis reductions, never a BLAS call,
    so they round the same way at every stack size.  The vertices are
    combined in descending weight order, so listing them in another order
    gives the same bits (for distinct weights).
    """
    weights = coords.weights
    if weights.ndim != 2:
        raise ValueError(f"blend weights must be a stack (rows, 3), got shape {weights.shape}")
    arrays = [np.asarray(h, dtype=np.complex128) for h in (h1, h2, h3)]
    shape = arrays[0].shape
    if not (arrays[1].shape == shape and arrays[2].shape == shape):
        raise ValueError("blended tensors must share a shape")
    rows = len(weights)
    if len(shape) == 0 or shape[0] != rows:
        raise ValueError("blended stacks need one row per weight triple")
    # each row blends its vertices in descending weight order, so the result
    # does not depend on the order the vertices are listed in
    order = np.argsort(-weights, axis=1, kind="stable")
    tensors = np.stack([a.reshape(rows, -1) for a in arrays], axis=1)
    tensors = tensors[np.arange(rows)[:, None], order]
    weights = np.take_along_axis(weights, order, axis=1)

    # the Hermitian Gram matrix G_ik = <h_i, h_k> of each row's vertices
    power = np.sum(tensors.real**2 + tensors.imag**2, axis=-1)
    gram = np.empty((rows, 3, 3), dtype=np.complex128)
    for i in range(3):
        gram[:, i, i] = power[:, i]
        for k in range(i + 1, 3):
            gram[:, i, k] = np.sum(tensors[:, i] * tensors[:, k].conj(), axis=-1)
            gram[:, k, i] = gram[:, i, k].conj()
    phases = np.zeros((rows, 3))
    zero = np.all(power == 0.0, axis=-1)
    converged = zero.copy()
    # rows with all-zero tensors have an identically zero objective; their
    # blend is the zero tensor
    objectives = [np.zeros(rows)]
    live = np.flatnonzero(~zero)
    g, w = gram[live], weights[live]
    live_phases = np.zeros((live.size, 3))
    inner, objective = _gram_step(g, w, live_phases)
    objectives[0][live] = objective
    for _ in range(BLEND_MAX_ITERATIONS):
        if live.size == 0:
            break
        live_phases = np.angle(inner)
        previous = objective
        inner, objective = _gram_step(g, w, live_phases)
        objectives.append(objectives[-1].copy())
        objectives[-1][live] = objective
        done = previous - objective < BLEND_TOLERANCE * np.maximum(previous, 1e-300)
        finished = live[done]
        phases[finished] = live_phases[done]
        converged[finished] = True
        going = ~done
        live, g, w, inner = live[going], g[going], w[going], inner[going]
        live_phases, objective = live_phases[going], objective[going]
    phases[live] = live_phases
    h = np.zeros(tensors[:, 0].shape, dtype=np.complex128)
    nonzero = np.flatnonzero(~zero)
    h[nonzero] = _combine(weights[nonzero] * np.exp(-1j * phases[nonzero]), tensors[nonzero])
    np.put_along_axis(phases, order, phases.copy(), axis=1)
    return BlendResult(h.reshape(shape), phases, objectives, converged, zero)


@dataclass
class InterpQuery:
    csi: np.ndarray
    fallback_used: bool
    simplex: int  # containing triangle index, -1 if fallback
    coords: np.ndarray | None


class Interpolant:
    """Delaunay triangulation over training positions with per-vertex CSI.

    ``fallback`` selects the behavior outside the convex hull:
    "nearest-neighbor" copies the closest training CSI (flagged on the
    query result), "error" raises :class:`OutsideHullError`.
    """

    def __init__(self, train: CsiDataset, fallback: str = "nearest-neighbor") -> None:
        if fallback not in ("nearest-neighbor", "error"):
            raise ValueError(f"unknown fallback policy {fallback!r}")
        positions = train.positions
        # deduplicate exactly-repeated positions, keeping the first occurrence
        _, first = np.unique(positions, axis=0, return_index=True)
        keep = np.sort(first)
        if keep.size < 3:
            raise TriangulationError(
                f"need at least 3 distinct training positions, got {keep.size}"
            )
        self.train = train
        self.vertex_indices = keep  # dataset indices backing each vertex
        self.points = positions[keep]
        self.fallback = fallback
        try:
            self.triangulation = Delaunay(self.points)
        except QhullError as exc:
            raise TriangulationError(f"triangulation failed: {exc}") from exc
        if self.triangulation.simplices.shape[0] == 0:
            raise TriangulationError("all training positions are collinear")
        self._check_areas()
        self._tree = cKDTree(self.points)

    def _check_areas(self) -> None:
        simplices = self.triangulation.simplices
        corners = self.points[simplices]
        edge1 = corners[:, 1] - corners[:, 0]
        edge2 = corners[:, 2] - corners[:, 0]
        areas = 0.5 * np.abs(edge1[:, 0] * edge2[:, 1] - edge1[:, 1] * edge2[:, 0])
        if np.any(areas <= MIN_TRIANGLE_AREA):
            raise TriangulationError(
                f"triangulation contains a degenerate triangle (min area {areas.min():.3e} m^2)"
            )

    def _locate(self, positions: np.ndarray) -> np.ndarray:
        """Containing triangle of each position, -1 outside the hull: the
        triangle ``find_simplex`` returns for that position alone.

        One ``find_simplex`` call walks from each answer to the next query,
        and only positions outside the hull or within ``LOCATE_MARGIN``
        (barycentric) of a triangle edge can end elsewhere from another
        start, so those are located again on their own.
        """
        simplex = self.triangulation.find_simplex(positions, tol=1e-12)
        inside = np.flatnonzero(simplex >= 0)
        transform = self.triangulation.transform[simplex[inside]]
        partial = np.einsum("ijk,ik->ij", transform[:, :2], positions[inside] - transform[:, 2])
        edge = np.minimum(partial.min(axis=1), 1.0 - partial.sum(axis=1))
        again = np.concatenate([np.flatnonzero(simplex < 0), inside[edge < LOCATE_MARGIN]])
        for row in again:
            simplex[row] = self.triangulation.find_simplex(positions[row : row + 1], tol=1e-12)[0]
        return simplex

    def _query_rows(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolate at positions (rows, 2): returns (csi, simplex,
        weights), with simplex -1 and NaN weights on fallback rows."""
        simplex = self._locate(positions)
        outside = np.flatnonzero(simplex < 0)
        if outside.size and self.fallback == "error":
            raise OutsideHullError(f"position {positions[outside[0]]} lies outside the training hull")
        csi = np.empty((len(positions),) + self.train.geometry.csi_shape, dtype=np.complex128)
        weights = np.full((len(positions), 3), np.nan)
        if outside.size:
            _, nearest = self._tree.query(positions[outside])
            lost = nearest == len(self.points)  # no neighbour: the distance overflowed to inf
            if lost.any():
                raise ValueError(f"position {positions[outside][lost][0]} has no nearest neighbour")
            csi[outside] = self.train.csi[self.vertex_indices[nearest]]
        inside = np.flatnonzero(simplex >= 0)
        if inside.size:
            vertex_rows = self.triangulation.simplices[simplex[inside]]
            coords = barycentric(self.points[vertex_rows], positions[inside])
            dataset_rows = self.vertex_indices[vertex_rows]
            blend = phase_aligned_blend(
                self.train.csi[dataset_rows[:, 0]],
                self.train.csi[dataset_rows[:, 1]],
                self.train.csi[dataset_rows[:, 2]],
                coords,
            )
            csi[inside] = blend.csi
            weights[inside] = coords.weights
        return csi, simplex, weights

    def query(self, x: np.ndarray) -> InterpQuery:
        """Interpolate at one position, reporting the triangle and whether
        the outside-hull fallback fired."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (2,):
            raise ValueError("query position must be a 2-vector")
        csi, simplex, weights = self._query_rows(x[None, :])
        if simplex[0] < 0:
            return InterpQuery(csi[0], fallback_used=True, simplex=-1, coords=None)
        return InterpQuery(csi[0], fallback_used=False, simplex=int(simplex[0]), coords=weights[0])


def build_interpolant(train: CsiDataset, fallback: str = "nearest-neighbor") -> Interpolant:
    return Interpolant(train, fallback=fallback)


def interpolate_dataset(
    interp: Interpolant, positions: np.ndarray
) -> tuple[CsiDataset, np.ndarray]:
    """Interpolate a batch of positions; returns the generated dataset and
    the indices where the outside-hull fallback was used.

    Row i equals ``interp.query(positions[i]).csi`` bit for bit.  Positions
    are worked in blocks of ``INTERP_BLOCK_ROWS``, which bounds the blend's
    temporaries and leaves the output unchanged.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    geometry = interp.train.geometry
    csi = np.zeros((len(positions),) + geometry.csi_shape, dtype=np.complex128)
    simplex = np.zeros(len(positions), dtype=np.intp)
    for start in range(0, len(positions), INTERP_BLOCK_ROWS):
        stop = start + INTERP_BLOCK_ROWS
        csi[start:stop], simplex[start:stop], _ = interp._query_rows(positions[start:stop])
    return CsiDataset(geometry, csi, positions), np.flatnonzero(simplex < 0)


def phase_aligned_nmse(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Normalized squared error between CSI tensors, minimized over one
    global phase: min_phi ||estimate - e^{j phi} reference||^2 / ||reference||^2,
    summed from the residual at the minimizing phase, because the expanded
    norm cancels to about 1e-16 for identical tensors."""
    estimate = np.asarray(estimate).ravel()
    reference = np.asarray(reference).ravel()
    ref_power = float(np.sum(reference.real**2 + reference.imag**2))
    if ref_power == 0.0:
        raise ValueError("reference tensor has zero power")
    cross = np.sum(estimate * reference.conj())
    residual = estimate - np.exp(1j * np.angle(cross)) * reference
    return float(np.sum(residual.real**2 + residual.imag**2)) / ref_power
