"""Linear CSI interpolation baseline.

Delaunay-triangulates the training positions, locates query points,
computes barycentric coordinates, and blends the vertex CSI tensors with a
coordinate-descent phase alignment: per-vertex global phases and the
blended tensor are alternately updated in closed form until the weighted
squared error stops decreasing.  The result is defined up to one global
phase.
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


class TriangulationError(ValueError):
    """Training positions do not admit a valid triangulation."""


class OutsideHullError(ValueError):
    """Query point lies outside the convex hull and fallback is disabled."""


@dataclass(frozen=True)
class BarycentricCoords:
    """Affine weights of a point relative to a triangle; sums to 1."""

    weights: np.ndarray  # (3,)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (3,):
            raise ValueError("barycentric coordinates are a 3-vector")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"barycentric coordinates must sum to 1, got {weights.sum()!r}")
        object.__setattr__(self, "weights", weights)


@dataclass
class BlendResult:
    csi: np.ndarray
    phases: np.ndarray  # (3,) aligned vertex phases
    objectives: list[float]  # objective value after every iteration
    converged: bool
    zero_input: bool


def barycentric(vertices: np.ndarray, x: np.ndarray) -> BarycentricCoords:
    """Barycentric coordinates of ``x`` in the triangle given by three
    2-D ``vertices`` (rows)."""
    vertices = np.asarray(vertices, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if vertices.shape != (3, 2):
        raise ValueError("vertices must be three 2-D points")
    transform = np.column_stack([vertices[0] - vertices[2], vertices[1] - vertices[2]])
    det = float(np.linalg.det(transform))
    if abs(det) < 2.0 * MIN_TRIANGLE_AREA:
        raise TriangulationError(f"degenerate triangle (area {abs(det) / 2.0:.3e} m^2)")
    s01 = np.linalg.solve(transform, x - vertices[2])
    weights = np.array([s01[0], s01[1], 1.0 - s01[0] - s01[1]])
    return BarycentricCoords(weights)


def _blend_objective(tensors: np.ndarray, weights: np.ndarray, phases: np.ndarray, h: np.ndarray) -> float:
    diffs = tensors - np.exp(1j * phases)[:, None] * h[None, :]
    return float(np.sum(weights * np.sum(diffs.real**2 + diffs.imag**2, axis=1)))


def phase_aligned_blend(
    h1: np.ndarray, h2: np.ndarray, h3: np.ndarray, coords: BarycentricCoords
) -> BlendResult:
    """Weighted phase-aligned average of three CSI tensors.

    Minimizes sum_i s_i ||h_i - exp(j phi_i) H||^2 over (H, phi) by
    coordinate descent, starting from phi = 0:

    - H update (phi fixed):   H = sum_i s_i exp(-j phi_i) h_i
    - phi update (H fixed):   phi_i = arg <h_i, H>, <a, b> = sum a conj(b)

    The inner product runs over the whole tensor, so each vertex gets one
    global phase.  Stops when the objective decreases by less than
    ``BLEND_TOLERANCE`` (relative) or after ``BLEND_MAX_ITERATIONS``
    iterations.
    """
    tensors = np.stack([np.asarray(h, dtype=np.complex128).ravel() for h in (h1, h2, h3)])
    shape = np.asarray(h1).shape
    if not (np.asarray(h2).shape == shape and np.asarray(h3).shape == shape):
        raise ValueError("blended tensors must share a shape")
    weights = coords.weights
    if np.all(np.sum(tensors.real**2 + tensors.imag**2, axis=1) == 0.0):
        # objective is identically zero; the blend is the zero tensor
        return BlendResult(
            np.zeros(shape, dtype=np.complex128),
            np.zeros(3),
            [0.0],
            converged=True,
            zero_input=True,
        )
    phases = np.zeros(3)
    h = (weights * np.exp(-1j * phases)) @ tensors
    objective = _blend_objective(tensors, weights, phases, h)
    objectives = [objective]
    converged = False
    for _ in range(BLEND_MAX_ITERATIONS):
        inner = tensors @ h.conj()  # <h_i, H>
        phases = np.angle(inner)
        h = (weights * np.exp(-1j * phases)) @ tensors
        previous = objective
        objective = _blend_objective(tensors, weights, phases, h)
        objectives.append(objective)
        if previous - objective < BLEND_TOLERANCE * max(previous, 1e-300):
            converged = True
            break
    return BlendResult(h.reshape(shape), phases, objectives, converged, zero_input=False)


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

    def query(self, x: np.ndarray) -> InterpQuery:
        """Interpolate at one position, reporting the triangle and whether
        the outside-hull fallback fired."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (2,):
            raise ValueError("query position must be a 2-vector")
        simplex = int(self.triangulation.find_simplex(x[None, :], tol=1e-12)[0])
        if simplex < 0:
            if self.fallback == "error":
                raise OutsideHullError(f"position {x} lies outside the training hull")
            _, nearest = self._tree.query(x)
            csi = self.train.csi[self.vertex_indices[int(nearest)]]
            return InterpQuery(csi.copy(), fallback_used=True, simplex=-1, coords=None)
        vertex_rows = self.triangulation.simplices[simplex]
        coords = barycentric(self.points[vertex_rows], x)
        dataset_rows = self.vertex_indices[vertex_rows]
        blend = phase_aligned_blend(
            self.train.csi[dataset_rows[0]],
            self.train.csi[dataset_rows[1]],
            self.train.csi[dataset_rows[2]],
            coords,
        )
        return InterpQuery(blend.csi, fallback_used=False, simplex=simplex, coords=coords.weights)


def build_interpolant(train: CsiDataset, fallback: str = "nearest-neighbor") -> Interpolant:
    return Interpolant(train, fallback=fallback)


def interpolate_dataset(
    interp: Interpolant, positions: np.ndarray
) -> tuple[CsiDataset, np.ndarray]:
    """Interpolate a batch of positions; returns the generated dataset and
    the indices where the outside-hull fallback was used."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    geometry = interp.train.geometry
    csi = np.zeros((len(positions),) + geometry.csi_shape, dtype=np.complex128)
    fallback_rows = []
    for index, position in enumerate(positions):
        query = interp.query(position)
        csi[index] = query.csi
        if query.fallback_used:
            fallback_rows.append(index)
    return CsiDataset(geometry, csi, positions), np.asarray(fallback_rows, dtype=np.intp)


def phase_aligned_nmse(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Normalized squared error between CSI tensors, minimized over one
    global phase: min_phi ||estimate - e^{j phi} reference||^2 / ||reference||^2."""
    estimate = np.asarray(estimate).ravel()
    reference = np.asarray(reference).ravel()
    ref_power = float(np.sum(reference.real**2 + reference.imag**2))
    if ref_power == 0.0:
        raise ValueError("reference tensor has zero power")
    est_power = float(np.sum(estimate.real**2 + estimate.imag**2))
    cross = abs(np.sum(estimate * reference.conj()))
    return max(est_power + ref_power - 2.0 * cross, 0.0) / ref_power
