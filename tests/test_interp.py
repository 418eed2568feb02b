import math

import numpy as np
import pytest

from csigen.core import ArrayGeometry, CsiDataset
from csigen.interp import (
    BarycentricCoords,
    Interpolant,
    OutsideHullError,
    TriangulationError,
    barycentric,
    build_interpolant,
    interpolate_dataset,
    phase_aligned_blend,
    phase_aligned_nmse,
)
from csigen.synth import ArrayPlacement, Reflector, Scenario, grid_positions, synth_dataset

GEO = ArrayGeometry(1, 2, 2, 8, 1.272e9, 50e6)


def dataset_at(positions, seed=0, geometry=GEO):
    rng = np.random.default_rng(seed)
    positions = np.asarray(positions, dtype=float)
    shape = (len(positions),) + geometry.csi_shape
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return CsiDataset(geometry, csi, positions)


def circumcircle_violations(points, triangles, tol=1e-9):
    """Brute-force empty-circumcircle check via the in-circle determinant."""
    violations = 0
    for tri in triangles:
        a, b, c = points[tri]
        # orient counterclockwise
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
            b, c = c, b
        others = np.delete(np.arange(len(points)), tri)
        for idx in others:
            d = points[idx]
            rows = np.array([a, b, c]) - d[None, :]
            lifted = np.column_stack([rows, (rows**2).sum(axis=1)])
            det = np.linalg.det(lifted)
            scale = max(abs(lifted).max() ** 3, 1e-30)
            if det > tol * scale:
                violations += 1
    return violations


class TestBuildInterpolant:
    def test_square_gives_two_triangles(self):
        dataset = dataset_at([[0, 0], [1, 0], [0, 1], [1, 1]])
        interp = build_interpolant(dataset)
        assert interp.triangulation.simplices.shape[0] == 2
        shared = set(map(tuple, np.sort(interp.triangulation.simplices, axis=1)))
        assert len(shared) == 2

    def test_three_points_one_triangle(self):
        dataset = dataset_at([[0, 0], [2, 0], [0, 2]])
        interp = build_interpolant(dataset)
        assert interp.triangulation.simplices.shape[0] == 1

    def test_empty_circumcircle_property(self):
        rng = np.random.default_rng(101)
        dataset = dataset_at(rng.uniform(0, 10, size=(200, 2)))
        interp = build_interpolant(dataset)
        assert circumcircle_violations(interp.points, interp.triangulation.simplices) == 0

    def test_too_few_points(self):
        with pytest.raises(TriangulationError):
            build_interpolant(dataset_at([[0, 0], [1, 1]]))

    def test_collinear_points(self):
        with pytest.raises(TriangulationError):
            build_interpolant(dataset_at([[0, 0], [1, 0], [2, 0], [3, 0]]))

    def test_duplicates_deduplicated_keeping_first(self):
        dataset = dataset_at([[0, 0], [1, 0], [0, 0], [0, 1], [1, 1]])
        interp = build_interpolant(dataset)
        assert interp.points.shape[0] == 4
        assert 2 not in interp.vertex_indices  # the duplicate of index 0


class TestBarycentric:
    VERTICES = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])

    def test_vertex_is_unit_weight(self):
        coords = barycentric(self.VERTICES, self.VERTICES[0])
        assert np.allclose(coords.weights, [1.0, 0.0, 0.0], atol=1e-12)

    def test_centroid(self):
        coords = barycentric(self.VERTICES, self.VERTICES.mean(axis=0))
        assert np.allclose(coords.weights, [1 / 3] * 3, atol=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            x = w @ self.VERTICES
            coords = barycentric(self.VERTICES, x)
            assert np.allclose(coords.weights @ self.VERTICES, x, atol=1e-9)
            assert coords.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_triangle(self):
        with pytest.raises(TriangulationError):
            barycentric(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0]))

    def test_weight_sum_validation(self):
        with pytest.raises(ValueError):
            BarycentricCoords(np.array([0.5, 0.5, 0.5]))


def random_tensor(rng, shape=(1, 2, 2, 8)):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPhaseAlignedBlend:
    def test_consensus_fixed_point(self):
        rng = np.random.default_rng(11)
        h0 = random_tensor(rng)
        coords = BarycentricCoords(np.array([0.2, 0.5, 0.3]))
        result = phase_aligned_blend(h0, h0, h0, coords)
        assert phase_aligned_nmse(result.csi, h0) < 1e-24
        assert result.objectives[-1] < 1e-12 * np.sum(np.abs(h0) ** 2)

    def test_distinct_phases_recovered(self):
        rng = np.random.default_rng(13)
        h0 = random_tensor(rng)
        coords = BarycentricCoords(np.array([0.25, 0.4, 0.35]))
        result = phase_aligned_blend(
            h0 * np.exp(0.7j), h0 * np.exp(-1.9j), h0 * np.exp(2.4j), coords
        )
        assert result.objectives[-1] < 1e-12 * np.sum(np.abs(h0) ** 2)
        assert phase_aligned_nmse(result.csi, h0) < 1e-12

    def test_single_active_vertex_exact(self):
        rng = np.random.default_rng(17)
        h1, h2, h3 = (random_tensor(rng) for _ in range(3))
        coords = BarycentricCoords(np.array([1.0, 0.0, 0.0]))
        result = phase_aligned_blend(h1, h2, h3, coords)
        aligned = np.exp(-1j * result.phases[0]) * h1
        assert np.allclose(result.csi, aligned, atol=1e-12)

    def test_objective_monotone_on_random_triples(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            h1, h2, h3 = (random_tensor(rng) for _ in range(3))
            w = rng.dirichlet(np.ones(3))
            result = phase_aligned_blend(h1, h2, h3, BarycentricCoords(w))
            diffs = np.diff(result.objectives)
            assert np.all(diffs <= 1e-12 * max(result.objectives[0], 1.0))

    def test_all_zero_tensors_flagged(self):
        zero = np.zeros((1, 2, 2, 8), dtype=complex)
        result = phase_aligned_blend(zero, zero, zero, BarycentricCoords(np.array([0.3, 0.3, 0.4])))
        assert result.zero_input
        assert np.all(result.csi == 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        h = [random_tensor(rng) for _ in range(3)]
        w = np.array([0.5, 0.2, 0.3])
        base = phase_aligned_blend(h[0], h[1], h[2], BarycentricCoords(w))
        permuted = phase_aligned_blend(
            h[2], h[0], h[1], BarycentricCoords(w[[2, 0, 1]])
        )
        assert phase_aligned_nmse(permuted.csi, base.csi) < 1e-18

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            phase_aligned_blend(
                np.zeros((1, 2, 2, 8), complex),
                np.zeros((1, 2, 2, 4), complex),
                np.zeros((1, 2, 2, 8), complex),
                BarycentricCoords(np.array([0.3, 0.3, 0.4])),
            )


class TestPhaseAlignedNmse:
    def test_identical_tensors_read_below_the_equivariance_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            tensor = random_tensor(rng)
            assert phase_aligned_nmse(tensor.copy(), tensor) < 1e-18

    def test_matches_a_phase_scan(self):
        rng = np.random.default_rng(41)
        reference = random_tensor(rng)
        estimate = np.exp(0.9j) * reference + 0.3 * random_tensor(rng)
        phases = np.linspace(-np.pi, np.pi, 20001)
        scan = min(np.sum(np.abs(estimate - np.exp(1j * phi) * reference) ** 2) for phi in phases)
        scan /= np.sum(np.abs(reference) ** 2)
        nmse = phase_aligned_nmse(estimate, reference)
        assert nmse <= scan * (1 + 1e-12)  # no grid phase does better
        assert nmse == pytest.approx(scan, rel=1e-6)


class TestInterpolateAt:
    def test_vertex_idempotence_up_to_phase(self):
        rng = np.random.default_rng(29)
        dataset = dataset_at(rng.uniform(0, 5, size=(40, 2)), seed=3)
        interp = build_interpolant(dataset)
        for index in (0, 7, 25):
            estimate = interp.query(dataset.positions[index]).csi
            assert phase_aligned_nmse(estimate, dataset.csi[index]) < 1e-18

    def test_outside_hull_nearest_neighbor(self):
        dataset = dataset_at([[0, 0], [1, 0], [0, 1], [1, 1]])
        interp = build_interpolant(dataset)
        query = interp.query(np.array([5.0, 5.0]))
        assert query.fallback_used
        assert np.array_equal(query.csi, dataset.csi[3])

    def test_outside_hull_error_policy(self):
        dataset = dataset_at([[0, 0], [1, 0], [0, 1], [1, 1]])
        interp = build_interpolant(dataset, fallback="error")
        with pytest.raises(OutsideHullError):
            interp.query(np.array([5.0, 5.0]))

    def test_interpolate_dataset_flags_fallback_rows(self):
        dataset = dataset_at([[0, 0], [1, 0], [0, 1], [1, 1]])
        interp = build_interpolant(dataset)
        out, fallback_rows = interpolate_dataset(
            interp, np.array([[0.5, 0.5], [9.0, 9.0], [0.2, 0.3]])
        )
        assert len(out) == 3
        assert list(fallback_rows) == [1]


def _two_resolution_nmse(nx_coarse):
    """Held-out NMSE of the interpolant on a synthetic field, at two
    training densities (the finer doubles the grid resolution)."""
    geometry = ArrayGeometry(1, 2, 4, 16, 1.272e9, 50e6)
    scene = Scenario(
        geometry=geometry,
        placements=(ArrayPlacement(np.array([0.6, -2.0]), math.pi / 2),),
        reflectors=(Reflector(np.array([-0.5, 2.5]), 0.6),),
        noise_power=0.0,
        seed=0,
        bounds=((-0.2, -0.2), (1.4, 1.4)),
        delay_offset_taps=4.0,
    )
    rng = np.random.default_rng(31)
    queries = rng.uniform(0.1, 1.1, size=(60, 2))
    reference = synth_dataset(scene, queries)
    errors = []
    for nx in (nx_coarse, 2 * nx_coarse - 1):
        train = synth_dataset(scene, grid_positions(((0.0, 0.0), (1.2, 1.2)), nx, nx))
        interp = build_interpolant(train)
        nmse = [
            phase_aligned_nmse(interp.query(q).csi, reference.csi[i])
            for i, q in enumerate(queries)
        ]
        errors.append(float(np.mean(nmse)))
    return errors


class TestDensityImprovement:
    def test_nmse_improves_with_doubled_density(self):
        coarse, fine = _two_resolution_nmse(11)
        assert fine < coarse
