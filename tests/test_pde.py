import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import cholesky
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpbsv

from kernelkit import pde
from kernelkit.pde import (
    AdvectionDiffusionProblem,
    AdvectionOperator,
    BumpDiffusionProblem,
    DirichletOperator,
    GaussianFieldSampler,
    GrfSample,
    Mesh,
    bilinear_weights,
    bump_profile,
    l2_error_against,
    mesh_at_level,
    mesh_cells_for_resolution,
    pde_resolution_map,
    solve_poisson_dirichlet,
    spatial_average,
)
from kernelkit.points import philox_generator


class TestMesh:
    def test_dyadic_levels(self):
        m = mesh_at_level(3)
        assert m.cells == 8
        assert m.nodes_per_axis == 9
        assert m.h_max == pytest.approx(math.sqrt(2.0) / 8.0)

    def test_triangle_count_and_area(self):
        m = Mesh(cells=4)
        assert len(m.triangles) == 2 * 16
        assert len(m.triangles) * m.triangle_area == pytest.approx(1.0)

    def test_boundary_structures(self):
        m = Mesh(cells=3)
        assert int(m.boundary_mask.sum()) == 12
        assert len(m.boundary_edges) == 12

    def test_gradients_sum_to_zero(self):
        m = Mesh(cells=5)
        assert np.allclose(m.gradients.sum(axis=2), 0.0, atol=1e-12)

    def test_resolution_realization(self):
        assert mesh_cells_for_resolution(2, 64) == 2
        assert mesh_cells_for_resolution(8, 64) == 4
        assert mesh_cells_for_resolution(10**6, 64) == 64
        mapping = pde_resolution_map(1.5, 1.0, max_cells=64)
        values = [mapping(l) for l in range(1, 13)]
        assert values == sorted(values)
        assert all(int(math.isqrt(v)) ** 2 == v for v in values)


class TestBumpProfile:
    def test_vanishes_beyond_support(self):
        assert bump_profile(1.0) == 0.0
        assert bump_profile(2.5) == 0.0

    def test_value_at_zero(self):
        assert bump_profile(0.0) == pytest.approx(1.0 / 30.0, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.9])
    def test_matches_quadrature_oracle(self, r):
        reference, _ = quad(lambda s: s**2 * (1.0 - s) ** 2, 0.0, max(1.0 - r, 0.0))
        assert bump_profile(r) == pytest.approx(reference, abs=1e-12)


class TestPoissonSolver:
    exact = staticmethod(lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))

    def solve_at(self, level):
        mesh = mesh_at_level(level)
        source = 2.0 * np.pi**2 * self.exact(mesh.centroids)
        return mesh, solve_poisson_dirichlet(mesh, 1.0, source)

    def test_manufactured_l2_order(self):
        errors, hs = [], []
        for level in (3, 4, 5, 6):
            mesh, u = self.solve_at(level)
            errors.append(l2_error_against(mesh, u, self.exact))
            hs.append(mesh.h)
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_manufactured_nodal_order(self):
        mesh5, u5 = self.solve_at(5)
        mesh6, u6 = self.solve_at(6)
        e5 = np.max(np.abs(u5 - self.exact(mesh5.nodes)))
        e6 = np.max(np.abs(u6 - self.exact(mesh6.nodes)))
        assert e6 <= 0.35 * e5  # order ~2 means a factor ~4 per refinement

    def test_a_mesh_is_built_once_per_cell_count(self):
        mesh = mesh_at_level(3)
        assert mesh is pde.cached_mesh(8)
        assert mesh.dirichlet is pde.cached_mesh(8).dirichlet
        # Both operators take their element stiffness from the mesh.
        advection = AdvectionOperator(AdvectionDiffusionProblem(), mesh)
        assert np.shares_memory(advection._stiffness, mesh.stiffness)
        assert not mesh.stiffness.flags.writeable

    def test_qoi_of_nodal_one(self):
        mesh = mesh_at_level(4)
        assert spatial_average(np.ones(mesh.node_count), mesh) == pytest.approx(1.0)

    def test_qoi_of_zero(self):
        mesh = mesh_at_level(3)
        assert spatial_average(np.zeros(mesh.node_count), mesh) == 0.0

    def test_qoi_of_sine_product(self):
        mesh = mesh_at_level(6)
        value = spatial_average(self.exact(mesh.nodes), mesh)
        assert value == pytest.approx(4.0 / np.pi**2, abs=5.0 * mesh.h**2)


def dense_dirichlet_solution(mesh, a_tri, f_tri):
    """Element-by-element dense assembly over all nodes, restricted to the
    interior nodes and solved densely; zero on the boundary."""
    nodes = mesh.nodes
    tri = mesh.triangles
    corners = np.concatenate([np.ones((len(tri), 3, 1)), nodes[tri]], axis=2)
    area = 0.5 * np.abs(np.linalg.det(corners))
    grads = np.linalg.inv(corners)[:, 1:, :]  # [t, :, k]: gradient of basis k
    n = mesh.node_count
    matrix = np.zeros((n, n))
    load = np.zeros(n)
    for t, element in enumerate(tri):
        matrix[np.ix_(element, element)] += a_tri[t] * area[t] * grads[t].T @ grads[t]
        load[element] += f_tri[t] * area[t] / 3.0
    interior = ~mesh.boundary_mask
    solution = np.zeros(n)
    if interior.any():
        solution[interior] = np.linalg.solve(matrix[np.ix_(interior, interior)], load[interior])
    return solution


@pytest.fixture
def fresh_dirichlet_operators():
    pde.cached_mesh.cache_clear()
    yield
    pde.cached_mesh.cache_clear()


class TestDirichletOperator:
    def check_against_dense(self, cells):
        mesh = pde.cached_mesh(cells)
        x, y = mesh.centroids.T
        a = 1.0 + x + np.sin(3.0 * y) ** 2
        f = 1.0 + np.cos(2.0 * x) * y
        expected = dense_dirichlet_solution(mesh, a, f)
        u = solve_poisson_dirichlet(mesh, a, f)
        assert np.max(np.abs(u - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-300)
        assert np.all(u[mesh.boundary_mask] == 0.0)

    @pytest.mark.parametrize("cells", [1, 2, 3, 9, 16])
    def test_banded_matches_dense_reference(self, cells, fresh_dirichlet_operators):
        self.check_against_dense(cells)

    @pytest.mark.parametrize("cells", [1, 2, 3, 9])
    def test_scalar_source_load_is_the_array_source_load(self, cells):
        mesh = Mesh(cells=cells)
        operator = DirichletOperator(mesh)
        a = 1.0 + mesh.centroids[:, 0]
        for f in (1.5, 0.5):
            _, scalar = operator.system(a, f)
            _, array = operator.system(a, np.full(len(mesh.triangles), f))
            assert scalar.tobytes() == array.tobytes()
            # Computed once per source value, and nobody may write it.
            assert operator.system(2.0 * a, f)[1] is scalar
            assert not scalar.flags.writeable

    @pytest.mark.parametrize("cells", [1, 2, 5, 16])
    def test_interior_load_is_an_interior_only_scatter(self, cells):
        # The mesh's load sums each node's entries in triangle order, so its
        # interior entries have the bits of scattering the interior alone.
        mesh = Mesh(cells=cells)
        x, y = mesh.centroids.T
        f = 1.0 + np.cos(2.0 * x) * y
        operator = DirichletOperator(mesh)
        number = np.full(mesh.node_count, -1)
        number[operator.interior] = np.arange(len(operator.interior))
        local = number[mesh.triangles]
        inside = local >= 0
        expected = np.bincount(
            local[inside],
            weights=(f * (mesh.triangle_area / 3.0))[np.nonzero(inside)[0]],
            minlength=len(operator.interior),
        )
        assert operator.system(1.0, f)[1].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cells", [2, 9])
    def test_consecutive_scalar_source_solves_are_identical(self, cells):
        mesh = Mesh(cells=cells)
        operator = DirichletOperator(mesh)
        a = 1.0 + mesh.centroids[:, 1]
        first = operator.solve(a, 1.0)
        # dpbsv overwrites its right-hand side; the cached load must survive.
        second = operator.solve(a, 1.0)
        assert first.tobytes() == second.tobytes()
        array = operator.solve(a, np.ones(len(mesh.triangles)))
        assert first.tobytes() == array.tobytes()

    def test_indefinite_system_raises_linalg_error(self):
        mesh = Mesh(cells=4)
        with pytest.raises(np.linalg.LinAlgError, match="dpbsv.*4 cells"):
            DirichletOperator(mesh).solve(-1.0, 1.0)

    @pytest.mark.parametrize("cells", [3, 9])
    def test_scalar_coefficient_is_the_array_coefficient(self, cells):
        mesh = Mesh(cells=cells)
        operator = DirichletOperator(mesh)
        ntri = len(mesh.triangles)
        scalar, _ = operator.system(1.5, 1.0)
        array, _ = operator.system(np.full(ntri, 1.5), 1.0)
        assert scalar.tobytes() == array.tobytes()

    @pytest.mark.parametrize("length_change", [-1, 1])
    def test_coefficient_of_the_wrong_length_raises(self, length_change):
        mesh = Mesh(cells=4)
        operator = DirichletOperator(mesh)
        a = np.ones(len(mesh.triangles) + length_change)
        with pytest.raises(ValueError, match="does not match 32 triangles"):
            operator.system(a, 1.0)

    @staticmethod
    def run_python(code, *args):
        src = os.path.dirname(os.path.dirname(pde.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_import_loads_no_sparse_spatial_or_special_scipy(self):
        # Nor the scipy.linalg package: kernelkit.lapack loads only its
        # compiled wrappers.
        result = self.run_python(
            "import sys, kernelkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'sparse'], ['scipy', 'spatial'], ['scipy', 'special']) "
            "or m in ('scipy.linalg', 'scipy._lib._util')))"
        )
        assert result.stdout.strip() == "[]", result.stdout + result.stderr

    def test_rsr_example_runs_without_scipy_special(self, tmp_path):
        # Every distance of the example's integer-order (nu = 1) kernel lies
        # within 0.71 length scales, where the profile sums its series.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        config = os.path.join(root, "docs", "examples", "rsr-bump.cfg")
        result = self.run_python(
            "import sys, kernelkit.cli; "
            "code = kernelkit.cli.main(['--config', sys.argv[1], '--out', sys.argv[2], '--quiet']); "
            "print(code, 'scipy.special' in sys.modules)",
            config,
            str(tmp_path / "out"),
        )
        assert result.stdout.strip() == "0 False", result.stdout + result.stderr

    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.integers(min_value=1, max_value=12),
        scale=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8),
    )
    def test_stiffness_symmetric_and_interior_band_definite(self, cells, scale):
        mesh = Mesh(cells=cells)
        ntri = len(mesh.triangles)
        a = np.resize(np.asarray(scale), ntri)
        # Full-node stiffness in general band storage through the shared helper.
        n = mesh.node_count
        p = mesh.nodes_per_axis + 1
        layout = pde._BandLayout(2 * p + 1, p, n)
        tri = mesh.triangles
        grads = mesh.gradients
        local = np.einsum("tdi,tdj->tij", grads, grads) * (a * mesh.triangle_area)[:, None, None]
        band = layout.scatter(layout.index(tri[:, :, None], tri[:, None, :]), local)
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        inside = np.abs(i - j) <= p
        dense = np.zeros((n, n))
        dense[inside] = band[(p + i - j)[inside], j[inside]]
        # Every scattered entry lands inside the matrix.
        assert np.abs(band).sum() == pytest.approx(np.abs(dense).sum(), rel=1e-12)
        size = np.max(np.abs(dense))
        assert np.max(np.abs(dense - dense.T)) <= 1e-14 * size
        assert np.max(np.abs(dense.sum(axis=1))) <= 1e-13 * size
        operator = DirichletOperator(mesh)
        matrix, load = operator.system(a, 1.0)
        if len(operator.interior):
            assert dpbsv(matrix, load, lower=1)[2] == 0


class TestBumpProblem:
    def test_coefficient_bounds_over_random_placements(self):
        rng = np.random.default_rng(0)
        mesh = mesh_at_level(4)
        for n_bumps in (1, 2, 4):
            problem = BumpDiffusionProblem(n_bumps=n_bumps)
            lo = np.array([b.lows for b in problem.center_boxes])
            hi = np.array([b.highs for b in problem.center_boxes])
            for _ in range(300):
                centers = lo + rng.random(lo.shape) * (hi - lo)
                a = problem.diffusion(centers, mesh.centroids)
                assert np.all(a >= 2.0 - 1e-12)
                assert np.all(a <= 2.0 + 1.0 / 30.0 + 1e-12)

    @pytest.mark.parametrize("n_bumps", [1, 2, 4])
    def test_diffusion_matches_evaluation_at_every_point(self, n_bumps):
        rng = np.random.default_rng(n_bumps)
        problem = BumpDiffusionProblem(n_bumps=n_bumps)
        lo = np.array([b.lows for b in problem.center_boxes])
        hi = np.array([b.highs for b in problem.center_boxes])
        x = np.vstack([mesh_at_level(5).centroids, Mesh(cells=13).nodes, Mesh(cells=8).nodes])
        # The first placement puts nodes of the 13-cell mesh on support boxes'
        # edges and nodes of the 8-cell mesh exactly on support circles.
        placements = [lo] + [lo + rng.random(lo.shape) * (hi - lo) for _ in range(20)]
        on_circle = np.linalg.norm(x[:, None, :] - lo[None, :, :], axis=2) == problem.radius
        assert on_circle.any()
        for centers in placements:
            full = np.full(len(x), 2.0)
            for c in centers:
                full += bump_profile(np.linalg.norm(x - c, axis=1) / problem.radius)
            assert problem.diffusion(centers, x).tobytes() == full.tobytes()

    def test_bump_supports_disjoint_and_interior(self):
        rng = np.random.default_rng(1)
        count = 10_000
        for n_bumps in (2, 4):
            problem = BumpDiffusionProblem(n_bumps=n_bumps)
            lo = np.array([b.lows for b in problem.center_boxes])
            hi = np.array([b.highs for b in problem.center_boxes])
            centers = lo + rng.random((count,) + lo.shape) * (hi - lo)
            assert np.all(centers - problem.radius >= -1e-12)
            assert np.all(centers + problem.radius <= 1.0 + 1e-12)
            for j in range(n_bumps):
                for k in range(j + 1, n_bumps):
                    gaps = np.linalg.norm(centers[:, j] - centers[:, k], axis=1)
                    assert np.all(gaps >= 2.0 * problem.radius - 1e-12)

    def test_positive_qoi(self):
        problem = BumpDiffusionProblem(n_bumps=1)
        rng = np.random.default_rng(2)
        box = problem.center_boxes[0]
        for _ in range(5):
            c = np.array(box.lows) + rng.random(2) * (
                np.array(box.highs) - np.array(box.lows)
            )
            assert problem.sample_qoi(c, mesh_at_level(4)) > 0.0

    def test_deterministic_given_parameters(self):
        problem = BumpDiffusionProblem(n_bumps=1)
        mesh = mesh_at_level(5)
        c = np.array([0.4, 0.6])
        assert problem.sample_qoi(c, mesh) == problem.sample_qoi(c, mesh)

    def test_rejects_unsupported_counts(self):
        with pytest.raises(ValueError):
            BumpDiffusionProblem(n_bumps=3)


class TestAdvectionProblem:
    def test_boundary_values_on_sides(self):
        problem = AdvectionDiffusionProblem()
        pts = np.array(
            [
                [0.0, 0.5],  # left -> 1
                [1.0, 0.5],  # right -> 0
                [0.5, 0.0],  # bottom -> (1 + cos(pi/2)) / 2
                [0.5, 1.0],  # top -> exp(1 - 1/(1-0.5))
                [1.0, 1.0],  # corner, right wins with 0; top limit is also 0
            ]
        )
        vals = problem.boundary_values(pts)
        assert vals[0] == 1.0
        assert vals[1] == 0.0
        assert vals[2] == pytest.approx(0.5)
        assert vals[3] == pytest.approx(math.exp(-1.0))
        assert vals[4] == 0.0

    def test_boundary_corner_consistency(self):
        problem = AdvectionDiffusionProblem()
        eps = 1e-9
        near_left = problem.boundary_values(np.array([[0.0, 1.0]]))[0]
        near_top = problem.boundary_values(np.array([[eps, 1.0]]))[0]
        assert near_left == pytest.approx(near_top, abs=1e-6)

    def test_solve_bounds_with_zero_field(self):
        problem = AdvectionDiffusionProblem()
        mesh = Mesh(cells=12)
        u = problem.solve(np.array([0.0, 0.0]), zero_field(), mesh)
        q = spatial_average(u, mesh)
        assert 0.0 < q < 20.0

    def test_velocity_validation(self):
        problem = AdvectionDiffusionProblem()
        mesh = Mesh(cells=4)
        with pytest.raises(ValueError):
            problem.solve(np.array([1.2, 0.0]), zero_field(), mesh)

    @pytest.mark.parametrize("kind", ["grf", "mesh-grid"])
    @pytest.mark.parametrize(
        "velocity", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (-math.inf, math.nan)]
    )
    def test_non_finite_velocity_is_rejected(self, kind, velocity):
        problem = AdvectionDiffusionProblem()
        mesh = Mesh(cells=4)
        field = advection_field(kind, mesh, 0)
        for entry in (problem.solve, problem.sample_qoi):
            with pytest.raises(ValueError, match="velocity must be finite"):
                entry(np.array(velocity), field, mesh)

    @pytest.mark.parametrize("kind", ["grf", "mesh-grid"])
    def test_velocity_just_outside_the_disc_is_rejected(self, kind):
        problem = AdvectionDiffusionProblem()
        mesh = Mesh(cells=4)
        field = advection_field(kind, mesh, 0)
        with pytest.raises(ValueError):
            problem.sample_qoi(np.array([0.6, 0.8 + 2e-9]), field, mesh)

    @pytest.mark.parametrize("kind", ["grf", "mesh-grid"])
    def test_velocity_on_the_circle_is_accepted(self, kind):
        problem = AdvectionDiffusionProblem()
        mesh = Mesh(cells=4)
        field = advection_field(kind, mesh, 0)
        for angle in (0.0, 0.3, 2.0, -2.5):
            z = np.array([math.cos(angle), math.sin(angle)])
            assert math.isfinite(problem.sample_qoi(z, field, mesh))
        assert math.isfinite(problem.sample_qoi(np.array([0.6, 0.8 + 5e-10]), field, mesh))

    @pytest.mark.parametrize("cells", [2, 6, 13, 20])
    @pytest.mark.parametrize("kind", ["grf", "mesh-grid"])
    def test_qoi_is_the_spatial_average_of_the_solution(self, kind, cells):
        problem = AdvectionDiffusionProblem()
        mesh = Mesh(cells=cells)
        field = advection_field(kind, mesh, cells)
        for z in (np.array([0.0, 0.0]), np.array([0.3, -0.6]), np.array([-0.8, 0.6])):
            expected = spatial_average(problem.solve(z, field, mesh), mesh)
            assert problem.sample_qoi(z, field, mesh).hex() == expected.hex()

    def test_velocity_changes_qoi(self):
        problem = AdvectionDiffusionProblem()
        mesh = Mesh(cells=10)
        field = zero_field()
        q0 = problem.sample_qoi(np.array([0.0, 0.0]), field, mesh)
        q1 = problem.sample_qoi(np.array([0.5, 0.0]), field, mesh)
        assert q0 != q1


    @pytest.mark.parametrize("kind", ["grf", "mesh-grid"])
    def test_matches_dense_reference(self, kind):
        problem = AdvectionDiffusionProblem()
        for cells in range(2, 33):
            # Three directions per mesh, turning with the cell count.
            angles = 0.37 * cells + np.array([0.0, 2.0, 4.0]) * np.pi / 3.0
            velocities = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            mesh = Mesh(cells=cells)
            field = advection_field(kind, mesh, cells)
            matrix, advection, rhs = dense_advection_system(problem, field, mesh)
            for z in velocities:
                expected = np.linalg.solve(matrix + z[0] * advection[0] + z[1] * advection[1], rhs)
                u = problem.solve(z, field, mesh)
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(u - expected)) <= 1e-12 * scale, (cells, z)
                assert problem.sample_qoi(z, field, mesh) == pytest.approx(
                    spatial_average(expected, mesh), rel=1e-12
                )

    @pytest.mark.parametrize("kind", ["grf", "mesh-grid"])
    def test_repeated_solves_are_bit_identical(self, kind):
        mesh = Mesh(cells=9)
        field = advection_field(kind, mesh, 3)
        z = np.array([0.3, -0.7])
        problem = AdvectionDiffusionProblem()
        first = problem.sample_qoi(z, field, mesh)
        assert problem.sample_qoi(z, field, mesh) == first
        assert AdvectionDiffusionProblem().sample_qoi(z, field, mesh) == first
        # Replace the field's base system by another's, then solve it again.
        problem.sample_qoi(z, advection_field(kind, mesh, 100), mesh)
        assert problem.sample_qoi(z, field, mesh) == first

    def test_base_slot_holds_only_the_last_pair(self):
        problem = AdvectionDiffusionProblem()
        for cells in (4, 6):
            mesh = Mesh(cells=cells)
            for seed in range(3):
                field = advection_field("grf", mesh, seed)
                problem.sample_qoi(np.zeros(2), field, mesh)
        field_kept, cells_kept, operator, _, weights = problem._last_base
        assert field_kept is field and cells_kept == 6
        assert operator.mesh == Mesh(cells=6)
        assert weights is mesh.average_weights

    def test_base_slot_assembles_once_per_run_of_one_pair(self, monkeypatch):
        assembled = []
        assemble = AdvectionDiffusionProblem._base

        def counting(self, operator, field):
            assembled.append((field.seed, operator.mesh.cells))
            return assemble(self, operator, field)

        monkeypatch.setattr(AdvectionDiffusionProblem, "_base", counting)
        problem = AdvectionDiffusionProblem()
        coarse, fine = Mesh(cells=4), Mesh(cells=6)
        a, b = (advection_field("grf", coarse, seed) for seed in (1, 2))
        velocities = [np.array([0.1 * k, -0.05 * k]) for k in range(3)]
        for field, mesh in [(a, coarse), (a, fine), (a, fine), (b, fine), (a, fine)]:
            for z in velocities:
                problem.sample_qoi(z, field, mesh)
        # A run of solves on one pair assembles once; returning to an
        # earlier pair after another assembles it again.
        assert assembled == [(1, 4), (1, 6), (2, 6), (1, 6)]

    def test_failed_base_assembly_leaves_key_computable(self, monkeypatch):
        mesh = Mesh(cells=4)
        field = advection_field("grf", mesh, 0)
        z = np.array([0.3, -0.2])
        expected = AdvectionDiffusionProblem().sample_qoi(z, field, mesh)
        assemble = AdvectionDiffusionProblem._base
        outcomes = [np.linalg.LinAlgError("assembly failed")]

        def failing_once(self, operator, field):
            if outcomes:
                raise outcomes.pop()
            return assemble(self, operator, field)

        monkeypatch.setattr(AdvectionDiffusionProblem, "_base", failing_once)
        problem = AdvectionDiffusionProblem()
        with pytest.raises(np.linalg.LinAlgError, match="assembly failed"):
            problem.sample_qoi(z, field, mesh)
        assert not problem._last_base
        assert problem.sample_qoi(z, field, mesh) == expected
        field_kept, cells_kept, operator, _, _ = problem._last_base
        assert field_kept is field and cells_kept == mesh.cells
        assert operator.mesh == mesh

    def test_qoi_is_the_solution_average_across_switches(self, monkeypatch):
        # The slot's operator and weights must follow every field and mesh
        # switch, and a failed assembly must leave nothing stale behind.
        assemble = AdvectionDiffusionProblem._base
        outcomes = []

        def failing_on_demand(self, operator, field):
            if outcomes:
                raise outcomes.pop()
            return assemble(self, operator, field)

        monkeypatch.setattr(AdvectionDiffusionProblem, "_base", failing_on_demand)
        problem = AdvectionDiffusionProblem()
        coarse, fine = Mesh(cells=4), Mesh(cells=7)
        a, b = (advection_field("grf", coarse, seed) for seed in (1, 2))
        c = advection_field("mesh-grid", fine, 3)
        z = np.array([0.25, -0.5])
        # Each step is another pair than the one before, the first included.
        steps = [(a, coarse), (a, fine), (b, fine), (c, fine), (b, coarse), (a, fine)]
        for fail in (False, True):
            for field, mesh in steps:
                if fail:
                    outcomes.append(np.linalg.LinAlgError("assembly failed"))
                    with pytest.raises(np.linalg.LinAlgError, match="assembly failed"):
                        problem.sample_qoi(z, field, mesh)
                expected = float(problem.solve(z, field, mesh) @ mesh.average_weights)
                assert problem.sample_qoi(z, field, mesh).hex() == expected.hex()

    def test_singular_system_raises_linalg_error(self):
        mesh = Mesh(cells=4)
        operator = AdvectionOperator(AdvectionDiffusionProblem(), mesh)
        rhs = np.ones(mesh.node_count)
        matrix = np.zeros_like(operator.advection[0])
        with pytest.raises(np.linalg.LinAlgError, match="dgbsv"):
            operator.solve((matrix, rhs), np.zeros(2))


def advection_field(kind, mesh, seed):
    """A random field drawn on a 16-cell reference grid (``grf``) or on the
    grid of ``mesh`` itself (``mesh-grid``)."""
    rng = np.random.default_rng(seed)
    grid = mesh if kind == "mesh-grid" else Mesh(cells=16)
    values = 0.8 * rng.standard_normal(grid.node_count)
    return GrfSample(grid=grid, values=values, seed=seed, draw=0)


def zero_field():
    grid = Mesh(cells=16)
    return GrfSample(grid=grid, values=np.zeros(grid.node_count), seed=0, draw=0)


def on_grid(grid, values, points):
    """Nodal grid data at ``points``, through the weights the solver uses."""
    return pde._apply_weights(values, bilinear_weights(grid, points))


def bilinear_reference(grid, values, points):
    """The four-term bilinear formula, cell by cell, in plain Python."""
    c = grid.cells
    table = values.reshape(grid.nodes_per_axis, grid.nodes_per_axis)  # [y, x]
    out = np.empty(len(points))
    for n, (px, py) in enumerate(points):
        x = min(max(px, 0.0), 1.0) * c
        y = min(max(py, 0.0), 1.0) * c
        i = min(int(x), c - 1)
        j = min(int(y), c - 1)
        fx = x - i
        fy = y - j
        out[n] = (
            table[j, i] * (1.0 - fx) * (1.0 - fy)
            + table[j, i + 1] * fx * (1.0 - fy)
            + table[j + 1, i] * (1.0 - fx) * fy
            + table[j + 1, i + 1] * fx * fy
        )
    return out


def dense_advection_system(problem, field, mesh):
    """Element-by-element dense assembly: diffusion plus Robin matrix, the
    two unit advection matrices, and the right-hand side."""
    nodes = mesh.nodes
    edges = mesh.boundary_edges
    midpoints = nodes[edges].mean(axis=1)
    m_tri = bilinear_reference(field.grid, field.values, mesh.centroids)
    m_edge = bilinear_reference(field.grid, field.values, midpoints)
    a_tri = 1.0 + np.exp(-m_tri)
    a_edge = 1.0 + np.exp(-m_edge)
    n = mesh.node_count
    tri = mesh.triangles
    corners = np.concatenate([np.ones((len(tri), 3, 1)), nodes[tri]], axis=2)
    area = 0.5 * np.abs(np.linalg.det(corners))
    grads = np.linalg.inv(corners)[:, 1:, :]  # [t, :, k]: gradient of basis k
    rows = np.repeat(tri, 3, axis=1)
    cols = np.tile(tri, (1, 3))
    diffusion = np.einsum("tdi,tdj->tij", grads, grads) * (a_tri * area)[:, None, None]
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rows, cols), diffusion.reshape(len(tri), 9))
    advection = np.zeros((2, n, n))
    for d in range(2):
        local = np.broadcast_to(grads[:, d, None, :], (len(tri), 3, 3)) * (area / 3.0)[:, None, None]
        np.add.at(advection[d], (rows, cols), local.reshape(len(tri), 9))
    rhs = np.zeros(n)
    source = problem.source(corners[:, :, 1:].mean(axis=1))
    np.add.at(rhs, tri, (source * area / 3.0)[:, None])
    ub = problem.boundary_values(nodes)
    for e, pair in enumerate(edges):
        length = np.linalg.norm(nodes[pair[0]] - nodes[pair[1]])
        local = a_edge[e] * length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        matrix[np.ix_(pair, pair)] += local
        rhs[pair] += local @ ub[pair]
    return matrix, advection, rhs


class TestGaussianField:
    def test_draws_are_deterministic(self):
        sampler = GaussianFieldSampler(mesh_at_level(4))
        a = sampler.sample(seed=9, draw=5)
        b = sampler.sample(seed=9, draw=5)
        assert np.array_equal(a.values, b.values)
        c = sampler.sample(seed=9, draw=6)
        assert not np.array_equal(a.values, c.values)

    def test_statistics_against_covariance(self):
        sampler = GaussianFieldSampler(mesh_at_level(4))
        draws = np.stack([sampler.sample(seed=3, draw=k).values for k in range(600)])
        variances = draws.var(axis=0)
        assert np.all(variances >= 0.8)
        assert np.all(variances <= 1.2)
        means = draws.mean(axis=0)
        assert np.max(np.abs(means)) <= 5.0 / math.sqrt(600)

    def test_covariance_at_short_distance(self):
        grid = mesh_at_level(4)
        sampler = GaussianFieldSampler(grid)
        draws = np.stack([sampler.sample(seed=4, draw=k).values for k in range(800)])
        nx = grid.nodes_per_axis
        a = 5 * nx + 5
        b = 6 * nx + 8  # offset (3, 1) cells, distance sqrt(10)/16
        dist = np.linalg.norm(grid.nodes[a] - grid.nodes[b])
        expected = math.exp(-((10.0 * dist) ** 2))
        empirical = np.mean(draws[:, a] * draws[:, b])
        assert empirical == pytest.approx(expected, abs=0.1)

    def test_constant_field_on_coarser_mesh_nodes(self):
        grid = mesh_at_level(3)
        values = on_grid(grid, np.full(grid.node_count, 2.5), Mesh(cells=3).nodes)
        assert np.allclose(values, 2.5, atol=1e-14)

    def test_linear_field_on_coarser_mesh_nodes(self):
        grid = mesh_at_level(4)
        coarse = Mesh(cells=5)
        values = on_grid(grid, grid.nodes[:, 0].copy(), coarse.nodes)
        assert np.max(np.abs(values - coarse.nodes[:, 0])) <= 1e-14

    def test_samplers_share_one_factor_per_grid(self):
        grid = mesh_at_level(3)
        first = GaussianFieldSampler(grid, stream=0)
        second = GaussianFieldSampler(Mesh(cells=8), stream=5)
        assert second._factor is first._factor
        sq = ((grid.nodes[:, None, :] - grid.nodes[None, :, :]) ** 2).sum(axis=2)
        factor = np.linalg.cholesky(np.exp(-100.0 * sq) + 1e-10 * np.eye(grid.node_count))
        rng = np.random.Generator(np.random.Philox(counter=[0, 0, 3, 0], key=[2, 5]))
        normals = rng.standard_normal(grid.node_count)
        assert np.array_equal(
            philox_generator(2, 5, draw=3).standard_normal(grid.node_count), normals
        )
        # The draw is one column of a blocked product, so only its BLAS
        # summation order may differ from the single matrix-vector product.
        expected = factor @ normals
        values = second.sample(seed=2, draw=3).values
        assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("draw", [31, 32, 63])
    def test_draws_do_not_depend_on_request_order(self, draw):
        grid = mesh_at_level(3)

        def requested(draws, seed=7):
            sampler = GaussianFieldSampler(grid, stream=2)
            samples = {k: sampler.sample(seed, k) for k in draws}
            return samples[draw].values

        alone = requested([draw])
        ascending = requested(range(draw + 40))
        descending = requested(range(draw + 40, -1, -1))
        sampler = GaussianFieldSampler(grid, stream=2)
        sampler.sample(8, draw)  # the same block position under another seed
        after_other_seed = sampler.sample(7, draw).values
        for values in (ascending, descending, after_other_seed):
            assert np.array_equal(values, alone)
        assert alone.flags.c_contiguous and alone.base is None

    def test_field_factor_is_kept_per_cell_count(self):
        pde._field_factor.cache_clear()
        coarse = GaussianFieldSampler(Mesh(cells=4))
        fine = GaussianFieldSampler(Mesh(cells=8))
        assert coarse._factor.shape == (25, 25) and fine._factor.shape == (81, 81)
        assert GaussianFieldSampler(Mesh(cells=4), stream=3)._factor is coarse._factor
        assert pde._field_factor.cache_info().misses == 2
        # Shared between samplers, so no sampler may write to it.
        assert not coarse._factor.flags.writeable

    def test_draw_after_release_is_bit_identical(self):
        grid = mesh_at_level(3)
        sampler = GaussianFieldSampler(grid, stream=2)
        live = GaussianFieldSampler(grid, stream=2)
        before = sampler.sample(seed=7, draw=40).values
        held = sampler._factor
        sampler.release()
        assert sampler._factor is None and sampler._block is None
        assert pde._field_factor.cache_info().currsize == 0
        # A live sampler keeps the factor it took; the released one fetches
        # the factor again.
        assert live._factor is held
        after = sampler.sample(seed=7, draw=40).values
        assert sampler._factor is not held
        assert after.tobytes() == before.tobytes()
        assert live.sample(seed=7, draw=40).values.tobytes() == before.tobytes()

    def test_streams_draw_distinct_fields(self):
        grid = mesh_at_level(3)
        a = GaussianFieldSampler(grid, stream=0).sample(seed=2, draw=3)
        b = GaussianFieldSampler(grid, stream=1).sample(seed=2, draw=3)
        assert not np.array_equal(a.values, b.values)

    @staticmethod
    def broadcast_factor(cells, nugget):
        """The factor by the broadcast formula, through the same LAPACK
        routine (``dpotrf``) as the sampler's."""
        coords = Mesh(cells=cells).nodes
        sq = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
        covariance = np.exp(-100.0 * sq)
        return cholesky(covariance + nugget * np.eye(len(coords)), lower=True)

    @pytest.mark.parametrize("cells", [5, 12])
    def test_field_factor_matches_broadcast_formula(self, cells):
        factor = pde._field_factor.__wrapped__(cells)
        expected = self.broadcast_factor(cells, pde._FIELD_NUGGET)
        assert factor.tobytes(order="C") == expected.tobytes(order="C")

    @pytest.mark.parametrize("cells", [5, 12])
    def test_field_factor_fallback_nugget_matches_broadcast_formula(self, cells, monkeypatch):
        expected = self.broadcast_factor(cells, pde._FIELD_NUGGET_FALLBACK)
        dpotrf = pde.dpotrf
        calls = []

        def fails_once(a, **kwargs):
            calls.append(a.diagonal().copy())
            factor, info = dpotrf(a, **kwargs)
            if len(calls) == 1:
                return factor, 1  # as LAPACK reports a failed minor
            return factor, info

        monkeypatch.setattr(pde, "dpotrf", fails_once)
        factor = pde._field_factor.__wrapped__(cells)
        assert len(calls) == 2
        assert np.all(calls[0] == 1.0 + pde._FIELD_NUGGET)
        # The first attempt overwrote its buffer; the second is a new covariance.
        assert np.all(calls[1] == 1.0 + pde._FIELD_NUGGET_FALLBACK)
        assert factor.tobytes(order="C") == expected.tobytes(order="C")

    def test_field_factor_builds_in_place(self):
        tracemalloc.start()
        try:
            factor = pde._field_factor.__wrapped__(16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The covariance buffer, which becomes the factor, one temporary of
        # a few rows and numpy's ufunc buffers; the broadcast formula
        # allocates six or more factor sizes.
        assert peak <= 1.5 * factor.nbytes
        # Factored in place: the factor is the Fortran view of that buffer.
        assert factor.flags.f_contiguous and factor.base is not None

    def test_rejects_oversized_reference_grid(self):
        with pytest.raises(ValueError):
            GaussianFieldSampler(Mesh(cells=80))

    def test_rejects_negative_draws(self):
        sampler = GaussianFieldSampler(Mesh(cells=4))
        with pytest.raises(ValueError, match="draw must be >= 0"):
            sampler.sample(seed=0, draw=-1)
        assert sampler.sample(seed=0, draw=0).draw == 0

    @pytest.mark.parametrize("block", [0, 2])
    def test_block_columns_are_the_draws_own_generators(self, block):
        # Each column of a block holds the normals of its own draw's
        # philox_generator(seed, stream, draw).
        grid = Mesh(cells=5)
        sampler = GaussianFieldSampler(grid, stream=4)
        draws = range(block * pde._DRAW_BLOCK, (block + 1) * pde._DRAW_BLOCK)
        normals = np.stack(
            [philox_generator(9, 4, k).standard_normal(grid.node_count) for k in draws]
        )
        expected = dtrmm(1.0, sampler._factor, normals.T, lower=1)
        for column, k in enumerate(draws):
            values = sampler.sample(seed=9, draw=k).values
            assert values.tobytes() == expected[:, column].tobytes()

    def test_bilinear_matches_four_term_formula(self):
        grid = Mesh(cells=7)
        rng = np.random.default_rng(12)
        values = rng.uniform(-1.0, 1.0, grid.node_count)
        points = np.vstack([rng.random((500, 2)), rng.uniform(-0.2, 1.2, (50, 2))])
        expected = bilinear_reference(grid, values, points)
        assert np.max(np.abs(on_grid(grid, values, points) - expected)) <= 1e-15

    def test_bilinear_reproduces_grid_nodes_exactly(self):
        grid = Mesh(cells=6)
        values = np.random.default_rng(4).standard_normal(grid.node_count)
        assert np.array_equal(on_grid(grid, values, grid.nodes), values)
        # Nodes on x = 1 or y = 1 fall into the last cell, at fraction 1.
        index, weights = bilinear_weights(grid, np.array([[1.0, 0.5], [0.5, 1.0], [1.0, 1.0]]))
        nx = grid.nodes_per_axis
        assert np.array_equal(index[:, 0], [3 * nx + 5, 5 * nx + 3, 5 * nx + 5])
        assert np.array_equal(index - index[:, :1], np.tile([0, 1, nx, nx + 1], (3, 1)))
        assert np.array_equal(weights, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_bilinear_reproduces_bilinear_data(self):
        grid = Mesh(cells=9)
        x, y = grid.nodes.T
        data = lambda x, y: 0.7 - 1.3 * x + 0.4 * y + 2.1 * x * y  # noqa: E731
        points = np.random.default_rng(6).random((300, 2))
        values = on_grid(grid, data(x, y), points)
        assert np.max(np.abs(values - data(points[:, 0], points[:, 1]))) <= 1e-14
