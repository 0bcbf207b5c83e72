"""Structured P1 finite elements on the unit square, model problems, and
a Gaussian-random-field sampler with cross-resolution coupling.  Only the
pipelines that solve PDEs load it: ``rsr``, ``ouu`` and ``fem-check``.

Meshes are uniform triangulations of ``[0,1]**2``: ``cells`` squares per
axis, each split into two right triangles along the southwest-northeast
diagonal.  Dyadic meshes (``cells = 2**level``) are used by the
convergence check and as random-field reference grids; the sparse
pipelines realize their resolution sequences with arbitrary cell counts,
because the combination rule needs resolutions that grow by small factors
per level while dyadic refinement quadruples the point count.

Two model problems are provided: a pure-diffusion problem with movable
bumps in the coefficient and homogeneous Dirichlet data, and an
advection-diffusion problem with a random log-normal-type coefficient,
fixed Gaussian source and Robin boundary data.  The quantity of interest
is always the spatial average of the solution.

Both problems are solved on meshes built once per cell count
(:func:`cached_mesh`).  A mesh holds, as cached properties, what it alone
fixes: the geometry-only element stiffness, the nodal averaging weights
and its Dirichlet operator; :meth:`Mesh.load` is the one P1 load scatter.
Element entries are scattered straight into LAPACK banded storage
(:class:`~kernelkit.lapack.BandLayout`).  The Dirichlet system of the
diffusion problem is symmetric positive definite: its
:class:`DirichletOperator` assembles the interior system (half-bandwidth
``cells`` under row-major interior numbering) and solves it by banded
Cholesky, whose band holds 134 MB at the configurable maximum
(``2**config.MAX_MESH_LEVEL`` cells per axis).  For advection-diffusion,
the :class:`AdvectionOperator` assembles the coefficient-dependent base
system once per field realization and mesh (half-bandwidth
``nodes_per_axis + 1``), and each velocity then costs one matrix sum, one
banded LU solve and, for the quantity of interest, one dot product.  A
field realization (a :class:`GrfSample`, the only coefficient field the
problem takes) lives on its reference grid; the operator keeps, per grid,
the bilinear weights of its centroids and edge midpoints, so restricting
a field to the mesh is one gather-and-sum.

Random-field draws are computed in aligned blocks, one triangular product
(BLAS ``dtrmm``) with the field's lower Cholesky factor per block.  It
does half the multiplications of a dense product and copies no factor,
which is already in Fortran order.  A draw's normals come from its own
counter-based generator (:func:`~kernelkit.points.philox_generator`) and a
block is always the same product, so every draw is bit for bit a pure
function of ``(seed, stream, draw)``.  The covariance is built in place in
one ``n x n`` buffer and factored in that buffer by LAPACK ``dpotrf``, so
building a factor of ``n**2`` doubles holds little more than the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from kernelkit import lapack
from kernelkit.lapack import BandLayout, dgbsv, dpbsv, dpotrf
from kernelkit.points import Box, philox_generator
from kernelkit.smolyak import scaled_exponential_map

_FIELD_NUGGET = 1e-10
_FIELD_NUGGET_FALLBACK = 1e-8
_MAX_FIELD_NODES = 5000
# Field draws computed together by one matrix product (see
# GaussianFieldSampler); a block of the 1089-node reference grid is 279 kB.
_DRAW_BLOCK = 32
# Covariance rows whose squared y-differences one temporary holds.
_COVARIANCE_ROWS = 32


@dataclass(frozen=True)
class Mesh:
    """Uniform right-triangle mesh of the unit square."""

    cells: int

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")

    @property
    def nodes_per_axis(self) -> int:
        return self.cells + 1

    @property
    def node_count(self) -> int:
        return self.nodes_per_axis**2

    @property
    def h(self) -> float:
        return 1.0 / self.cells

    @property
    def h_max(self) -> float:
        return math.sqrt(2.0) / self.cells

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates, ordered row-major in (y, x)."""
        axis = np.linspace(0.0, 1.0, self.nodes_per_axis)
        xg, yg = np.meshgrid(axis, axis, indexing="xy")
        out = np.stack([xg.ravel(), yg.ravel()], axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def triangles(self) -> np.ndarray:
        nx = self.nodes_per_axis
        c = self.cells
        i, j = np.meshgrid(np.arange(c), np.arange(c), indexing="xy")
        n00 = (j * nx + i).ravel()
        n10 = n00 + 1
        n01 = n00 + nx
        n11 = n01 + 1
        lower = np.stack([n00, n10, n11], axis=1)
        upper = np.stack([n00, n11, n01], axis=1)
        out = np.vstack([lower, upper])
        out.setflags(write=False)
        return out

    @cached_property
    def centroids(self) -> np.ndarray:
        out = self.nodes[self.triangles].mean(axis=1)
        out.setflags(write=False)
        return out

    @property
    def triangle_area(self) -> float:
        return 0.5 * self.h * self.h

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        nx = self.nodes_per_axis
        i = np.arange(self.node_count) % nx
        j = np.arange(self.node_count) // nx
        out = (i == 0) | (i == nx - 1) | (j == 0) | (j == nx - 1)
        out.setflags(write=False)
        return out

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Boundary edges as ``(node_a, node_b)`` pairs, axis-aligned."""
        nx = self.nodes_per_axis
        c = self.cells
        edges = []
        for i in range(c):  # bottom and top
            edges.append((i, i + 1))
            edges.append((c * nx + i, c * nx + i + 1))
        for j in range(c):  # left and right
            edges.append((j * nx, (j + 1) * nx))
            edges.append((j * nx + c, (j + 1) * nx + c))
        out = np.array(edges, dtype=int)
        out.setflags(write=False)
        return out

    @cached_property
    def gradients(self) -> np.ndarray:
        """Per-triangle P1 basis gradients, shape (ntri, 2, 3)."""
        pts = self.nodes[self.triangles]  # (ntri, 3, 2)
        x = pts[:, :, 0]
        y = pts[:, :, 1]
        two_area = 2.0 * self.triangle_area
        grads = np.empty((len(self.triangles), 2, 3))
        for k in range(3):
            k1 = (k + 1) % 3
            k2 = (k + 2) % 3
            grads[:, 0, k] = (y[:, k1] - y[:, k2]) / two_area
            grads[:, 1, k] = (x[:, k2] - x[:, k1]) / two_area
        grads.setflags(write=False)
        return grads

    @cached_property
    def stiffness(self) -> np.ndarray:
        """Geometry-only P1 element stiffness ``grad^T grad * area``, shape
        (ntri, 3, 3)."""
        grads = self.gradients
        out = np.einsum("tdi,tdj->tij", grads, grads) * self.triangle_area
        out.setflags(write=False)
        return out

    def load(self, f_centroid) -> np.ndarray:
        """Nodal P1 load of a per-triangle (or scalar) source by one-point
        centroid quadrature: ``area / 3`` of each triangle's value at each of
        its nodes, summed per node in triangle order."""
        ntri = len(self.triangles)
        f = np.broadcast_to(np.asarray(f_centroid, dtype=float), (ntri,))
        contribution = f * (self.triangle_area / 3.0)
        return np.bincount(
            self.triangles.ravel(), weights=np.repeat(contribution, 3), minlength=self.node_count
        )

    @cached_property
    def average_weights(self) -> np.ndarray:
        """Nodal weights of the P1 integral: ``area / 3`` per triangle at a node."""
        counts = np.bincount(self.triangles.ravel(), minlength=self.node_count)
        out = counts * (self.triangle_area / 3.0)
        out.setflags(write=False)
        return out

    @cached_property
    def dirichlet(self) -> "DirichletOperator":
        """The homogeneous Dirichlet operator of this mesh."""
        return DirichletOperator(self)


@lru_cache(maxsize=None)
def cached_mesh(cells: int) -> Mesh:
    """The one :class:`Mesh` of ``cells`` per axis that the pipelines solve
    on, so its cached properties are built once per cell count.  Cell
    counts are bounded by ``2**config.MAX_MESH_LEVEL`` in every config."""
    return Mesh(cells=cells)


def mesh_at_level(level: int) -> Mesh:
    """Dyadic mesh with ``2**level`` cells per axis."""
    if level < 1:
        raise ValueError(f"mesh level must be >= 1, got {level}")
    return cached_mesh(2**level)


def mesh_cells_for_resolution(resolution: int, max_cells: int) -> int:
    """Cells per axis realizing a target point-count-like resolution.

    Uses ``cells = round(sqrt(2 * resolution))`` (the resolution plays the
    role of ``h_max**-2``), clamped to ``[2, max_cells]``.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    cells = int(round(math.sqrt(2.0 * resolution)))
    return max(2, min(max_cells, cells))


def pde_resolution_map(
    work_exponent: float,
    convergence_exponent: float,
    max_cells: int,
    scale: float = 1.0,
):
    """Level map for a PDE factor: realized mesh size as the resolution.

    The idealized subsequence ``ceil(scale * exp(t*l))`` is realized on
    the mesh family by rounding to a cell count; the returned resolution
    is the realized ``cells**2``, so the engine's ``resolution**gamma``
    charge equals the ``(mesh size)**gamma`` solver-work model exactly.
    ``scale`` shifts the subsequence without touching any exponent
    (:func:`~kernelkit.smolyak.scaled_exponential_map`).
    """
    target = scaled_exponential_map(work_exponent, convergence_exponent, scale)

    def mapped(level: int) -> int:
        return mesh_cells_for_resolution(target(level), max_cells) ** 2

    return mapped


def spatial_average(solution: np.ndarray, mesh: Mesh) -> float:
    """Exact integral of a P1 function over the unit square."""
    if solution.shape != (mesh.node_count,):
        raise ValueError("solution vector does not match mesh")
    return float(solution @ mesh.average_weights)


class DirichletOperator:
    """The parts of the homogeneous Dirichlet system that one mesh fixes.

    Interior nodes are numbered row-major, ``cells - 1`` per axis, so an
    interior node couples only to interior nodes at most ``kd = cells``
    positions away (the neighbour across a triangle diagonal).  The
    operator holds the interior numbering, and the mesh's element
    stiffness (:attr:`Mesh.stiffness`) of every interior-interior element
    entry on or below the diagonal with its position in lower LAPACK band
    storage ``(kd + 1, n_interior)``.  :meth:`solve` is one ``bincount``
    for the matrix, the mesh's load restricted to the interior nodes
    (:meth:`system`) and one banded Cholesky solve (``dpbsv``).  A scalar
    source's load is computed once per mesh and source value, and
    ``dpbsv``, which overwrites its right-hand side, is handed a copy of it.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.interior = np.flatnonzero(~mesh.boundary_mask)
        n = len(self.interior)
        number = np.full(mesh.node_count, -1)
        number[self.interior] = np.arange(n)
        local = number[mesh.triangles]  # -1 at boundary nodes
        shape = local.shape + (3,)
        rows = np.broadcast_to(local[:, :, None], shape)
        cols = np.broadcast_to(local[:, None, :], shape)
        # Symmetry supplies the upper triangle.
        kept = (rows >= 0) & (cols >= 0) & (rows >= cols)
        self._layout = BandLayout(mesh.cells + 1, 0, n)
        self._index = self._layout.index(rows[kept], cols[kept])
        self._triangle = np.nonzero(kept)[0]
        self._stiffness = mesh.stiffness[kept]
        self._scalar_load: tuple[float, np.ndarray] | None = None

    def system(self, a_centroid, f_centroid):
        """Interior matrix, in lower band storage, and load for per-triangle
        (or scalar) coefficient and source.  A scalar source's load is
        computed once per source value and handed out read-only."""
        ntri = len(self.mesh.triangles)
        a = np.asarray(a_centroid, dtype=float)
        if a.ndim == 0:
            a = np.broadcast_to(a, (ntri,))
        elif a.shape != (ntri,):
            raise ValueError(
                f"coefficient of shape {a.shape} does not match {ntri} triangles"
            )
        entries = a[self._triangle] * self._stiffness
        # The mesh's load sums each node's entries in triangle order, so its
        # interior entries have the bits of a scatter onto the interior alone.
        if np.ndim(f_centroid) == 0:
            f = float(f_centroid)
            if self._scalar_load is None or self._scalar_load[0] != f:
                load = self.mesh.load(f)[self.interior]
                load.setflags(write=False)
                self._scalar_load = (f, load)
            load = self._scalar_load[1]
        else:
            load = self.mesh.load(f_centroid)[self.interior]
        return self._layout.scatter(self._index, entries), load

    def solve(self, a_centroid, f_centroid) -> np.ndarray:
        """Nodal solution, zero on the boundary."""
        solution = np.zeros(self.mesh.node_count)
        if len(self.interior) == 0:
            return solution
        matrix, load = self.system(a_centroid, f_centroid)
        # dpbsv overwrites its right-hand side, which may be the cached
        # load of a scalar source.
        _, values, info = dpbsv(matrix, load.copy(), lower=1, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"banded Cholesky failed (LAPACK dpbsv info {info}) "
                f"on {self.mesh.cells} cells"
            )
        solution[self.interior] = values
        return solution


def solve_poisson_dirichlet(mesh: Mesh, a_centroid, f_centroid) -> np.ndarray:
    """P1 solve of ``-div(a grad u) = f`` with homogeneous Dirichlet data.

    ``a_centroid`` and ``f_centroid`` are arrays over triangles (one-point
    centroid quadrature) or scalars.
    """
    return mesh.dirichlet.solve(a_centroid, f_centroid)


@dataclass(frozen=True)
class BumpDiffusionProblem:
    """Diffusion through a medium with movable bumps in the coefficient.

    The coefficient is ``2 + sum_j bump_profile(|x - c_j| / radius)`` where
    each center ``c_j`` ranges over its own box, chosen so bump supports
    stay disjoint and inside the unit square.  The source is 1 and the
    solution vanishes on the boundary.
    """

    n_bumps: int = 1

    def __post_init__(self):
        if self.n_bumps not in (1, 2, 4):
            raise ValueError(f"supported bump counts: 1, 2, 4 (got {self.n_bumps})")

    @property
    def radius(self) -> float:
        return 0.25 if self.n_bumps == 1 else 0.125

    @cached_property
    def center_boxes(self) -> tuple[Box, ...]:
        r = self.radius
        if self.n_bumps == 1:
            return (Box((r, r), (1.0 - r, 1.0 - r)),)
        if self.n_bumps == 2:
            return (
                Box((r, r), (0.5 - r, 1.0 - r)),
                Box((0.5 + r, r), (1.0 - r, 1.0 - r)),
            )
        return (
            Box((r, r), (0.5 - r, 0.5 - r)),
            Box((0.5 + r, r), (1.0 - r, 0.5 - r)),
            Box((r, 0.5 + r), (0.5 - r, 1.0 - r)),
            Box((0.5 + r, 0.5 + r), (1.0 - r, 1.0 - r)),
        )

    def diffusion(self, centers: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Coefficient values at points ``x`` for bump centers ``centers``."""
        centers = np.asarray(centers, dtype=float).reshape(self.n_bumps, 2)
        # Every bump is evaluated at every point.  The supports are
        # disjoint and a bump is +0.0 outside its own, so a point's bumps
        # sum to at most one nonzero profile, exactly, and adding +0.0
        # leaves the coefficient's bits alone.
        offset = x[None, :, :] - centers[:, None, :]
        np.square(offset, out=offset)
        r = np.sqrt(offset[:, :, 0] + offset[:, :, 1])
        r /= self.radius
        return 2.0 + bump_profile(r).sum(axis=0)

    def solve(self, centers: np.ndarray, mesh: Mesh) -> np.ndarray:
        a = self.diffusion(centers, mesh.centroids)
        return solve_poisson_dirichlet(mesh, a, 1.0)

    def sample_qoi(self, centers: np.ndarray, mesh: Mesh) -> float:
        return spatial_average(self.solve(centers, mesh), mesh)


def bump_profile(r) -> np.ndarray:
    """Polynomial bump ``s**3/3 - s**4/2 + s**5/5`` at ``s = max(1 - r, 0)``,
    as ``s**3 (1/3 + s (s/5 - 1/2))``."""
    s = np.maximum(1.0 - np.asarray(r, dtype=float), 0.0)
    out = s / 5.0
    out -= 0.5
    out *= s
    out += 1.0 / 3.0
    out *= s
    out *= s
    out *= s
    return out


class AdvectionOperator:
    """The parts of the advection-diffusion system that one mesh fixes.

    Holds the mesh's element stiffness (:attr:`Mesh.stiffness`), the
    unit advection matrices ``A_x`` and ``A_y``, the Robin edge mass and
    its product with the boundary values ``u_b``, the source load, and the
    indices that scatter element and edge entries straight into LAPACK
    banded storage.  Row-major node numbering couples a node only to nodes
    at most ``p = nodes_per_axis + 1`` positions away, so entry ``(i, j)``
    of the system lives at ``[2p + i - j, j]`` of a Fortran-ordered
    ``(3p + 1, n)`` array, the layout LAPACK ``dgbsv`` factors in place
    (its first ``p`` rows are workspace for the fill-in of pivoting).

    :meth:`base` assembles the coefficient-dependent part once per field;
    :meth:`solve` adds ``z1 * A_x + z2 * A_y`` for one velocity and solves.
    :meth:`field_weights` restricts fields given on a reference grid.
    """

    def __init__(self, problem: "AdvectionDiffusionProblem", mesh: Mesh):
        n = mesh.node_count
        p = mesh.nodes_per_axis + 1
        self.mesh = mesh
        self.bandwidth = p
        self._layout = BandLayout(3 * p + 1, 2 * p, n)
        tri = mesh.triangles
        edges = mesh.boundary_edges
        self.edges = edges
        self.edge_midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])

        def band_index(elements: np.ndarray) -> np.ndarray:
            return self._layout.index(elements[:, :, None], elements[:, None, :])

        tri_index = band_index(tri)
        self._index = np.concatenate([tri_index, band_index(edges)])
        self._stiffness = mesh.stiffness.reshape(len(tri), 9)
        mass = np.array([[2.0, 1.0], [1.0, 2.0]]) * (mesh.h / 6.0)
        self._edge_mass = mass.ravel()
        # Row i, column j of a triangle's advection matrix is z . grad_j * area / 3.
        unit = np.broadcast_to(mesh.gradients[:, :, None, :], (len(tri), 2, 3, 3))
        self.advection = tuple(
            self._layout.scatter(tri_index, unit[:, d] * (mesh.triangle_area / 3.0))
            for d in range(2)
        )
        ub = np.zeros(n)
        boundary_ids = np.flatnonzero(np.bincount(edges.ravel()))
        ub[boundary_ids] = problem.boundary_values(mesh.nodes[boundary_ids])
        self._edge_rhs = ub[edges] @ mass.T
        self.load = mesh.load(problem.source(mesh.centroids))
        self._field_weights: dict[Mesh, tuple[np.ndarray, np.ndarray]] = {}

    def field_weights(self, grid: Mesh) -> tuple[np.ndarray, np.ndarray]:
        """Bilinear weights (:func:`bilinear_weights`) of the centroids, then
        the edge midpoints, on a field's reference grid; computed once per grid."""
        weights = self._field_weights.get(grid)
        if weights is None:
            points = np.concatenate([self.mesh.centroids, self.edge_midpoints])
            weights = self._field_weights[grid] = bilinear_weights(grid, points)
        return weights

    def base(self, a_centroid: np.ndarray, a_edge: np.ndarray):
        """Banded stiffness plus Robin mass, and the right-hand side.

        The conormal term of ``du/dn + u = u_b`` contributes
        ``a * (u_b - u)`` on the boundary, with the diffusion coefficient
        ``a_edge`` evaluated at edge midpoints.
        """
        entries = np.concatenate(
            [
                (a_centroid[:, None] * self._stiffness).ravel(),
                (a_edge[:, None] * self._edge_mass).ravel(),
            ]
        )
        rhs = self.load + np.bincount(
            self.edges.ravel(),
            weights=(a_edge[:, None] * self._edge_rhs).ravel(),
            minlength=self.mesh.node_count,
        )
        return self._layout.scatter(self._index, entries), rhs

    def solve(self, base, velocity) -> np.ndarray:
        """Nodal solution for one velocity on top of an assembled base.

        The system is ``(matrix + z1 * A_x) + z2 * A_y``; the velocity's
        components are multiplied as Python floats, which numpy handles
        faster than its own scalars, to the same bits.
        """
        matrix, rhs = base
        system = self.advection[0] * float(velocity[0])
        system += matrix
        system += self.advection[1] * float(velocity[1])
        p = self.bandwidth
        _, _, solution, info = dgbsv(p, p, system, rhs, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"banded LU failed (LAPACK dgbsv info {info}) on {self.mesh.cells} cells"
            )
        return solution


# Kept beside the meshes' own caches because an operator also holds its
# problem's source load and Robin data, which the mesh alone does not fix.
@lru_cache(maxsize=32)
def _advection_operator(problem: "AdvectionDiffusionProblem", mesh: Mesh):
    return AdvectionOperator(problem, mesh)


@dataclass(frozen=True)
class AdvectionDiffusionProblem:
    """Advection-diffusion with random diffusion and Robin boundary data.

    The diffusion coefficient is ``1 + exp(-m)`` for a drawn field ``m``
    (a :class:`GrfSample`, the only kind of field it takes), the velocity
    is a control in the closed unit disc, the source is a fixed Gaussian,
    and the boundary condition is ``du/dn + u = u_b``.

    Each mesh's :class:`AdvectionOperator` is built once.  The base system
    of the last (field, mesh) pair solved is kept, with the mesh's
    operator and averaging weights, so the velocities solved on one pair
    in a row, as the pipelines solve every node of a pair, share one
    assembly and one lookup of each; a velocity then costs its checks, the
    slot's identity check, the system sum, ``dgbsv`` and, for the quantity
    of interest, one dot product.  An assembly evaluates the field at the
    mesh's centroids and edge midpoints with the operator's precomputed
    bilinear weights.
    """

    # ``[field, cells, operator, base, weights]`` of the last pair, or
    # empty.  It holds the sample, so an identity check cannot match a new
    # sample at its address.
    _last_base: list = dataclass_field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def source(self, x: np.ndarray) -> np.ndarray:
        d2 = (x[:, 0] - 0.5) ** 2 + (x[:, 1] - 0.5) ** 2
        return 20.0 * np.exp(-d2)

    def boundary_values(self, x: np.ndarray) -> np.ndarray:
        """Piecewise boundary data; corners are consistent across sides."""
        vals = np.zeros(len(x))
        x1 = x[:, 0]
        x2 = x[:, 1]
        left = np.isclose(x1, 0.0)
        right = np.isclose(x1, 1.0)
        bottom = np.isclose(x2, 0.0) & ~left & ~right
        top = np.isclose(x2, 1.0) & ~left & ~right
        vals[left] = 1.0
        vals[right] = 0.0
        vals[bottom] = 0.5 * (1.0 + np.cos(np.pi * x1[bottom]))
        safe = top & (x1 < 1.0)
        vals[safe] = np.exp(1.0 - 1.0 / (1.0 - x1[safe]))
        return vals

    def _base(self, operator: AdvectionOperator, field: GrfSample):
        m = _apply_weights(field.values, operator.field_weights(field.grid))
        a = 1.0 + np.exp(-m)
        ntri = len(operator.mesh.triangles)
        return operator.base(a[:ntri], a[ntri:])

    def _system(self, field: GrfSample, mesh: Mesh) -> list:
        """``[field, cells, operator, base, weights]`` of one (field, mesh)
        pair, kept in the slot."""
        slot = self._last_base
        if slot and slot[0] is field and slot[1] == mesh.cells:
            return slot
        operator = _advection_operator(self, mesh)
        slot[:] = [field, mesh.cells, operator, self._base(operator, field), mesh.average_weights]
        return slot

    def solve(self, velocity, field: GrfSample, mesh: Mesh) -> np.ndarray:
        """P1 solve for one field realization.

        The coefficient samples the bilinear extension of the field's
        reference-grid realization, so all mesh resolutions see the same
        continuous coefficient.
        """
        velocity = _checked_velocity(velocity)
        _, _, operator, base, _ = self._system(field, mesh)
        return operator.solve(base, velocity)

    def sample_qoi(self, velocity, field: GrfSample, mesh: Mesh) -> float:
        """Spatial average of :meth:`solve`'s solution."""
        velocity = _checked_velocity(velocity)
        _, _, operator, base, weights = self._system(field, mesh)
        # The operator sizes the solution to the mesh, so the dot product
        # needs none of spatial_average's shape check.
        return float(operator.solve(base, velocity) @ weights)


def _checked_velocity(velocity) -> tuple[float, float]:
    """The components of a finite 2-vector in the closed unit disc."""
    array = np.asarray(velocity, dtype=float)
    if array.shape != (2,):
        raise ValueError("velocity must be a 2-vector")
    z1, z2 = array.tolist()
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise ValueError(f"velocity must be finite, got {array}")
    if math.hypot(z1, z2) > 1.0 + 1e-9:
        raise ValueError(f"velocity must lie in the unit disc, got {array}")
    return z1, z2


@dataclass(frozen=True)
class GrfSample:
    """One realization of the random field on its reference grid."""

    grid: Mesh
    values: np.ndarray
    seed: int
    draw: int


class GaussianFieldSampler:
    """Centered Gaussian field with covariance ``exp(-(10 |x-y|)**2)``.

    Realizations are drawn on a fixed reference grid by dense Cholesky, in
    aligned blocks of ``_DRAW_BLOCK`` draws: block ``b`` holds draws
    ``_DRAW_BLOCK * b`` up to ``_DRAW_BLOCK * (b + 1) - 1`` and is one
    triangular product ``factor @ normals`` (``dtrmm``, which skips the
    factor's zero upper triangle), whose column for draw ``k`` is the
    standard normal vector of the counter-based generator keyed
    ``(seed, stream, k)`` (see ``points.philox_generator``).  A block takes
    one such generator and resets its state, counter ``[0, 0, k, 0]`` and
    empty buffer, before each draw ``k``: the same bits as a new generator
    per draw, without building 32 of them.  A block is always the same
    matrix, so the draw indexed ``(seed, draw)`` is bit
    for bit a pure function of its key: draws do not depend on the order
    or number of draws made before them.  The sampler keeps its latest
    block, so draws requested in ascending order compute each block once.
    Samplers on grids with the same cell count share one factor.

    :meth:`release` lets a sampler's block and factor go once its owner
    needs no more draws; a draw after it fetches the factor again.
    """

    def __init__(self, grid: Mesh, stream: int = 0):
        check_field_grid(grid)
        self.grid = grid
        self.stream = stream
        self._factor: np.ndarray | None = _field_factor(grid.cells)
        self._block_key: tuple[int, int] | None = None
        self._block: np.ndarray | None = None

    def release(self) -> None:
        """Drop the latest block and this sampler's factor reference, and
        clear the shared factor cache.

        Samplers still live keep the factor they took when they were made,
        so nothing is factored again for them; the factor's memory is freed
        when the last sampler holding it is released.  A later draw from
        this sampler factors the covariance again, to the same bits.
        """
        self._block_key = self._block = self._factor = None
        _field_factor.cache_clear()

    def sample(self, seed: int, draw: int) -> GrfSample:
        if draw < 0:
            raise ValueError(f"draw must be >= 0, got {draw}")
        block, column = divmod(draw, _DRAW_BLOCK)
        if self._block_key != (seed, block):
            if self._factor is None:
                self._factor = _field_factor(self.grid.cells)
            first = block * _DRAW_BLOCK
            generator = philox_generator(seed, self.stream, first)
            bits = generator.bit_generator
            # The fresh state, buffer included; its counter array is the
            # one each draw sets.
            state = bits.state
            counter = state["state"]["counter"]
            # One normal vector per row, so the transpose is the Fortran
            # (nodes, draws) operand that dtrmm overwrites with the product.
            normals = np.empty((_DRAW_BLOCK, self.grid.node_count))
            for row in range(_DRAW_BLOCK):
                counter[2] = first + row
                bits.state = state
                generator.standard_normal(out=normals[row])
            self._block = lapack.dtrmm(1.0, self._factor, normals.T, lower=1, overwrite_b=1)
            self._block_key = (seed, block)
        # A view of the column would keep the whole block alive in every
        # sample that the pipelines cache.
        values = self._block[:, column].copy()
        return GrfSample(grid=self.grid, values=values, seed=seed, draw=draw)


def check_field_grid(grid: Mesh) -> None:
    """Raise ValueError if ``grid`` is too large for a dense field factor
    (``node_count**2`` doubles)."""
    if grid.node_count > _MAX_FIELD_NODES:
        raise ValueError(
            f"reference grid has {grid.node_count} nodes, "
            f"dense factorization bound is {_MAX_FIELD_NODES}"
        )


# Each factor is dense (nodes**2 floats) and the pipelines draw on one
# reference grid, so few are kept.
@lru_cache(maxsize=2)
def _field_factor(cells: int) -> np.ndarray:
    """Lower Cholesky factor of the field covariance on a grid of ``cells``
    per axis, in Fortran order.

    The covariance buffer (:func:`_field_covariance`) is C-ordered and
    symmetric, so its transpose is the same matrix in the Fortran order
    that LAPACK ``dpotrf`` factors in place: the factor is that buffer, and
    nothing of its size is copied.  A failed factorization has overwritten
    the buffer, so the fallback nugget builds the covariance again.
    """
    covariance = _field_covariance(cells, _FIELD_NUGGET)
    factor, info = dpotrf(covariance.T, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        del covariance, factor
        covariance = _field_covariance(cells, _FIELD_NUGGET_FALLBACK)
        factor, info = dpotrf(covariance.T, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"field covariance on {cells} cells is not positive definite "
                f"(LAPACK dpotrf info {info})"
            )
    factor.setflags(write=False)
    return factor


def _field_covariance(cells: int, nugget: float) -> np.ndarray:
    """``exp(-100 |x - y|**2) + nugget * I`` over a grid's nodes, built in one
    C-ordered ``n x n`` buffer.

    Squared x-differences fill the buffer; squared y-differences are added
    ``_COVARIANCE_ROWS`` rows at a time, from one temporary of that many
    rows; then ``exp(-100 sq)`` and the nugget, all in place.
    """
    x, y = Mesh(cells=cells).nodes.T
    covariance = np.subtract.outer(x, x)
    np.square(covariance, out=covariance)
    dy_block = np.empty((_COVARIANCE_ROWS, len(y)))
    for start in range(0, len(y), _COVARIANCE_ROWS):
        rows = covariance[start : start + _COVARIANCE_ROWS]
        dy = np.subtract.outer(y[start : start + len(rows)], y, out=dy_block[: len(rows)])
        np.square(dy, out=dy)
        rows += dy
    covariance *= -100.0
    np.exp(covariance, out=covariance)
    covariance.flat[:: len(x) + 1] += nugget
    return covariance


def bilinear_weights(grid: Mesh, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation of nodal grid data at points in the unit square.

    Returns ``(index, weights)``, both ``(n, 4)``: the value at point ``i``
    is ``sum(values[index[i]] * weights[i])``.  Points are clipped to the
    square, and a point on the last grid line falls into the last cell.
    """
    nx = grid.nodes_per_axis
    c = grid.cells
    x = np.clip(np.asarray(points)[:, 0], 0.0, 1.0) * c
    y = np.clip(np.asarray(points)[:, 1], 0.0, 1.0) * c
    i0 = np.minimum(x.astype(int), c - 1)
    j0 = np.minimum(y.astype(int), c - 1)
    fx = x - i0
    fy = y - j0
    corner = j0 * nx + i0  # nodes are row-major in (y, x)
    index = np.stack([corner, corner + 1, corner + nx, corner + nx + 1], axis=1)
    weights = np.stack(
        [(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy], axis=1
    )
    return index, weights


def _apply_weights(values: np.ndarray, weights: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    index, w = weights
    return (values[index] * w).sum(axis=1)


def l2_error_against(mesh: Mesh, solution: np.ndarray, exact) -> float:
    """L2 distance between a P1 function and a callable, by edge-midpoint
    quadrature (exact for quadratics on each triangle)."""
    tri = mesh.triangles
    pts = mesh.nodes[tri]  # (ntri, 3, 2)
    vals = solution[tri]  # (ntri, 3)
    total = 0.0
    for k in range(3):
        k1 = (k + 1) % 3
        mid = 0.5 * (pts[:, k, :] + pts[:, k1, :])
        uh_mid = 0.5 * (vals[:, k] + vals[:, k1])
        diff = uh_mid - exact(mid)
        total += np.sum(diff**2)
    return math.sqrt(total * mesh.triangle_area / 3.0)
