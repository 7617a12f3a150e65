"""Uniform tensor grids: boundary classification and quadrature.

Grids are uniform tensor products of any number of axes; the CLI builds
intervals and rectangles, and the Carleman cylinder (s, x) is a grid with one
more axis.  Volume integrals use the trapezoid rule and surface integrals the
trapezoid rule along each face, so the weights sum to the domain measure and
to each face measure exactly.  ``Grid.normals`` gives every boundary node the
outward unit normal of exactly one face (faces of a lower axis take priority
at edges and corners: x before y before z); the conormal trace reads that
rule from it alone.

The observation split classifies boundary nodes by the strict sign of
m(x) . nu(x) with m(x) = x - x0: positive goes to the observed part
``gamma0``, the rest (including the measure-zero tie set) to ``gamma1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor-product grid with quadrature and boundary metadata.

    Immutable after construction (arrays are write-protected); safe to share
    read-only across parallel workers.
    """

    dim: int
    extents: tuple
    n: tuple
    origin: tuple
    h: tuple
    shape: tuple
    coords: np.ndarray          # (N, dim)
    interior_idx: np.ndarray
    boundary_idx: np.ndarray
    normals: np.ndarray         # (N, dim), the owner face's; zero rows at interior nodes
    volume_weights: np.ndarray  # (N,), trapezoid, sums to |Omega|
    surface_weights: np.ndarray # (N,), per-node total face weight, sums to |Gamma|

    @property
    def num_nodes(self):
        return self.coords.shape[0]

    @property
    def measure(self):
        out = 1.0
        for e in self.extents:
            out *= e
        return out

    def flat_index(self, multi):
        return np.ravel_multi_index(multi, self.shape)

    @cached_property
    def gradients(self):
        """Per-axis first-derivative matrices over all grid nodes, built on
        first use and kept on the grid."""
        return tuple(_axis_matrix(self, _d1_matrix(self.n[ax], self.h[ax]), ax)
                     for ax in range(self.dim))

    def box_nodes(self, lo, hi):
        """Indices of nodes inside the closed box [lo, hi] (per-axis bounds);
        ValueError unless lo and hi each have ``dim`` coordinates."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise ValueError(f"a {self.dim}D grid takes box corners of {self.dim} "
                             f"coordinates, got {lo.size} and {hi.size}")
        mask = np.ones(self.num_nodes, dtype=bool)
        for ax in range(self.dim):
            mask &= (self.coords[:, ax] >= lo[ax] - 1e-12) & (self.coords[:, ax] <= hi[ax] + 1e-12)
        return np.nonzero(mask)[0]


def _d1_matrix(n, h):
    """Second-order first derivative; one-sided rows at both ends."""
    if n < 3:
        raise ValueError(f"the first-derivative stencil needs at least 3 nodes, got {n}")
    main = np.zeros(n)
    lower = np.full(n - 1, -1.0 / (2 * h))
    upper = np.full(n - 1, 1.0 / (2 * h))
    D = sp.diags([lower, main, upper], [-1, 0, 1], format="lil")
    D[0, 0], D[0, 1], D[0, 2] = -3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h)
    D[-1, -1], D[-1, -2], D[-1, -3] = 3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h)
    return D.tocsr()


def _d2_matrix(n, h):
    """Second derivative; one-sided second-order rows at both ends."""
    if n < 4:
        raise ValueError(f"the second-derivative stencil needs at least 4 nodes, got {n}")
    h2 = h * h
    D = sp.diags(
        [np.full(n - 1, 1.0 / h2), np.full(n, -2.0 / h2), np.full(n - 1, 1.0 / h2)],
        [-1, 0, 1],
        format="lil",
    )
    D[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h2
    D[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h2
    return D.tocsr()


def _axis_matrix(grid, mat1d, axis):
    """A one-axis matrix extended by the identity over the other axes."""
    mats = [sp.identity(n, format="csr") for n in grid.n]
    mats[axis] = mat1d
    return reduce(partial(sp.kron, format="csr"), mats)


def edge_nodes(grid, axis):
    """Flat indices of the tail and head of every edge along one axis, in C
    order of the tails."""
    idx = np.arange(grid.num_nodes).reshape(grid.shape)
    n = grid.shape[axis]
    return idx.take(range(n - 1), axis).ravel(), idx.take(range(1, n), axis).ravel()


def _trapezoid_1d(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def step_count(T, dt):
    """The number of steps dt in the horizon T, refused with ValueError unless
    T is a positive whole multiple of dt (to 1e-9 relative)."""
    nsteps = int(round(T / dt))
    if nsteps < 1 or abs(nsteps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T must be a positive whole multiple of dt, got T={T!r}, dt={dt!r}")
    return nsteps


def retained_steps(nsteps, stride):
    """Every ``stride``-th step index of 0..nsteps, with nsteps always kept."""
    keep = np.arange(0, nsteps + 1, stride)
    if keep[-1] != nsteps:
        keep = np.append(keep, nsteps)
    return keep


def build_grid(dim, extents, n, origin=None):
    """Build a uniform tensor grid of ``dim`` axes with n nodes per axis.

    ``extents`` and ``n`` may be scalars or 1-element sequences (shared by
    every axis) or per-axis sequences.  Spacing is h = extent/(n-1);
    quadrature is trapezoid.  Every axis needs 2 nodes; the derivative
    stencils of ``gradients`` need 3 and the cross-check Laplacian 4.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    extents, ns = (np.atleast_1d(v) for v in (extents, n))
    if extents.size not in (1, dim) or ns.size not in (1, dim):
        raise ValueError("extents and n must match dim")
    extents = tuple(float(e) for e in np.broadcast_to(extents, dim))
    ns = tuple(int(v) for v in np.broadcast_to(ns, dim))
    if any(e <= 0 for e in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    if any(v < 2 for v in ns):
        raise ValueError(f"need at least 2 nodes per axis, got {ns}")
    if origin is None:
        origin = (0.0,) * dim
    origin = tuple(float(o) for o in np.atleast_1d(origin))

    h = tuple(extents[a] / (ns[a] - 1) for a in range(dim))
    axes = [origin[a] + h[a] * np.arange(ns[a]) for a in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.column_stack([m.ravel() for m in mesh])
    num = coords.shape[0]
    shape = ns

    w1d = [_trapezoid_1d(ns[a], h[a]) for a in range(dim)]
    volume_weights = reduce(np.multiply.outer, w1d).ravel()

    # two faces per axis, low end first; a face's nodes come in C order, its
    # weights are the outer product of the other axes' trapezoid weights
    idx = np.arange(num).reshape(shape)
    normals = np.zeros((num, dim))
    on_face = np.zeros(num, dtype=bool)
    surface_weights = np.zeros(num)
    for a in range(dim):
        weights = np.ravel(reduce(np.multiply.outer, w1d[:a] + w1d[a + 1:], 1.0))
        for end, sign in ((0, -1.0), (-1, 1.0)):
            nodes = idx.take(end, axis=a).ravel()
            surface_weights[nodes] += weights
            new = nodes[~on_face[nodes]]     # lower axes come first and own the corners
            normals[new, a] = sign
            on_face[nodes] = True

    boundary_idx = np.flatnonzero(on_face)
    interior_idx = np.flatnonzero(~on_face)

    grid = Grid(
        dim=dim,
        extents=extents,
        n=ns,
        origin=origin,
        h=h,
        shape=shape,
        coords=coords,
        interior_idx=interior_idx,
        boundary_idx=boundary_idx,
        normals=normals,
        volume_weights=volume_weights,
        surface_weights=surface_weights,
    )
    for arr in (coords, interior_idx, boundary_idx, normals,
                volume_weights, surface_weights):
        arr.setflags(write=False)
    return grid


@dataclass(frozen=True, eq=False)
class BoundarySplit:
    """Partition of the boundary by the sign of m . nu, with m = x - x0."""

    gamma0: np.ndarray          # nodes with m . nu > 0
    gamma1: np.ndarray          # the rest of the boundary
    m: np.ndarray               # (N, dim), m sampled at every node
    transition_pairs: int       # adjacent boundary node pairs with opposite class

    @property
    def gamma0_empty(self):
        return self.gamma0.size == 0


def split_boundary(grid, x0):
    """Classify boundary nodes by the strict sign test m(x) . nu(x) > 0.

    Ties (m . nu == 0) go to gamma1.  The count of adjacent boundary-node
    pairs with opposite classification is recorded: on a domain whose two
    boundary parts do not have disjoint closures this count is positive and
    observability constants should be read with that caveat.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape[0] != grid.dim:
        raise ValueError(f"x0 must have {grid.dim} coordinates")
    m = grid.coords - x0[None, :]
    b = grid.boundary_idx
    sign = np.einsum("ij,ij->i", m[b], grid.normals[b])
    gamma0 = b[sign > 0]
    gamma1 = b[sign <= 0]

    in_g0 = np.zeros(grid.num_nodes, dtype=bool)
    in_g0[gamma0] = True
    transitions = 0
    on_b = np.zeros(grid.num_nodes, dtype=bool)
    on_b[b] = True
    for axis in range(grid.dim):
        lo, hi = edge_nodes(grid, axis)
        both = on_b[lo] & on_b[hi]
        transitions += int(np.sum(in_g0[lo[both]] != in_g0[hi[both]]))

    split = BoundarySplit(gamma0=gamma0, gamma1=gamma1, m=m,
                          transition_pairs=transitions)
    for arr in (split.gamma0, split.gamma1, split.m):
        arr.setflags(write=False)
    return split
