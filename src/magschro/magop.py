"""Magnetic differential operators and the four evolution generators.

The magnetic Laplacian sum_j (d_j + i a_j)^2 is discretized by finite
differences with complex phase factors exp(i h a) on edges (link phases).
One edge table, ``magnetic_edge_root``, holds them: the magnetic stiffness
is S = R^H R for its rows R, and the mass M is the diagonal trapezoid
matrix, so skew-adjointness of the conservative generator, dissipativity of
the damped ones, and gauge covariance all hold at machine precision rather
than at discretization order.  The term-by-term expansion
Delta + 2i a.grad + i div(a) - |a|^2 with centered stencils
(``MagneticPotential.laplacian``) is the cross-check operator: second-order
consistent with the link phases, and applied to full-grid fields with
boundary data.

The potential owns the node-wise operators of the multiplier method, of
boundary observation and of the Carleman probe, as sparse matrices over the
full grid built from ``Grid.gradients`` and ``Grid.normals``:
``MagneticPotential.gradient``, the per-axis d_ax + i a_ax,
``MagneticPotential.conormal``, the trace d_nu + i a.nu at the boundary
nodes, and ``MagneticPotential.laplacian``, the cross-check stencil.

Generators (state space in parentheses), for an interior damping c >= 0
and a boundary damping d >= 0 given as fields over the grid nodes:

* A0 = i Delta_a, Dirichlet on the whole boundary (interior nodes),
* A1 = i Delta_a - c, same state space,
* A2 = i Delta_a with flux + i d Delta_a u = 0 on gamma0, Dirichlet on gamma1
  (interior + gamma0 nodes), measured against the magnetic stiffness form,
* A3 = i Delta_a with flux - i d u = 0 on gamma0, Dirichlet on gamma1.

Boundary conditions on gamma0 are eliminated through the discrete flux
balance M.(Delta_a u) = -S u + sigma.flux, which is the ghost-node
elimination written against the quadrature weights.  All four kinds share
one assembly,

    Delta_a = (M + i sigma d [A2])^-1 (-S + i sigma d [A3]),
    A = i Delta_a - c [A1],

where a bracketed term is present only for the kind named.  It makes the
energy dissipation identities exact algebraic statements:

    Re (u | A1 u)_M = -||sqrt(c) u||^2,
    Re (A2 u | u)_S = -||sqrt(d) Delta_a u||^2 on gamma0,
    Re (u | A3 u)_M = -||sqrt(d) u||^2 on gamma0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .mesh import Grid, BoundarySplit, edge_nodes, _axis_matrix, _d2_matrix, _trapezoid_1d


# ---------------------------------------------------------------------------
# edges


def _edges(grid, axis):
    """Tail/head flat indices and midpoint coordinates of edges along one axis."""
    tails, heads = edge_nodes(grid, axis)
    mids = grid.coords[tails].copy()
    mids[:, axis] += grid.h[axis] / 2.0
    return tails, heads, mids


def _edge_transverse_weights(grid, axis):
    """Quadrature weight of each edge, in ``_edges`` order: h_axis times the
    other axes' trapezoid weights."""
    w1d = [_trapezoid_1d(n, h) for n, h in zip(grid.n, grid.h)]
    w1d[axis] = np.full(grid.n[axis] - 1, grid.h[axis])
    return reduce(np.multiply.outer, w1d).ravel()


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True, eq=False)
class MagneticPotential:
    """Real vector potential sampled at nodes and at edge midpoints."""

    grid: Grid
    values: np.ndarray              # (N, dim)
    edge_values: tuple              # per axis, aligned with _edges(grid, axis)
    sup_norm: float

    @classmethod
    def from_samples(cls, grid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape != (grid.num_nodes, grid.dim):
            raise ValueError(
                f"potential samples must have shape {(grid.num_nodes, grid.dim)}, "
                f"got {values.shape}"
            )
        edges = []
        for ax in range(grid.dim):
            tails, heads, _ = _edges(grid, ax)
            edges.append(0.5 * (values[tails, ax] + values[heads, ax]))
        return cls._finish(grid, values, tuple(edges))

    @classmethod
    def from_callable(cls, grid, fn):
        """Sample a callable coords -> components at nodes and edge midpoints."""
        values = cls._eval(fn, grid.coords, grid.dim)
        edges = []
        for ax in range(grid.dim):
            _, _, mids = _edges(grid, ax)
            edges.append(cls._eval(fn, mids, grid.dim)[:, ax])
        return cls._finish(grid, values, tuple(edges))

    @classmethod
    def zero(cls, grid):
        return cls.from_samples(grid, np.zeros((grid.num_nodes, grid.dim)))

    @staticmethod
    def _eval(fn, pts, dim):
        out = np.asarray(fn(pts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (pts.shape[0], dim):
            raise ValueError("potential callable returned wrong shape")
        return out

    @classmethod
    def _finish(cls, grid, values, edges):
        values = np.array(values, dtype=float, copy=True)
        pot = cls(
            grid=grid,
            values=values,
            edge_values=edges,
            sup_norm=float(np.max(np.linalg.norm(values, axis=1))),
        )
        values.setflags(write=False)
        return pot

    def vanishes_on(self, nodes, tol=1e-14):
        """True when the vector vanishes on the set; then so does its normal
        component, which is plus or minus one of its components."""
        nodes = np.asarray(nodes, dtype=int)
        return bool(np.max(np.abs(self.values[nodes]), initial=0.0) <= tol)

    @cached_property
    def gradient(self):
        """Per axis, the sparse d_ax + i a_ax over all grid nodes (one-sided
        stencils on the boundary), built on first use and kept here."""
        return tuple((G + 1j * sp.diags(self.values[:, ax])).tocsr()
                     for ax, G in enumerate(self.grid.gradients))

    @cached_property
    def conormal(self):
        """The sparse d_nu + i a.nu, one row per node of ``grid.boundary_idx``:
        sum_ax nu_ax ``gradient[ax]``, nu the node's normal."""
        b = self.grid.boundary_idx
        rows = [sp.diags(self.grid.normals[b, ax]) @ G[b] for ax, G in enumerate(self.gradient)]
        return sum(rows[1:], rows[0]).tocsr()

    @cached_property
    def laplacian(self):
        """The cross-check Delta + 2i a.grad + i div(a) - |a|^2 over all grid
        nodes (one-sided boundary rows, div(a) by the centered differences of
        ``Grid.gradients``), built on first use and kept here."""
        grid = self.grid
        d2 = [_axis_matrix(grid, _d2_matrix(grid.n[ax], grid.h[ax]), ax)
              for ax in range(grid.dim)]
        L = sum(d2[1:], d2[0]).astype(complex)
        div = np.zeros(grid.num_nodes)
        for ax, G in enumerate(grid.gradients):
            L = L + 2j * sp.diags(self.values[:, ax]) @ G
            div += G @ self.values[:, ax]
        return (L + sp.diags(1j * div - np.sum(self.values**2, axis=1))).tocsr()


# ---------------------------------------------------------------------------
# assembly


def _positions(num_nodes, state_idx):
    pos = np.full(num_nodes, -1, dtype=int)
    pos[state_idx] = np.arange(state_idx.size)
    return pos


def magnetic_edge_root(grid, a, state_idx):
    """The link-phase edge table R: one row sqrt(w_e) (exp(i theta_e) e_head -
    e_tail) per edge touching a state node, with w_e the edge's quadrature
    weight / h^2 and theta_e = h a at its midpoint.  Nodes outside
    ``state_idx`` are eliminated (their values are zero), so an edge's
    eliminated end is dropped."""
    pos = _positions(grid.num_nodes, state_idx)
    rows, cols, vals = [], [], []
    num_rows = 0
    for ax in range(grid.dim):
        tails, heads, _ = _edges(grid, ax)
        pt, ph = pos[tails], pos[heads]
        touch = (pt >= 0) | (ph >= 0)
        w = _edge_transverse_weights(grid, ax)[touch] / grid.h[ax] ** 2
        phase = np.exp(1j * (grid.h[ax] * a.edge_values[ax][touch]))
        pt, ph, r = pt[touch], ph[touch], np.sqrt(w)
        edge = num_rows + np.arange(pt.size)
        t, h = pt >= 0, ph >= 0
        rows += [edge[t], edge[h]]
        cols += [pt[t], ph[h]]
        vals += [-r[t] + 0j, r[h] * phase[h]]
        num_rows += pt.size
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_rows, state_idx.size),
    )


def magnetic_stiffness(grid, a, state_idx):
    """The Hermitian form sum_edges w_e |exp(i theta_e) u_head - u_tail|^2,
    R^H R for the edge table R of ``magnetic_edge_root``."""
    R = magnetic_edge_root(grid, a, state_idx)
    return (R.getH() @ R).tocsr()


@dataclass(eq=False)
class GeneratorMatrix:
    """A complex square operator together with the inner product it lives in.

    Immutable after assembly; operator application is pure.  Derived data
    (the Crank-Nicolson factors of ``cayley_solver``, the Delta_a rows on
    gamma0, the factored inner product of ``metric_root``, the Lanczos start
    ``resolvent_start`` and the A - i mu I pattern of ``shifted``) is built on
    first use and kept on the instance, so it is freed with it;
    ``dataclasses.replace`` gives a copy with empty caches.
    """

    kind: str                      # A0 | A1 | A2 | A3
    matrix: sp.csr_matrix
    grid: Grid
    state_idx: np.ndarray          # full-grid node indices of the unknowns
    mass_diag: np.ndarray          # trapezoid volume weights at the unknowns
    stiffness: sp.csr_matrix       # magnetic stiffness on the unknowns
    lap_matrix: sp.csr_matrix      # discrete Delta_a including the BC elimination
    gamma0_pos: np.ndarray = None      # positions of gamma0 nodes in the state vector
    sigma_d: np.ndarray = None         # surface weight * d at those positions
    damping_c: np.ndarray = None       # c at the unknowns (A1)
    potential: MagneticPotential = None
    split: BoundarySplit = None
    edge_root: sp.csr_matrix = None    # the edge table R of S = R^H R (A2)

    # -- inner products ------------------------------------------------

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def inner_kind(self):
        """mass, or stiffness for A2, whose energy is the magnetic gradient norm."""
        return "stiffness" if self.kind == "A2" else "mass"

    @property
    def inner_matrix(self):
        if self.inner_kind == "mass":
            return sp.diags(self.mass_diag).tocsr()
        return self.stiffness

    @cached_property
    def metric_root(self):
        """(rows, R, R^H, L^-1) for the inner product L = R^H R, as functions
        applying R (n -> rows), R^H (rows -> n) and L^-1 to vectors: the
        elementwise sqrt(mass) and 1/mass, or for the stiffness the edge rows
        of ``edge_root``, kept from assembly, and a ``factorize`` of S."""
        if self.inner_kind == "mass":
            root, mass = np.sqrt(self.mass_diag), self.mass_diag
            return self.size, root.__mul__, root.__mul__, lambda x: x / mass
        R = self.edge_root
        return (R.shape[0], R.__matmul__, R.getH().tocsr().__matmul__,
                factorize(self.stiffness)["N"])

    @cached_property
    def resolvent_start(self):
        """R z with z complex normal from seed 7 and R the ``metric_root``: the
        Lanczos start of every ``spectra.resolvent_norm`` on this generator,
        drawn once and kept read-only, so a scan's norms are bitwise those of
        separate calls."""
        rng = np.random.default_rng(7)
        start = self.metric_root[1](rng.normal(size=self.size) + 1j * rng.normal(size=self.size))
        start.setflags(write=False)
        return start

    def inner_product(self, u, v):
        """(u | v) in the generator's inner product (integral of u conj v)."""
        if self.inner_kind == "mass":
            return complex(np.vdot(v, self.mass_diag * u))
        return complex(np.vdot(v, self.stiffness @ u))

    def norm(self, u):
        return float(np.sqrt(max(self.inner_product(u, u).real, 0.0)))

    def mass_norm(self, u):
        return float(np.sqrt(self._mass_forms(u)))

    def stiffness_norm(self, u):
        return float(self.stiffness_norms(u))

    def energy(self, u):
        return float(self.energies(u))

    # -- state embedding -------------------------------------------------

    def embed(self, u):
        """Zero-extend a state vector, or the columns of an (n, k) block of
        states, to the full grid."""
        full = np.zeros((self.grid.num_nodes,) + np.shape(u)[1:], dtype=complex)
        full[self.state_idx] = u
        return full

    # -- dynamics helpers -------------------------------------------------

    def dissipation(self, u):
        """The exact algebraic right-hand side of the energy law, at state u."""
        return float(self.dissipations(u))

    # -- the same quantities for every column of a block of states ----------
    # A vector u gives a scalar; an (n, k) block U gives one value per column.
    # Each is one pass over the block: energies are half the quadratic form
    # (no square root to square again), and A1's dissipation reads only the
    # rows of U on the support of c.

    def _mass_forms(self, U):
        """(u | u)_M."""
        return self.mass_diag @ _abs_squares(U)

    def _stiffness_forms(self, U):
        """(S u | u), clamped at 0 against rounding."""
        SU = self.stiffness @ U
        form = (np.einsum("i...,i...->...", U.real, SU.real)
                + np.einsum("i...,i...->...", U.imag, SU.imag))
        return np.maximum(form, 0.0)

    def stiffness_norms(self, U):
        return np.sqrt(self._stiffness_forms(U))

    def energies(self, U):
        """Half the squared norm in the generator's inner product."""
        if self.inner_kind == "mass":
            return 0.5 * self._mass_forms(U)
        return 0.5 * self._stiffness_forms(U)

    def dissipations(self, U):
        if self.kind == "A0":
            return np.zeros(np.shape(U)[1:])
        return _weighted_squares(*self._damped_trace(U))

    def step_dissipations(self, U):
        """Dissipations at the k columns of U and at the k - 1 midpoints of
        consecutive columns.  The damped trace is linear in the state, so the
        midpoint traces are the means of the endpoint ones: no midpoint block
        of states is formed."""
        if self.kind == "A0":
            k = np.shape(U)[1]
            return np.zeros(k), np.zeros(k - 1)
        w, V = self._damped_trace(U)
        return _weighted_squares(w, V), _weighted_squares(w, 0.5 * (V[:, :-1] + V[:, 1:]))

    def _damped_trace(self, U):
        """(w, V) with the dissipation -(w . |V|^2), V linear in U: for A1 the
        rows of U on supp c with w = mass c there, for A3 the gamma0 rows with
        w = sigma d, for A2 the Delta_a rows at gamma0 applied to U."""
        if self.kind == "A1":
            rows, w = self._damping_support
            return w, U[rows]
        if self.kind == "A3":
            return self.sigma_d, U[self.gamma0_pos]
        if self.kind == "A2":
            return self.sigma_d, self._lap_gamma0 @ U
        raise ValueError(f"no dissipation law for kind {self.kind}")

    @cached_property
    def _damping_support(self):
        """The state positions where c > 0 and the weights mass c there (A1)."""
        rows = np.flatnonzero(self.damping_c)
        return rows, self.mass_diag[rows] * self.damping_c[rows]

    @cached_property
    def _lap_gamma0(self):
        """The rows of the discrete Delta_a at the gamma0 nodes."""
        return self.lap_matrix[self.gamma0_pos]

    # -- resolvent shifts ---------------------------------------------------

    @cached_property
    def _shift_pattern(self):
        """A - 0 I in CSC and the data positions of its diagonal, which every
        kind fills (S_ii > 0).  The sparse difference, not A itself: on
        unsorted rows SciPy's difference reads each entry as 0 + a, which turns
        a -0.0 part into +0.0."""
        n = self.size
        C = (self.matrix - 0j * sp.identity(n, dtype=complex, format="csr")).tocsc()
        cols = np.repeat(np.arange(n), np.diff(C.indptr))
        return C, np.flatnonzero(C.indices == cols)

    def shifted(self, mu):
        """A - i mu I in CSC, bitwise the sparse difference: a copy of the
        cached pattern with the shift written into its diagonal."""
        C, diag = self._shift_pattern
        K = C.copy()
        K.data[diag] -= np.ones(diag.size, dtype=complex) * (1j * mu)
        return K

    # -- Crank-Nicolson (Cayley) solves --------------------------------------

    @cached_property
    def _cayley_solvers(self):
        """{dt: solve}, filled by cayley_solver."""
        return {}

    def cayley_solver(self, dt):
        """b -> 2 (I - dt/2 A)^-1 b, factored once per dt by ``factorize`` and
        kept on this instance; a Crank-Nicolson step is ``solve(u) - u``.

        On the zgttrf path (1D) the factor is of (I - dt/2 A)/2, an exact
        power-of-two scaling: the pivots are those of I - dt/2 A, so each solve
        is bitwise twice the unscaled one.  A tridiagonal factor has no fill to
        lose.  On the SuperLU path it is of the weighted system W (I - dt/2 A)/2
        with W = M + i sigma d [A2], the left side of the assembly's flux
        balance, and a solve is that factor applied to W b.  Written from the
        assembly's parts,

            W (I - dt/2 A) = W + dt/2 (W c [A1] + sigma d [A3]) + i dt/2 S,

        which is strictly column diagonally dominant (|S_ij| = w_e and
        S_jj >= sum_i |S_ij|, while Re W = M > 0).  So partial pivoting makes no
        interchanges and keeps MMD's fill at every grid size.  The unweighted
        128^2 A2 system makes 567 interchanges, nearly doubles the fill
        (1 255 661 against 660 512) and factors about 3x slower; at 256^2 the
        fill is four times as large and the factor about 45x slower
        (CHANGES.md).
        """
        dt = float(dt)
        if dt not in self._cayley_solvers:
            solve = None
            if self.grid.dim == 1:
                # Only 1D operators are tridiagonal; in 2D, forming I - dt/2 A
                # for the band test alone took 1 of the factor's 10 ms at 64^2.
                eye = sp.identity(self.size, dtype=complex, format="csc")
                solve = _tridiagonal_solver((eye - (dt / 2.0) * self.matrix.tocsc()) * 0.5)
            self._cayley_solvers[dt] = (self._weighted_cayley(dt) if solve is None
                                        else solve["N"])
        return self._cayley_solvers[dt]

    def _weighted_cayley(self, dt):
        """b -> 2 (I - dt/2 A)^-1 b through the factor of W (I - dt/2 A)/2."""
        w = self.mass_diag.astype(complex)
        diag = self.mass_diag * self.damping_c if self.kind == "A1" else np.zeros(self.size)
        if self.kind == "A2":
            w[self.gamma0_pos] += 1j * self.sigma_d
        if self.kind == "A3":
            diag[self.gamma0_pos] += self.sigma_d
        system = (sp.diags(w + (dt / 2.0) * diag) + (0.5j * dt) * self.stiffness) * 0.5
        solve, w_col = factorize(system)["N"], w[:, None]
        return lambda b: solve((w if np.ndim(b) == 1 else w_col) * b)

    # -- structural checks -------------------------------------------------

    def hermitian_residual(self):
        """|| L A + (L A)^H ||_F / || L A ||_F with L the declared inner product."""
        B = (self.inner_matrix @ self.matrix).tocsr()
        num = sp.linalg.norm(B + B.getH())
        den = sp.linalg.norm(B)
        return float(num / den)

    def dissipativity_margin(self):
        """Largest eigenvalue of the Hermitian part of L A, and ||L A||_F.

        Nonpositive (to eigensolver accuracy) certifies Re (u | A u)_L <= 0
        for every u.  Read off the diagonal when the Hermitian part is
        diagonal, else from a dense ``eigvalsh``; ``DenseLimitError`` above
        ``_DENSE_LIMIT`` unknowns.
        """
        B = (self.inner_matrix @ self.matrix).tocsr()
        H = (B + B.getH()) * 0.5
        scale = sp.linalg.norm(B)
        H = H.tocsr()
        off = H - sp.diags(H.diagonal())
        if sp.linalg.norm(off) <= 1e-15 * max(scale, 1.0):
            lam = float(np.max(H.diagonal().real))
        else:
            _check_order(H.shape[0], "the dissipativity margin")
            lam = float(np.linalg.eigvalsh(H.toarray())[-1])
        return lam, float(scale)


def _abs_squares(V):
    """|V|^2 entrywise, re^2 + im^2 summed into the first square."""
    sq = V.real ** 2
    sq += V.imag ** 2
    return sq


def _weighted_squares(w, V):
    """-(w . |V|^2), per column of V."""
    return -(w @ _abs_squares(V))


# Largest order of a dense matrix that any path of the package may form.
_DENSE_LIMIT = 4096


class DenseLimitError(ValueError):
    """A dense path refused: its order exceeds ``_DENSE_LIMIT``."""


def _check_order(order, what):
    if order > _DENSE_LIMIT:
        raise DenseLimitError(
            f"{what} has dense order {order}, above the dense limit {_DENSE_LIMIT}")


def factorize(M):
    """{"N": b -> M^-1 b, "H": b -> M^-H b}, the package's one sparse factor:
    LAPACK zgttrf when M is tridiagonal (every 1D operator), else SuperLU.

    SuperLU takes the minimum-degree ordering of M^T + M, which fits the
    structurally symmetric stencils assembled here better than the default
    COLAMD, and its default partial pivoting.  Its supernodes are not relaxed
    (relax=1) and its panels are 2 columns wide.  In an interleaved sweep on one
    BLAS thread (CHANGES.md) the pivots and fill stayed those of the defaults on
    every matrix, the ten 48^2 A3 resolvent factors took 28 ms instead of 37
    and the 64^2 A2 Crank-Nicolson factor 5.8 ms instead of 7.6, with solves
    as fast.  One-column panels led by 3-4 % up to 128^2 and not at 256^2;
    widths 4 and 8 were slower at every size."""
    solvers = _tridiagonal_solver(M)
    if solvers is None:
        lu = spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=2)
        solvers = {"N": lu.solve, "H": partial(lu.solve, trans="H")}
    return solvers


def _tridiagonal_solver(M):
    """zgttrf/zgttrs solves, or None when M has fewer than 3 rows, entries off
    its three central diagonals, or a zero pivot.  The band test and the
    three diagonals come from one pass over M's CSC arrays, after a count of
    its nonzeros has turned away most matrices that do not fit the band."""
    n = M.shape[0]
    C = M.tocsc()
    if not C.has_canonical_format:
        C = C.copy()
        C.sum_duplicates()
    if n < 3 or np.count_nonzero(C.data) > 3 * n - 2:
        return None
    cols = np.repeat(np.arange(n), np.diff(C.indptr))
    off = C.indices - cols
    band = np.abs(off) <= 1
    if np.any(C.data[~band]):
        return None
    # rows dl, d, du of the band, each entry at the lower of its row and column
    diagonals = np.zeros((3, n), dtype=complex)
    diagonals[1 - off[band], np.minimum(C.indices, cols)[band]] = C.data[band]
    dl, d, du, du2, ipiv, info = lapack.zgttrf(diagonals[0, :-1], diagonals[1], diagonals[2, :-1])
    if info != 0:
        return None
    return {"N": lambda b: lapack.zgttrs(dl, d, du, du2, ipiv, b)[0],
            "H": lambda b: lapack.zgttrs(dl, d, du, du2, ipiv, b, trans="C")[0]}


def assemble_generator(kind, grid, a, c=None, d=None, split=None):
    """Assemble one of the generators A0..A3 on the given grid.

    ``c`` and ``d`` are the interior and boundary damping, nonnegative fields
    over all grid nodes (zero when None); A1 reads c at the unknowns, A2 and
    A3 read d on gamma0.  The unknowns are the interior nodes, plus the gamma0
    nodes for A2 and A3; every kind is then the module's one formula with its
    own bracketed terms.
    """
    if kind not in ("A0", "A1", "A2", "A3"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if a.grid is not grid:
        raise ValueError("potential was sampled on a different grid")
    c = _damping_field(grid, c, "interior")
    d = _damping_field(grid, d, "boundary")

    state, g0_pos, sigma_d = grid.interior_idx, None, None
    D = np.zeros(grid.num_nodes)        # sigma d, nonzero on gamma0 only
    if kind in ("A2", "A3"):
        if split is None:
            raise ValueError("boundary_split: A2/A3 require a boundary split")
        if split.gamma0_empty:
            raise ValueError("boundary_split: gamma0 is empty, no damped boundary part")
        state = np.sort(np.concatenate([grid.interior_idx, split.gamma0]))
        g0_pos = _positions(grid.num_nodes, state)[split.gamma0]
        sigma_d = grid.surface_weights[split.gamma0] * d[split.gamma0]
        D[split.gamma0] = sigma_d
    D = D[state]
    mass = grid.volume_weights[state]
    R = magnetic_edge_root(grid, a, state)
    S = (R.getH() @ R).tocsr()
    c = c[state] if kind == "A1" else None

    # From M Delta u = -S u + sigma flux on gamma0: A2's flux -i d Delta u moves
    # to the left as i sigma d, A3's flux i d u stays on the right.
    lap = (sp.diags(1.0 / (mass + 1j * D * (kind == "A2")))
           @ (-S + 1j * sp.diags(D * (kind == "A3")))).tocsr()
    A = 1j * lap if c is None else (1j * lap - sp.diags(c)).tocsr()
    return GeneratorMatrix(
        kind=kind, matrix=A, grid=grid, state_idx=state, mass_diag=mass,
        stiffness=S, lap_matrix=lap, gamma0_pos=g0_pos, sigma_d=sigma_d,
        damping_c=c, potential=a, split=split, edge_root=R if kind == "A2" else None,
    )


def _damping_field(grid, values, what):
    """A damping field as floats over the grid nodes, zeros for None."""
    field = np.zeros(grid.num_nodes) if values is None else np.asarray(values, dtype=float)
    if field.shape != (grid.num_nodes,) or not np.all(field >= 0):
        raise ValueError(f"{what} damping must be a nonnegative field over the "
                         f"{grid.num_nodes} grid nodes")
    return field


# ---------------------------------------------------------------------------
# structural identity checks


@dataclass(frozen=True, eq=False)
class GreenReport:
    residual: float
    matrix_residual: float | None
    volume_term: complex
    gradient_term: complex


def check_green_identity(grid, a, f, g):
    """Residual of (Delta_a f | g) + (grad_a f | grad_a g) - (flux f | g)_Gamma.

    Uses full-grid stencils and trapezoid quadratures, so the residual is
    O(h) for smooth data.  When both fields vanish on the boundary the same
    balance is also evaluated at matrix level through the stiffness form,
    where it holds to rounding.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    lap_f = a.laplacian @ f
    t_vol = np.sum(grid.volume_weights * lap_f * np.conj(g))
    t_grad = np.sum(grid.volume_weights * sum((G @ f) * np.conj(G @ g) for G in a.gradient))
    t_bnd = np.sum(grid.surface_weights[grid.boundary_idx] * (a.conormal @ f)
                   * np.conj(g[grid.boundary_idx]))
    residual = abs(t_vol + t_grad - t_bnd)

    matrix_residual = None
    b = grid.boundary_idx
    scale_fg = max(np.max(np.abs(f)), np.max(np.abs(g)), 1e-300)
    if max(np.max(np.abs(f[b]), initial=0.0),
           np.max(np.abs(g[b]), initial=0.0)) <= 1e-14 * scale_fg:
        interior = grid.interior_idx
        S = magnetic_stiffness(grid, a, interior)
        fi, gi = f[interior], g[interior]
        mass = grid.volume_weights[interior]
        lap_fi = -(S @ fi) / mass
        matrix_residual = abs(np.vdot(gi, mass * lap_fi) + np.vdot(gi, S @ fi))
    return GreenReport(
        residual=float(residual),
        matrix_residual=None if matrix_residual is None else float(matrix_residual),
        volume_term=complex(t_vol),
        gradient_term=complex(t_grad),
    )


# ---------------------------------------------------------------------------
# gauge machinery


def gauge_transform(gen, psi):
    """D^-1 A D for the phase D = exp(i psi) at the generator's unknowns: to
    rounding the matrix of the generator assembled from
    ``potential_plus_edge_gradient(gen.potential, psi)``, with the same spectrum."""
    phase = np.exp(1j * np.asarray(psi, dtype=float)[gen.state_idx])
    return (sp.diags(np.conj(phase)) @ gen.matrix @ sp.diags(phase)).tocsr()


def edge_gradient(grid, psi):
    """Per-axis edge differences (psi_head - psi_tail)/h, matching the links."""
    psi = np.asarray(psi, dtype=float)
    out = []
    for ax in range(grid.dim):
        tails, heads, _ = _edges(grid, ax)
        out.append((psi[heads] - psi[tails]) / grid.h[ax])
    return out


def potential_plus_edge_gradient(a, psi):
    """The potential a + grad(psi) with edge values taken by edge differences.

    Assembling the link-phase operator with this potential reproduces the
    gauge conjugation of the original operator to rounding.
    """
    grid = a.grid
    grads = grid.gradients
    psi = np.asarray(psi, dtype=float)
    node_vals = a.values + np.column_stack([grads[ax] @ psi for ax in range(grid.dim)])
    eg = edge_gradient(grid, psi)
    edges = tuple(a.edge_values[ax] + eg[ax] for ax in range(grid.dim))
    return MagneticPotential._finish(grid, node_vals, edges)


def edge_antiderivative_1d(grid, a):
    """psi with psi(0) = 0 whose edge differences equal the potential's edges."""
    if grid.dim != 1:
        raise ValueError("the antiderivative reduction is one-dimensional")
    psi = np.zeros(grid.num_nodes)
    psi[1:] = np.cumsum(grid.h[0] * a.edge_values[0])
    return psi
