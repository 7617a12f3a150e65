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
from math import prod

import numpy as np
import scipy.linalg as la
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

    The fields are the assembly's parts, immutable; operator application is
    pure.  Derived data (A, ``matrix``, and Delta_a, ``lap_matrix``, both
    read off the parts' ``_flux_balance``, the Crank-Nicolson solvers of
    ``cayley_solver``, the interior's closed-form ``axis_sines``, A0's
    ``modes``, the Delta_a rows on gamma0, the factored inner product of
    ``metric_root``, the Lanczos start ``resolvent_start``, the
    A - i mu I pattern of ``shifted``, and the band or the SuperLU column
    order that ``shift_solvers`` factors every shift with) is built on first
    use and kept on the instance, so it is freed with it;
    ``dataclasses.replace`` gives a copy with empty caches.
    """

    kind: str                      # A0 | A1 | A2 | A3
    grid: Grid
    state_idx: np.ndarray          # full-grid node indices of the unknowns
    mass_diag: np.ndarray          # trapezoid volume weights at the unknowns
    stiffness: sp.csr_matrix       # magnetic stiffness on the unknowns
    gamma0_pos: np.ndarray = None      # positions of gamma0 nodes in the state vector
    sigma_d: np.ndarray = None         # surface weight * d at those positions
    damping_c: np.ndarray = None       # c at the unknowns (A1)
    potential: MagneticPotential = None
    split: BoundarySplit = None
    edge_root: sp.csr_matrix = None    # the edge table R of S = R^H R (A2)

    # -- the operator and its inner products -------------------------------

    @property
    def size(self):
        return self.state_idx.size

    @cached_property
    def _flux_balance(self):
        """(W, r) of the flux balance W Delta_a = -S + i diag(r), from
        M Delta_a u = -S u + sigma flux on gamma0: A2's flux -i d Delta_a u
        moves to the left, W = M + i sigma d [A2], A3's i d u stays on the
        right, r = sigma d [A3]."""
        w, r = self.mass_diag.astype(complex), np.zeros(self.size)
        if self.kind == "A2":
            w[self.gamma0_pos] += 1j * self.sigma_d
        if self.kind == "A3":
            r[self.gamma0_pos] = self.sigma_d
        return w, r

    @cached_property
    def lap_matrix(self):
        """The discrete Delta_a including the BC elimination, W^-1 (-S + i r)."""
        w, r = self._flux_balance
        return (sp.diags(1.0 / w) @ (-self.stiffness + 1j * sp.diags(r))).tocsr()

    @cached_property
    def matrix(self):
        """A = i Delta_a - c [A1]."""
        A = 1j * self.lap_matrix
        return (A - sp.diags(self.damping_c)).tocsr() if self.kind == "A1" else A

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

    @cached_property
    def axis_sines(self):
        """``_axis_sines`` of the grid and potential, read-only: A0's pencil is
        every kind's interior block, so its closed-form modes serve ``modes``,
        the strip Gramians and the Crank-Nicolson ``modes`` routes of A0, A2
        and A3.  A factor has order n_ax - 2 and is not refused."""
        sines = _axis_sines(self.grid, self.potential)
        for arr in (arr for factor in sines or () for arr in factor if arr is not None):
            arr.setflags(write=False)
        return sines

    @cached_property
    def modes(self):
        """(lam, V) of A0's pencil (S, diag M): lam ascending and V with
        V^H M V = I, C-ordered so that a sparse N @ V takes it uncopied, both
        read-only.  The Kronecker sum of the ``axis_sines`` V_ax where the link
        phases separate by axis, else one dense ``eigh``; refused above
        ``_DENSE_LIMIT`` before any dense allocation."""
        if self.kind != "A0":
            raise ValueError("the modes are those of the conservative generator (A0)")
        _check_order(self.size, "the modal eigendecomposition")
        if self.axis_sines is None:
            lam, V = _pencil_modes(self.stiffness, self.mass_diag)
        else:
            lam, V = np.zeros(1), np.ones((1, 1))          # the sum over no axes
            for lam_ax, Q, phase in self.axis_sines:
                V_ax = Q if phase is None else phase[:, None] * Q
                lam, j, k = _kron_sum(lam, lam_ax)
                V = np.multiply(V[:, None, j], V_ax[None, :, k], order="C").reshape(-1, lam.size)
        for arr in (lam, V):
            arr.setflags(write=False)
        return lam, V

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
        """(u | u)_M, with no n x k temporary."""
        return (np.einsum("i,i...,i...->...", self.mass_diag, U.real, U.real)
                + np.einsum("i,i...,i...->...", self.mass_diag, U.imag, U.imag))

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

    @cached_property
    def _shift_band(self):
        """The three diagonals of ``_shift_pattern`` (``_band``), or None off
        the band; the shift does not move the band test's verdict."""
        return _band(self._shift_pattern[0])

    @cached_property
    def _shift_orders(self):
        """[], then the ``_permuted_pattern`` of the first SuperLU shift."""
        return []

    def shift_solvers(self, mu):
        """{"N", "H"} solves of A - i mu I, bitwise those of
        ``factorize(self.shifted(mu))``; no factor is kept.

        On the band (every 1D operator) each mu is one zgttrf of
        ``_shift_band`` with the shift written into its main diagonal, and a
        zero pivot falls back to SuperLU as ``factorize`` does.  Off the band
        the first mu is SuperLU's MMD factor, whose column order the instance
        keeps (``_permuted_pattern``), and each later mu factors Pc^T K Pc in
        natural order.  The order and the postorder of the column elimination
        tree read the pattern alone, not the values or the row pivots
        (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20,
        1999), so L, U and the pivots are the MMD factor's.  Relabelling the
        rows keeps K's own diagonal the one that partial pivoting prefers in
        a tie (2D A2 at small |mu| has ties).  The columns keep K's storage
        order, in which SuperLU discovers rows, and are marked canonical so
        that ``splu`` does not sort them: sorted rows change the order of its
        updates and the last bits.
        """
        shift = np.ones(self.size, dtype=complex) * (1j * mu)
        band = self._shift_band
        if band is not None:
            solvers = _band_solvers(band[0, :-1], band[1] - shift, band[2, :-1])
            return _lu_solvers(_splu(self.shifted(mu))) if solvers is None else solvers
        if not self._shift_orders:
            lu = _splu(self.shifted(mu))
            self._shift_orders.append(_permuted_pattern(self._shift_pattern[0], lu.perm_c))
            return _lu_solvers(lu)
        q, perm_c, gather, indices, indptr, diag = self._shift_orders[0]
        data = self._shift_pattern[0].data[gather]
        data[diag] -= shift
        K = sp.csc_matrix((data, indices, indptr), shape=(self.size,) * 2)
        K.has_canonical_format = True
        lu = _splu(K, "NATURAL")
        return {"N": lambda b: lu.solve(b[q])[perm_c],
                "H": lambda b: lu.solve(b[q], trans="H")[perm_c]}

    # -- Crank-Nicolson (Cayley) solves --------------------------------------

    @cached_property
    def _cayley_solvers(self):
        """{dt: (route, solve)}, filled by cayley_solver."""
        return {}

    def cayley_solver(self, dt):
        """b -> 2 (I - dt/2 A)^-1 b for a vector or an (n, k) block b, set up
        once per dt and kept on this instance; a Crank-Nicolson step is
        ``solve(u) - u``.  ``cayley_route(dt)`` names the route taken.

        * ``band`` (1D): zgttrf of (I - dt/2 A)/2, an exact power-of-two
          scaling: the pivots are those of I - dt/2 A, so each solve is bitwise
          twice the unscaled one.  A tridiagonal factor has no fill to lose.
        * ``modes`` (A0) and ``modes+schur`` (A2, A3), in 2 or more dimensions
          where the link phases separate by axis (``axis_sines``): the
          weighted system below in A0's closed-form axis modes
          (``_ModalCayley``), with no factorization of the grid.
        * ``superlu`` (A1, potentials whose phases do not separate, and
          ``_ModalCayley``'s refusals): ``factorize`` of the weighted system.

        The weighted system is W (I - dt/2 A)/2 with W the left side of the
        flux balance W Delta_a = -S + i r (``_flux_balance``), and a solve is
        its inverse applied to W b.  Written from the parts,

            W (I - dt/2 A) = W + dt/2 (W c [A1] + r) + i dt/2 S,

        which is strictly column diagonally dominant (|S_ij| = w_e and
        S_jj >= sum_i |S_ij|, while Re W = M > 0).  So SuperLU's partial
        pivoting makes no interchanges and keeps MMD's fill at every grid size.
        The unweighted 128^2 A2 system makes 567 interchanges, nearly doubles
        the fill (1 255 661 against 660 512) and factors about 3x slower; at
        256^2 the fill is four times as large and the factor about 45x slower
        (CHANGES.md).
        """
        return self._cayley(dt)[1]

    def cayley_route(self, dt):
        """The route of ``cayley_solver(dt)``: band, modes, modes+schur or superlu."""
        return self._cayley(dt)[0]

    def _cayley(self, dt):
        dt = float(dt)
        if dt not in self._cayley_solvers:
            solve = None
            if self.grid.dim == 1:
                # Only 1D operators are tridiagonal; in 2D, forming I - dt/2 A
                # for the band test alone took 1 of the factor's 10 ms at 64^2.
                eye = sp.identity(self.size, dtype=complex, format="csc")
                band = _tridiagonal_solver((eye - (dt / 2.0) * self.matrix.tocsc()) * 0.5)
                if band is not None:
                    route, solve = "band", band["N"]
            elif self.kind != "A1" and self.axis_sines is not None:
                solve = _ModalCayley.build(self, dt)
                route = "modes" if self.kind == "A0" else "modes+schur"
            if solve is None:
                route, solve = "superlu", self._weighted_cayley(dt)
            self._cayley_solvers[dt] = route, solve
        return self._cayley_solvers[dt]

    def _weighted_system(self, dt):
        """(W, W (I - dt/2 A)/2): ``_flux_balance``'s W and the sparse system."""
        w, r = self._flux_balance
        diag = self.mass_diag * self.damping_c if self.kind == "A1" else r
        return w, (sp.diags(w + (dt / 2.0) * diag) + (0.5j * dt) * self.stiffness) * 0.5

    def _weighted_cayley(self, dt):
        """b -> 2 (I - dt/2 A)^-1 b through the factor of W (I - dt/2 A)/2."""
        w, system = self._weighted_system(dt)
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


def _pencil_modes(S, mass):
    """The pencil (S, diag M) as the standard problem D S D, D = M^-1/2, by
    one dense ``eigh``; real when S is.  V is C-ordered."""
    S = S.toarray()
    d = 1.0 / np.sqrt(mass)
    lam, U = la.eigh(d[:, None] * (S if S.imag.any() else S.real) * d, driver="evd")
    return lam, np.multiply(d[:, None], U, order="C")


def _axis_sines(grid, a):
    """Per axis (lam_ax, Q_ax, phase_ax), A0's closed-form modes
    V_ax = diag(phase_ax) Q_ax, whose Kronecker sum is A0's, or None when an
    axis's link phases change across the interior lines of the other axes.
    Along a line, u = exp(-i psi) v with psi the antiderivative of h a takes
    each link to a = 0, exp(i h a_j) u_j+1 - u_j = exp(-i psi_j) (v_j+1 - v_j),
    where the pencil is tridiag(-1, 2, -1)/h^2 with mass h and its modes are
    discrete sines (Infante & Zuazua, M2AN 33, 1999): for j, k = 1 .. n-2,

        lam_k = (4/h^2) sin^2(k pi / (2 (n-1))),
        Q_jk = sqrt(2 / (h (n-1))) sin(j k pi / (n-1)),   phase_j = exp(-i psi_j).

    Q_ax is real and symmetric, Q_ax h Q_ax = I; phase_ax is None where psi
    vanishes on the line.
    """
    factors = []
    for ax, (n, h) in enumerate(zip(grid.n, grid.h)):
        lines = a.edge_values[ax].reshape(grid.shape[:ax] + (n - 1,) + grid.shape[ax + 1:])
        lines = np.moveaxis(lines, ax, -1)[(slice(1, -1),) * (grid.dim - 1)].reshape(-1, n - 1)
        if np.any(lines[1:] != lines[:1]):
            return None
        k, m = np.arange(1, n - 1), 2 * (n - 1)
        # j k reduced mod 2 (n-1), so every sine is taken in [0, 2 pi)
        Q = np.sqrt(4.0 / (h * m)) * np.sin(np.outer(k, k) % m * (2.0 * np.pi / m))
        psi = _antiderivative(h, lines[0])[1:-1]
        factors.append(((4.0 / h**2) * np.sin(k * (np.pi / m)) ** 2, Q,
                        np.exp(-1j * psi) if psi.any() else None))
    return tuple(factors)


def _kron_sum(lam1, lam2):
    """lam1 (+) lam2 in ascending (stable) order, with the factor indices
    (j, k) of each entry: mode p of the Kronecker sum is V1[:, j_p] (x) V2[:, k_p]."""
    lam = np.add.outer(lam1, lam2).ravel()
    order = np.argsort(lam, kind="stable")
    return (lam[order], *np.divmod(order, lam2.size))


class _ModalCayley:
    """b -> 2 (I - dt/2 A)^-1 b = B^-1 W b, B = W (I - dt/2 A)/2 (see
    ``GeneratorMatrix.cayley_solver``), for A0, A2 and A3 whose link phases
    separate by axis, with no factorization of the grid.

    B's interior block B_II = (M + i dt/2 S_II)/2 is A0's pencil, diagonal in
    its closed-form axis modes V = (x)_ax diag(phase_ax) Q_ax:
    B_II^-1 = V diag(2 / (1 + i dt lam/2)) V^H, fast diagonalization (Lynch,
    Rice & Thomas, Numer. Math. 6, 1964).  A2 and A3 add the gamma0 unknowns
    G, eliminated by the dense Schur complement S_G = B_GG - B_GI B_II^-1 B_IG
    (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971), set up once
    per dt.  A gamma0 node couples to at most one interior node, across its
    face, on the interior's first or last line along the face's axis: a slab.
    So B_IG and B_GI act on slabs only, and S_G reads B_II^-1 between slabs.

    A solve makes one full forward and one full inverse transform, with the
    phases applied as one diagonal.  Each is a product with the real Q_ax
    along every axis, taken on the complex array viewed as real, so one real
    matrix product per axis; the axis taken next is moved to the front in
    between.  The forward transform leaves the axes in the order
    (d-1, 0, .., d-2), ``order``, which the factor is stored in and the inverse
    transform undoes.  The slab terms are products with the rows of Q_ax at
    the slabs along axis ax, and back with its columns; the rest of the Schur
    step is two small dense products (``_eliminate``).  Arrays carry the
    right-hand sides' columns as their last axis.
    """

    def __init__(self, sines, dt, w):
        lams, self.sines, phases = zip(*sines)
        self.shape = tuple(lam.size for lam in lams)
        d = len(self.shape)
        self.order = (d - 1,) + tuple(range(d - 1))
        self.where = tuple(self.order.index(ax) for ax in range(d))
        factor = 2.0 / (1.0 + (0.5j * dt) * reduce(np.add.outer, lams))
        self.factor = np.ascontiguousarray(factor.transpose(self.order))[..., None]
        self.w, self.phase, self.interior = w, None, None
        if any(p is not None for p in phases):
            self.phase = reduce(np.multiply.outer, [np.ones(size) if p is None else p
                                                    for p, size in zip(phases, self.shape)])
            self.columns = self.phase.reshape(-1, 1), np.conj(self.phase).reshape(-1, 1)

    @classmethod
    def build(cls, gen, dt):
        """The solve in ``gen.axis_sines``, or None when the interior is empty
        or ``_eliminate`` refuses."""
        if min(gen.grid.n) < 3:
            return None
        w, system = gen._weighted_system(dt)
        solve = cls(gen.axis_sines, dt, w)
        if gen.kind == "A0" or solve._eliminate(gen, system):
            return solve
        return None

    def _eliminate(self, gen, system):
        """Set up the Schur complement of gamma0; False past the dense limit,
        or when no gamma0 node couples to the interior (only edge nodes).

        The rim is the slabs' nodes one after the other, each slab in C order
        of its other axes.  Per axis with slabs, a solve reads T_ax, the rows
        of Q_ax at them applied to the modes D V^H f_I (``thin``), and writes
        back through the columns.  The sines of the other axes, the phases
        and the couplings are folded into two dense matrices: ``reads`` takes
        T to B_GI B_II^-1 f_I, and ``writes`` takes x_G to the T of
        V^H B_IG x_G."""
        grid, state, G = gen.grid, gen.state_idx, gen.gamma0_pos
        I = _positions(grid.num_nodes, state)[grid.interior_idx]
        coupling = system[I][:, G].tocoo()          # B_IG, one entry per coupled column
        i, g = coupling.row, coupling.col
        # each pair couples across one face (axis, side); its interior node
        # lies on the slab of that face, the first or last index along the axis
        inner = np.array(np.unravel_index(grid.interior_idx[i], grid.shape))
        outer = np.array(np.unravel_index(state[G[g]], grid.shape))
        across = np.argmax(inner != outer, axis=0)
        keys, which = np.unique(2 * across + (outer > inner)[across, np.arange(i.size)],
                                return_inverse=True)
        at = np.array(np.unravel_index(i, self.shape))
        slabs, rim, size = [], np.empty(i.size, dtype=int), 0
        for s, key in enumerate(keys):
            ax, side = divmod(int(key), 2)
            face = self.shape[:ax] + self.shape[ax + 1:]
            rim[which == s] = size + np.ravel_multi_index(
                tuple(np.delete(at[:, which == s], ax, axis=0)), face)
            slabs.append((ax, side * (self.shape[ax] - 1), size))
            size += prod(face)
        if not i.size or max(G.size, size) > _DENSE_LIMIT:
            return False
        factor = self.factor[..., 0].transpose(self.where)
        K = np.empty((size, size), dtype=complex)   # B_II^-1 between the slabs
        for s, (ax, e, lo) in enumerate(slabs):
            for ax2, e2, lo2 in slabs[s:]:
                block = _slab_block(self.sines, factor, (ax, e), (ax2, e2))
                K[lo:lo + block.shape[0], lo2:lo2 + block.shape[1]] = block
                K[lo2:lo2 + block.shape[1], lo:lo + block.shape[0]] = block.T
        phase = np.ones(size)
        if self.phase is not None:
            phase = np.concatenate([self.phase.take(e, axis=ax).ravel() for ax, e, _ in slabs])
            K *= phase[:, None] * np.conj(phase)
        b_ig, b_gi = coupling.data, np.asarray(system[G[g], I[i]]).ravel()
        schur = system[G][:, G].toarray()
        schur[np.ix_(g, g)] -= b_gi[:, None] * K[np.ix_(rim, rim)] * b_ig
        # a product with the inverse: one zgemv of 11 us, where zgetrs took
        # 50 us at order 190 for one right-hand side (2-core x86 host, one
        # BLAS thread)
        self.schur_inverse = la.inv(schur, check_finite=False)

        # the rim values of T, per axis: the other axes' sines applied to an
        # identity of T's size, read in rim order (real: Q and the orders are)
        physical = [self.shape[o] for o in self.order]
        self.thin, blocks = [], []
        for ax in sorted({ax for ax, _, _ in slabs}):
            rows = [e for a, e, _ in slabs if a == ax]
            shape = physical.copy()
            shape[self.where[ax]] = len(rows)
            m = prod(shape)
            Y = np.eye(m, dtype=complex).reshape(shape + [m])
            others = [o for o in range(len(self.shape)) if o != ax]
            for o in others:
                Y = _along(Y, self.sines[o], self.where[o])
            Y = Y.real.transpose([self.where[o] for o in [ax] + others] + [-1])
            blocks.append(Y.reshape(-1, m))
            self.thin.append((ax, self.sines[ax][rows], self.sines[ax][:, rows], tuple(shape)))
        R = la.block_diag(*blocks)                  # rim values of T, without phases
        self.reads = np.zeros((G.size, R.shape[1]), dtype=complex)
        self.reads[g] = (b_gi * phase[rim])[:, None] * R[rim]
        self.writes = np.zeros((R.shape[1], G.size), dtype=complex)
        self.writes[:, g] = R[rim].T * (np.conj(phase[rim]) * b_ig)
        self.interior, self.gamma0 = I, G
        return True

    def __call__(self, b):
        F = self.w[:, None] * np.reshape(b, (self.w.size, -1))
        k = F.shape[1]
        Fi = F if self.interior is None else np.take(F, self.interior, axis=0)
        if self.phase is not None:
            Fi = self.columns[1] * Fi
        Z = Fi.reshape(self.shape + (k,))
        for ax, Q in enumerate(self.sines):
            if ax:
                Z = np.moveaxis(Z, 0, -2)
            Z = _along(Z, Q, 0)
        Z *= self.factor
        if self.interior is not None:
            T = [_along(Z, rows, self.where[ax]).reshape(-1, k) for ax, rows, _, _ in self.thin]
            xG = self.schur_inverse @ (F[self.gamma0] - self.reads @ np.concatenate(T))
            U, lo, total = self.writes @ xG, 0, 0.0
            for (ax, _, cols, shape), t in zip(self.thin, T):
                total = total + _along(U[lo:lo + len(t)].reshape(shape + (k,)), cols,
                                       self.where[ax])
                lo += len(t)
            Z -= self.factor * total
        for ax in reversed(range(len(self.shape))):
            if ax != len(self.shape) - 1:
                Z = np.moveaxis(Z, -2, 0)
            Z = _along(Z, self.sines[ax], 0)
        X = Z.reshape(-1, k)
        if self.phase is not None:
            X = self.columns[0] * X
        if self.interior is None:
            return X.reshape(np.shape(b))
        x = np.empty_like(F)
        x[self.interior], x[self.gamma0] = X, xG
        return x.reshape(np.shape(b))


def _along(X, M, axis):
    """The real M applied along one axis of the complex X, out[.., i, ..] =
    sum_j M[i, j] X[.., j, ..]: real matrix products on X viewed as real,
    one per index before the axis."""
    X = np.ascontiguousarray(X)
    pre, n, post = prod(X.shape[:axis]), X.shape[axis], prod(X.shape[axis + 1:])
    shape = X.shape[:axis] + (M.shape[0],) + X.shape[axis + 1:]
    if post == 1:
        return (X.reshape(pre, n) @ M.T).reshape(shape)
    return np.matmul(M, X.reshape(pre, n, post).view(float)).view(complex).reshape(shape)


def _slab_block(sines, factor, s, t):
    """Q_s diag(factor) Q_t^T for the interior slabs s = (axis, index) and t:
    the real axis sines at the nodes of s (rows, C order of its other axes)
    and of t (columns), contracted over the modes in one einsum.  The rows
    of Q at a slab's index come first, so no intermediate holds more than
    two of the modes' axes in 2D; the order is given, not searched."""
    d = factor.ndim
    rows, cols, vectors, matrices = [], [], [], []
    for o, Q in enumerate(sines):
        for (ax, e), free, label in ((s, rows, d + o), (t, cols, 2 * d + o)):
            if o == ax:
                vectors += [Q[e], [o]]
            else:
                free.append(label)
                matrices += [Q, [label, o]]
    operands = [factor, list(range(d))] + vectors + matrices
    count = len(operands) // 2
    path = ["einsum_path", (0, 1)] + [(0, count - 2 - j) for j in range(count - 2)]
    out = np.einsum(*operands, rows + cols, optimize=path)
    return out.reshape(prod(out.shape[:len(rows)]), -1)


def factorize(M):
    """{"N": b -> M^-1 b, "H": b -> M^-H b}, the package's one sparse factor:
    LAPACK zgttrf when M is tridiagonal (every 1D operator), else ``_splu``.
    The shifts A - i mu I of a generator take theirs from
    ``GeneratorMatrix.shift_solvers``, bitwise these."""
    solvers = _tridiagonal_solver(M)
    return _lu_solvers(_splu(M.tocsc())) if solvers is None else solvers


def _splu(M, permc_spec="MMD_AT_PLUS_A"):
    """SuperLU of a CSC M with the package's settings.

    SuperLU takes the minimum-degree ordering of M^T + M, which fits the
    structurally symmetric stencils assembled here better than the default
    COLAMD, and its default partial pivoting.  Its supernodes are not relaxed
    (relax=1) and its panels are 2 columns wide.  In an interleaved sweep on one
    BLAS thread (CHANGES.md) the pivots and fill stayed those of the defaults on
    every matrix, the ten 48^2 A3 resolvent factors took 28 ms instead of 37
    and the 64^2 A2 Crank-Nicolson factor 5.8 ms instead of 7.6, with solves
    as fast.  One-column panels led by 3-4 % up to 128^2 and not at 256^2;
    widths 4 and 8 were slower at every size."""
    return spla.splu(M, permc_spec=permc_spec, relax=1, panel_size=2)


def _lu_solvers(lu):
    return {"N": lu.solve, "H": partial(lu.solve, trans="H")}


def _permuted_pattern(C, perm_c):
    """(q, perm_c, gather, indices, indptr, diag) of Pc^T C Pc: the columns
    C[:, q], q = argsort(perm_c), with row r relabelled perm_c[r] and each
    column's rows in C's storage order.  Its data is C.data[gather] with the
    diagonal at positions ``diag``.  Permuting by perm_c, not by its inverse,
    took the 48^2 A3 fill from 62k to 585k entries (CHANGES.md).  perm_c is
    copied: SciPy's is a view that keeps the whole factor alive."""
    index = C.indices.dtype                    # SuperLU's, big enough for nnz
    perm_c = perm_c.astype(np.intp)            # intp: each solve gathers by it
    q = np.argsort(perm_c)
    counts = np.diff(C.indptr)[q]
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index)
    gather = np.repeat(C.indptr[q] - indptr[:-1], counts) + np.arange(C.nnz, dtype=index)
    indices = perm_c[C.indices[gather]].astype(index)
    on_diag = indices == np.repeat(np.arange(q.size, dtype=index), counts)
    return q, perm_c, gather, indices, indptr, np.flatnonzero(on_diag).astype(index)


def _tridiagonal_solver(M):
    """zgttrf/zgttrs solves, or None when M is off the band (``_band``) or
    has a zero pivot."""
    band = _band(M)
    return None if band is None else _band_solvers(band[0, :-1], band[1], band[2, :-1])


def _band(M):
    """The rows dl, d, du of M's three central diagonals as one (3, n) array,
    each entry at the lower of its row and column, or None when M has fewer
    than 3 rows or entries off that band.  The band test and the diagonals
    come from one pass over M's CSC arrays, after a count of its nonzeros has
    turned away most matrices that do not fit the band."""
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
    diagonals = np.zeros((3, n), dtype=complex)
    diagonals[1 - off[band], np.minimum(C.indices, cols)[band]] = C.data[band]
    return diagonals


def _band_solvers(dl, d, du):
    """zgttrf/zgttrs solves of the tridiagonal (dl, d, du), or None on a zero
    pivot; the diagonals are read, not overwritten."""
    dl, d, du, du2, ipiv, info = lapack.zgttrf(dl, d, du)
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
    if kind in ("A2", "A3"):
        if split is None:
            raise ValueError("boundary_split: A2/A3 require a boundary split")
        if split.gamma0_empty:
            raise ValueError("boundary_split: gamma0 is empty, no damped boundary part")
        state = np.sort(np.concatenate([grid.interior_idx, split.gamma0]))
        g0_pos = _positions(grid.num_nodes, state)[split.gamma0]
        sigma_d = grid.surface_weights[split.gamma0] * d[split.gamma0]
    R = magnetic_edge_root(grid, a, state)
    return GeneratorMatrix(
        kind=kind, grid=grid, state_idx=state, mass_diag=grid.volume_weights[state],
        stiffness=(R.getH() @ R).tocsr(), gamma0_pos=g0_pos, sigma_d=sigma_d,
        damping_c=c[state] if kind == "A1" else None, potential=a, split=split,
        edge_root=R if kind == "A2" else None,
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
    return _antiderivative(grid.h[0], a.edge_values[0])


def _antiderivative(h, edges):
    """psi with psi_0 = 0 and psi_j+1 - psi_j = h a_j along one line of edges."""
    return np.concatenate(([0.0], np.cumsum(h * edges)))
