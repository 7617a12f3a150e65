"""Finite-horizon observability Gramians and the product-space reduction.

For a conservative flow u(t) = exp(tA0) u0 and an observation operator N
with weight W, the Gramian

    G = sum_n w_n (N U_n)^H W (N U_n),    U_n = exp(t_n A0),

collects the observed energy integral(0,T) ||N u(t)||_W^2 dt by trapezoid
quadrature.  Its extreme generalized eigenvalues against the left metric L
(the mass form for interior observation, the magnetic stiffness form for
boundary-flux and H1 observation) give

    C_obs = 1 / sqrt(lambda_min),    C_hid = sqrt(lambda_max),

the best constants in the observability and hidden-regularity inequalities.

One modal pipeline, two time kernels.  The conservative generator owns its
modes, ``GeneratorMatrix.modes``: V with V^H M V = I and frequencies lam,
computed once per generator.  Where the potential carries no field (every 1D
generator; in 2D every curl-free potential, such as the zero, constant and
sine presets) they are discrete sines under one node phase in closed form,
and a generator with a field takes one dense eigensolve.  In the modes the
Gramian is Z o K, Z = (N V)^H W (N V) the modal observation couplings and K
the time kernel, up to a diagonal unitary similarity.  ``eig`` takes the
exact time integral, K real symmetric (``_phase_gramian_exact``); ``cn``
takes the trapezoid sum over the Crank-Nicolson steps, under which mode j
turns by 2 arctan(lam_j dt/2) per step, a Dirichlet kernel in closed form
(``_phase_gramian_cn``).  When A = 0 the modes and Z are real, and so is K
unless the stride leaves a remainder, so the extremes come from a real
symmetric eigenproblem.  A Gramian sampled at s times has rank at most r s
for observation rows N of rank r; the report records that bound.

Strips split.  When the modes are in closed form (``GeneratorMatrix.axis_sines``)
and an interior-l2 observation covers a product omega_1 x Omega_2, all of the
other axis's interior line, the couplings are exactly Z_1 (x) I, Z_1 real
because the node phase cancels, so Z o K is
block diagonal: one block Z_1 o K(lam_1 + lam_2k) per mode k of the full axis
(``_strip_split``).  ``eig``'s kernel reads only gaps, so every block has the
spectrum of Z_1 o K(lam_1) and one eigensolve of the partial axis's order
gives the extremes; ``cn``'s Cayley angles are not additive, so its blocks are
stacked and solved in one batched call.  Any other observation, set or
potential takes the order-n route.

The product-space check reads its modes and couplings from its two factors
in the same way, and steps its factors with the generator's own
``cayley_solver``, b -> 2 (I - dt/2 A)^-1 b.  The Poincare constant of a
Dirichlet part (``poincare_constant``) is the lowest eigenvalue alone of the
same pencil at a = 0 on the other nodes.

Every dense path is exact, or refused: it runs only when its dense order is
at most ``magop._DENSE_LIMIT``, and otherwise raises ``magop.DenseLimitError``
before any dense allocation.  The orders are n for the modal path (both
methods, and a strip too, although its blocks are smaller), n1 n2 for the
product space and the number of nodes off the Dirichlet part for the
Poincare constant.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from . import magop
from .mesh import retained_steps, step_count

@dataclass(frozen=True, eq=False)
class Observation:
    """Observation descriptor: what is measured and where."""

    kind: str                  # interior-l2 | boundary-conormal | interior-h1
    nodes: np.ndarray          # full-grid node indices

    def __post_init__(self):
        if self.kind not in ("interior-l2", "boundary-conormal", "interior-h1"):
            raise ValueError(f"unknown observation kind {self.kind!r}")
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=int))
        if self.nodes.size == 0:
            raise ValueError("observation node set is empty")

    @property
    def metric(self):
        return "mass" if self.kind == "interior-l2" else "stiffness"

    def build(self, gen):
        """Sparse row operator (obs x state) and its quadrature weights."""
        grid = gen.grid
        if self.kind == "boundary-conormal":
            bpos = magop._positions(grid.num_nodes, grid.boundary_idx)[self.nodes]
            if np.any(bpos < 0):
                raise ValueError("boundary-conormal observation needs boundary nodes")
            N = gen.potential.conormal[bpos][:, gen.state_idx]
            return N, grid.surface_weights[self.nodes]
        pos = magop._positions(grid.num_nodes, gen.state_idx)
        keep = self.nodes[pos[self.nodes] >= 0]
        if keep.size == 0:
            raise ValueError("observation set misses the generator's state nodes")
        if self.kind == "interior-l2":
            rows = pos[keep]
            N = sp.csr_matrix(
                (np.ones(rows.size), (np.arange(rows.size), rows)),
                shape=(rows.size, gen.size),
            )
            W = grid.volume_weights[keep]
            return N, W
        # interior-h1: the magnetic gradient components, then the state itself
        sel = sp.identity(grid.num_nodes, format="csr")[keep]
        N = sp.vstack([G[keep] for G in gen.potential.gradient] + [sel]).tocsr()
        W = np.tile(grid.volume_weights[keep], grid.dim + 1)
        return N[:, gen.state_idx], W


@dataclass(eq=False)
class ObservabilityReport:
    observation: str
    T: float
    lambda_min: float
    lambda_max: float
    c_obs: float
    c_hid: float
    quadrature_error_estimate: float
    stride: int
    method: str
    rank_bound: int                    # min(k, r s): k unknowns, r = rank N, s samples
    warnings: list = field(default_factory=list)

    def to_json(self):
        return json.dumps({
            "observation": self.observation,
            "T": self.T,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "C_obs": self.c_obs,
            "C_hid": self.c_hid,
            "quadrature_error_estimate": self.quadrature_error_estimate,
            "stride": self.stride,
            "method": self.method,
            "warnings": self.warnings,
            "rank_bound": self.rank_bound,
        }, sort_keys=True)


def poincare_constant(grid, dirichlet_part):
    """kappa = 1/sqrt(lambda_1), the best constant in ||u|| <= kappa ||grad u||
    for fields that vanish on the nonempty node set ``dirichlet_part``: lambda_1
    of the generators' pencil (S, diag M) at a = 0 on the other nodes, whose
    S = sum_e w_e |u_head - u_tail|^2 is the lumped-P1 Laplacian, natural on the
    rest of the boundary.  Refused above ``magop._DENSE_LIMIT`` before assembly.
    """
    dirichlet = np.asarray(dirichlet_part, dtype=int)
    if dirichlet.size == 0:
        raise ValueError("dirichlet_part must be nonempty")
    keep = np.setdiff1d(np.arange(grid.num_nodes), dirichlet)
    magop._check_order(keep.size, "the Poincare pencil")
    S = magop.magnetic_stiffness(grid, magop.MagneticPotential.zero(grid), keep).toarray().real
    d = 1.0 / np.sqrt(grid.volume_weights[keep])
    return float(1.0 / np.sqrt(la.eigvalsh(d[:, None] * S * d, subset_by_index=[0, 0])[0]))


def _modal_couplings(N, W, V):
    """Z = (N V)^H W (N V), real when N V has no imaginary part (A = 0)."""
    Y = N @ V
    if np.iscomplexobj(Y) and not Y.imag.any():
        Y = Y.real
    return (Y.conj().T * W) @ Y


def _phase_gramian_exact(Z, lam, T):
    """Exact time integral of the modal phase couplings over [0, T], up to a
    diagonal unitary similarity.

    F_jk = integral(0,T) exp(i (lam_j - lam_k) t) dt factors exactly as
    F = P K P^H, P = diag(exp(i lam T/2)), with the real symmetric

        K_jk = 2 sin((lam_j - lam_k) T/2) / (lam_j - lam_k),   K_jk = T on ties,

    so Z o F = P (Z o K) P^H has the spectrum of Z o K, which this returns:
    real symmetric when Z is real (A = 0), Hermitian otherwise.  A quadratic
    form c^H (Z o F) c is (P^H c)^H (Z o K) (P^H c).  The closed form avoids
    aliasing of the fast spectral gaps that any fixed-step quadrature would
    undersample, and sin(x)/x has no cancellation at tiny gaps.  K is built in
    place beside the gap matrix D, and a real Z o K is written into K.
    """
    D = lam[:, None] - lam[None, :]
    K = np.multiply(D, 0.5 * T)
    np.sin(K, out=K)
    K *= 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        K /= D
    K[np.abs(D, out=D) < 1e-300] = T
    del D
    return Z * K if np.iscomplexobj(Z) else np.multiply(Z, K, out=K)


def _phase_gramian_cn(Z, theta, dt, nsteps, stride):
    """The Crank-Nicolson time sum of the modal phase couplings over nsteps
    steps of dt, sampled every ``stride`` steps, up to a diagonal unitary
    similarity.

    One Cayley step turns mode j by theta_j = 2 arctan(lam_j dt/2), so the
    stepped Gramian sum_t w_t (N S^t)^H W (N S^t) is, in the modes, Z o K with
    K_jk = sum_t w_t exp(i phi_jk t), phi = theta_j - theta_k, over the
    retained steps t with their trapezoid weights w_t.  With
    nsteps = L stride + r, the samples 0, stride, ..., L stride give the
    Dirichlet kernel exp(i phi L stride/2) times the real symmetric

        stride dt (sin((L+1) psi/2) / sin(psi/2) - cos(L psi/2)),   psi = stride phi,

    (stride dt L where psi = 0).  When r = 0 the phase is a diagonal unitary
    similarity and is dropped, so K is real; otherwise the samples L stride
    and nsteps each gain the weight r dt/2 of the last, shorter interval,
    which adds (r dt/2)(exp(i phi L stride) + exp(i phi nsteps)) to the
    phased kernel.  ``theta`` is (blocks, n): each row gives one block
    Z o K of a stack.
    """
    phi = theta[:, :, None] - theta[:, None, :]
    L, r = divmod(nsteps, stride)
    half = 0.5 * stride * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sin((L + 1) * half) / np.sin(half) - np.cos(L * half)
    K[half == 0] = L
    K *= stride * dt
    if r:
        K = K * np.exp(1j * L * half) + 0.5 * r * dt * (
            np.exp(2j * L * half) + np.exp(1j * nsteps * phi))
    return Z * K


def _extremes_from_modal(Ghat, lam, metric):
    """The least and largest eigenvalue of the modal Gramian Ghat, over all
    blocks of a stack (blocks, n, n).  Ghat is a temporary: it is overwritten."""
    if metric != "mass":
        d = 1.0 / np.sqrt(np.maximum(lam, 1e-300))
        Ghat *= d[None, :]
        Ghat *= d[:, None]
    ev = la.eigvalsh(Ghat, overwrite_a=True)
    return float(ev[..., 0].min()), float(ev[..., -1].max())


def _strip_split(gen, observation):
    """The block split of an interior-l2 Gramian on a strip, or None.

    It applies to closed-form modes (``gen.axis_sines``: V = diag(phase)
    (Q_1 (x) Q_2), lam = lam_1 (+) lam_2, ordered by mode pairs) when the
    observed state nodes are a product omega_1 x (the whole interior line of
    the other axis), for either axis as the partial one.  The rows of V on
    that set give the couplings Z = Z_1 (x) Q_2^T M_2 Q_2 = Z_1 (x) I with
    Z_1 = Q_1[omega_1]^T h_1 Q_1[omega_1], real: the phase of a row cancels
    against its conjugate.  So the Gramian is block diagonal, one
    block Z_1 o K(lam_1 + lam_2k) per mode k of the full axis.  Returns
    (lam_1, Z_1, lam_2), the blocks indexed by lam_2; in 1D there is nothing
    to split.  Never forms an order-k object.
    """
    grid = gen.grid
    if observation.kind != "interior-l2" or grid.dim < 2 or gen.axis_sines is None:
        return None
    pos = magop._positions(grid.num_nodes, gen.state_idx)
    keep = observation.nodes[pos[observation.nodes] >= 0]
    sets = [np.unique(i) for i in np.unravel_index(keep, grid.shape)]
    if np.unique(keep).size != keep.size or keep.size != np.prod([s.size for s in sets]):
        return None
    partial = [ax for ax, s in enumerate(sets) if s.size < grid.n[ax] - 2]
    if len(partial) > 1:
        return None
    p = partial[0] if partial else 0
    sines, _ = gen.axis_sines
    lam_p, Q_p = sines[p]
    Y = Q_p[sets[p] - 1]                       # interior node j sits on row j - 1
    lam_q = np.zeros(1)                        # the full axes' lam, summed
    for lam_ax, _ in sines[:p] + sines[p + 1:]:
        lam_q = np.add.outer(lam_q, lam_ax).ravel()
    return lam_p, (Y.T * grid.h[p]) @ Y, lam_q


def _c_obs(lo, hi):
    """1 / sqrt(lambda_min), infinite when lambda_min is rounding-level zero."""
    lo = max(lo, 0.0)
    return float("inf") if lo <= 1e-14 * max(hi, 1e-300) else float(1.0 / np.sqrt(lo))


def gramian(gen, observation, T, dt=None, stride=1, method="eig"):
    """Observability report for the conservative flow observed through N.

    Both methods read the generator's modes V (V^H M V = I) and frequencies
    lam, ``gen.modes``, and the modal couplings Z = (N V)^H W (N V), and differ
    only in the time kernel K of the modal Gramian Z o K.  ``method="eig"``
    integrates the modal phases exactly in time (``_phase_gramian_exact``), so
    ``dt`` and ``stride`` are unused and the quadrature error estimate is 0.
    ``"cn"`` sums them over the Crank-Nicolson steps S^t with trapezoid
    weights, every ``stride`` steps (``_phase_gramian_cn``), which is the
    Gramian of the sampled N S^t in closed form; the same kernel at the
    double stride gives a Richardson estimate of the time-quadrature error,
    and above 5% a warning is attached.  Both samplings are of the same
    Cayley flow, so the estimate cannot see the Crank-Nicolson phase error.

    On a strip of separable modes (``_strip_split``: interior-l2, the
    observed state nodes a product set whose every axis but one is a whole
    interior line) the modal Gramian is block diagonal and neither the order-k
    modes nor an order-k eigensolve is formed: ``eig`` solves one block of the
    partial axis's order and ``cn`` one batched stack of them, one per mode of
    the full axis.  lambda_min and lambda_max are the extremes over the blocks.

    The report's ``rank_bound`` is min(k, r s) for the rank r of the
    observation rows N and s time samples (k for the exact modal integral).
    When it is below k a warning is attached and lambda_min is reported as
    exactly 0.0, since the stepped Gramian has rank at most r s < k.

    Both methods have dense order k, that of the modes, and raise
    ``magop.DenseLimitError`` before they allocate when k exceeds
    ``magop._DENSE_LIMIT``; a strip is refused at that order too.
    """
    if T <= 0:
        raise ValueError("the observation horizon T must be positive")
    if gen.kind != "A0":
        raise ValueError("gramian assembly requires the conservative generator (A0)")
    if method not in ("eig", "cn"):
        raise ValueError(f"unknown method {method!r}")
    if dt is None and method == "cn":
        raise ValueError("quadrature-based assembly needs a time step dt")
    N, W = observation.build(gen)
    m, k = N.shape
    metric = observation.metric
    warns = []
    if method == "cn":
        nsteps = step_count(T, dt)
    # refused at the order k of the modes, on a strip too
    magop._check_order(k, "the modal eigendecomposition")
    strip = _strip_split(gen, observation)
    if strip is None:
        lam, V = gen.modes
        Z, lam_q = _modal_couplings(N, W, V), np.zeros(1)
    else:
        lam, Z, lam_q = strip

    if method == "eig":
        # the kernel reads only the gaps lam_j - lam_l, the same in every block
        lo, hi = _extremes_from_modal(_phase_gramian_exact(Z, lam, T), lam, metric)
        lo2, hi2 = lo, hi
        rank_bound = k
    else:
        # the Cayley angle of lam_1 + lam_2 is no sum of angles: one block each
        theta = 2.0 * np.arctan(0.5 * dt * np.add.outer(lam_q, lam))
        (lo, hi), (lo2, hi2) = (
            _extremes_from_modal(_phase_gramian_cn(Z, theta, dt, nsteps, s), lam, metric)
            for s in (stride, 2 * stride))
        # a sum of s sampled terms of rank <= rank N each: rank <= r s, whatever
        # the geometry; N^H N has N's rank at dense order k, and a strip's rows
        # select m distinct nodes
        r = m if strip else int(np.linalg.matrix_rank(
            N.toarray() if m <= k else (N.getH() @ N).toarray(), hermitian=m > k))
        samples = retained_steps(nsteps, stride).size
        rank_bound = min(k, r * samples)
        if r * retained_steps(nsteps, 2 * stride).size < k:
            lo2 = 0.0
    if rank_bound < k:
        lo = 0.0
        warns.append(
            f"Gramian rank <= rank {r} of the {m} observation rows x {samples} time "
            f"samples = {r * samples} < {k} unknowns: lambda_min = 0 (C_obs = inf) "
            "by sampling alone")

    c_obs = _c_obs(lo, hi)
    c_hid = np.sqrt(max(hi, 0.0))
    quad_err = abs(hi2 - hi) / max(abs(hi), 1e-300)
    if np.isfinite(c_obs):
        # a double-stride lambda_min at or below 0 is an infinite C_obs there: 100%
        quad_err = max(quad_err, abs(np.sqrt(max(lo2, 0.0) / lo) - 1.0))
    if quad_err > 0.05:
        msg = f"stride {stride} too coarse: quadrature error estimate {quad_err:.2%}"
        warns.append(msg)
        warnings.warn(msg, stacklevel=2)

    return ObservabilityReport(
        observation=f"{observation.kind}[{observation.nodes.size} nodes]",
        T=float(T), lambda_min=lo, lambda_max=hi, c_obs=float(c_obs),
        c_hid=float(c_hid), quadrature_error_estimate=float(quad_err),
        stride=int(stride), method=method, warnings=warns,
        rank_bound=int(rank_bound),
    )


def observed_ratio(gen, u0, observation, T):
    """integral(0,T) ||N u(t)||_W^2 dt for one initial state, exact in time."""
    if T <= 0:
        raise ValueError("the observation horizon T must be positive")
    N, W = observation.build(gen)
    lam, V = gen.modes
    c = V.conj().T @ (gen.mass_diag * np.asarray(u0, dtype=complex))
    c *= np.exp(-0.5j * lam * T)        # P^H c: the phase form is Z o K, not Z o F
    Ghat = _phase_gramian_exact(_modal_couplings(N, W, V), lam, T)
    return float(np.vdot(c, Ghat @ c).real)


# ---------------------------------------------------------------------------
# product-space observability


@dataclass(eq=False)
class ProductObservabilityReport:
    tensor_residual: float          # factored-step evolution vs tensor of factors
    kron_action_residual: float     # Kronecker-sum generator on product states
    c_1d: float
    c_2d: float
    ratio: float
    satisfied: bool
    tol: float
    T: float
    dt: float

    def to_json(self):
        return json.dumps({
            "tensor_residual": self.tensor_residual,
            "kron_action_residual": self.kron_action_residual,
            "C_1D": self.c_1d,
            "C_2D": self.c_2d,
            "ratio": self.ratio,
            "satisfied": self.satisfied,
            "tol": self.tol,
            "T": self.T,
            "dt": self.dt,
        }, sort_keys=True)


def product_observability(gen1, gen2, omega1, T, dt, tol=0.05, nsteps_check=25,
                          seed=3):
    """Tensor-evolution identity and the product-space observability bound.

    The factor flows must be conservative.  The observed set in the product
    is omega1 x Omega2; the direct product-space constant is computed on the
    Kronecker-sum generator with its own time discretization and compared
    against the one-factor constant.  The product-space Gramian has dense
    order n1 n2, refused above ``magop._DENSE_LIMIT`` before anything is
    allocated.
    """
    for g in (gen1, gen2):
        if g.kind != "A0":
            raise ValueError("product observability requires conservative factors")
    n1, n2 = gen1.size, gen2.size
    magop._check_order(n1 * n2, "the product-space Gramian")
    rng = np.random.default_rng(seed)
    u1 = rng.normal(size=n1) + 1j * rng.normal(size=n1)
    u2 = rng.normal(size=n2) + 1j * rng.normal(size=n2)

    A1 = gen1.matrix.tocsr()
    A2 = gen2.matrix.tocsr()
    A_kron = (sp.kron(A1, sp.identity(n2, format="csr"))
              + sp.kron(sp.identity(n1, format="csr"), A2)).tocsr()
    w0 = np.kron(u1, u2)
    act = A_kron @ w0 - (np.kron(A1 @ u1, u2) + np.kron(u1, A2 @ u2))
    kron_res = float(np.linalg.norm(act) / np.linalg.norm(A_kron @ w0))

    # factor-wise Cayley steps: exact tensor factorization at every step
    eye1, eye2 = np.eye(n1, dtype=complex), np.eye(n2, dtype=complex)
    C1 = gen1.cayley_solver(dt)(eye1) - eye1
    C2 = gen2.cayley_solver(dt)(eye2) - eye2
    Wmat = np.outer(u1, u2)
    v1, v2 = u1.copy(), u2.copy()
    worst = 0.0
    for _ in range(nsteps_check):
        Wmat = C1 @ Wmat @ C2.T
        v1 = C1 @ v1
        v2 = C2 @ v2
        diff = np.linalg.norm(Wmat - np.outer(v1, v2))
        worst = max(worst, diff / np.linalg.norm(Wmat))

    # one-factor constant: the exact modal Gramian on the factor's own modes
    lam1, V1 = gen1.modes
    N1, W1 = Observation("interior-l2", omega1).build(gen1)
    Z1 = _modal_couplings(N1, W1, V1)
    c1d = _c_obs(*_extremes_from_modal(_phase_gramian_exact(Z1, lam1, T), lam1, "mass"))

    # direct product-space constant: modal Gramian of the Kronecker-sum flow on
    # the modes V1 (x) V2, observed on omega1 x Omega2, whose couplings are
    # Z1 (x) V2^H M2 V2 by the mixed-product rule
    lam2, V2 = gen2.modes
    lam12, j, k = magop._kron_sum(lam1, lam2)
    Z2 = (V2.conj().T * gen2.mass_diag) @ V2
    Z = Z1[np.ix_(j, j)] * Z2[np.ix_(k, k)]
    c2d = _c_obs(*_extremes_from_modal(_phase_gramian_exact(Z, lam12, T), lam12, "mass"))

    ratio = c2d / c1d if np.isfinite(c1d) else float("nan")
    return ProductObservabilityReport(
        tensor_residual=worst, kron_action_residual=kron_res,
        c_1d=c1d, c_2d=c2d, ratio=float(ratio),
        satisfied=bool(c2d <= c1d * (1.0 + tol)),
        tol=tol, T=float(T), dt=float(dt),
    )
