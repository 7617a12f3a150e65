"""Construction and certification of Carleman / pseudo-convex weight functions.

A weight is a base function psi with gradient and Hessian fields plus a
composition phi = exp(lambda * psi), possibly on a cylinder (s, x) with an
added axis carrying -beta s^2.  The cylinder is a ``mesh.Grid`` with the
s-axis first that also knows its spatial grid.  Certification has three
layers:

* pseudo-convexity: the node-wise smallest eigenvalue of
  grad psi grad psi^T + Hess psi, positive away from the control region,
  together with the sign conditions psi > 0, grad psi != 0, d_nu psi <= 0;
* sub-ellipticity: positivity of the Poisson bracket of the conjugated
  symbol p_phi = |eta|^2 - tau^2 |grad phi|^2 + 2 i tau eta . grad phi on
  its characteristic set {|eta| = tau |grad phi|, eta perp grad phi}:

      {Im p_phi, Re p_phi} = 4 tau^3 (Hess phi grad phi . grad phi)
                             + 4 tau (Hess phi eta . eta),

  sampled over random characteristic directions per node and parameter
  (the sign convention is fixed by phi = exp(lambda psi) with grad psi != 0
  being admissible for large lambda, where the bracket grows like
  4 tau^3 lambda^4 phi^3 |grad psi|^4).  The directions are drawn at every
  node but evaluated only where the node's exact floor,
  4 tau^3 (H_phi g_phi . g_phi + |g_phi|^2 lambda_min(H_phi on g_phi-perp)),
  can reach the sampled minimum;
* an empirical probe of the weighted a-priori inequalities on compactly
  supported test functions, restricted to the discrete validity window
  tau * h <= 1/2 beyond which exponential weights alias on the grid.  P and
  grad act through their factors (d_ss and d_s along s, the spatial Delta_a
  and gradients) on the slices a test function's stencils reach.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mesh import Grid, build_grid, _d1_matrix, _d2_matrix


# ---------------------------------------------------------------------------
# cylinder domain: a grid with an auxiliary axis s in (-s_half, s_half) first


@dataclass(frozen=True, eq=False)
class CylinderGrid(Grid):
    """The grid (s, x) over a spatial grid: axis 0 is s, the others are the
    spatial grid's.  Node fields are flat (n[0] * N,) arrays in s-major order;
    everything but ``spatial`` is the tensor grid's own."""

    spatial: Grid


def make_cylinder(spatial, s_half=2.0, ns=None):
    """The cylinder (-s_half, s_half) x spatial with ns nodes along s (by
    default the spatial grid's largest node count)."""
    if ns is None:
        ns = max(spatial.n)
    grid = build_grid(spatial.dim + 1, (2.0 * s_half, *spatial.extents),
                      (int(ns), *spatial.n), origin=(-s_half, *spatial.origin))
    return CylinderGrid(spatial=spatial, **vars(grid))


def _factor_operators(dom, a):
    """P and grad by factors: the spatial Delta_a and gradients, and on a
    cylinder d_ss and d_s along s (None on a grid)."""
    if not isinstance(dom, CylinderGrid):
        return a.laplacian, dom.gradients, None
    ns, hs = dom.n[0], dom.h[0]
    return a.laplacian, dom.spatial.gradients, (_d2_matrix(ns, hs), _d1_matrix(ns, hs))


def _fields_on_band(f, lap, grads, s_ops):
    """The s-slices lo:hi off which f, P f and grad f vanish, and f, P f and
    the gradient fields on them as (hi - lo, N) blocks.  The spatial factors
    act slice by slice; d_ss and d_s act along s on the spatial nodes where
    f is nonzero, which are the only ones they reach."""
    F = f.reshape(-1, lap.shape[0])
    lo, hi = 0, F.shape[0]
    if s_ops is not None:
        cols = np.flatnonzero(F.any(axis=0))
        ss, s1 = (op @ F[:, cols] for op in s_ops)
        hit = np.flatnonzero(F.any(axis=1) | ss.any(axis=1) | s1.any(axis=1))
        lo, hi = hit[0], hit[-1] + 1
    BT = np.ascontiguousarray(F[lo:hi].T)     # the layout sparse products take
    Pf = (lap @ BT).T
    gf = [(g @ BT).T for g in grads]
    if s_ops is not None:
        Pf[:, cols] += ss[lo:hi]
        gf.insert(0, np.zeros_like(Pf))
        gf[0][:, cols] = s1[lo:hi]
    return lo, BT.T, Pf, gf


# ---------------------------------------------------------------------------
# weight functions


@dataclass(eq=False)
class WeightFunction:
    """Base function psi with derivative fields and composition parameters.

    ``domain`` is a Grid or CylinderGrid; psi/grad/hess are flat node fields
    on either (s-major on a cylinder), differentiated by the domain's sparse
    ``gradients``.  ``analytic_mask`` marks nodes whose
    derivatives are exact; elsewhere they came from finite differences and
    certification near those nodes is sensitive to stencil noise.
    """

    domain: object
    psi: np.ndarray
    grad: np.ndarray                  # (N, D)
    hess: np.ndarray                  # (N, D, D)
    lam: float = 1.0
    analytic_mask: np.ndarray = None

    def __post_init__(self):
        if self.analytic_mask is None:
            self.analytic_mask = np.ones(self.psi.shape[0], dtype=bool)
        with np.errstate(over="ignore"):
            phi = self.phi()
        if not np.all(np.isfinite(phi) & (phi > 0)):
            raise ValueError(
                f"exp(lambda psi) over- or underflows at lambda = {self.lam:g} "
                f"(psi from {np.min(self.psi):.3g} to {np.max(self.psi):.3g})")

    @property
    def num_nodes(self):
        return self.psi.shape[0]

    @property
    def total_dim(self):
        return self.grad.shape[1]

    def phi(self):
        return np.exp(self.lam * self.psi)

    def phi_grad(self):
        return self.lam * self.phi()[:, None] * self.grad

    def phi_hess(self):
        ph = self.phi()
        outer = np.einsum("nj,nk->njk", self.grad, self.grad)
        return self.lam * ph[:, None, None] * (self.lam * outer + self.hess)

    def with_lambda(self, lam):
        return replace(self, lam=float(lam))

    def derivative_consistency(self):
        """Max mismatch between the stored gradient and finite differences of
        the stored values (second order for smooth analytic fields)."""
        fd = np.column_stack([g @ self.psi for g in self.domain.gradients])
        return float(np.max(np.abs(fd - self.grad)))


def quadratic_weight(grid, x0, shift=0.0):
    """psi = shift + 1 + |x - x0|^2 with exact derivative fields."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    diff = grid.coords - x0[None, :]
    psi = shift + 1.0 + np.sum(diff**2, axis=1)
    grad = 2.0 * diff
    hess = np.broadcast_to(2.0 * np.eye(grid.dim),
                           (grid.num_nodes, grid.dim, grid.dim)).copy()
    return WeightFunction(domain=grid, psi=psi, grad=grad, hess=hess)


def linear_weight(grid, direction, offset=2.0):
    """psi = offset + e . x; the classic weight with constant gradient."""
    e = np.atleast_1d(np.asarray(direction, dtype=float))
    psi = offset + grid.coords @ e
    if np.any(psi <= 0):
        raise ValueError("offset too small: psi must stay positive")
    grad = np.broadcast_to(e, (grid.num_nodes, grid.dim)).copy()
    hess = np.zeros((grid.num_nodes, grid.dim, grid.dim))
    return WeightFunction(domain=grid, psi=psi, grad=grad, hess=hess)


def cylinder_extend(weight, cylinder, beta):
    """Extend a spatial weight to psi~(s, x) = -beta s^2 + psi(x)."""
    grid = weight.domain
    if grid is not cylinder.spatial:
        raise ValueError("weight must live on the cylinder's spatial grid")
    ns, N = cylinder.n[0], grid.num_nodes
    D = cylinder.dim
    s = cylinder.coords[::N, 0]
    psi = (-beta * s[:, None] ** 2 + weight.psi[None, :]).ravel()
    grad = np.zeros((ns * N, D))
    grad[:, 0] = np.repeat(-2.0 * beta * s, N)
    grad[:, 1:] = np.tile(weight.grad, (ns, 1))
    hess = np.zeros((ns * N, D, D))
    hess[:, 0, 0] = -2.0 * beta
    hess[:, 1:, 1:] = np.tile(weight.hess, (ns, 1, 1))
    mask = np.tile(weight.analytic_mask, ns)
    return WeightFunction(domain=cylinder, psi=psi, grad=grad, hess=hess,
                          lam=weight.lam, analytic_mask=mask)


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def construct_psi_G(grid, omega, x0):
    """Cutoff-composed weight psi = 1 + chi |x - x0|^2, shifted so that
    min psi > (2/3) max psi.

    ``omega`` is a boundary-collar node set; the quintic cutoff chi equals 1
    on the complement of the collar and 0 at the boundary nodes inside it.
    The pushed-in point x0 must lie outside the closed domain.
    """
    from scipy.spatial import cKDTree

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.extents)
    if np.all((x0 >= lo - 1e-12) & (x0 <= hi + 1e-12)):
        raise ValueError("x0 must lie outside the closed domain for this construction")
    omega = np.asarray(omega, dtype=int)
    coords = grid.coords
    N = grid.num_nodes

    chi = np.ones(N)
    transition = np.zeros(N, dtype=bool)
    if omega.size:
        in_omega = np.zeros(N, dtype=bool)
        in_omega[omega] = True
        outer = np.intersect1d(omega, grid.boundary_idx)
        inner = np.nonzero(~in_omega)[0]
        if outer.size and inner.size:
            t_in = cKDTree(coords[inner])
            t_out = cKDTree(coords[outer])
            d_in, _ = t_in.query(coords[omega])
            d_out, _ = t_out.query(coords[omega])
            frac = d_out / np.maximum(d_out + d_in, 1e-300)
            chi[omega] = _smoothstep(frac)
            transition[omega] = (chi[omega] > 0) & (chi[omega] < 1)

    diff = coords - x0[None, :]
    r2 = np.sum(diff**2, axis=1)
    psi = 1.0 + chi * r2

    # exact derivatives where chi is locked at 0 or 1, finite differences in
    # the ramp
    grad = np.zeros((N, grid.dim))
    hess = np.zeros((N, grid.dim, grid.dim))
    ones = chi >= 1.0
    grad[ones] = 2.0 * diff[ones]
    hess[ones] = 2.0 * np.eye(grid.dim)
    if np.any(transition):
        grads = grid.gradients
        g_fd = np.column_stack([grads[ax] @ psi for ax in range(grid.dim)])
        grad[transition] = g_fd[transition]
        for ax in range(grid.dim):
            row = np.column_stack([grads[bx] @ g_fd[:, ax] for bx in range(grid.dim)])
            hess[transition, ax, :] = row[transition]

    shift = max(0.0, 2.0 * float(np.max(psi)) - 3.0 * float(np.min(psi)))
    if shift > 0:
        shift += 1.0          # strict inequality min > (2/3) max
    psi = psi + shift
    mask = ~transition
    return WeightFunction(domain=grid, psi=psi, grad=grad, hess=hess,
                          analytic_mask=mask)


# ---------------------------------------------------------------------------
# certification


@dataclass(eq=False)
class PseudoconvexityReport:
    margin: float                   # min over region of lambda_min(gg^T + H)
    certified: bool
    min_grad: float
    transition_nodes: int           # region nodes with finite-difference fields
    failures: list


def check_pseudoconvexity(weight, region):
    """Node-wise eigenvalue margin of grad psi grad psi^T + Hess psi.

    Certifies the pointwise convexity condition iff the margin is positive
    and the sign conditions (psi > 0, grad psi != 0 on the region,
    d_nu psi <= 0 on the boundary) hold.
    """
    region = np.asarray(region, dtype=int)
    if region.size == 0:
        raise ValueError("empty certification region")
    g = weight.grad[region]
    H = weight.hess[region]
    mats = np.einsum("nj,nk->njk", g, g) + H
    eigs = np.linalg.eigvalsh(mats)
    margin = float(np.min(eigs[:, 0]))
    min_grad = float(np.min(np.linalg.norm(g, axis=1)))
    min_psi = float(np.min(weight.psi[region]))

    max_dnu = -np.inf
    failures = []
    domain = weight.domain
    if not isinstance(domain, CylinderGrid):
        b = domain.boundary_idx
        dnu = np.einsum("nj,nj->n", weight.grad[b], domain.normals[b])
        max_dnu = float(np.max(dnu))
        bad = b[dnu > 1e-12]
        failures += [{"condition": "normal_derivative", "node": int(n)} for n in bad[:16]]
    transition = int(np.sum(~weight.analytic_mask[region]))
    if transition:
        failures.append({"condition": "finite-difference fields in region",
                         "count": transition})
    certified = (margin > 0 and min_grad > 0 and min_psi > 0
                 and (max_dnu <= 1e-12 or max_dnu == -np.inf))
    return PseudoconvexityReport(
        margin=margin, certified=bool(certified), min_grad=min_grad,
        transition_nodes=transition, failures=failures,
    )


@dataclass(eq=False)
class SubellipticityReport:
    min_bracket: float              # raw Poisson bracket minimum
    margin: float                   # bracket normalized by 4 tau^3 (lam phi)^3
    certified: bool
    witness: dict | None            # most negative sample, when any
    excluded_nodes: np.ndarray      # |grad phi| below threshold
    per_tau_min: dict               # tau -> minimum over its draws (a tau may repeat)


def check_subellipticity(weight, region, tau_grid, samples_per_node=64, seed=0):
    """Sampled Poisson-bracket positivity of the conjugated symbol.

    At each region node and parameter tau the characteristic directions
    eta perp grad phi with |eta| = tau |grad phi| are sampled uniformly and
    the bracket 4 tau^3 (H_phi g_phi . g_phi) + 4 tau (H_phi eta . eta) is
    evaluated from the analytic chain-rule fields of phi = exp(lambda psi).
    As eta = tau |g_phi| e, a sample with unit direction e needs only
    q = H_phi e . e: the bracket is 4 tau^3 (H_phi g_phi . g_phi + |g_phi|^2 q).
    Each tau draws its own normal block from one generator seeded by ``seed``.

    The directions are drawn at every node, but evaluated only where the
    minimum can be.  No sample at a node lies below the node's exact floor
    H_phi g_phi . g_phi + |g_phi|^2 lambda_min(H_phi on g_phi-perp), less a
    slack of 1e-12 times the size of its terms for rounding.  Per tau, the
    samples at the node of lowest floor bound the minimum from above, and
    only the nodes whose floor reaches that bound are evaluated; likewise
    for the margin, with floors divided by (lambda phi)^3.  Every reported
    number is the one the evaluation at all nodes gives.
    """
    region = np.asarray(region, dtype=int)
    if np.size(tau_grid) == 0:
        raise ValueError("tau_grid is empty: no bracket would be evaluated")
    if weight.total_dim < 2:
        raise ValueError("characteristic set is empty in total dimension 1; "
                         "extend the weight to the cylinder first")
    rng = np.random.default_rng(seed)
    gphi = weight.phi_grad()[region]
    hphi = weight.phi_hess()[region]
    gnorm = np.linalg.norm(gphi, axis=1)
    ok = gnorm > 1e-10
    excluded = region[~ok]
    gphi, hphi, gnorm = gphi[ok], hphi[ok], gnorm[ok]
    nodes = region[ok]
    if nodes.size == 0:
        raise ValueError("grad phi vanishes on the whole region")

    cubic = np.einsum("njk,nj,nk->n", hphi, gphi, gphi)
    phi_scale = (weight.lam * weight.phi()[region][ok]) ** 3
    ghat = (gphi / gnorm[:, None])[:, :, None]
    g2 = gnorm**2
    floor = cubic + g2 * _perp_lowest_eigenvalue(hphi, ghat[:, :, 0])
    # no computed sample lies below reach (the Frobenius norm bounds |H e . e|)
    reach = floor - 1e-12 * (np.abs(cubic) + g2 * np.sqrt(np.einsum("njk,njk->n", hphi, hphi)))
    reach_scaled = np.where(phi_scale > 0, reach / phi_scale, -np.inf)
    pivots = np.array([np.argmin(floor), np.argmin(floor / phi_scale)])

    def sampled(at, z):
        """Per node of ``at``: the lowest bracket / 4 tau^3, q and the directions."""
        z = z[at]
        z -= (z @ ghat[at]) * ghat[at].transpose(0, 2, 1)
        zz = np.einsum("nsj,nsj->ns", z, z)
        zz[zz == 0] = 1.0
        # bracket / 4 tau^3, with q = H e . e for the unit direction e = z / |z|
        q = np.einsum("nsj,nsj->ns", z @ hphi[at], z) / zz
        return np.min(cubic[at, None] + g2[at, None] * q, axis=1), q, z, zz

    best = np.inf
    best_margin = np.inf
    witness = None
    per_tau = {}
    # one block per tau; standard_normal draws the stream of normal(0, 1)
    z = np.empty((nodes.size, samples_per_node, weight.total_dim))
    for tau in np.atleast_1d(tau_grid):
        tau = float(tau)
        rng.standard_normal(out=z)
        bound = sampled(pivots, z)[0]
        at = np.flatnonzero((reach <= bound[0])
                            | (reach_scaled <= bound[1] / phi_scale[pivots[1]]))
        low, q, za, zz = sampled(at, z)
        best_margin = min(best_margin, float(np.min(low / phi_scale[at])))
        ni = int(np.argmin(low))
        tau_min = 4.0 * tau**3 * float(low[ni])
        per_tau[tau] = min(tau_min, per_tau.get(tau, np.inf))
        if tau_min < best:
            best = tau_min
            si = int(np.argmin(q[ni]))
            eta = za[ni, si] / np.sqrt(zz[ni, si]) * (tau * gnorm[at[ni]])
            witness = {"node": int(nodes[at[ni]]), "tau": tau,
                       "eta": [float(v) for v in eta], "bracket": tau_min}
    certified = best > 0
    return SubellipticityReport(
        min_bracket=float(best), margin=float(best_margin),
        certified=bool(certified), witness=None if certified else witness,
        excluded_nodes=excluded, per_tau_min=per_tau,
    )


def _perp_lowest_eigenvalue(H, u):
    """lambda_min of H on the plane perpendicular to the unit vector u, per
    node.  The columns 1.. of the Householder reflector P = I - c v v^T
    taking u to -+e_0 span that plane, so H there is the trailing block of
    P H P = H - v w^T - w v^T (p = c H v, w = p - (c/2)(v . p) v); a 1x1 or
    2x2 block is solved in closed form."""
    v = u.copy()
    v[:, 0] += np.where(u[:, 0] < 0, -1.0, 1.0)
    c = 2.0 / np.einsum("nj,nj->n", v, v)
    p = c[:, None] * np.einsum("njk,nk->nj", H, v)
    w = (p - (0.5 * c * np.einsum("nj,nj->n", v, p))[:, None] * v)[:, 1:]
    v = v[:, 1:]
    M = H[:, 1:, 1:] - v[:, :, None] * w[:, None, :] - w[:, :, None] * v[:, None, :]
    if M.shape[1] == 1:
        return M[:, 0, 0]
    if M.shape[1] == 2:
        a, b, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 1]
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)
    return np.linalg.eigvalsh(M)[:, 0]


# ---------------------------------------------------------------------------
# empirical probe of the weighted estimates


@dataclass(eq=False)
class CarlemanProbeReport:
    taus: np.ndarray
    ratios: np.ndarray              # max over samples per tau
    trend_slope: float
    trend_stderr: float
    samples_used: int

    @property
    def bounded(self):
        """No growth trend beyond regression noise."""
        return self.trend_slope <= 2.0 * self.trend_stderr

    def export_csv(self, path):
        with open(path, "w") as fh:
            fh.write("tau,ratio\n")
            for t, r in zip(self.taus, self.ratios):
                fh.write(f"{t:.17g},{r:.17g}\n")


def _tau_window_check(taus, min_h):
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    tau_max = 0.5 / min_h
    if np.any(taus > tau_max + 1e-12):
        raise ValueError(
            f"tau beyond the discrete validity window tau <= 0.5/h = {tau_max:.3g}"
        )
    return taus


def carleman_probe(weight, potential, test_functions, tau_grid):
    """Ratio trace C(tau) of the conjugated a-priori estimate.

    C(tau) = max over samples f of
        (tau^3 ||e^{tau phi} f||^2 + tau ||e^{tau phi} grad f||^2)
        / ||e^{tau phi} P f||^2.

    The domain is ``weight.domain``, a Grid (P = Delta_a) or a CylinderGrid
    (P = d_ss + Delta_a); samples are flat node fields on it.  P and grad
    apply by factors: the spatial Delta_a and gradients slice by slice, with
    Delta_a the cached ``laplacian`` of the potential sampled on the spatial
    grid, and on a cylinder d_ss and d_s along s.  Test functions must
    vanish on the domain's boundary nodes (compact support); zero samples are
    excluded from the max.  tau is restricted to the aliasing window
    tau h <= 1/2.  The exponential weight is renormalized by its maximum over
    each sample's support, which leaves every ratio exactly invariant and
    keeps the arithmetic in range.  All tau are evaluated at once, as the
    squared weights (one row per tau) times three densities.
    """
    dom = weight.domain
    wq = dom.volume_weights
    taus = _tau_window_check(tau_grid, float(min(dom.h)))
    phi = weight.phi()
    lap, grads, s_ops = _factor_operators(dom, potential)
    N = lap.shape[0]

    ratios = np.full(taus.size, -np.inf)
    used = 0
    for f in test_functions:
        f = np.asarray(f, dtype=complex)
        fmax = np.max(np.abs(f))
        if np.max(np.abs(f[dom.boundary_idx])) > 1e-12 * max(fmax, 1e-300):
            raise ValueError("test functions must be compactly supported "
                             "(zero near the domain boundary)")
        if fmax == 0:
            continue
        used += 1
        # the stencils are local: P f and grad f are formed on the s-slices
        # they can be nonzero on, and the weighted norms on the nodes where f,
        # P f or grad f is nonzero (the weight is renormalized by its maximum
        # there, which cancels in the ratio)
        lo, B, Pf, gf = _fields_on_band(f, lap, grads, s_ops)
        near = (B != 0) | (Pf != 0)
        for d in gf:
            near |= d != 0
        support = lo * N + np.flatnonzero(near)
        Pf, gf = Pf[near], [d[near] for d in gf]
        phi_s = phi[support]
        phimax = float(np.max(phi_s))
        spread = phimax - float(np.min(phi_s))
        if float(np.max(taus)) * spread > 700.0:
            raise ValueError(
                "exp(tau * phi) spans more than double precision on a test "
                "support; reduce lambda or the tau window")
        w2 = np.exp(2.0 * np.outer(taus, phi_s - phimax))
        wq_s = wq[support]
        dens = np.stack([wq_s * np.abs(f[support]) ** 2,
                         wq_s * sum(np.abs(d) ** 2 for d in gf),
                         wq_s * np.abs(Pf) ** 2], axis=1)
        nf, ngf, npf = (w2 @ dens).T
        hit = npf != 0
        ratios[hit] = np.maximum(
            ratios[hit], (taus[hit]**3 * nf[hit] + taus[hit] * ngf[hit]) / npf[hit])
    if used == 0:
        raise ValueError("all test functions were identically zero")
    slope, stderr = _trend(taus, ratios)
    return CarlemanProbeReport(taus=taus, ratios=ratios, trend_slope=slope,
                               trend_stderr=stderr, samples_used=used)


def _trend(x, y):
    good = np.isfinite(y)
    x, y = np.asarray(x, dtype=float)[good], np.asarray(y, dtype=float)[good]
    if x.size < 2:
        return 0.0, float("inf")
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(x.size - 2, 1)
    xx = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / xx)) if xx > 0 else float("inf")
    return float(coef[0]), stderr


# ---------------------------------------------------------------------------
# test-function generators


def bump_functions(dom, count, seed):
    """Smooth compactly supported random bumps (products of quintic ramps)
    as flat node fields on a Grid or CylinderGrid.  Each profile is evaluated
    on its bump's bounding box only, the nodes whose every axis term of r^2
    is below 1; it vanishes elsewhere."""
    rng = np.random.default_rng(seed)
    out = []
    pts = dom.coords
    D = pts.shape[1]
    # the nodes are the C-order product of each axis's coordinates
    axes = pts.reshape(*dom.shape, D)
    axes = [axes[(0,) * ax + (slice(None),) + (0,) * (D - 1 - ax) + (ax,)] for ax in range(D)]
    los = np.asarray(dom.origin)
    his = los + np.asarray(dom.extents)
    for _ in range(count):
        center = los + (0.3 + 0.4 * rng.random(D)) * (his - los)
        radius = (0.1 + 0.15 * rng.random(D)) * (his - los)
        box = np.ix_(*(np.flatnonzero(((x - c) / r) ** 2 < 1.0)
                       for x, c, r in zip(axes, center, radius)))
        box = np.ravel_multi_index(box, dom.shape).ravel()
        r2 = np.sum(((pts[box] - center) / radius) ** 2, axis=1)
        inside = r2 < 1.0               # the support; the profile is 0 elsewhere
        support = box[inside]
        phase = np.exp(1j * (pts[support] @ rng.normal(size=D)))
        f = np.zeros(pts.shape[0], dtype=complex)
        f[support] = _smoothstep(1.0 - r2[inside]) * phase * (0.5 + rng.random())
        out.append(f)
    return out
