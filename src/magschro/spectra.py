"""Resolvent solves and norm scans along the imaginary axis.

The resolvent norm at i mu in the generator's inner product L is

    || (A - i mu)^-1 ||_L = 1 / sigma_min,
    sigma_min^2 = min_u (u^H K^H L K u) / (u^H L u),  K = A - i mu.

With L = R^H R, 1 / sigma_min^2 is the largest eigenvalue of the Hermitian
R K^-1 L^-1 K^-H R^H, which Lanczos with full reorthogonalization reads
directly, one sparse factor of K serving every product.  The factors come
from ``GeneratorMatrix.shift_solvers``: a scan keeps one band or one column
order per generator and factors each mu without re-reading the band or
re-running the minimum-degree ordering.
R is the generator's ``metric_root``: sqrt(mass) for the mass metric, one
row per edge for the magnetic stiffness of A2.
Scans fit C exp(K sqrt(mu)) and C exp(K mu^p) against the peak envelope,
since on any fixed grid the point values oscillate between spectral peaks.

The observability-resolvent (Hautus) sweep finds, per frequency, the
minimal aleph1 making

    ||u||^2 <= aleph0 ||(A0 - i mu) u||^2 + aleph1 ||u||^2_omega

hold for every state, at each given aleph0.  The pencil is reduced once per
mu, to aleph0 G + aleph1 diag(1_omega) with G = D K^H M K D and D = M^-1/2,
which is real when A0 is (a = 0).  The estimate holds iff that matrix minus I
is positive semidefinite, so the threshold is closed-form: a Cholesky of the
block off omega decides feasibility, and the lowest eigenvalue lambda of the
Schur complement on omega gives the threshold max(0, -lambda) (Haynsworth
inertia).

numpy and SciPy's sparse and linalg modules load at import; anything else
loads where it is called (scipy.optimize only in a growth-detected fit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import magop


@dataclass(frozen=True, eq=False)
class ResolventSolution:
    u: np.ndarray
    residual: float                 # ||(A - i mu) u - g|| / ||g||
    identity_residuals: dict        # real/imaginary part balances, relative
    condition_estimate: float | None = None   # attached on near-singular solves


def _identity_residuals(gen, mu, u, g):
    """Real/imaginary balances of the weighted resolvent equation.

    With gt = -i g the equation reads Delta_a u (+ i c u) - mu u = gt and
    pairing with u gives, per kind, exact algebraic identities between the
    gradient energy, mu ||u||^2, the damping terms, and (gt | u).
    """
    gt = -1j * g
    mass = gen.mass_diag
    pair = np.vdot(u, mass * gt)                # (gt | u)_M
    grad2 = np.vdot(u, gen.stiffness @ u).real  # ||grad_a u||^2
    mu_u2 = mu * np.vdot(u, mass * u).real
    scale = abs(grad2) + abs(mu_u2) + abs(pair) + 1e-300
    if gen.kind == "A2":
        tr = u[gen.gamma0_pos]
        gt_tr = gt[gen.gamma0_pos]
        dterm = mu * float(np.sum(gen.sigma_d * np.abs(tr) ** 2))
        bpair = np.vdot(tr, gen.sigma_d * gt_tr)   # (d gt | u) on gamma0
        return {"real": abs(-grad2 - mu_u2 - (pair.real - bpair.imag)) / scale,
                "imag": abs(-dterm - (pair.imag + bpair.real)) / scale}
    # A0, A1, A3: the damping term is minus the dissipation, sum c |u|^2 in M
    # for A1, sum sigma d |u|^2 on gamma0 for A3
    return {"real": abs(-grad2 - mu_u2 - pair.real) / scale,
            "imag": abs(-float(gen.dissipations(u)) - pair.imag) / scale}


def resolvent_solve(gen, mu, g):
    """Solve (A - i mu) u = g and report the equation's identity balances.

    Near-singular solves (residual above 1e-10) carry a one-norm condition
    estimate so the caller can judge how close i mu sits to the spectrum.
    """
    g = np.asarray(g, dtype=complex)
    K = gen.shifted(mu)
    solve = gen.shift_solvers(mu)
    u = solve["N"](g)
    gnorm = float(np.linalg.norm(g))
    res = float(np.linalg.norm(K @ u - g)) / gnorm if gnorm > 0 else 0.0
    cond = None
    if res > 1e-10:
        n = gen.size
        inv_norm = spla.onenormest(spla.LinearOperator(
            (n, n), matvec=solve["N"], rmatvec=solve["H"], dtype=complex))
        cond = float(spla.onenormest(K) * inv_norm)
    return ResolventSolution(u=u, residual=res,
                             identity_residuals=_identity_residuals(gen, mu, u, g),
                             condition_estimate=cond)


def resolvent_norm(gen, mu):
    """|| (A - i mu)^-1 || in the generator's inner product, and the number
    of products x -> R K^-1 L^-1 K^-H R^H x it took.

    The norm is the square root of that Hermitian operator's largest
    eigenvalue, read by unrestarted Lanczos with full reorthogonalization
    (two Gram-Schmidt passes against a basis that grows on demand).  Each
    product applies the factor of K from ``GeneratorMatrix.shift_solvers``
    twice, bitwise ``magop.factorize(gen.shifted(mu))``'s, and the metric
    root (R, R^H, L^-1) of ``GeneratorMatrix.metric_root`` once each.
    LAPACK's dstemr gives the top Ritz pair (theta, s) of the tridiagonal
    without forming the other eigenvectors, and the iteration stops on
    ARPACK's test, the residual bound |beta s_k| <= eps theta, or on
    beta = 0.  It starts from the generator's ``resolvent_start``, R z with
    z drawn once from a fixed seed, so reruns agree bitwise.  Short of
    convergence in min(400, rows) vectors it raises: ``scan_resolvent``
    records a failed point.
    """
    rows, r_apply, rh_apply, l_solve = gen.metric_root
    solve = gen.shift_solvers(mu)
    w = gen.resolvent_start
    limit = min(400, rows)
    Q = np.empty((min(16, limit), rows), dtype=complex)
    alpha, beta = np.zeros(limit), np.zeros(limit)
    b = np.linalg.norm(w)
    for k in range(1, limit + 1):
        if k > len(Q):
            Q = np.vstack([Q, np.empty_like(Q[:limit - len(Q)])])
        Q[k - 1] = w / b
        w = r_apply(solve["N"](l_solve(solve["H"](rh_apply(Q[k - 1])))))
        basis = Q[:k]
        for _ in range(2):
            c = np.conj(basis @ np.conj(w))
            alpha[k - 1] += c[-1].real
            w -= c @ basis
        b = beta[k - 1] = np.linalg.norm(w)
        if not np.isfinite(b):
            raise RuntimeError(f"Lanczos product not finite at mu = {mu}")
        # the k-th (top) eigenpair only, range 2 being by index; dstemr
        # overwrites its off-diagonal and takes the last entry as workspace
        _, theta, s, info = lapack.dstemr(alpha[:k], beta[:k].copy(), 2, 0.0, 0.0, k, k)
        if info:
            raise RuntimeError(f"dstemr error {info} at mu = {mu}")
        if b == 0.0 or abs(b * s[-1, 0]) <= np.finfo(float).eps * theta[0]:
            return np.sqrt(theta[0]), k
    raise RuntimeError(f"Lanczos did not converge in {limit} vectors at mu = {mu}")


@dataclass(eq=False)
class ResolventScan:
    mus: np.ndarray
    norms: np.ndarray
    ok: np.ndarray                # per-point success
    fit_c: float | None           # C in C exp(K sqrt(mu))
    fit_k: float | None
    fit_p: float | None           # free exponent in C exp(K mu^p)
    fit_c_free: float | None
    fit_k_free: float | None
    fit_points: int
    grid_tag: tuple
    failures: list
    products: np.ndarray          # shift-invert products per point (0 where it failed)
    growth_detected: bool = False

    def export_csv(self, path):
        with open(path, "w") as fh:
            fh.write("mu,norm,fit_residual\n")
            model = None
            if self.fit_c is not None:
                model = self.fit_c * np.exp(self.fit_k * np.sqrt(np.abs(self.mus)))
            for i, (m, v) in enumerate(zip(self.mus, self.norms)):
                r = v - model[i] if model is not None else float("nan")
                fh.write(f"{m:.17g},{v:.17g},{r:.17g}\n")


def _peak_envelope(mus, norms):
    """Local maxima of the scan; the growth law concerns peaks, not dips."""
    if norms.size < 5:
        return mus, norms
    inner = np.arange(1, norms.size - 1)
    is_peak = (norms[inner] >= norms[inner - 1]) & (norms[inner] >= norms[inner + 1])
    keep = inner[is_peak]
    if keep.size < 3:
        return mus, norms
    return mus[keep], norms[keep]


def fit_growth(mus, norms, envelope=True):
    """Fit ln||R|| = ln C + K |mu|^p for p = 1/2 and for free p.

    The free exponent is profiled over a grid and refined; among exponents
    whose residual is indistinguishable from the best, the smallest is
    reported (flat scans are consistent with any p, and the smallest
    exponent is the conservative growth-shape statement).  The law reads
    |mu| alone, so a fit takes two distinct |mu| (None below) and a free
    exponent three (None below): with fewer, least squares returns one of
    many exact fits, not a growth rate.
    """
    mus = np.asarray(mus, dtype=float)
    norms = np.asarray(norms, dtype=float)
    good = np.isfinite(norms) & (norms > 0)
    mus, norms = mus[good], norms[good]
    if envelope:
        mus, norms = _peak_envelope(mus, norms)
    distinct = np.unique(np.abs(mus)).size
    if distinct < 2:
        return None
    y = np.log(norms)
    x = np.sqrt(np.abs(mus))

    def lin(xv):
        A = np.column_stack([xv, np.ones_like(xv)])
        coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
        rss = float(np.sum((A @ coef - y) ** 2))
        return coef, rss

    coef_half, _ = lin(x)
    out = {
        "c": float(np.exp(coef_half[1])),
        "k": float(coef_half[0]),
        "points": int(mus.size),
    }
    if distinct >= 3:
        def rss_of(p):
            return lin(np.abs(mus) ** p)[1]

        rss_const = float(np.sum((y - y.mean()) ** 2))
        p_grid = np.linspace(0.05, 2.0, 40)
        rss = np.array([rss_of(p) for p in p_grid])
        if rss.min() >= 0.5 * rss_const:
            # fluctuation-dominated envelope: no growth model explains the
            # variance, so report the smallest exponent consistent with it
            p = float(p_grid[0])
            detected = False
        else:
            tol = rss.min() * 1.02 + 1e-9 * float(np.sum(y**2)) + 1e-30
            p0 = float(p_grid[np.nonzero(rss <= tol)[0][0]])
            bracket = (max(0.05, p0 - 0.05), min(2.0, p0 + 0.05))
            import scipy.optimize as opt
            res = opt.minimize_scalar(rss_of, bounds=bracket, method="bounded")
            p = float(res.x) if rss_of(float(res.x)) <= tol else p0
            detected = True
        coef_p, _ = lin(np.abs(mus) ** p)
        out.update(p=p, c_free=float(np.exp(coef_p[1])),
                   k_free=float(coef_p[0]), growth_detected=detected)
    else:
        out.update(p=None, c_free=None, k_free=None, growth_detected=False)
    return out


def scan_resolvent(gen, mu_grid, envelope=True):
    """Resolvent norms over a frequency grid, with growth-law fits.

    Failures are recorded and the scan continues.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    norms = np.full(mu_grid.shape, np.nan)
    ok = np.zeros(mu_grid.shape, dtype=bool)
    products = np.zeros(mu_grid.shape, dtype=int)
    failures = []
    for i, mu in enumerate(mu_grid):
        try:
            norms[i], products[i] = resolvent_norm(gen, mu)
            ok[i] = True
        except Exception as exc:  # singular factor or non-convergence
            failures.append({"mu": float(mu), "error": str(exc)})
    fit = fit_growth(mu_grid[ok], norms[ok], envelope=envelope) if ok.sum() >= 2 else None
    return ResolventScan(
        mus=mu_grid, norms=norms, ok=ok,
        fit_c=None if fit is None else fit["c"],
        fit_k=None if fit is None else fit["k"],
        fit_p=None if fit is None else fit["p"],
        fit_c_free=None if fit is None else fit["c_free"],
        fit_k_free=None if fit is None else fit["k_free"],
        fit_points=0 if fit is None else fit["points"],
        grid_tag=gen.grid.n, failures=failures, products=products,
        growth_detected=False if fit is None else bool(fit["growth_detected"]),
    )


def refinement_trend(scans):
    """Trend of the peak resolvent norm under grid refinement.

    Takes scans of the same frequency window on successively finer grids and
    reports whether the window maximum is non-decreasing; the continuum
    growth law is the limit object, so a decreasing trend flags an
    under-resolved scan.
    """
    maxima = [float(np.nanmax(s.norms[s.ok])) for s in scans]
    tags = [s.grid_tag for s in scans]
    rising = all(b >= a * (1 - 1e-9) for a, b in zip(maxima, maxima[1:]))
    return {"grids": tags, "window_maxima": maxima, "non_decreasing": rising}


def eigenvalues_dense(gen):
    """Full spectrum of the generator, refused above the dense limit
    (``magop._check_order``)."""
    magop._check_order(gen.size, "the full spectrum")
    return la.eigvals(gen.matrix.toarray())


def spectral_distance_norms(gen, mu_grid):
    """Oracle for normal generators: ||R(i mu)|| = 1 / dist(i mu, spectrum)."""
    eigs = eigenvalues_dense(gen)
    out = np.empty(len(mu_grid))
    for i, mu in enumerate(mu_grid):
        out[i] = 1.0 / np.min(np.abs(eigs - 1j * mu))
    return out


# ---------------------------------------------------------------------------
# observability resolvent estimate sweep


@dataclass(frozen=True, eq=False)
class HautusReport:
    mus: np.ndarray
    aleph0_grid: np.ndarray
    min_aleph1: np.ndarray        # (n_mu, n_aleph0); inf marks infeasible
    global_aleph1: np.ndarray     # per aleph0, max over mu; inf if any infeasible

    @property
    def feasible_anywhere(self):
        return bool(np.isfinite(self.min_aleph1).any())


def _reduced_pencil(gen, mu):
    """Dense G = D K^H M K D with K = A0 - i mu and D = M^-1/2.

    D (aleph0 K^H M K + aleph1 M_omega) D = aleph0 G + aleph1 diag(1_omega),
    so the estimate holds exactly when that matrix minus I is positive
    semidefinite.  G is returned real when it has no imaginary part (a = 0),
    so the factorizations run on real data.
    """
    root = np.sqrt(gen.mass_diag)
    B = (sp.diags(root) @ gen.shifted(mu) @ sp.diags(1.0 / root)).tocsr()
    G = (B.getH() @ B).tocsr()
    if not G.imag.count_nonzero():
        G = G.real
    return G.toarray()


def _min_aleph1(aleph0, G_uu, G_uo, G_oo):
    """Smallest aleph1 >= 0 with aleph0 G + aleph1 diag(1_omega) - I >= 0, or inf.

    o and u are the observed and unobserved positions.  The matrix is positive
    semidefinite iff H_uu = aleph0 G_uu - I is positive definite and
    Sigma + aleph1 I is positive semidefinite, with Sigma the Schur complement
    aleph0 G_oo - I - aleph0^2 G_ou H_uu^-1 G_uo (Haynsworth inertia).  A
    failed Cholesky of H_uu puts a deficit off omega, where aleph1 has no
    effect.
    """
    H_uu = aleph0 * G_uu
    H_uu.flat[::H_uu.shape[0] + 1] -= 1.0
    try:
        L, _ = la.cho_factor(H_uu, lower=True, overwrite_a=True)
    except la.LinAlgError:
        return np.inf
    Y = la.solve_triangular(L, aleph0 * G_uo, lower=True)
    sigma = aleph0 * G_oo - Y.conj().T @ Y
    sigma.flat[::sigma.shape[0] + 1] -= 1.0
    return max(0.0, -float(la.eigvalsh(sigma, subset_by_index=[0, 0])[0]))


def hautus_sweep(gen, omega, mu_grid, aleph0_grid):
    """Minimal-aleph1 frontier of the observability resolvent estimate.

    Each (mu, aleph0) cell is the exact threshold of ``_min_aleph1``: one
    Cholesky of the unobserved block and, when it succeeds, one lowest
    eigenvalue of the observed Schur complement.  The pencil is reduced once
    per mu (``_reduced_pencil``), after ``magop._check_order`` has checked
    its order against the dense limit.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    aleph0_grid = np.asarray(aleph0_grid, dtype=float)
    observed = np.isin(gen.state_idx, omega)
    if not observed.any():
        raise ValueError("omega does not intersect the generator's state nodes")
    magop._check_order(gen.size, "the Hautus pencil")
    o, u = np.flatnonzero(observed), np.flatnonzero(~observed)

    table = np.full((mu_grid.size, aleph0_grid.size), np.inf)
    for i, mu in enumerate(mu_grid):
        G = _reduced_pencil(gen, mu)
        blocks = G[np.ix_(u, u)], G[np.ix_(u, o)], G[np.ix_(o, o)]
        for j, al0 in enumerate(aleph0_grid):
            table[i, j] = _min_aleph1(al0, *blocks)
    return HautusReport(mus=mu_grid, aleph0_grid=aleph0_grid, min_aleph1=table,
                        global_aleph1=np.max(table, axis=0))
