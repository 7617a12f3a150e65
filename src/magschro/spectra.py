"""Resolvent solves and norm scans along the imaginary axis.

The resolvent norm at i mu in the generator's inner product L is

    || (A - i mu)^-1 ||_L = 1 / sigma_min,
    sigma_min^2 = min_u (u^H K^H L K u) / (u^H L u),  K = A - i mu.

With L = R^H R, 1 / sigma_min^2 is the largest eigenvalue of the Hermitian
R K^-1 L^-1 K^-H R^H, which standard-mode Lanczos reads directly (power
iteration as the fallback), one sparse factor of K serving every product.
R is the generator's ``metric_root``: sqrt(mass) for the mass metric, one
row per edge for the magnetic stiffness of A2.
Scans fit C exp(K sqrt(mu)) and C exp(K mu^p) against the peak envelope,
since on any fixed grid the point values oscillate between spectral peaks.

The observability-resolvent (Hautus) sweep searches, per frequency, the
minimal constants (aleph0, aleph1) making

    ||u||^2 <= aleph0 ||(A0 - i mu) u||^2 + aleph1 ||u||^2_omega

hold for every state, by doubling and bisection on aleph1 at fixed aleph0.
The pencil is reduced once per mu, to aleph0 G + aleph1 diag(1_omega) with
G = D K^H M K D and D = M^-1/2, which is real when A0 is (a = 0).
lambda_min of that matrix is concave and nondecreasing in aleph1, so a few
Newton steps with the omega weight of the eigenvector as supergradient
bracket the threshold from below; a monotone oracle then answers the
bisection's questions outside the bracket without an eigensolve, and the
result equals plain bisection's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.optimize as opt
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import magop


@dataclass(frozen=True, eq=False)
class ResolventSolution:
    u: np.ndarray
    mu: float
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
    out = {}
    if gen.kind in ("A0", "A1"):
        cterm = 0.0
        if gen.kind == "A1":
            cterm = np.vdot(u, mass * gen.damping_c * u).real
        out["real"] = abs(-grad2 - mu_u2 - pair.real) / scale
        out["imag"] = abs(cterm - pair.imag) / scale
    elif gen.kind == "A3":
        tr = u[gen.gamma0_pos]
        dterm = float(np.sum(gen.sigma_d * np.abs(tr) ** 2))
        out["real"] = abs(-grad2 - mu_u2 - pair.real) / scale
        out["imag"] = abs(dterm - pair.imag) / scale
    elif gen.kind == "A2":
        tr = u[gen.gamma0_pos]
        gt_tr = gt[gen.gamma0_pos]
        dterm = mu * float(np.sum(gen.sigma_d * np.abs(tr) ** 2))
        bpair = np.vdot(tr, gen.sigma_d * gt_tr)   # (d gt | u) on gamma0
        out["real"] = abs(-grad2 - mu_u2 - (pair.real - bpair.imag)) / scale
        out["imag"] = abs(-dterm - (pair.imag + bpair.real)) / scale
    return out


def resolvent_solve(gen, mu, g):
    """Solve (A - i mu) u = g and report the equation's identity balances.

    Near-singular solves (residual above 1e-10) carry a one-norm condition
    estimate so the caller can judge how close i mu sits to the spectrum.
    """
    g = np.asarray(g, dtype=complex)
    K = gen.shifted(mu)
    solve = magop.factorize(K)
    u = solve["N"](g)
    gnorm = float(np.linalg.norm(g))
    res = float(np.linalg.norm(K @ u - g)) / gnorm if gnorm > 0 else 0.0
    cond = None
    if res > 1e-10:
        n = gen.size
        inv_norm = spla.onenormest(spla.LinearOperator(
            (n, n), matvec=solve["N"], rmatvec=solve["H"], dtype=complex))
        cond = float(spla.onenormest(K) * inv_norm)
    return ResolventSolution(u=u, mu=float(mu), residual=res,
                             identity_residuals=_identity_residuals(gen, mu, u, g),
                             condition_estimate=cond)


def resolvent_norm(gen, mu, tol=1e-12, maxiter=400, seed=7):
    """|| (A - i mu)^-1 || in the generator's inner product, and the number
    of products x -> R K^-1 L^-1 K^-H R^H x it took.

    The norm is the square root of that Hermitian operator's largest
    eigenvalue, read by standard-mode Lanczos on an 8-vector basis; each
    product applies ``magop.factorize`` of K twice and the metric root
    (R, R^H, L^-1) of ``GeneratorMatrix.metric_root`` once each.  If ARPACK
    stalls, power iteration on the same operator takes over, and raises
    RuntimeError when it has not met ``tol`` after ``maxiter`` products.
    Both start from R z with z drawn from ``seed``, so reruns agree bitwise.
    """
    rows, r_apply, rh_apply, l_solve = gen.metric_root
    solve = magop.factorize(gen.shifted(mu))
    products = 0

    def apply(x):
        nonlocal products
        products += 1
        return r_apply(solve["N"](l_solve(solve["H"](rh_apply(x)))))

    rng = np.random.default_rng(seed)
    x = r_apply(rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size))
    op = spla.LinearOperator((rows, rows), matvec=apply, dtype=complex)
    try:
        lam = float(spla.eigsh(op, k=1, which="LM", v0=x, ncv=min(8, rows),
                               return_eigenvectors=False, maxiter=maxiter)[0])
        return np.sqrt(lam), products
    except spla.ArpackError:           # ArpackNoConvergence included
        pass

    x = x / np.linalg.norm(x)
    lam_prev = None
    for _ in range(maxiter):
        y = apply(x)
        lam = np.vdot(x, y).real
        ny = np.linalg.norm(y)
        if ny == 0:
            raise RuntimeError("power iteration collapsed to zero")
        x = y / ny
        if lam_prev is not None and abs(lam - lam_prev) <= tol * abs(lam):
            return np.sqrt(lam), products
        lam_prev = lam
    raise RuntimeError(f"power iteration did not converge in {maxiter} products")


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
    exponent is the conservative growth-shape statement).
    """
    mus = np.asarray(mus, dtype=float)
    norms = np.asarray(norms, dtype=float)
    good = np.isfinite(norms) & (norms > 0)
    mus, norms = mus[good], norms[good]
    if mus.size < 2:
        return None
    if envelope:
        mus, norms = _peak_envelope(mus, norms)
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
    if mus.size >= 3:
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
    """Full spectrum of the generator (dense; intended for modest sizes)."""
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
    aleph1_cap: float
    bisection_steps: int
    eigensolves: np.ndarray       # (n_mu, n_aleph0) eigensolves each cell used

    @property
    def feasible_anywhere(self):
        return bool(np.isfinite(self.min_aleph1).any())


# Reduced pencils up to this order are solved densely, larger ones by ARPACK.
_DENSE_LIMIT = 1200
# Newton steps seeding each cell's bracket before doubling and bisection.
_NEWTON_STEPS = 8


def _reduced_pencil(gen, mu):
    """G = D K^H M K D with K = A0 - i mu and D = M^-1/2, dense up to _DENSE_LIMIT.

    D (aleph0 K^H M K + aleph1 M_omega) D = aleph0 G + aleph1 diag(1_omega), so
    lambda_min of that matrix is the smallest generalized eigenvalue of the
    pencil against M.  G is returned real when it has no imaginary part (a = 0),
    so the eigensolves run on real data.
    """
    root = np.sqrt(gen.mass_diag)
    B = (sp.diags(root) @ gen.shifted(mu) @ sp.diags(1.0 / root)).tocsr()
    G = (B.getH() @ B).tocsr()
    if not G.imag.count_nonzero():
        G = G.real
    return G.toarray() if gen.size <= _DENSE_LIMIT else G


def _lowest_pair(H):
    """Smallest eigenvalue of the Hermitian H and a unit eigenvector."""
    if isinstance(H, np.ndarray):
        w, v = la.eigh(H, subset_by_index=[0, 0], overwrite_a=True)
        return float(w[0]), v[:, 0]
    H = H.tocsc()
    v0 = np.random.default_rng(0).normal(size=H.shape[0])
    try:
        w, v = spla.eigsh(H, k=1, sigma=-1e-10, which="LM", v0=v0)
    except Exception:
        w, v = spla.eigsh(H, k=1, which="SA", maxiter=5000, v0=v0)
    return float(w[0]), v[:, 0]


class _Threshold:
    """feasible(aleph1): lambda_min(aleph0 G + aleph1 diag(1_omega)) >= level.

    f(aleph1) = lambda_min is concave and nondecreasing, so a question is
    answered from the largest aleph1 found infeasible and the smallest found
    feasible; only a point between the two costs an eigensolve.
    """

    def __init__(self, G, aleph0, indicator, level):
        self.G, self.aleph0, self.indicator, self.level = G, aleph0, indicator, level
        self.below, self.above = -np.inf, np.inf
        self.eigensolves = 0

    def evaluate(self, al1):
        """f(al1) and the omega weight of its eigenvector, a supergradient of f."""
        if isinstance(self.G, np.ndarray):
            H = self.aleph0 * self.G
            H.flat[::H.shape[0] + 1] += al1 * self.indicator
        else:
            H = self.aleph0 * self.G + sp.diags(al1 * self.indicator)
        lam, v = _lowest_pair(H)
        self.eigensolves += 1
        if lam >= self.level:
            self.above = min(self.above, al1)
        else:
            self.below = max(self.below, al1)
        return lam, float(self.indicator @ np.abs(v) ** 2)

    def __call__(self, al1):
        if al1 >= self.above:
            return True
        if al1 <= self.below:
            return False
        return self.evaluate(al1)[0] >= self.level

    def seed(self, top, steps):
        """Bracket the threshold by concave Newton from aleph1 = 0.

        With g a supergradient, f(x + (level - f)/g) <= level: no step passes
        the threshold, even where lambda_min is multiple.  A step past ``top``
        (or g = 0) is confirmed infeasible by evaluating at ``top``; otherwise
        the last iterate is followed by one evaluation just across the
        threshold from it.
        """
        x = 0.0
        lam, g = self.evaluate(x)
        for k in range(steps + 1):
            if lam >= self.level:
                if x > 0.0:            # landed on the threshold: bracket it from below
                    self.evaluate(x * (1.0 - 2.0**-30))
                return
            step = (self.level - lam) / g if g > 0 else np.inf
            if x + step > top:
                self.evaluate(top)
                return
            if k == steps or step <= x * 2.0**-20:
                self.evaluate(min(top, x + 2.0 * step + x * 2.0**-30))
                return
            x += step
            lam, g = self.evaluate(x)


def _bisect(feasible, aleph1_cap, bisection_steps):
    """0 if feasible there, else doubling from 1 and bisection; inf past the cap."""
    if feasible(0.0):
        return 0.0
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > aleph1_cap:
            return np.inf              # infeasible at this aleph0
    lo = 0.0 if hi == 1.0 else hi / 2.0
    for _ in range(bisection_steps):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def hautus_sweep(gen, omega, mu_grid, aleph0_grid, bisection_steps=16,
                 aleph1_cap=1e12, feas_tol=1e-9):
    """Minimal-aleph1 frontier of the observability resolvent estimate.

    For each (mu, aleph0) the minimal aleph1 is bracketed by doubling from 1
    and refined by bisection; the certificate is the smallest generalized
    eigenvalue of (aleph0 K^H M K + aleph1 M_omega, M) reaching 1.  The pencil
    is reduced once per mu to aleph0 G + aleph1 diag(1_omega) (see
    ``_reduced_pencil``), and a few concave Newton steps per cell seed a
    monotone oracle that answers most doubling and bisection questions
    without an eigensolve, so the table is the bisection's own answer.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    aleph0_grid = np.asarray(aleph0_grid, dtype=float)
    indicator = np.isin(gen.state_idx, omega).astype(float)
    if not indicator.any():
        raise ValueError("omega does not intersect the generator's state nodes")
    level = 1.0 - feas_tol
    top = max(1.0, np.ldexp(0.5, np.frexp(aleph1_cap)[1]))   # last doubling point

    table = np.full((mu_grid.size, aleph0_grid.size), np.inf)
    counts = np.zeros(table.shape, dtype=int)
    for i, mu in enumerate(mu_grid):
        G = _reduced_pencil(gen, mu)
        for j, al0 in enumerate(aleph0_grid):
            feasible = _Threshold(G, al0, indicator, level)
            feasible.seed(top, _NEWTON_STEPS)
            table[i, j] = _bisect(feasible, aleph1_cap, bisection_steps)
            counts[i, j] = feasible.eigensolves
    global_env = np.max(table, axis=0)
    return HautusReport(
        mus=mu_grid, aleph0_grid=aleph0_grid, min_aleph1=table,
        global_aleph1=global_env, aleph1_cap=aleph1_cap,
        bisection_steps=bisection_steps, eigensolves=counts,
    )

