import functools

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from magschro import magop, mesh, spectra


@pytest.fixture(scope="module")
def grid():
    return mesh.build_grid(1, [1.0], 128)


@pytest.fixture(scope="module")
def a_zero(grid):
    return magop.MagneticPotential.zero(grid)


@pytest.fixture(scope="module")
def gen_a0(grid, a_zero):
    return magop.assemble_generator("A0", grid, a_zero)


@pytest.fixture(scope="module")
def gen_a1(grid, a_zero):
    c = np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    damping = magop.DampingConfig.interior(grid, c, c0=5.0,
                                           omega=grid.box_nodes([0.0], [0.29]))
    return magop.assemble_generator("A1", grid, a_zero, damping=damping)


@pytest.fixture(scope="module")
def modal(gen_a0):
    lam, V = la.eigh(gen_a0.stiffness.toarray(), np.diag(gen_a0.mass_diag))
    return lam, V


def test_resolvent_eigenfunction_oracle(gen_a0, modal):
    lam, V = modal
    mu = -(lam[0] + lam[1]) / 2.0
    g = V[:, 0].astype(complex)
    sol = spectra.resolvent_solve(gen_a0, mu, g)
    # eigen-expansion: u = g / (-i lam_1 - i mu) so ||u|| = ||g|| / |lam_1 + mu|
    got = gen_a0.norm(sol.u)
    want = gen_a0.norm(g) / abs(lam[0] + mu)
    assert abs(got - want) < 1e-8 * want
    assert sol.residual < 1e-10


def test_resolvent_zero_rhs(gen_a0):
    sol = spectra.resolvent_solve(gen_a0, -37.0, np.zeros(gen_a0.size, dtype=complex))
    assert np.max(np.abs(sol.u)) == 0.0


def test_resolvent_identity_residuals_a1(gen_a1):
    rng = np.random.default_rng(0)
    g = rng.normal(size=gen_a1.size) + 1j * rng.normal(size=gen_a1.size)
    for mu in (-150.0, -3.0, 40.0):
        sol = spectra.resolvent_solve(gen_a1, mu, g)
        assert sol.identity_residuals["real"] < 1e-9
        assert sol.identity_residuals["imag"] < 1e-9


def test_resolvent_damping_estimate(gen_a1, grid):
    """c0 ||u||^2_omega <= ||u|| ||g|| from the imaginary-part balance."""
    rng = np.random.default_rng(1)
    g = rng.normal(size=gen_a1.size) + 1j * rng.normal(size=gen_a1.size)
    sol = spectra.resolvent_solve(gen_a1, -90.0, g)
    u = sol.u
    mass = gen_a1.mass_diag
    omega_pos = np.isin(gen_a1.state_idx, gen_a1.damping.omega)
    u2_omega = float(np.sum(mass[omega_pos] * np.abs(u[omega_pos]) ** 2))
    c0 = gen_a1.damping.c0
    assert c0 * u2_omega <= gen_a1.norm(u) * gen_a1.norm(g) * (1 + 1e-9)


def test_resolvent_identity_residuals_boundary(grid, a_zero):
    split = mesh.split_boundary(grid, [-0.3])
    mn = np.einsum("ij,ij->i", split.m[split.gamma0], grid.normals[split.gamma0])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = mn
    damping = magop.DampingConfig.boundary(grid, d, d0=float(mn.min()),
                                           gamma0_support=split.gamma0)
    rng = np.random.default_rng(2)
    for kind in ("A2", "A3"):
        gen = magop.assemble_generator(kind, grid, a_zero, damping=damping,
                                       split=split)
        g = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
        sol = spectra.resolvent_solve(gen, -55.0, g)
        assert sol.identity_residuals["real"] < 1e-9
        assert sol.identity_residuals["imag"] < 1e-9


def test_scan_matches_spectral_distance(gen_a0):
    mus = -np.linspace(5, 450, 100)
    scan = spectra.scan_resolvent(gen_a0, mus)
    oracle = spectra.spectral_distance_norms(gen_a0, mus)
    assert np.all(scan.ok)
    rel = np.abs(scan.norms - oracle) / oracle
    assert np.max(rel) < 1e-6


def test_scan_norm_lower_bound(gen_a1):
    """||R(i mu)|| >= 1/dist(i mu, spectrum) for any operator."""
    mus = -np.linspace(10, 300, 12)
    scan = spectra.scan_resolvent(gen_a1, mus)
    eigs = spectra.eigenvalues_dense(gen_a1)
    for mu, nrm in zip(mus, scan.norms):
        dist = np.min(np.abs(eigs - 1j * mu))
        assert nrm >= 1.0 / dist - 1e-8 * nrm


def test_scan_damped_finite(gen_a1):
    mus = np.linspace(-500, 0, 26)
    scan = spectra.scan_resolvent(gen_a1, mus)
    assert np.all(scan.ok)
    assert np.all(np.isfinite(scan.norms))
    assert not scan.failures


def test_scan_single_point_no_fit(gen_a0):
    scan = spectra.scan_resolvent(gen_a0, [-17.0])
    assert scan.fit_c is None
    assert np.isfinite(scan.norms[0])


def test_fit_recovers_synthetic_sqrt_law():
    mus = -np.linspace(10, 400, 60)
    C, K = 2.5, 0.31
    norms = C * np.exp(K * np.sqrt(np.abs(mus)))
    fit = spectra.fit_growth(mus, norms, envelope=False)
    assert abs(fit["c"] - C) < 1e-8 * C
    assert abs(fit["k"] - K) < 1e-8
    assert abs(fit["p"] - 0.5) < 1e-3


def test_fit_flat_data_reports_smallest_exponent():
    mus = -np.linspace(10, 400, 30)
    fit = spectra.fit_growth(mus, np.full(30, 7.0), envelope=False)
    assert fit["p"] <= 0.1


def test_scan_export_csv(tmp_path, gen_a0):
    scan = spectra.scan_resolvent(gen_a0, -np.linspace(5, 100, 8))
    path = tmp_path / "scan.csv"
    scan.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mu,norm,fit_residual"
    assert len(lines) == 9


# -- hautus sweep ---------------------------------------------------------


def test_hautus_full_observation_exact(gen_a0, grid):
    rep = spectra.hautus_sweep(gen_a0, grid.interior_idx,
                               mu_grid=[-80.0, -10.0, 30.0], aleph0_grid=[0.0])
    assert np.all(rep.min_aleph1 == 1.0)
    assert np.all(rep.global_aleph1 == 1.0)


def test_hautus_empty_omega_rejected(gen_a0):
    with pytest.raises(ValueError):
        spectra.hautus_sweep(gen_a0, np.array([], dtype=int), [-10.0], [0.0])


def test_hautus_far_frequency_zero_aleph1(gen_a0, grid, modal):
    lam, _ = modal
    mu = -(lam[3] + lam[4]) / 2.0        # spectral gap midpoint
    dist = abs(lam[3] + mu)
    aleph0 = 1.1 / dist**2
    omega = grid.box_nodes([0.0], [0.2])
    rep = spectra.hautus_sweep(gen_a0, omega, [mu], [aleph0])
    assert rep.min_aleph1[0, 0] == 0.0


def test_hautus_monotone_feasibility(gen_a0, grid):
    omega = grid.box_nodes([0.0], [0.2])
    rep = spectra.hautus_sweep(gen_a0, omega, mu_grid=[-60.0, -14.0],
                               aleph0_grid=[0.0, 1e-4, 1e-2])
    for row in rep.min_aleph1:
        finite = np.isfinite(row)
        vals = row[finite]
        assert np.all(np.diff(vals) <= 1e-6 * np.maximum(vals[:-1], 1.0))


def test_hautus_localized_feasible(gen_a0, grid):
    omega = grid.box_nodes([0.0], [0.3])
    rep = spectra.hautus_sweep(gen_a0, omega, mu_grid=[-45.0], aleph0_grid=[1e-2])
    assert rep.feasible_anywhere
    val = rep.min_aleph1[0, 0]
    assert np.isfinite(val)
    # a coarser bisection cannot report a smaller feasible constant
    rep2 = spectra.hautus_sweep(gen_a0, omega, [-45.0], [1e-2],
                                bisection_steps=4)
    assert rep2.min_aleph1[0, 0] >= val - 1e-9


def test_hautus_infeasible_reported(gen_a0, grid):
    # too little resolvent weight: states vanishing on omega defeat any aleph1
    omega = grid.box_nodes([0.0], [0.3])
    rep = spectra.hautus_sweep(gen_a0, omega, mu_grid=[-45.0], aleph0_grid=[1e-4])
    assert not np.isfinite(rep.min_aleph1[0, 0])


def test_hautus_eigensolve_budget(gen_a0, grid):
    # the criterion-11 sweeps: most questions are settled by the monotone
    # oracle that the Newton steps seed, not by an eigensolve each
    rep_full = spectra.hautus_sweep(gen_a0, grid.interior_idx,
                                    mu_grid=[-80.0, -10.0, 30.0], aleph0_grid=[0.0])
    rep_loc = spectra.hautus_sweep(gen_a0, grid.box_nodes([0.0], [0.3]),
                                   mu_grid=[-60.0, -14.0],
                                   aleph0_grid=[0.0, 1e-3, 1e-2, 1e-1])
    for rep in (rep_full, rep_loc):
        assert rep.eigensolves.shape == rep.min_aleph1.shape
        assert rep.eigensolves.dtype.kind == "i"
        assert np.all(rep.eigensolves >= 1)
    assert rep_full.eigensolves.sum() + rep_loc.eigensolves.sum() <= 40


def test_refinement_trend_report(grid, a_zero):
    scans = []
    for n in (64, 128):
        g = mesh.build_grid(1, [1.0], n)
        c = np.where(g.coords[:, 0] < 0.3, 5.0, 0.0)
        damp = magop.DampingConfig.interior(g, c, c0=5.0,
                                            omega=g.box_nodes([0.0], [0.29]))
        gen = magop.assemble_generator(
            "A1", g, magop.MagneticPotential.zero(g), damping=damp)
        scans.append(spectra.scan_resolvent(gen, -np.linspace(10, 300, 30)))
    trend = spectra.refinement_trend(scans)
    assert trend["grids"] == [(64,), (128,)]
    assert len(trend["window_maxima"]) == 2
    assert isinstance(trend["non_decreasing"], bool)


def test_scan_reruns_identical(gen_a1):
    mus = -np.linspace(10, 200, 12)
    s1 = spectra.scan_resolvent(gen_a1, mus)
    s2 = spectra.scan_resolvent(gen_a1, mus)
    assert np.array_equal(s1.norms, s2.norms)


def test_resolvent_near_singular_condition_estimate(gen_a0, modal):
    lam, V = modal
    mu = -lam[0] * (1.0 + 1e-13)        # essentially on the spectrum
    g = V[:, 0].astype(complex)
    sol = spectra.resolvent_solve(gen_a0, mu, g)
    if sol.residual > 1e-10:
        assert sol.condition_estimate is not None
        assert sol.condition_estimate > 1e8
    else:
        assert gen_a0.norm(sol.u) > 1e8 * gen_a0.norm(g)


# ---------------------------------------------------------------------------
# resolvent norms against a dense oracle, and the two branches of the factor


@st.composite
def damped_generators(draw, dims=(1, 2)):
    """Random small A1/A2/A3 generators in 1D and 2D."""
    dim = draw(st.sampled_from(dims))
    grid = mesh.build_grid(dim, 1.0, draw(st.integers(6, 30) if dim == 1 else st.integers(4, 8)))
    amp, freq = draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 4.0))
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(freq * p))
    kind = draw(st.sampled_from(["A1", "A2", "A3"]))
    if kind == "A1":
        lo = [draw(st.floats(0.0, 0.6)) for _ in range(dim)]
        omega = grid.box_nodes(lo, [l + draw(st.floats(0.2, 1.0)) for l in lo])
        c0 = draw(st.floats(0.5, 20.0))
        c = np.zeros(grid.num_nodes)
        c[omega] = c0
        damping = magop.DampingConfig.interior(grid, c, c0=c0, omega=omega)
        return magop.assemble_generator("A1", grid, a, damping=damping)
    x0 = [draw(st.floats(-0.8, -0.1))] + [draw(st.floats(0.0, 1.0)) for _ in range(dim - 1)]
    split = mesh.split_boundary(grid, x0)
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = draw(st.floats(0.2, 5.0))
    damping = magop.DampingConfig.boundary(grid, d)
    return magop.assemble_generator(kind, grid, a, damping=damping, split=split)


def dense_resolvent_norm(gen, mu):
    """1 / sigma_min(R K R^-1) with K = A - i mu and L = R^H R the inner product."""
    K = gen.matrix.toarray() - 1j * mu * np.eye(gen.size)
    if gen.inner_kind == "mass":
        R = np.diag(np.sqrt(gen.mass_diag))
    else:
        R = la.cholesky(gen.stiffness.toarray())
    return 1.0 / la.svdvals(R @ K @ la.inv(R))[-1]


RESOLVENT_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                              database=None, suppress_health_check=[HealthCheck.too_slow])


@RESOLVENT_PROPERTY
@given(damped_generators(), st.floats(-400.0, 100.0))
def test_resolvent_norm_matches_dense_oracle(gen, mu):
    norm, products = spectra.resolvent_norm(gen, mu)
    assert products > 0
    ref = dense_resolvent_norm(gen, mu)
    assert abs(norm - ref) <= 1e-10 * ref


@RESOLVENT_PROPERTY
@given(damped_generators(dims=(1,)), st.floats(-400.0, 100.0))
def test_factorize_branches_agree(gen, mu):
    """zgttrf and SuperLU factors of the tridiagonal A - i mu I, both directions."""
    K = (gen.matrix - 1j * mu * sp.identity(gen.size, dtype=complex, format="csr")).tocsc()
    tri = magop.factorize(K)
    assert magop._tridiagonal_solver(K) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magop, "_tridiagonal_solver", lambda M: None)
        lu = magop.factorize(K)
    b = np.random.default_rng(0).normal(size=(gen.size, 2)) @ np.array([1.0, 1j])
    for trans, op in (("N", K), ("H", K.getH())):
        x = tri[trans](b)
        assert np.linalg.norm(x - lu[trans](b)) <= 1e-13 * np.linalg.norm(x)
        assert np.linalg.norm(op @ x - b) <= 1e-13 * la.norm(K.toarray(), 2) * np.linalg.norm(x)


def generator_1d(kind, n):
    grid = mesh.build_grid(1, 1.0, n)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.5 * np.sin(p))
    if kind == "A1":
        damping = magop.DampingConfig.interior(grid, np.full(grid.num_nodes, 2.0), c0=2.0)
        return magop.assemble_generator(kind, grid, a, damping=damping)
    split = mesh.split_boundary(grid, [-0.3])
    damping = magop.DampingConfig.boundary(grid, np.ones(grid.num_nodes))
    return magop.assemble_generator(kind, grid, a, damping=damping, split=split)


@pytest.mark.parametrize("kind", ["A1", "A2"])
def test_small_grid_scan_runs_arpack(kind):
    """At n <= 8 unknowns the Lanczos basis is the whole space: ARPACK still
    runs in standard mode (no metric, no shift, no fallback, no failure), and
    the reported products are its applications of the operator."""
    gen = generator_1d(kind, 6)
    assert gen.size <= 8
    calls = []
    eigsh = spla.eigsh

    def spy(A, **kw):
        assert kw.get("M") is None and kw.get("sigma") is None and kw.get("OPinv") is None
        counted = {"products": 0}

        def matvec(x):
            counted["products"] += 1
            return A.matvec(x)

        out = eigsh(spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), **kw)
        calls.append(counted["products"])    # only when ARPACK returns
        return out

    mus = -np.linspace(5.0, 300.0, 7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "eigsh", spy)
        scan = spectra.scan_resolvent(gen, mus)
    assert scan.failures == [] and np.all(scan.ok)
    assert list(scan.products) == calls and min(calls) > 0
    for mu, norm in zip(mus, scan.norms):
        ref = dense_resolvent_norm(gen, mu)
        assert abs(norm - ref) <= 1e-10 * ref


def _arpack_stalls(*args, **kwargs):
    raise spla.ArpackNoConvergence("stalled", np.array([]), np.array([]))


@pytest.mark.parametrize("kind", ["A1", "A2", "A3"])
def test_power_fallback_matches_dense_oracle(kind):
    """When ARPACK stalls, power iteration on the same operator gives the norm."""
    gen = generator_1d(kind, 24)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "eigsh", _arpack_stalls)
        for mu in (-250.0, -37.0, 20.0):
            norm, products = spectra.resolvent_norm(gen, mu)
            ref = dense_resolvent_norm(gen, mu)
            assert products > 1
            assert abs(norm - ref) <= 1e-10 * ref


def test_unconverged_fallback_is_a_failed_point(gen_a1):
    """Power iteration out of products raises, and the scan records the point
    as failed instead of keeping an unconverged norm."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "eigsh", _arpack_stalls)
        with pytest.raises(RuntimeError, match="did not converge"):
            spectra.resolvent_norm(gen_a1, -40.0, maxiter=3)
        mp.setattr(spectra, "resolvent_norm",
                   functools.partial(spectra.resolvent_norm, maxiter=3))
        scan = spectra.scan_resolvent(gen_a1, [-120.0, -40.0])
    assert not scan.ok.any() and np.isnan(scan.norms).all()
    assert [f["mu"] for f in scan.failures] == [-120.0, -40.0]
    assert all("did not converge" in f["error"] for f in scan.failures)


# ---------------------------------------------------------------------------
# property test: the reduced, Newton-seeded sweep against per-query bisection


def smallest_generalized(H, mass, dense_limit):
    """lambda_min of (H, diag(mass)) for Hermitian PSD H, one query at a time."""
    d = 1.0 / np.sqrt(mass)
    Ht = sp.diags(d) @ H @ sp.diags(d)
    n = Ht.shape[0]
    if n <= dense_limit:
        return float(la.eigvalsh(Ht.toarray(), subset_by_index=[0, 0])[0])
    Ht = Ht.tocsc()
    v0 = np.random.default_rng(0).normal(size=n)
    try:
        w = spla.eigsh(Ht, k=1, sigma=-1e-10, which="LM", v0=v0,
                       return_eigenvectors=False)
    except Exception:
        w = spla.eigsh(Ht, k=1, which="SA", return_eigenvectors=False,
                       maxiter=5000, v0=v0)
    return float(w[0])


def reference_sweep(gen, omega, mus, aleph0s, dense_limit, steps=16, cap=1e12,
                    feas_tol=1e-9):
    """Doubling from 1 and bisection, every question answered by an eigensolve."""
    M = gen.mass_diag
    M_omega = sp.diags(np.where(np.isin(gen.state_idx, omega), M, 0.0)).tocsr()
    eye = sp.identity(gen.size, dtype=complex, format="csr")
    table = np.full((len(mus), len(aleph0s)), np.inf)
    for i, mu in enumerate(mus):
        K = (gen.matrix - 1j * mu * eye).tocsr()
        KMK = (K.getH() @ sp.diags(M) @ K).tocsr()
        for j, al0 in enumerate(aleph0s):
            def feasible(al1):
                H = (al0 * KMK + al1 * M_omega).tocsr()
                return smallest_generalized(H, M, dense_limit) >= 1.0 - feas_tol

            if feasible(0.0):
                table[i, j] = 0.0
                continue
            hi = 1.0
            while not feasible(hi):
                hi *= 2.0
                if hi > cap:
                    break
            if hi > cap:
                continue
            lo = 0.0 if hi == 1.0 else hi / 2.0
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            table[i, j] = hi
    return table


@st.composite
def hautus_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 40) if dim == 1 else st.integers(5, 9))
    grid = mesh.build_grid(dim, 1.0, n)
    amp, freq = draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 4.0))
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(freq * p))
    gen = magop.assemble_generator("A0", grid, a)
    lo = [draw(st.floats(0.0, 0.6)) for _ in range(dim)]
    hi = [l + draw(st.floats(0.2, 1.0)) for l in lo]
    omega = grid.box_nodes(lo, hi)
    assume(np.isin(gen.state_idx, omega).any())
    mus = draw(st.lists(st.floats(-400.0, 100.0), min_size=1, max_size=2))
    # aleph0 around 1 / dist(i mu, spectrum)^2, where the cells turn feasible
    r = spectra.spectral_distance_norms(gen, mus[:1])[0]
    aleph0s = draw(st.lists(st.just(0.0) | st.floats(0.02, 1.5).map(lambda t: t * r * r),
                            min_size=1, max_size=2))
    sparse = draw(st.booleans())
    return gen, omega, mus, aleph0s, sparse


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(hautus_cases())
def test_hautus_sweep_matches_per_query_bisection(case):
    gen, omega, mus, aleph0s, sparse = case
    limit = 0 if sparse else spectra._DENSE_LIMIT
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_DENSE_LIMIT", limit)
        rep = spectra.hautus_sweep(gen, omega, mus, aleph0s)
    table = reference_sweep(gen, omega, mus, aleph0s, limit)
    assert np.array_equal(rep.min_aleph1, table)
    assert rep.eigensolves.shape == table.shape
    assert np.all(rep.eigensolves >= 1)


@pytest.mark.parametrize("amp", [0.0, 0.8])
def test_hautus_eigensolves_real_at_zero_potential(amp):
    """With a = 0 the reduced pencil is real and every dense eigensolve gets
    float64; a nonzero potential keeps it complex."""
    grid = mesh.build_grid(1, 1.0, 40)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(3.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    dtypes = []
    eigh = la.eigh

    def spy(H, *args, **kwargs):
        dtypes.append(H.dtype)
        return eigh(H, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "eigh", spy)
        spectra.hautus_sweep(gen, grid.box_nodes([0.0], [0.3]), [-60.0, -14.0],
                             [0.0, 1e-2])
    assert dtypes and set(dtypes) == {np.dtype(float if amp == 0.0 else complex)}
