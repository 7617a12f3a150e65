from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.linalg import lapack
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
    return magop.assemble_generator("A1", grid, a_zero,
                                    c=np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0))


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
    omega_pos = gen_a1.damping_c > 0
    u2_omega = float(np.sum(mass[omega_pos] * np.abs(u[omega_pos]) ** 2))
    c0 = np.min(gen_a1.damping_c[omega_pos])
    assert c0 * u2_omega <= gen_a1.norm(u) * gen_a1.norm(g) * (1 + 1e-9)


def test_resolvent_identity_residuals_boundary(grid, a_zero):
    split = mesh.split_boundary(grid, [-0.3])
    mn = np.einsum("ij,ij->i", split.m[split.gamma0], grid.normals[split.gamma0])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = mn
    rng = np.random.default_rng(2)
    for kind in ("A2", "A3"):
        gen = magop.assemble_generator(kind, grid, a_zero, d=d, split=split)
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


def test_fit_needs_distinct_frequencies():
    """The law reads |mu| alone: -5 and 5 are one abscissa and give no fit,
    and two distinct |mu| fit C and K but no free exponent."""
    assert spectra.fit_growth([-5.0, 5.0], [1.3, 0.9]) is None
    assert spectra.fit_growth([5.0, 5.0, 5.0], [1.0, 1.1, 1.2]) is None
    fit = spectra.fit_growth([-5.0, 5.0, -20.0], [1.0, 1.1, 2.0], envelope=False)
    assert np.isfinite(fit["k"]) and fit["k"] > 0 and fit["points"] == 3
    assert fit["p"] is None and fit["k_free"] is None and not fit["growth_detected"]


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


@pytest.mark.parametrize("dim, n, amp", [(1, 12, 0.0), (1, 12, 1.3), (2, 8, 0.0), (2, 8, 1.3)])
def test_hautus_full_observation_matches_spectral_distance(dim, n, amp):
    """With omega everywhere the pencil minus I is aleph0 G - I + aleph1 I, and
    lambda_min(G) = dist(i mu, spectrum)^2 since A0 is normal in the mass
    metric: aleph1* = max(0, 1 - aleph0 dist^2).  Both sides round at
    eps aleph0 ||G||, so the tolerance is 1e-12 of that scale."""
    grid = mesh.build_grid(dim, 1.0, n)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(2.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    mus = [-150.0, -40.0, -9.0, 30.0, 200.0]
    inv_dist = spectra.spectral_distance_norms(gen, mus)
    for mu, r in zip(mus, inv_dist):
        aleph0 = np.array([0.3, 0.7, 0.95, 1.2]) * r**2
        got = spectra.hautus_sweep(gen, gen.state_idx, [mu], aleph0).min_aleph1[0]
        want = np.maximum(0.0, 1.0 - aleph0 / r**2)
        scale = np.maximum(1.0, aleph0 * np.linalg.norm(spectra._reduced_pencil(gen, mu), 2))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert got[-1] == 0.0


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


def test_hautus_infeasible_reported(gen_a0, grid):
    # too little resolvent weight: states vanishing on omega defeat any aleph1
    omega = grid.box_nodes([0.0], [0.3])
    rep = spectra.hautus_sweep(gen_a0, omega, mu_grid=[-45.0], aleph0_grid=[1e-4])
    assert not np.isfinite(rep.min_aleph1[0, 0])


def test_hautus_one_cholesky_per_cell(gen_a0, grid):
    """Each cell is one Cholesky of the block off omega and, only when it
    succeeds, one lowest eigenvalue of the Schur complement."""
    events = []
    cho_factor, eigvalsh = la.cho_factor, la.eigvalsh

    def cho_spy(*args, **kwargs):
        try:
            out = cho_factor(*args, **kwargs)
        except la.LinAlgError:
            events.append("cho-failed")
            raise
        events.append("cho")
        return out

    def eig_spy(*args, **kwargs):
        events.append("eig")
        return eigvalsh(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "cho_factor", cho_spy)
        mp.setattr(la, "eigvalsh", eig_spy)
        rep = spectra.hautus_sweep(gen_a0, grid.box_nodes([0.0], [0.3]),
                                   mu_grid=[-60.0, -14.0],
                                   aleph0_grid=[0.0, 1e-3, 1e-2, 1e-1])
    cells = rep.min_aleph1.size
    assert events.count("cho") + events.count("cho-failed") == cells
    assert events.count("cho-failed") == np.isinf(rep.min_aleph1).sum() > 0
    assert events.count("eig") == events.count("cho") > 0
    for before, after in zip(events, events[1:]):
        assert after != "eig" or before == "cho"


def test_refinement_trend_report(grid, a_zero):
    scans = []
    for n in (64, 128):
        g = mesh.build_grid(1, [1.0], n)
        gen = magop.assemble_generator("A1", g, magop.MagneticPotential.zero(g),
                                       c=np.where(g.coords[:, 0] < 0.3, 5.0, 0.0))
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
def damped_generators(draw, dims=(1, 2), kinds=("A1", "A2", "A3")):
    """Random small generators of the given kinds (damped by default) in 1D
    and 2D."""
    dim = draw(st.sampled_from(dims))
    grid = mesh.build_grid(dim, 1.0, draw(st.integers(6, 30) if dim == 1 else st.integers(4, 8)))
    amp, freq = draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 4.0))
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(freq * p))
    kind = draw(st.sampled_from(list(kinds)))
    if kind == "A0":
        return magop.assemble_generator("A0", grid, a)
    if kind == "A1":
        lo = [draw(st.floats(0.0, 0.6)) for _ in range(dim)]
        omega = grid.box_nodes(lo, [l + draw(st.floats(0.2, 1.0)) for l in lo])
        c0 = draw(st.floats(0.5, 20.0))
        c = np.zeros(grid.num_nodes)
        c[omega] = c0
        return magop.assemble_generator("A1", grid, a, c=c)
    x0 = [draw(st.floats(-0.8, -0.1))] + [draw(st.floats(0.0, 1.0)) for _ in range(dim - 1)]
    split = mesh.split_boundary(grid, x0)
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = draw(st.floats(0.2, 5.0))
    return magop.assemble_generator(kind, grid, a, d=d, split=split)


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
@given(damped_generators(), st.data())
def test_resolvent_norm_matches_dense_oracle(gen, data):
    """A2 draws frequencies up to 4/h^2, the top of the discrete spectrum,
    where the top two singular values can nearly tie at positive mu."""
    top = 4.0 / min(gen.grid.h) ** 2 if gen.kind == "A2" else 100.0
    mu = data.draw(st.floats(-400.0, top), label="mu")
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


def test_tridiagonal_band_read_from_csc():
    """The three diagonals read from the CSC arrays are bitwise those of
    ``diagonal(k)``, in any sparse format: so are the solves.  An explicit
    zero off the band keeps the tridiagonal branch, duplicates are summed,
    and a nonzero off the band or a zero pivot turns it down."""
    rng = np.random.default_rng(5)
    n = 9
    diags = [rng.normal(size=n - abs(k)) + 1j * rng.normal(size=n - abs(k)) for k in (-1, 0, 1)]
    T = sp.diags(diags, [-1, 0, 1], format="csr")
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    factors = lapack.zgttrf(*(T.diagonal(k) for k in (-1, 0, 1)))[:5]
    want = {"N": lapack.zgttrs(*factors, b)[0], "H": lapack.zgttrs(*factors, b, trans="C")[0]}

    coo, csc = T.tocoo(), T.tocsc()
    zero_off_band = sp.coo_matrix((np.append(coo.data, 0.0), (np.append(coo.row, 0),
                                                            np.append(coo.col, 5))), shape=(n, n))
    halves = sp.csc_matrix((np.repeat(0.5 * csc.data, 2), np.repeat(csc.indices, 2),
                            2 * csc.indptr), shape=(n, n))
    assert zero_off_band.tocsc().nnz == T.nnz + 1 and not halves.has_canonical_format
    for M in (T, csc, zero_off_band, halves):
        solvers = magop._tridiagonal_solver(M)
        for trans in ("N", "H"):
            assert solvers[trans](b).tobytes() == want[trans].tobytes()

    off_band = T.tolil()
    off_band[0, 5] = 1e-300
    singular = T.tolil()
    singular[0, :2] = 0.0
    assert magop._tridiagonal_solver(off_band.tocsr()) is None
    assert magop._tridiagonal_solver(singular.tocsr()) is None


def _assert_solves_bitwise(got, want, size):
    """The N and H solves agree byte for byte on an (n,) and an (n, 2) right side."""
    rng = np.random.default_rng(3)
    for shape in ((size,), (size, 2)):
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for trans in ("N", "H"):
            assert got[trans](b).tobytes() == want[trans](b).tobytes()


@RESOLVENT_PROPERTY
@given(damped_generators(kinds=("A0", "A1", "A2", "A3")), st.data())
def test_shift_solvers_are_the_factorize_solves(gen, data):
    """Whichever mu is factored first, and so sets the band or the column
    order kept on the generator, every shift's solves are bitwise those of
    ``factorize(shifted(mu))``, up to the top of the discrete spectrum."""
    top = 4.0 / min(gen.grid.h) ** 2
    mus = [data.draw(st.floats(-400.0, top), label=f"mu{i}") for i in range(3)]
    for mu in mus + mus[:1]:
        _assert_solves_bitwise(gen.shift_solvers(mu), magop.factorize(gen.shifted(mu)), gen.size)


def _generators_2d(n, amp=0.0):
    grid = mesh.build_grid(2, 1.0, n)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(2.0 * p))
    split = mesh.split_boundary(grid, [-0.3, 0.5])
    ones, box = np.ones(grid.num_nodes), np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    return [magop.assemble_generator("A0", grid, a),
            magop.assemble_generator("A1", grid, a, c=box),
            magop.assemble_generator("A2", grid, a, d=3.0 * ones, split=split),
            magop.assemble_generator("A3", grid, a, d=3.0 * ones, split=split)]


def test_shift_pivot_ties_prefer_the_diagonal():
    """A2 at a = 0 and small |mu| meets exact ties in partial pivoting, which
    SuperLU breaks toward the diagonal: the reused order relabels the rows,
    so that diagonal is K's own, and the solves stay bitwise."""
    gen = _generators_2d(12)[2]
    lu = magop._splu(gen.shifted(0.0))
    unlabelled = magop._splu(gen.shifted(0.0)[:, np.argsort(lu.perm_c)].tocsc(), "NATURAL")
    assert not np.array_equal(unlabelled.perm_r, lu.perm_r)
    gen.shift_solvers(300.0)
    for mu in (0.0, 3.3, -5.0):
        _assert_solves_bitwise(gen.shift_solvers(mu), magop.factorize(gen.shifted(mu)), gen.size)


def test_minimum_degree_order_is_the_same_at_every_shift():
    """SuperLU's MMD column order, postorder included, reads the pattern of
    A - i mu I alone: four shifts of each kind give one perm_c."""
    for gen in _generators_2d(16, amp=0.7):
        h = min(gen.grid.h)
        orders = [magop._splu(gen.shifted(mu)).perm_c for mu in (-300.0, -5.0, 40.0, 0.7 * 4 / h**2)]
        assert all(np.array_equal(order, orders[0]) for order in orders[1:])


def test_scan_orders_once():
    """A 10-point 2D scan runs the minimum-degree ordering once and factors
    the other nine shifts in natural order; a 1D scan reads the band once."""
    specs, bands = [], []
    splu, band = magop.spla.splu, magop._band

    def splu_spy(M, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(M, permc_spec=permc_spec, **kwargs)

    def band_spy(M):
        bands.append(M.shape)
        return band(M)

    mus = -np.linspace(5.0, 200.0, 10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magop.spla, "splu", splu_spy)
        mp.setattr(magop, "_band", band_spy)
        scan_2d = spectra.scan_resolvent(_generators_2d(10)[3], mus)
        assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 9 and len(bands) == 1
        scan_1d = spectra.scan_resolvent(generator_1d("A1", 40), mus)
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 9 and len(bands) == 2
    assert np.all(scan_2d.ok) and np.all(scan_1d.ok)


def test_band_zero_pivot_takes_factorize_path():
    """A zero pivot on the band falls back to SuperLU's MMD factor, as
    ``factorize`` does: the exactly singular 16i tridiag(1, 0, 1) raises
    SuperLU's error on both, and a pivot forced to zero gives bitwise the
    same SuperLU solves."""
    grid = mesh.build_grid(1, 1.0, 5)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    K = gen.shifted(-32.0)
    assert not np.any(K.diagonal()) and magop._band(K) is not None
    errors = []
    for solve in (lambda: gen.shift_solvers(-32.0), lambda: magop.factorize(K)):
        with pytest.raises(RuntimeError) as exc:
            solve()
        errors.append(str(exc.value))
    assert errors == ["Factor is exactly singular"] * 2

    gen = generator_1d("A3", 30)
    specs, splu = [], magop._splu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magop, "_band_solvers", lambda dl, d, du: None)
        mp.setattr(magop, "_splu", lambda M, *spec: specs.append(spec) or splu(M, *spec))
        for mu in (-120.0, 40.0):
            _assert_solves_bitwise(gen.shift_solvers(mu), magop.factorize(gen.shifted(mu)), gen.size)
    assert specs == [()] * 4


def generator_1d(kind, n):
    grid = mesh.build_grid(1, 1.0, n)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.5 * np.sin(p))
    ones = np.ones(grid.num_nodes)
    split = mesh.split_boundary(grid, [-0.3])
    return magop.assemble_generator(kind, grid, a, c=2.0 * ones, d=ones, split=split)


@pytest.mark.parametrize("kind", ["A1", "A2"])
def test_small_grid_scan_runs_lanczos(kind):
    """At n <= 8 unknowns the Lanczos basis can span the whole space: every
    point still converges, in at most as many products as the operator has
    rows, and the reported products are its applications of the operator,
    one solve with the factor of K and one with its adjoint each."""
    gen = generator_1d(kind, 6)
    assert gen.size <= 8
    rows = gen.metric_root[0]
    solves = []
    shift_solvers = magop.GeneratorMatrix.shift_solvers

    def spy(self, mu):
        solvers, count = shift_solvers(self, mu), {"N": 0, "H": 0}
        solves.append(count)

        def counted(trans):
            def solve(b):
                count[trans] += 1
                return solvers[trans](b)
            return solve

        return {trans: counted(trans) for trans in solvers}

    mus = -np.linspace(5.0, 300.0, 7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magop.GeneratorMatrix, "shift_solvers", spy)
        scan = spectra.scan_resolvent(gen, mus)
    assert scan.failures == [] and np.all(scan.ok)
    assert list(scan.products) == [c["N"] for c in solves] == [c["H"] for c in solves]
    assert 0 < min(scan.products) and max(scan.products) <= rows
    for mu, norm in zip(mus, scan.norms):
        ref = dense_resolvent_norm(gen, mu)
        assert abs(norm - ref) <= 1e-10 * ref


def _nan_factor(gen, mu):
    return {"N": lambda b: np.full_like(b, np.nan), "H": lambda b: np.full_like(b, np.nan)}


def test_unconverged_fallback_is_a_failed_point(gen_a1):
    """A point where Lanczos cannot converge (here a factor whose solves
    return NaN) is not rescued: the scan records it as failed, with the
    solver's message, instead of keeping a norm."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magop.GeneratorMatrix, "shift_solvers", _nan_factor)
        with pytest.raises(RuntimeError) as exc:
            spectra.resolvent_norm(gen_a1, -120.0)
        scan = spectra.scan_resolvent(gen_a1, [-120.0, -40.0])
    assert not scan.ok.any() and np.isnan(scan.norms).all() and not scan.products.any()
    assert [f["mu"] for f in scan.failures] == [-120.0, -40.0]
    assert scan.failures[0]["error"] == str(exc.value)
    assert all("Lanczos" in f["error"] for f in scan.failures)


def test_a2_positive_frequency_scan_converges():
    """The 12 x 12 A2 scan at positive frequencies, where the top two
    singular values of the resolvent nearly tie and an 8-vector ARPACK basis
    stalled at 10 of 12 points: every point converges to the dense norm."""
    grid = mesh.build_grid(2, 1.0, 12)
    split = mesh.split_boundary(grid, [-0.3, 0.5])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = 3.0
    gen = magop.assemble_generator("A2", grid, magop.MagneticPotential.zero(grid),
                                   d=d, split=split)
    mus = np.linspace(5.0, 600.0, 12)
    scan = spectra.scan_resolvent(gen, mus)
    assert scan.failures == [] and np.all(scan.ok)
    for mu, norm in zip(mus, scan.norms):
        ref = dense_resolvent_norm(gen, mu)
        assert abs(norm - ref) <= 1e-12 * ref


@pytest.mark.parametrize("kind", ["A1", "A2"])
def test_lanczos_start_is_drawn_once_per_generator(monkeypatch, kind):
    """A scan draws the seed-7 Lanczos start once, on its generator: over
    several mu its norms and product counts are bitwise those of separate
    ``resolvent_norm`` calls on fresh copies, which draw their own."""
    grid = mesh.build_grid(2, 1.0, 12)
    split = mesh.split_boundary(grid, [-0.3, 0.5])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = 1.5
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.6 * np.cos(2.0 * p))
    gen = magop.assemble_generator(kind, grid, a, c=np.where(grid.coords[:, 0] < 0.3, 4.0, 0.0),
                                   d=d, split=split)
    mus = np.linspace(-150.0, -5.0, 5)
    draws, default_rng = [], np.random.default_rng

    def recording_rng(*seed):
        draws.append(seed)
        return default_rng(*seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    scan = spectra.scan_resolvent(gen, mus)
    assert draws == [(7,)] and scan.failures == []
    assert not gen.resolvent_start.flags.writeable
    for mu, norm, products in zip(mus, scan.norms, scan.products):
        want_norm, want_products = spectra.resolvent_norm(replace(gen), mu)
        assert norm.tobytes() == np.float64(want_norm).tobytes()
        assert products == want_products
    assert len(draws) == 1 + mus.size


# ---------------------------------------------------------------------------
# property test: the closed-form sweep against per-query bisection


def smallest_generalized(H, mass):
    """lambda_min of (H, diag(mass)) for Hermitian PSD H, one query at a time."""
    d = 1.0 / np.sqrt(mass)
    Ht = sp.diags(d) @ H @ sp.diags(d)
    return float(la.eigvalsh(Ht.toarray(), subset_by_index=[0, 0])[0])


def reference_sweep(gen, omega, mus, aleph0s, steps=16, cap=1e12):
    """Doubling from 1 and bisection at the estimate's level 1, every question
    answered by an eigensolve.  Returns the final brackets (lo, hi]: lo = hi =
    0 where aleph1 = 0 is feasible, and hi = inf above the last doubling
    point lo <= cap, which is infeasible."""
    M = gen.mass_diag
    M_omega = sp.diags(np.where(np.isin(gen.state_idx, omega), M, 0.0)).tocsr()
    eye = sp.identity(gen.size, dtype=complex, format="csr")
    lo_t = np.zeros((len(mus), len(aleph0s)))
    hi_t = np.zeros_like(lo_t)
    for i, mu in enumerate(mus):
        K = (gen.matrix - 1j * mu * eye).tocsr()
        KMK = (K.getH() @ sp.diags(M) @ K).tocsr()
        for j, al0 in enumerate(aleph0s):
            def feasible(al1):
                return smallest_generalized((al0 * KMK + al1 * M_omega).tocsr(), M) >= 1.0

            if feasible(0.0):
                continue
            hi = 1.0
            while not feasible(hi):
                hi *= 2.0
                if hi > cap:
                    break
            if hi > cap:
                lo_t[i, j], hi_t[i, j] = hi / 2.0, np.inf
                continue
            lo = 0.0 if hi == 1.0 else hi / 2.0
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            lo_t[i, j], hi_t[i, j] = lo, hi
    return lo_t, hi_t


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
    return gen, omega, mus, aleph0s


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(hautus_cases())
def test_hautus_sweep_matches_per_query_bisection(case):
    gen, omega, mus, aleph0s = case
    got = spectra.hautus_sweep(gen, omega, mus, aleph0s).min_aleph1
    lo, hi = reference_sweep(gen, omega, mus, aleph0s)
    assert np.array_equal(got == 0.0, hi == 0.0)
    # a finite threshold past the oracle's cap is inf there, not the reverse
    assert np.all(np.isinf(hi) | np.isfinite(got))
    assert np.all((lo <= got) & (got <= hi))


@pytest.mark.parametrize("amp", [0.0, 0.8])
def test_hautus_eigensolves_real_at_zero_potential(amp):
    """With a = 0 the reduced pencil is real and every dense factorization and
    eigensolve gets float64; a nonzero potential keeps it complex."""
    grid = mesh.build_grid(1, 1.0, 40)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(3.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    dtypes = {"cho_factor": [], "eigvalsh": []}

    def spy(name):
        fn = getattr(la, name)

        def wrapped(H, *args, **kwargs):
            dtypes[name].append(H.dtype)
            return fn(H, *args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in dtypes:
            mp.setattr(la, name, spy(name))
        spectra.hautus_sweep(gen, grid.box_nodes([0.0], [0.3]), [-60.0, -14.0],
                             [0.0, 1e-2])
    want = {np.dtype(float if amp == 0.0 else complex)}
    assert all(seen and set(seen) == want for seen in dtypes.values())
