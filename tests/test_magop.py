from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from magschro import magop, mesh


@pytest.fixture(scope="module")
def grid_1d():
    return mesh.build_grid(1, [1.0], 256)


@pytest.fixture(scope="module")
def grid_2d():
    return mesh.build_grid(2, [1.0, 1.0], 24)


@pytest.fixture(scope="module")
def smooth_pot(grid_1d):
    return magop.MagneticPotential.from_callable(
        grid_1d, lambda p: 0.7 + 0.3 * np.sin(2.1 * p[:, 0]))


def test_laplacian_zero_potential_spectrum(grid_1d):
    a = magop.MagneticPotential.zero(grid_1d)
    lap = magop.assemble_generator("A0", grid_1d, a).lap_matrix
    w = spla.eigsh((-lap).real.tocsc(), k=1, sigma=0, which="LM",
                   return_eigenvectors=False)
    assert abs(w[0] - np.pi**2) < 0.01


def test_constant_potential_isospectral(grid_1d):
    alpha = 0.8
    a = magop.MagneticPotential.from_samples(
        grid_1d, np.full((grid_1d.num_nodes, 1), alpha))
    z = magop.MagneticPotential.zero(grid_1d)
    lap_a = magop.assemble_generator("A0", grid_1d, a).lap_matrix
    lap_0 = magop.assemble_generator("A0", grid_1d, z).lap_matrix
    ea = np.sort(la.eigvalsh(lap_a.toarray()))
    e0 = np.sort(la.eigvalsh(lap_0.toarray()))
    assert np.max(np.abs(ea - e0)) < 1e-10 * np.max(np.abs(e0))


def cross_check_laplacian(grid, a):
    """The expansion stencil with the boundary rows and columns removed."""
    inner = grid.interior_idx
    return a.laplacian[inner][:, inner]


def test_schemes_identical_for_zero_potential(grid_1d):
    a = magop.MagneticPotential.zero(grid_1d)
    link = magop.assemble_generator("A0", grid_1d, a).lap_matrix
    expa = cross_check_laplacian(grid_1d, a)
    assert sp.linalg.norm(link - expa) < 1e-12 * sp.linalg.norm(expa)


def test_schemes_agree_second_order():
    diffs = []
    for n in (33, 65):
        g = mesh.build_grid(1, [1.0], n)
        a = magop.MagneticPotential.from_callable(
            g, lambda p: 0.5 * np.sin(2.0 * p[:, 0]))
        link = magop.assemble_generator("A0", g, a)
        expa = cross_check_laplacian(g, a)
        x = g.coords[link.state_idx, 0]
        u = np.sin(np.pi * x) * np.exp(1j * 1.3 * x)
        diffs.append(np.max(np.abs(link.lap_matrix @ u - expa @ u)))
    assert diffs[0] / diffs[1] > 3.0


def test_laplacian_rejects_wrong_grid(grid_1d):
    other = mesh.build_grid(1, [1.0], 32)
    a = magop.MagneticPotential.zero(other)
    with pytest.raises(ValueError, match="different grid"):
        magop.assemble_generator("A0", grid_1d, a)


def test_magnetic_gradient_linear_exact(grid_1d):
    a = magop.MagneticPotential.zero(grid_1d)
    u = grid_1d.coords[:, 0].astype(complex)
    assert np.max(np.abs(a.gradient[0] @ u - 1.0)) < 1e-12


def test_magnetic_gradient_zero_field(grid_1d, smooth_pot):
    g = smooth_pot.gradient[0] @ np.zeros(grid_1d.num_nodes, dtype=complex)
    assert np.max(np.abs(g)) == 0.0


def test_magnetic_gradient_gauge_product_rule():
    errs = []
    alpha = 0.9
    for n in (65, 129):
        g = mesh.build_grid(1, [1.0], n)
        a = magop.MagneticPotential.from_samples(g, np.full((g.num_nodes, 1), alpha))
        x = g.coords[:, 0]
        v = np.sin(2.0 * x) + 0.3 * np.cos(5.0 * x)
        u = np.exp(-1j * alpha * x) * v
        got = a.gradient[0] @ u
        dv = 2.0 * np.cos(2.0 * x) - 1.5 * np.sin(5.0 * x)
        want = np.exp(-1j * alpha * x) * dv
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] / errs[1] > 3.0


def test_conormal_sine(grid_1d):
    a = magop.MagneticPotential.zero(grid_1d)
    u = np.sin(np.pi * grid_1d.coords[:, 0]).astype(complex)
    assert grid_1d.boundary_idx[0] == 0     # the first conormal row is x = 0
    vals = a.conormal[:1] @ u
    # outward normal at x=0 points left: d_nu u = -u'(0) = -pi
    assert abs(abs(vals[0]) - np.pi) < 1e-3
    assert abs(vals[0] + np.pi) < 1e-3


def test_conormal_constant_exact(grid_1d):
    a = magop.MagneticPotential.zero(grid_1d)
    u = np.full(grid_1d.num_nodes, 2.3, dtype=complex)
    vals = a.conormal @ u
    assert np.max(np.abs(vals)) < 1e-12


def test_conormal_pure_potential_term(grid_1d, smooth_pot):
    u = np.ones(grid_1d.num_nodes, dtype=complex)
    node = grid_1d.num_nodes - 1
    beta = smooth_pot.values[node, 0] * grid_1d.normals[node, 0]
    assert grid_1d.boundary_idx[-1] == node
    vals = smooth_pot.conormal[-1:] @ u
    assert abs(vals[0] - 1j * beta) < 1e-12


def test_green_identity_sine():
    g = mesh.build_grid(1, [1.0], 128)
    a = magop.MagneticPotential.zero(g)
    f = np.sin(np.pi * g.coords[:, 0]).astype(complex)
    rep = magop.check_green_identity(g, a, f, f)
    # all three terms are analytic: (lap f | f) = -pi^2/2, ||f'||^2 = pi^2/2
    assert abs(rep.volume_term + np.pi**2 / 2) < 1e-3
    assert abs(rep.gradient_term - np.pi**2 / 2) < 1e-3
    assert rep.residual < 5e-3
    assert rep.matrix_residual is not None
    assert rep.matrix_residual < 1e-10


def test_green_identity_zero(grid_1d):
    a = magop.MagneticPotential.zero(grid_1d)
    z = np.zeros(grid_1d.num_nodes, dtype=complex)
    rep = magop.check_green_identity(grid_1d, a, z, z)
    assert rep.residual == 0.0


def test_green_identity_refinement():
    rng = np.random.default_rng(3)
    c = rng.normal(size=4)
    residuals = []
    for n in (65, 129):
        g = mesh.build_grid(1, [1.0], n)
        a = magop.MagneticPotential.from_callable(
            g, lambda p: 0.4 * np.cos(1.7 * p[:, 0]))
        x = g.coords[:, 0]
        f = (c[0] * np.sin(2 * x) + c[1] * np.cos(3 * x)) * np.exp(1j * c[2] * x)
        h = np.cos(2.2 * x) + 1j * c[3] * np.sin(1.1 * x)
        rep = magop.check_green_identity(g, a, f, h)
        residuals.append(rep.residual)
    assert residuals[0] / residuals[1] >= 1.8


# -- generators ---------------------------------------------------------


def damped_setup(grid, pot=None):
    """A potential, a boundary split and the boundary damping d = m.nu on gamma0."""
    a = pot if pot is not None else magop.MagneticPotential.zero(grid)
    split = mesh.split_boundary(grid, [-0.3] + [0.5] * (grid.dim - 1))
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = np.einsum("ij,ij->i", split.m[split.gamma0], grid.normals[split.gamma0])
    return a, split, d


def test_a0_skew_adjoint(grid_1d, smooth_pot):
    gen = magop.assemble_generator("A0", grid_1d, smooth_pot)
    assert gen.hermitian_residual() < 1e-12


def test_a1_constant_damping_shift(grid_1d):
    a = magop.MagneticPotential.zero(grid_1d)
    c0 = 1.5
    A0 = magop.assemble_generator("A0", grid_1d, a)
    A1 = magop.assemble_generator("A1", grid_1d, a, c=np.full(grid_1d.num_nodes, c0))
    e0 = la.eigvals(A0.matrix.toarray())
    e1 = la.eigvals(A1.matrix.toarray())
    e0 = e0[np.argsort(e0.imag)]
    e1 = e1[np.argsort(e1.imag)]
    assert np.max(np.abs(e1 - (e0 - c0))) < 1e-8 * np.max(np.abs(e0))


def test_a3_zero_damping_imaginary_spectrum(grid_1d, smooth_pot):
    split = mesh.split_boundary(grid_1d, [-0.3])
    gen = magop.assemble_generator("A3", grid_1d, smooth_pot, split=split)
    eigs = la.eigvals(gen.matrix.toarray())
    assert np.max(np.abs(eigs.real)) < 1e-10 * np.max(np.abs(eigs))


@pytest.mark.parametrize("kind", ["A1", "A2", "A3"])
def test_dissipation_identities_random_states(grid_1d, smooth_pot, kind):
    a, split, d = damped_setup(grid_1d, smooth_pot)
    c = np.where(grid_1d.coords[:, 0] < 0.3, 5.0, 0.0)
    gen = magop.assemble_generator(kind, grid_1d, a, c=c, d=d, split=split)
    rng = np.random.default_rng(42)
    L = gen.inner_matrix
    for _ in range(5):
        u = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
        lhs = np.vdot(u, L @ (gen.matrix @ u)).real
        rhs = gen.dissipation(u)
        scale = np.linalg.norm(L @ (gen.matrix @ u)) * np.linalg.norm(u)
        assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["A1", "A2", "A3"])
def test_dissipativity_margins(grid_1d, smooth_pot, kind):
    a, split, d = damped_setup(grid_1d, smooth_pot)
    c = np.where(grid_1d.coords[:, 0] < 0.3, 5.0, 0.0)
    gen = magop.assemble_generator(kind, grid_1d, a, c=c, d=d, split=split)
    lam, scale = gen.dissipativity_margin()
    assert lam <= 1e-10 * scale


@pytest.mark.parametrize("n", [24, 28])
def test_dissipativity_margin_sees_a_positive_eigenvalue(n, monkeypatch):
    """A 2D A2 generator with sigma d negated is not dissipative: the
    Hermitian part of S A is -S diag(sigma d / (M^2 + sigma^2 d^2)) S, not
    diagonal, and positive semidefinite once sigma d < 0.  The margin reports
    its largest eigenvalue on both sides of 600 unknowns (552 at n = 24, 756
    at n = 28), and refuses an order above the dense limit."""
    grid = mesh.build_grid(2, 1.0, n)
    split = mesh.split_boundary(grid, [-0.3, 0.5])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = 1.0
    gen = magop.assemble_generator("A2", grid, magop.MagneticPotential.zero(grid), d=d,
                                   split=split)
    bad = replace(gen, sigma_d=-gen.sigma_d)
    B = (bad.stiffness @ bad.matrix).toarray()
    want = np.linalg.eigvalsh(0.5 * (B + B.conj().T))[-1]
    lam, scale = bad.dissipativity_margin()
    assert want > 1e-10 * scale
    assert abs(lam - want) <= 1e-10 * scale
    monkeypatch.setattr(magop, "_DENSE_LIMIT", gen.size - 1)
    with pytest.raises(magop.DenseLimitError, match=f"dense order {gen.size}"):
        bad.dissipativity_margin()


def test_a2_requires_gamma0(grid_1d, smooth_pot):
    g = grid_1d
    split = mesh.BoundarySplit(
        gamma0=np.array([], dtype=int), gamma1=g.boundary_idx.copy(),
        m=g.coords.copy(), transition_pairs=0)
    with pytest.raises(ValueError, match="boundary_split"):
        magop.assemble_generator("A2", g, smooth_pot, split=split)


def test_generator_2d_margins(grid_2d):
    a = magop.MagneticPotential.from_callable(
        grid_2d, lambda p: np.column_stack(
            [0.2 * np.sin(2 * p[:, 1]), 0.2 * np.cos(2 * p[:, 0])]))
    gen = magop.assemble_generator("A0", grid_2d, a)
    assert gen.hermitian_residual() < 1e-12


# -- gauge machinery -----------------------------------------------------


def test_gauge_conjugation_matches_shifted_potential(grid_1d, smooth_pot):
    gen = magop.assemble_generator("A0", grid_1d, smooth_pot)
    psi = 0.8 * np.sin(3 * grid_1d.coords[:, 0])
    conj = magop.gauge_transform(gen, psi)
    shifted = magop.potential_plus_edge_gradient(smooth_pot, psi)
    direct = magop.assemble_generator("A0", grid_1d, shifted)
    rel = sp.linalg.norm(conj - direct.matrix) / sp.linalg.norm(direct.matrix)
    assert rel < 1e-12


def test_gauge_constant_phase_no_op(grid_1d, smooth_pot):
    gen = magop.assemble_generator("A0", grid_1d, smooth_pot)
    conj = magop.gauge_transform(gen, np.full(grid_1d.num_nodes, 1.234))
    rel = sp.linalg.norm(conj - gen.matrix) / sp.linalg.norm(gen.matrix)
    assert rel < 1e-14


def test_gauge_1d_reduction(grid_1d, smooth_pot):
    gen = magop.assemble_generator("A0", grid_1d, smooth_pot)
    psi = magop.edge_antiderivative_1d(grid_1d, smooth_pot)
    red = magop.gauge_transform(gen, -psi)
    zero = magop.assemble_generator(
        "A0", grid_1d, magop.MagneticPotential.zero(grid_1d))
    rel = sp.linalg.norm(red - zero.matrix) / sp.linalg.norm(zero.matrix)
    assert rel < 1e-12


def test_gauge_spectral_invariance(smooth_pot, grid_1d):
    gen = magop.assemble_generator("A0", grid_1d, smooth_pot)
    psi = 0.8 * np.sin(3 * grid_1d.coords[:, 0])
    shifted = magop.potential_plus_edge_gradient(smooth_pot, psi)
    direct = magop.assemble_generator("A0", grid_1d, shifted)
    e1 = np.sort(la.eigvals(gen.matrix.toarray()).imag)
    e2 = np.sort(la.eigvals(direct.matrix.toarray()).imag)
    assert np.max(np.abs(e1 - e2)) < 1e-10 * np.max(np.abs(e1))


def test_potential_invariants(grid_1d, smooth_pot):
    assert smooth_pot.sup_norm == np.max(np.abs(smooth_pot.values))
    z = magop.MagneticPotential.zero(grid_1d)
    assert z.vanishes_on(grid_1d.boundary_idx)
    assert not smooth_pot.vanishes_on(grid_1d.boundary_idx)


def test_damping_validation(grid_1d, smooth_pot):
    """A damping field is nonnegative and lives on every grid node."""
    split = mesh.split_boundary(grid_1d, [-0.3])
    bad = -np.ones(grid_1d.num_nodes)
    for kind in ("A0", "A1", "A2", "A3"):
        for field in ({"c": bad}, {"d": bad}, {"c": np.ones(3)},
                      {"d": np.full(grid_1d.num_nodes, np.nan)}):
            with pytest.raises(ValueError, match="nonnegative field"):
                magop.assemble_generator(kind, grid_1d, smooth_pot, split=split, **field)



# -- property tests: one assembly formula for every kind -------------------
#
# Random small grids, potentials, damping fields and boundary splits.  The
# shared assembly must reproduce, bit for bit, the two per-kind formulas it
# replaced, and every kind must keep the structural identities: A0
# skew-adjoint, A1-A3 dissipative, every kind gauge covariant.

KINDS = ("A0", "A1", "A2", "A3")
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def assembly_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(5, 30) if dim == 1 else st.integers(5, 12))
    grid = mesh.build_grid(dim, 1.0, n)
    amp, freq, phase, offset = (draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 4.0)),
                                draw(st.floats(0.0, 3.0)), draw(st.floats(-1.0, 1.0)))
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: offset + amp * np.sin(freq * p + phase))
    x0 = [draw(st.floats(-0.5, 1.5)) for _ in range(dim)]
    split = mesh.split_boundary(grid, x0)
    assume(not split.gamma0_empty)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    c = draw(st.floats(0.0, 20.0)) * rng.random(grid.num_nodes)
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = draw(st.floats(0.0, 5.0)) * rng.random(split.gamma0.size)
    damping = {"c": c, "d": d}
    psi = draw(st.floats(0.1, 3.0)) * np.cos(
        grid.coords @ np.array([draw(st.floats(-4.0, 4.0)) for _ in range(dim)])
        + draw(st.floats(0.0, 3.0)))
    return grid, a, damping, split, psi


def reference_assembly(kind, grid, a, damping, split):
    """The per-kind formulas that assembled A0/A1 and A2/A3 separately."""
    if kind in ("A0", "A1"):
        state = np.setdiff1d(np.arange(grid.num_nodes), grid.boundary_idx)
        mass = grid.volume_weights[state]
        S = magop.magnetic_stiffness(grid, a, state)
        lap = (sp.diags(-1.0 / mass) @ S).tocsr()
        A = (1j * lap).tocsr()
        cvals = None
        if kind == "A1":
            cvals = damping["c"][state]
            A = (A - sp.diags(cvals)).tocsr()
        return dict(matrix=A, lap_matrix=lap, stiffness=S, mass_diag=mass,
                    state_idx=state, gamma0_pos=None, sigma_d=None, damping_c=cvals)
    state = np.sort(np.concatenate([grid.interior_idx, split.gamma0]))
    mass = grid.volume_weights[state]
    S = magop.magnetic_stiffness(grid, a, state)
    g0_pos = magop._positions(grid.num_nodes, state)[split.gamma0]
    sigma_d = grid.surface_weights[split.gamma0] * damping["d"][split.gamma0]
    D = np.zeros(state.size)
    D[g0_pos] = sigma_d
    if kind == "A3":
        lap = (sp.diags(1.0 / mass) @ (-S + 1j * sp.diags(D))).tocsr()
    else:
        lap = (sp.diags(1.0 / (mass + 1j * D)) @ (-S)).tocsr()
    return dict(matrix=(1j * lap).tocsr(), lap_matrix=lap, stiffness=S, mass_diag=mass,
                state_idx=state, gamma0_pos=g0_pos, sigma_d=sigma_d, damping_c=None)


def assert_bitwise(got, want):
    if want is None:
        assert got is None
        return
    if sp.issparse(want):
        got, want = got.tocsr(copy=True), want.tocsr(copy=True)
        got.sort_indices()
        want.sort_indices()
        for name in ("indptr", "indices"):
            assert_bitwise(getattr(got, name), getattr(want, name))
        got, want = got.data, want.data
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(assembly_cases())
def test_assembly_matches_per_kind_formulas(case):
    grid, a, damping, split, _ = case
    for kind in KINDS:
        gen = magop.assemble_generator(kind, grid, a, split=split, **damping)
        for name, want in reference_assembly(kind, grid, a, damping, split).items():
            assert_bitwise(getattr(gen, name), want)


@PROPERTY
@given(assembly_cases())
def test_structural_identities(case):
    grid, a, damping, split, psi = case
    shifted = magop.potential_plus_edge_gradient(a, psi)
    for kind in KINDS:
        gen = magop.assemble_generator(kind, grid, a, split=split, **damping)
        if kind == "A0":
            assert gen.hermitian_residual() <= 1e-12
        else:
            lam, scale = gen.dissipativity_margin()
            assert lam <= 1e-10 * scale
        direct = magop.assemble_generator(kind, grid, shifted, split=split, **damping).matrix
        rel = sp.linalg.norm(magop.gauge_transform(gen, psi) - direct) / sp.linalg.norm(direct)
        assert rel <= 1e-12


def test_generators_on_a_3d_grid():
    """The edge assembly is dimension-free: on a 5^3 grid A0 is skew-adjoint,
    A1 is dissipative, gauge conjugation is the assembly with a + grad psi, and
    with a = 0 the lowest Dirichlet eigenvalue is the tensor one,
    3 (4/h^2) sin^2(pi h/2)."""
    grid = mesh.build_grid(3, 1.0, 5)
    a = magop.MagneticPotential.from_callable(grid, lambda p: np.sin(2.0 * p + 0.3))
    psi = np.cos(grid.coords @ np.array([1.0, -0.5, 0.7]))
    shifted = magop.potential_plus_edge_gradient(a, psi)
    c = np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    for kind in ("A0", "A1"):
        gen = magop.assemble_generator(kind, grid, a, c=c)
        if kind == "A0":
            assert gen.hermitian_residual() <= 1e-12
        else:
            lam, scale = gen.dissipativity_margin()
            assert lam <= 1e-10 * scale
        direct = magop.assemble_generator(kind, grid, shifted, c=c).matrix
        assert (sp.linalg.norm(magop.gauge_transform(gen, psi) - direct)
                <= 1e-12 * sp.linalg.norm(direct))
    lap = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid)).lap_matrix
    assert lap.shape == (27, 27)
    lowest = np.linalg.eigvalsh(-lap.toarray())[0]
    h = grid.h[0]
    assert abs(lowest - 3.0 * (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2) <= 1e-12 * lowest


@PROPERTY
@given(assembly_cases(), st.just(0.0) | st.floats(-400.0, 100.0))
def test_shifted_is_the_sparse_difference(case, mu):
    """The cached A - i mu I pattern gives bitwise the sparse sum's CSC, and
    writing one shift leaves the pattern for the next."""
    grid, a, damping, split, _ = case
    for kind in KINDS:
        gen = magop.assemble_generator(kind, grid, a, split=split, **damping)
        eye = sp.identity(gen.size, dtype=complex, format="csr")
        for m in (mu, -mu + 1.0, mu):
            got, want = gen.shifted(m), (gen.matrix - 1j * m * eye).tocsc()
            assert got.format == want.format == "csc"
            for name in ("indptr", "indices", "data"):
                assert_bitwise(getattr(got, name), getattr(want, name))


@PROPERTY
@given(assembly_cases())
def test_metric_root_factors_the_inner_product(case):
    """R^H R = L to rounding, R^H is R's adjoint, and L^-1 inverts L.  A
    stiffness with a kernel (gamma0 the whole boundary) is no metric and has
    no L^-1, but its edge root still factors it."""
    grid, a, damping, split, _ = case
    rng = np.random.default_rng(0)
    for kind in KINDS:
        gen = magop.assemble_generator(kind, grid, a, split=split, **damping)
        L = gen.inner_matrix.toarray()
        if np.linalg.cond(L) > 1e10:
            R = magop.magnetic_edge_root(grid, a, gen.state_idx).toarray()
            assert np.linalg.norm(R.conj().T @ R - L) <= 1e-14 * np.linalg.norm(L)
            continue
        rows, r_apply, rh_apply, l_solve = gen.metric_root
        n = gen.size
        R = np.column_stack([r_apply(e) for e in np.eye(n, dtype=complex)])
        assert R.shape == (rows, n)
        assert np.linalg.norm(R.conj().T @ R - L) <= 1e-14 * np.linalg.norm(L)
        y = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        assert np.linalg.norm(rh_apply(y) - R.conj().T @ y) <= 1e-14 * np.linalg.norm(
            R) * np.linalg.norm(y)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.linalg.norm(L @ l_solve(x) - x) <= 1e-12 * np.linalg.norm(x)


def test_a2_edge_table_is_built_once(monkeypatch):
    """An A2 generator keeps the edge table its stiffness was built from, so
    reading ``metric_root`` builds no second one, and its R and R^H products
    are bitwise those of a fresh table.  The other kinds keep none."""
    grid = mesh.build_grid(2, 1.0, 10)
    a, split, d = damped_setup(
        grid, magop.MagneticPotential.from_callable(grid, lambda p: np.sin(2.0 * p + 0.5)))
    builds = []
    edge_root = magop.magnetic_edge_root
    monkeypatch.setattr(magop, "magnetic_edge_root",
                        lambda *args: builds.append(args) or edge_root(*args))
    gens = {kind: magop.assemble_generator(kind, grid, a, d=d, split=split) for kind in KINDS}
    assert [kind for kind, g in gens.items() if g.edge_root is not None] == ["A2"]
    gen = gens["A2"]
    gen.metric_root
    assert len(builds) == len(KINDS)

    R = edge_root(grid, a, gen.state_idx)
    rows, r_apply, rh_apply, _ = gen.metric_root
    rng = np.random.default_rng(3)
    x = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    y = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    assert r_apply(x).tobytes() == (R @ x).tobytes()
    assert rh_apply(y).tobytes() == (R.getH().tocsr() @ y).tobytes()


# -- block diagnostics and the Cayley solver ---------------------------------


@pytest.mark.parametrize("support", ["empty", "everywhere", "box"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a1_trace_on_the_damping_support(support, dim):
    """A1's dissipations read only the rows of the block on supp c, and agree
    with the full-state formula -(mass c) . |U|^2 at the endpoints and at the
    midpoints of consecutive columns: bitwise when c vanishes nowhere or
    everywhere (the same rows are summed), to rounding on a box."""
    grid = mesh.build_grid(dim, 1.0, 40 if dim == 1 else 11)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.6 * np.sin(2.0 * p + 0.4))
    rng = np.random.default_rng(7)
    c = {"empty": np.zeros(grid.num_nodes),
         "everywhere": 0.5 + 4.0 * rng.random(grid.num_nodes),
         "box": np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)}[support]
    gen = magop.assemble_generator("A1", grid, a, c=c)
    rows, _ = gen._damping_support
    assert np.array_equal(rows, np.flatnonzero(gen.damping_c > 0))
    U = rng.normal(size=(gen.size, 9)) + 1j * rng.normal(size=(gen.size, 9))

    w = gen.mass_diag * gen.damping_c
    want_end = -(w @ (U.real ** 2 + U.imag ** 2))
    mid = 0.5 * (U[:, :-1] + U[:, 1:])
    want_mid = -(w @ (mid.real ** 2 + mid.imag ** 2))
    want_one = np.array([-(w @ (u.real ** 2 + u.imag ** 2)) for u in U.T])
    got_end, got_mid = gen.step_dissipations(U)
    got_one = np.array([gen.dissipation(u) for u in U.T])
    for got, want in ((got_end, want_end), (got_mid, want_mid),
                      (gen.dissipations(U), want_end), (got_one, want_one)):
        assert got.shape == want.shape
        if support == "box":
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        else:
            assert got.tobytes() == want.tobytes()
    assert (support == "empty") == (not np.any(got_end))


@pytest.mark.parametrize("kind", ["A0", "A1", "A2"])
def test_energies_are_half_the_form(grid_1d, smooth_pot, kind):
    """Energies are half the quadratic form with no square root taken: within
    rounding of half the squared norm of each state, the mass norm for A0 and
    A1, the stiffness norm for A2."""
    a, split, d = damped_setup(grid_1d, smooth_pot)
    gen = magop.assemble_generator(kind, grid_1d, a, d=d, split=split)
    rng = np.random.default_rng(3)
    U = rng.normal(size=(gen.size, 6)) + 1j * rng.normal(size=(gen.size, 6))
    norm = gen.mass_norm if gen.inner_kind == "mass" else gen.stiffness_norm
    want = np.array([0.5 * norm(u) ** 2 for u in U.T])
    # one square root and its square apart
    np.testing.assert_allclose([gen.energy(u) for u in U.T], want, rtol=4e-16, atol=0)
    # a vector's form is a dot product, a block's a matrix product: the
    # summation orders differ
    np.testing.assert_allclose(gen.energies(U), want, rtol=1e-14, atol=0)


def across_axes(p):
    """0.8 sin(2 (x + y) + 0.3) in every component: link phases that do not
    separate by axis, so a 2D Crank-Nicolson system stays on SuperLU."""
    return 0.8 * np.sin(2.0 * p.sum(axis=1, keepdims=True) + 0.3) * np.ones(p.shape[1])


@pytest.mark.parametrize("trans", ["N"])
@pytest.mark.parametrize("dim", [1, 2])
def test_cayley_solver_is_twice_the_unscaled_solve(dim, trans):
    """On the zgttrf path (1D) the factor of (I - dt/2 A)/2 solves bitwise as
    twice the factor of I - dt/2 A.  On the SuperLU path (2D, a potential
    whose phases do not separate) the factor is of the weighted system
    W (I - dt/2 A)/2, W = M + i sigma d on gamma0, written from the
    generator's parts as W + i dt/2 S: each solve is bitwise twice that
    system's factor applied to W b, and the system is W times I - dt/2 A to
    rounding."""
    grid = mesh.build_grid(dim, 1.0, 48 if dim == 1 else 10)
    a = magop.MagneticPotential.from_callable(
        grid, (lambda p: 0.9 * np.cos(3.0 * p + 0.2)) if dim == 1 else across_axes)
    split = mesh.split_boundary(grid, [-0.3] * dim)
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = 1.7
    gen = magop.assemble_generator("A2", grid, a, d=d, split=split)
    w = gen.mass_diag.astype(complex)
    w[gen.gamma0_pos] += 1j * gen.sigma_d
    rng = np.random.default_rng(11)
    b = rng.normal(size=(gen.size, 4)) + 1j * rng.normal(size=(gen.size, 4))
    for dt in (1e-3, 0.3):
        unscaled = sp.identity(gen.size, dtype=complex, format="csc") - (dt / 2.0) * gen.matrix
        assert (magop._tridiagonal_solver(unscaled) is not None) == (dim == 1)
        solve = gen.cayley_solver(dt)
        assert gen.cayley_route(dt) == ("band" if dim == 1 else "superlu")
        if dim == 1:
            want = magop.factorize(unscaled)[trans]
            for x in (b, b[:, 0]):
                assert solve(x).tobytes() == (2.0 * want(x)).tobytes()
            continue
        weighted = sp.diags(w) + (0.5j * dt) * gen.stiffness
        product = sp.diags(w) @ unscaled
        assert spla.norm(weighted - product) <= 1e-15 * spla.norm(product)
        want = magop.factorize(weighted)[trans]
        for x in (b, b[:, 0]):
            wx = w[:, None] * x if x.ndim == 2 else w * x
            assert solve(x).tobytes() == (2.0 * want(wx)).tobytes()


@pytest.mark.parametrize("kind, n", [(k, 12) for k in KINDS] + [("A2", 128)])
def test_cayley_factor_makes_no_interchanges(monkeypatch, kind, n):
    """The SuperLU factor of ``cayley_solver`` keeps its diagonal: the weighted
    system W (I - dt/2 A) is strictly column diagonally dominant, so partial
    pivoting leaves perm_r equal to perm_c, also at 128^2, where I - dt/2 A
    itself makes hundreds of interchanges on A2.  The solve matches a dense
    solve of I - dt/2 A, or past the dense limit has a rounding-level
    residual.  The potential's phases do not separate, so every kind takes
    SuperLU."""
    grid = mesh.build_grid(2, 1.0, n)
    a, split, d = damped_setup(grid, magop.MagneticPotential.from_callable(grid, across_axes))
    c = np.where(grid.coords[:, 0] < 0.4, 3.0, 0.0)
    gen = magop.assemble_generator(kind, grid, a, c=c, d=d, split=split)
    factors, splu = [], spla.splu

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", recording_splu)
    rng = np.random.default_rng(5)
    b = rng.normal(size=(gen.size, 2)) + 1j * rng.normal(size=(gen.size, 2))
    for dt in (5e-4, 0.05):
        x = gen.cayley_solver(dt)(b)
        assert gen.cayley_route(dt) == "superlu"
        assert np.array_equal(factors[-1].perm_r, factors[-1].perm_c)
        if n <= 12:
            dense = np.eye(gen.size) - (dt / 2.0) * gen.matrix.toarray()
            want = 2.0 * np.linalg.solve(dense, b)
            assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        else:
            unscaled = sp.identity(gen.size, format="csr") - (dt / 2.0) * gen.matrix
            assert np.linalg.norm(unscaled @ x - 2.0 * b) <= 1e-13 * np.linalg.norm(2.0 * b)
    assert len(factors) == 2


PRESETS = {
    "zero": lambda grid: magop.MagneticPotential.zero(grid),
    "constant": lambda grid: magop.MagneticPotential.from_samples(
        grid, np.tile([0.7, -1.3], (grid.num_nodes, 1))),
    "sine": lambda grid: magop.MagneticPotential.from_callable(
        grid, lambda p: 0.9 * np.sin(3.0 * p + 0.2)),
}


def face_split(grid, faces):
    """A boundary split whose gamma0 is the given faces (axis, 0 or -1)."""
    at = np.array(np.unravel_index(grid.boundary_idx, grid.shape))
    on = np.zeros(grid.boundary_idx.size, dtype=bool)
    for ax, end in faces:
        on |= at[ax] == (grid.shape[ax] - 1 if end else 0)
    return mesh.BoundarySplit(gamma0=grid.boundary_idx[on], gamma1=grid.boundary_idx[~on],
                              m=grid.coords, transition_pairs=0)


GAMMA0 = {
    "one side": lambda grid, rng: face_split(grid, [(0, -1)]),
    "three sides": lambda grid, rng: mesh.split_boundary(grid, [-0.3, 0.5]),
    "whole boundary": lambda grid, rng: mesh.split_boundary(grid, [0.5, 0.5]),
    "random x0": lambda grid, rng: mesh.split_boundary(grid, rng.uniform(-0.5, 1.5, 2)),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("kind, gamma0", [("A0", None)] + [
    (kind, gamma0) for kind in ("A2", "A3") for gamma0 in GAMMA0])
def test_modal_cayley_matches_a_dense_solve(kind, gamma0, preset):
    """Where the link phases separate by axis, A0, A2 and A3 solve the
    Crank-Nicolson system in A0's closed-form axis modes, A2 and A3 through
    the Schur complement of gamma0, with no SuperLU factor.  Vector and
    block right-hand sides match a dense solve of I - dt/2 A to 1e-13, on a
    rectangle of unequal axes, at every dt and gamma0."""
    grid = mesh.build_grid(2, (1.0, 1.4), (9, 12))
    rng = np.random.default_rng(sorted(GAMMA0).index(gamma0) if gamma0 else 7)
    split, d = None, None
    if kind != "A0":
        split = GAMMA0[gamma0](grid, rng)
        d = np.zeros(grid.num_nodes)
        d[split.gamma0] = rng.uniform(0.1, 5.0, split.gamma0.size)
    gen = magop.assemble_generator(kind, grid, PRESETS[preset](grid), d=d, split=split)
    assert gen.axis_sines is not None
    b = rng.normal(size=(gen.size, 3)) + 1j * rng.normal(size=(gen.size, 3))
    for dt in (5e-4, 0.05, 1.0):
        solve = gen.cayley_solver(dt)
        assert gen.cayley_route(dt) == ("modes" if kind == "A0" else "modes+schur")
        want = 2.0 * np.linalg.solve(np.eye(gen.size) - (dt / 2.0) * gen.matrix.toarray(), b)
        for x, w in ((b, want), (b[:, 0], want[:, 0])):
            got = solve(x)
            assert got.shape == w.shape
            assert np.linalg.norm(got - w) <= 1e-13 * np.linalg.norm(w)


def test_modal_cayley_takes_superlu_where_it_does_not_apply(monkeypatch):
    """A1, a potential whose phases do not separate, a gamma0 of corners
    alone (no node of it couples to the interior) and a Schur complement past
    the dense limit make one SuperLU factor per dt; the separable A0, A2 and
    A3 make none.  1D takes zgttrf."""
    factors, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kw: factors.append(1) or splu(*args, **kw))
    grid = mesh.build_grid(2, 1.0, 12)
    a, split, d = damped_setup(grid)
    c = np.where(grid.coords[:, 0] < 0.4, 3.0, 0.0)
    crossed = magop.MagneticPotential.from_callable(grid, across_axes)
    cases = [("A0", a, "modes"), ("A2", a, "modes+schur"), ("A3", a, "modes+schur"),
             ("A1", a, "superlu"), ("A0", crossed, "superlu"), ("A2", crossed, "superlu")]
    for kind, pot, route in cases:
        gen = magop.assemble_generator(kind, grid, pot, c=c, d=d, split=split)
        before = len(factors)
        for dt in (5e-4, 0.05):
            gen.cayley_solver(dt)
            assert gen.cayley_route(dt) == route
        assert len(factors) - before == (2 if route == "superlu" else 0), (kind, route)
    corners = grid.flat_index(([0, 0, 11, 11], [0, 11, 0, 11]))
    only_corners = mesh.BoundarySplit(gamma0=np.sort(corners), m=grid.coords, transition_pairs=0,
                                      gamma1=np.setdiff1d(grid.boundary_idx, corners))
    gen = magop.assemble_generator("A2", grid, a, d=d, split=only_corners)
    assert gen.cayley_route(0.1) == "superlu" and len(factors) == 7
    gen = magop.assemble_generator("A3", grid, a, d=d, split=split)
    monkeypatch.setattr(magop, "_DENSE_LIMIT", split.gamma0.size - 1)
    assert gen.cayley_route(0.1) == "superlu" and len(factors) == 8
    grid_1d = mesh.build_grid(1, 1.0, 16)
    gen = magop.assemble_generator("A0", grid_1d, magop.MagneticPotential.zero(grid_1d))
    assert gen.cayley_route(0.1) == "band" and len(factors) == 8


def test_generator_build_forms_no_gradient_matrices(monkeypatch):
    """Assembly reads edges only: the grid's gradient matrices and the
    potential's cross-check stencil are built on first use.  The stencil is
    kept on the potential, so a second probe does not rebuild it, and its
    i div(a) term is the centered-difference sum."""
    from magschro import weights

    grid = mesh.build_grid(2, 1.0, 9)
    a, split, d = damped_setup(
        grid, magop.MagneticPotential.from_callable(grid, lambda p: np.sin(2.0 * p + 0.5)))
    for kind in KINDS:
        magop.assemble_generator(kind, grid, a, d=d, split=split)
    assert "gradients" not in vars(grid) and "laplacian" not in vars(a)

    builds = []
    d2 = magop._d2_matrix
    monkeypatch.setattr(magop, "_d2_matrix", lambda n, h: builds.append(n) or d2(n, h))
    w = weights.quadratic_weight(grid, [-0.3, 0.5]).with_lambda(0.3)
    funcs = weights.bump_functions(grid, 2, seed=0)
    weights.carleman_probe(w, a, funcs, [2.0])
    assert builds == [9, 9]
    stencil = a.laplacian
    weights.carleman_probe(w, a, funcs, [3.0])
    assert builds == [9, 9] and a.laplacian is stencil

    second = sum(mesh._axis_matrix(grid, d2(9, grid.h[ax]), ax) for ax in range(2))
    drift = sum(2j * sp.diags(a.values[:, ax]) @ G for ax, G in enumerate(grid.gradients))
    rest = (stencil - second - drift).toarray() + np.diag(np.sum(a.values**2, axis=1))
    div = sum(G @ a.values[:, ax] for ax, G in enumerate(grid.gradients))
    assert np.allclose(rest, np.diag(1j * div), rtol=0.0, atol=1e-12 * np.max(np.abs(div)))
