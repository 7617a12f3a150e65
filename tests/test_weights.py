import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from magschro import magop, mesh, weights


@pytest.fixture(scope="module")
def grid():
    return mesh.build_grid(1, [1.0], 33)


@pytest.fixture(scope="module")
def grid2d():
    return mesh.build_grid(2, [1.0, 1.0], 13)


# -- constructors ----------------------------------------------------------


def test_quadratic_weight_fields(grid2d):
    w = weights.quadratic_weight(grid2d, [-1.0, 0.0])
    diff = grid2d.coords - np.array([-1.0, 0.0])
    assert np.allclose(w.psi, 1.0 + np.sum(diff**2, axis=1))
    assert np.allclose(w.grad, 2.0 * diff)
    assert np.allclose(w.hess[:, 0, 0], 2.0)


def test_construct_psi_rejects_interior_x0(grid):
    with pytest.raises(ValueError):
        weights.construct_psi_G(grid, grid.box_nodes([0.7], [1.0]), [0.5])


def test_construct_psi_no_collar_is_quadratic(grid):
    w = weights.construct_psi_G(grid, np.array([], dtype=int), [-1.0])
    x = grid.coords[:, 0]
    r2 = (x + 1.0) ** 2
    shift = w.psi - (1.0 + r2)
    assert np.allclose(shift, shift[0])            # pure constant shift
    assert np.allclose(w.grad[:, 0], 2.0 * (x + 1.0))
    assert np.allclose(w.hess[:, 0, 0], 2.0)


def test_construct_psi_two_thirds_shift(grid):
    omega = grid.box_nodes([0.7], [1.0])
    w = weights.construct_psi_G(grid, omega, [-1.0])
    assert np.min(w.psi) > (2.0 / 3.0) * np.max(np.abs(w.psi))


def test_construct_psi_monotone_outside_collar(grid):
    omega = grid.box_nodes([0.7], [1.0])
    w = weights.construct_psi_G(grid, omega, [-1.0])
    inside = grid.box_nodes([0.0], [0.69])
    vals = w.psi[inside]
    order = np.argsort(grid.coords[inside, 0])
    assert np.all(np.diff(vals[order]) > 0)


def test_linear_weight_positive_guard(grid):
    with pytest.raises(ValueError):
        weights.linear_weight(grid, [1.0], offset=-10.0)


# -- pseudo-convexity -------------------------------------------------------


def test_pseudoconvexity_quadratic_margin(grid2d):
    w = weights.quadratic_weight(grid2d, [-1.0, 0.5])
    rep = weights.check_pseudoconvexity(w, np.arange(grid2d.num_nodes))
    r2max = np.max(np.sum((grid2d.coords - np.array([-1.0, 0.5])) ** 2, axis=1))
    assert rep.margin >= 2.0 - 1e-8
    assert rep.margin <= 2.0 + 4.0 * r2max + 1e-8
    assert rep.min_grad > 0


def test_pseudoconvexity_quadratic_margin_1d(grid):
    w = weights.quadratic_weight(grid, [-1.0])
    rep = weights.check_pseudoconvexity(w, np.arange(grid.num_nodes))
    assert rep.margin >= 2.0 - 1e-8


def test_pseudoconvexity_linear_fails_in_2d(grid2d):
    w = weights.linear_weight(grid2d, [1.0, 0.0], offset=2.0)
    rep = weights.check_pseudoconvexity(w, np.arange(grid2d.num_nodes))
    assert abs(rep.margin) < 1e-12
    assert not rep.certified


def test_pseudoconvexity_collar_construction(grid):
    omega = grid.box_nodes([0.7], [1.0])
    w = weights.construct_psi_G(grid, omega, [-1.0])
    region = grid.box_nodes([0.0], [0.69])
    rep = weights.check_pseudoconvexity(w, region)
    assert rep.margin > 0
    assert rep.transition_nodes == 0


def test_pseudoconvexity_flags_transition_zone(grid):
    omega = grid.box_nodes([0.6], [1.0])
    w = weights.construct_psi_G(grid, omega, [-1.0])
    region = np.arange(grid.num_nodes)
    rep = weights.check_pseudoconvexity(w, region)
    assert rep.transition_nodes > 0
    assert any("finite-difference" in str(f.get("condition", "")) for f in rep.failures)


def test_pseudoconvexity_empty_region(grid):
    w = weights.quadratic_weight(grid, [-1.0])
    with pytest.raises(ValueError):
        weights.check_pseudoconvexity(w, np.array([], dtype=int))


# -- sub-ellipticity --------------------------------------------------------


def bracket_oracle_2d(weight, region, tau):
    """Closed-form bracket in total dimension 2: the characteristic
    directions are +-(the rotated unit gradient)."""
    g = weight.phi_grad()[region]
    H = weight.phi_hess()[region]
    gn = np.linalg.norm(g, axis=1)
    ghat = g / gn[:, None]
    w = np.column_stack([-ghat[:, 1], ghat[:, 0]])
    eta = tau * gn[:, None] * w
    cubic = np.einsum("njk,nj,nk->n", H, g, g)
    quad = np.einsum("njk,nj,nk->n", H, eta, eta)
    return 4.0 * tau**3 * cubic + 4.0 * tau * quad


def test_subellipticity_matches_closed_form(grid):
    cyl = weights.make_cylinder(grid, ns=17)
    lw = weights.linear_weight(grid, [1.0], offset=2.0).with_lambda(1.5)
    w = weights.cylinder_extend(lw, cyl, beta=1.0)
    region = np.arange(w.num_nodes)
    rep = weights.check_subellipticity(w, region, [1.0, 3.0],
                                       samples_per_node=4, seed=0)
    oracle = min(bracket_oracle_2d(w, region, t).min() for t in (1.0, 3.0))
    assert abs(rep.min_bracket - oracle) < 1e-9 * max(abs(oracle), 1.0)


def test_subellipticity_linear_large_lambda_positive(grid):
    cyl = weights.make_cylinder(grid, ns=17)
    lw = weights.linear_weight(grid, [1.0], offset=2.0).with_lambda(6.0)
    w = weights.cylinder_extend(lw, cyl, beta=1.0)
    rep = weights.check_subellipticity(w, np.arange(w.num_nodes), [0.5, 1.0, 2.0],
                                       samples_per_node=8, seed=0)
    assert rep.certified
    assert rep.min_bracket > 0


def test_subellipticity_margin_increases_with_lambda(grid):
    cyl = weights.make_cylinder(grid, ns=17)
    lw = weights.linear_weight(grid, [1.0], offset=2.0)
    margins = []
    for lam in (6.0, 12.0):
        w = weights.cylinder_extend(lw.with_lambda(lam), cyl, beta=1.0)
        rep = weights.check_subellipticity(w, np.arange(w.num_nodes), [1.0],
                                           samples_per_node=8, seed=0)
        assert rep.min_bracket > 0
        margins.append(rep.margin)
    assert margins[1] > margins[0] > 0


def test_subellipticity_threshold_witness(grid):
    """Below the lambda threshold the report carries a failing witness."""
    cyl = weights.make_cylinder(grid, ns=17)
    lw = weights.linear_weight(grid, [1.0], offset=2.0)

    def certified(lam):
        w = weights.cylinder_extend(lw.with_lambda(lam), cyl, beta=1.0)
        return weights.check_subellipticity(w, np.arange(w.num_nodes),
                                            [1.0, 2.0], samples_per_node=8,
                                            seed=0)

    lo, hi = 0.2, 8.0
    assert not certified(lo).certified
    assert certified(hi).certified
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        if certified(mid).certified:
            hi = mid
        else:
            lo = mid
    below = certified(lo)
    assert below.witness is not None
    assert "node" in below.witness and "tau" in below.witness
    assert certified(2.0 * hi).certified


def test_subellipticity_rejects_dimension_1(grid):
    w = weights.linear_weight(grid, [1.0], offset=2.0)
    with pytest.raises(ValueError):
        weights.check_subellipticity(w, np.arange(grid.num_nodes), [1.0])


def test_subellipticity_rejects_empty_tau_grid(grid):
    cyl = weights.make_cylinder(grid, ns=17)
    lw = weights.linear_weight(grid, [1.0], offset=2.0).with_lambda(6.0)
    w = weights.cylinder_extend(lw, cyl, beta=1.0)
    with pytest.raises(ValueError, match="tau_grid is empty"):
        weights.check_subellipticity(w, np.arange(w.num_nodes), [])


def test_subellipticity_excludes_flat_nodes(grid):
    cyl = weights.make_cylinder(grid, ns=17)
    # quadratic centered inside: grad psi vanishes near x0 in the cylinder
    qw = weights.quadratic_weight(grid, [0.5]).with_lambda(0.3)
    w = weights.cylinder_extend(qw, cyl, beta=0.0)
    mid_s = 8                                  # s = 0 slice
    region = mid_s * grid.num_nodes + np.arange(grid.num_nodes)
    rep = weights.check_subellipticity(w, region, [1.0], samples_per_node=4,
                                       seed=0)
    assert rep.excluded_nodes.size > 0


# Property tests against the per-tau loops the certificate and the probe used to
# run, in the bounded, derandomized style of tests/test_obsgram.py.

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
PROBE_PROPERTY = settings(PROPERTY, max_examples=15)


@st.composite
def subellipticity_cases(draw, dim):
    grid = mesh.build_grid(dim, 1.0, draw(st.integers(5, 12) if dim == 1 else st.integers(4, 7)))
    cyl = weights.make_cylinder(grid, ns=draw(st.integers(2, 7)))
    if draw(st.booleans()):
        e = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
        e[0] += 1.5
        base = weights.linear_weight(grid, e, offset=3.0)
    else:
        x0 = [draw(st.floats(-1.0, 2.0)) for _ in range(dim)]
        base = weights.quadratic_weight(grid, x0)
    # below the lambda threshold (small lambda, large beta) most weights fail
    if draw(st.booleans()):
        lam, beta = draw(st.floats(1.0, 4.0)), draw(st.floats(-1.0, 1.0))
    else:
        lam, beta = draw(st.floats(0.01, 0.3)), draw(st.floats(1.0, 4.0))
    w = weights.cylinder_extend(base.with_lambda(lam), cyl, beta=beta)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    region = np.sort(rng.choice(w.num_nodes, size=draw(st.integers(1, w.num_nodes)),
                                replace=False))
    taus = [draw(st.floats(0.1, 10.0)) for _ in range(draw(st.integers(1, 4)))]
    return w, region, taus, draw(st.integers(1, 12)), draw(st.integers(0, 2**16))


def sampled_brackets(weight, region, tau_grid, samples, seed):
    """The per-tau sampled loop: for every tau, the brackets of the sampled
    characteristic directions eta at the nodes where grad phi is nonzero."""
    rng = np.random.default_rng(seed)
    gphi = weight.phi_grad()[region]
    hphi = weight.phi_hess()[region]
    gnorm = np.linalg.norm(gphi, axis=1)
    ok = gnorm > 1e-10
    gphi, hphi, gnorm = gphi[ok], hphi[ok], gnorm[ok]
    cubic = np.einsum("njk,nj,nk->n", hphi, gphi, gphi)
    out = []
    for tau in tau_grid:
        ghat = gphi / gnorm[:, None]
        z = rng.normal(size=(gphi.shape[0], samples, weight.total_dim))
        z -= np.einsum("nsj,nj->ns", z, ghat)[:, :, None] * ghat[:, None, :]
        zn = np.linalg.norm(z, axis=2)
        zn[zn == 0] = 1.0
        eta = z / zn[:, :, None] * (tau * gnorm)[:, None, None]
        quad = np.einsum("njk,nsj,nsk->ns", hphi, eta, eta)
        out.append((tau, eta, 4.0 * tau**3 * cubic[:, None] + 4.0 * tau * quad))
    # |H g . g| + |g|^2 |H| per node: the size of the terms a bracket / 4 tau^3 sums
    terms = np.abs(cubic) + gnorm**2 * np.linalg.norm(hphi, 2, axis=(1, 2))
    return region[ok], terms, out


def witness_case(dim, seed):
    """An uncertified case (small lambda, large beta) with one sample, one tau
    and five region nodes, so that the minimizing sample is unique; in total
    dimension 2 the generated cases rarely are, as +-e give equal brackets."""
    grid = mesh.build_grid(dim, 1.0, 9 if dim == 1 else 6)
    cyl = weights.make_cylinder(grid, ns=4)
    base = weights.quadratic_weight(grid, [-0.5] * dim).with_lambda(0.1)
    w = weights.cylinder_extend(base, cyl, beta=3.0)
    region = np.sort(np.random.default_rng(seed).choice(w.num_nodes, size=5, replace=False))
    return w, region, [5.0], 1, seed


def pruning_case(dim, kind):
    """Cases at the edges of the floor pruning, on the whole cylinder unless
    the region is one node."""
    grid = mesh.build_grid(dim, 1.0, 9 if dim == 1 else 6)
    cyl = weights.make_cylinder(grid, ns=5)
    if kind == "tied":
        # H_phi vanishes on g_phi-perp, so every node's margin floor is |e|^4
        # and every sampled margin ties with it up to rounding
        base = weights.linear_weight(grid, [1.0, 0.5][:dim], offset=3.0).with_lambda(2.0)
        w = weights.cylinder_extend(base, cyl, beta=0.0)
        return w, np.arange(w.num_nodes), [1.0, 3.0], 4, 7
    base = weights.quadratic_weight(grid, [-0.5] * dim)
    if kind == "one node":
        w = weights.cylinder_extend(base.with_lambda(1.0), cyl, beta=0.5)
        return w, np.array([w.num_nodes // 2 + 1]), [2.0, 0.5], 6, 1
    # uncertified, one sample per node: the witness node is unique
    w = weights.cylinder_extend(base.with_lambda(0.1), cyl, beta=3.0)
    return w, np.arange(w.num_nodes), [5.0, 2.0], 1, 4


@pytest.mark.parametrize("dim", [1, 2])
def test_subellipticity_matches_per_tau_sampled_loop(dim):
    seen = {"certified": 0, "uncertified": 0, "unique witness": 0}

    @PROPERTY
    @given(subellipticity_cases(dim))
    @example(witness_case(dim, 0))
    @example(witness_case(dim, 2))
    @example(witness_case(dim, 3))
    @example(pruning_case(dim, "tied"))
    @example(pruning_case(dim, "one node"))
    @example(pruning_case(dim, "uncertified"))
    def check(case):
        w, region, taus, samples, seed = case
        if not np.any(np.linalg.norm(w.phi_grad()[region], axis=1) > 1e-10):
            return
        rep = weights.check_subellipticity(w, region, taus, samples_per_node=samples, seed=seed)
        nodes, terms, per_tau = sampled_brackets(w, region, taus, samples, seed)
        phi_scale = (w.lam * w.phi()[nodes]) ** 3
        margin = min((b / (4.0 * t**3 * phi_scale)[:, None]).min() for t, _, b in per_tau)
        assert abs(rep.margin - margin) <= 1e-12 * np.max(terms / phi_scale)
        tol = 1e-12 * 4.0 * max(taus) ** 3 * np.max(terms)
        per_tau_min = {}                # a repeated tau: the minimum over its draws
        for tau, _, bracket in per_tau:
            per_tau_min[tau] = min(bracket.min(), per_tau_min.get(tau, np.inf))
        assert rep.per_tau_min.keys() == per_tau_min.keys()
        for tau, low in per_tau_min.items():
            assert abs(rep.per_tau_min[tau] - low) <= 1e-12 * 4.0 * tau**3 * np.max(terms)
        best = min(b.min() for _, _, b in per_tau)
        assert abs(rep.min_bracket - best) <= tol
        if abs(best) > tol:
            assert rep.certified == (best > 0)
        if rep.certified:
            seen["certified"] += 1
            assert rep.witness is None
            return
        seen["uncertified"] += 1
        # the first tau reaching the minimum, its first node and sample
        tau, eta, bracket = next(c for c in per_tau if c[2].min() == best)
        ni, si = np.unravel_index(np.argmin(bracket), bracket.shape)
        others = np.sort(np.concatenate([b.ravel() for _, _, b in per_tau]))
        if others.size == 1 or others[1] - others[0] > 2 * tol:
            # the minimum is separated from every other sample beyond rounding
            seen["unique witness"] += 1
            assert rep.witness["node"] == nodes[ni] and rep.witness["tau"] == tau
            assert np.allclose(rep.witness["eta"], eta[ni, si], rtol=0.0,
                               atol=1e-12 * np.linalg.norm(eta[ni, si]))

    check()
    assert min(seen.values()) >= 3, seen


def test_subellipticity_repeated_tau_keeps_minimum():
    """A tau drawn twice reports the smaller of its two minima, so the
    per-tau table contains the overall minimum."""
    grid = mesh.build_grid(2, [1.0, 1.0], 4)
    cyl = weights.make_cylinder(grid, ns=3)
    base = weights.quadratic_weight(grid, [-1.0, 0.5]).with_lambda(1.0)
    w = weights.cylinder_extend(base, cyl, beta=0.5)
    rep = weights.check_subellipticity(w, [5], [10.0, 10.0], samples_per_node=1, seed=3)
    assert list(rep.per_tau_min) == [10.0]
    assert min(rep.per_tau_min.values()) == rep.min_bracket


@pytest.mark.parametrize("dim", [1, 2])
def test_subellipticity_closed_form_lower_bound(dim):
    """The bracket on the characteristic set is 4 tau^3 (H g . g + |g|^2 H e . e)
    over unit e perp g, so 4 tau^3 min_n (H g . g + |g|^2 lambda_min(H on g-perp))
    bounds every sampled minimum from below, and is attained when D = 2."""
    @PROPERTY
    @given(subellipticity_cases(dim))
    def check(case):
        w, region, taus, samples, seed = case
        g = w.phi_grad()[region]
        H = w.phi_hess()[region]
        gnorm = np.linalg.norm(g, axis=1)
        ok = gnorm > 1e-10
        if not ok.any():
            return
        g, H, gnorm = g[ok], H[ok], gnorm[ok]
        # columns 1.. of a complete QR of g span the plane perpendicular to g
        Q = np.linalg.qr(g[:, :, None], mode="complete")[0][:, :, 1:]
        perp = np.linalg.eigvalsh(np.transpose(Q, (0, 2, 1)) @ H @ Q)[:, 0]
        inner = np.einsum("njk,nj,nk->n", H, g, g) + gnorm**2 * perp
        scale = np.max(np.abs(np.einsum("njk,nj,nk->n", H, g, g))
                       + gnorm**2 * np.linalg.norm(H, 2, axis=(1, 2)))
        rep = weights.check_subellipticity(w, region, taus, samples_per_node=samples, seed=seed)
        for tau, sampled in rep.per_tau_min.items():
            exact = 4.0 * tau**3 * inner.min()
            tol = 1e-12 * 4.0 * tau**3 * scale
            assert exact <= sampled + tol
            if w.total_dim == 2:
                assert abs(sampled - exact) <= tol

    check()


# -- probes ----------------------------------------------------------------


def bump_1d(grid, center, radius):
    r2 = ((grid.coords[:, 0] - center) / radius) ** 2
    return weights._smoothstep(1.0 - r2).astype(complex)


def test_probe_constant_weight_reduces_to_unweighted(grid):
    pot = magop.MagneticPotential.zero(grid)
    const = weights.WeightFunction(
        domain=grid, psi=np.full(grid.num_nodes, 2.0),
        grad=np.zeros((grid.num_nodes, 1)),
        hess=np.zeros((grid.num_nodes, 1, 1)), label="flat")
    f = bump_1d(grid, 0.5, 0.25)
    tau = 3.0
    rep = weights.carleman_probe(const, pot, [f], [tau])
    Pf = magop.laplacian_stencil_full(grid, pot) @ f
    gf = grid.gradients[0] @ f
    wq = grid.volume_weights
    plain = ((tau**3 * np.sum(wq * np.abs(f) ** 2)
              + tau * np.sum(wq * np.abs(gf) ** 2))
             / np.sum(wq * np.abs(Pf) ** 2))
    assert np.isclose(rep.ratios[0], plain, rtol=1e-13)


def test_probe_homogeneity_exact(grid):
    pot = magop.MagneticPotential.zero(grid)
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = bump_1d(grid, 0.5, 0.25)
    r1 = weights.carleman_probe(w, pot, [f], [2.0, 4.0]).ratios
    r2 = weights.carleman_probe(w, pot, [2.0 * f], [2.0, 4.0]).ratios
    assert np.array_equal(r1, r2)


def test_probe_rejects_tau_beyond_window(grid):
    pot = magop.MagneticPotential.zero(grid)
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = bump_1d(grid, 0.5, 0.25)
    tau_bad = 0.5 / min(grid.h) + 1.0
    with pytest.raises(ValueError):
        weights.carleman_probe(w, pot, [f], [tau_bad])


def test_probe_rejects_uncompact_support(grid):
    pot = magop.MagneticPotential.zero(grid)
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = np.ones(grid.num_nodes, dtype=complex)
    with pytest.raises(ValueError):
        weights.carleman_probe(w, pot, [f], [2.0])


def test_probe_skips_zero_samples(grid):
    pot = magop.MagneticPotential.zero(grid)
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = bump_1d(grid, 0.5, 0.25)
    zero = np.zeros_like(f)
    rep = weights.carleman_probe(w, pot, [zero, f], [2.0])
    assert rep.samples_used == 1
    assert np.isfinite(rep.ratios[0])
    with pytest.raises(ValueError):
        weights.carleman_probe(w, pot, [zero], [2.0])


def test_probe_trend_on_shipped_cylinder():
    grid = mesh.build_grid(1, [1.0], 65)
    cyl = weights.make_cylinder(grid, ns=65)
    funcs = weights.bump_functions(cyl, 20, seed=0)
    w = weights.cylinder_extend(
        weights.quadratic_weight(grid, [-1.0]).with_lambda(0.4), cyl, beta=0.5)
    taus = np.linspace(5.0, 0.5 / min(cyl.h), 10)
    rep = weights.carleman_probe(w, magop.MagneticPotential.zero(grid), funcs, taus)
    assert rep.samples_used == 20
    assert rep.trend_slope <= 2.0 * rep.trend_stderr
    assert rep.bounded


@pytest.mark.parametrize("dim", [1, 2])
def test_cylinder_grid_vocabulary(dim):
    grid = mesh.build_grid(dim, [1.0, 0.5][:dim], [9, 7][:dim])
    cyl = weights.make_cylinder(grid, s_half=1.5, ns=6)
    s = cyl.coords[:, 0]
    on_space_boundary = np.zeros(grid.num_nodes, dtype=bool)
    on_space_boundary[grid.boundary_idx] = True
    expect = ((s == cyl.s_nodes[0]) | (s == cyl.s_nodes[-1])
              | np.tile(on_space_boundary, cyl.ns))
    assert np.array_equal(cyl.boundary_idx, np.flatnonzero(expect))
    assert np.isclose(cyl.volume_weights.sum(), 2 * 1.5 * grid.measure, rtol=1e-14)
    assert cyl.dim == 1 + dim and cyl.num_nodes == cyl.ns * grid.num_nodes
    assert cyl.h == (cyl.s_h, *grid.h)
    slope = np.array([0.7, -1.3, 2.1][:1 + dim])
    affine = 0.4 + cyl.coords @ slope
    for g, c in zip(cyl.gradients, slope):
        assert np.allclose(g @ affine, c, rtol=0.0, atol=1e-12)


def test_probe_rejects_cylinder_field_on_s_end():
    grid = mesh.build_grid(1, [1.0], 17)
    cyl = weights.make_cylinder(grid, ns=9)
    w = weights.cylinder_extend(weights.quadratic_weight(grid, [-1.0]), cyl, beta=0.5)
    pot = magop.MagneticPotential.zero(grid)
    f = weights.bump_functions(cyl, 1, seed=0)[0]
    weights.carleman_probe(w, pot, [f], [2.0])
    f = f.copy()
    f[cyl.num_nodes - grid.num_nodes + grid.num_nodes // 2] = 1.0   # last s slice
    with pytest.raises(ValueError, match="compactly supported"):
        weights.carleman_probe(w, pot, [f], [2.0])


def test_probe_overflow_guard(grid):
    pot = magop.MagneticPotential.zero(grid)
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(4.0)
    f = bump_1d(grid, 0.5, 0.25)
    with pytest.raises(ValueError, match="double precision"):
        weights.carleman_probe(w, pot, [f], [16.0])


def bump_functions_all_nodes(dom, count, seed, cylinder=False):
    """The bump generator evaluating profile and phase on every node."""
    rng = np.random.default_rng(seed)
    if cylinder:
        pts = dom.coords
        los = np.concatenate([[dom.s_nodes[0]], np.asarray(dom.spatial.origin)])
        his = np.concatenate([[dom.s_nodes[-1]], np.asarray(dom.spatial.origin)
                              + np.asarray(dom.spatial.extents)])
    else:
        pts = dom.coords
        los = np.asarray(dom.origin)
        his = los + np.asarray(dom.extents)
    out = []
    for _ in range(count):
        center = los + (0.3 + 0.4 * rng.random(pts.shape[1])) * (his - los)
        radius = (0.1 + 0.15 * rng.random(pts.shape[1])) * (his - los)
        r2 = np.sum(((pts - center) / radius) ** 2, axis=1)
        prof = weights._smoothstep(1.0 - r2)
        phase = np.exp(1j * (pts @ rng.normal(size=pts.shape[1])))
        f = prof * phase * (0.5 + rng.random())
        out.append(f)
    return out


@pytest.mark.parametrize("dim,cylinder", [(1, False), (2, False), (1, True), (2, True)])
def test_bump_functions_match_all_node_evaluation(dim, cylinder):
    grid = mesh.build_grid(dim, 1.0, 17 if dim == 1 else 12)
    dom = weights.make_cylinder(grid, ns=9) if cylinder else grid
    for seed in (0, 5):
        got = weights.bump_functions(dom, 20, seed=seed)
        ref = bump_functions_all_nodes(dom, 20, seed=seed, cylinder=cylinder)
        assert len(got) == len(ref) == 20
        for f, g in zip(got, ref):
            assert f.shape == g.shape and np.array_equal(f, g)
            assert np.count_nonzero(f) < f.size       # compact support


@st.composite
def probe_cases(draw, kind):
    dim = 2 if kind == "grid-2d" else 1
    grid = mesh.build_grid(dim, 1.0, draw(st.integers(12, 33) if dim == 1 else st.integers(8, 14)))
    amp = draw(st.sampled_from([0.0, draw(st.floats(0.1, 2.0))]))
    pot = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.cos(2.0 * p))
    base = weights.quadratic_weight(grid, [draw(st.floats(-1.5, -0.2)) for _ in range(dim)])
    lam = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 2**16))
    count = draw(st.integers(1, 5))
    if kind == "cylinder":
        cyl = weights.make_cylinder(grid, ns=draw(st.integers(8, 20)))
        w = weights.cylinder_extend(base.with_lambda(lam), cyl, beta=draw(st.floats(0.0, 1.0)))
        funcs = weights.bump_functions(cyl, count, seed=seed)
        min_h = min(cyl.h)
    else:
        w = base.with_lambda(lam)
        funcs = weights.bump_functions(grid, count, seed=seed)
        min_h = min(grid.h)
    for at in draw(st.lists(st.integers(0, count), max_size=2)):
        funcs.insert(at, np.zeros_like(funcs[0]))
    taus = [draw(st.floats(0.5, 0.5 / min_h)) for _ in range(draw(st.integers(1, 6)))]
    return w, pot, funcs, taus


def probe_fields(dom, potential, f):
    """P f and grad f from the per-axis stencils: on a cylinder in the tensor
    form on (ns, N) arrays, flattened back to node fields."""
    if isinstance(dom, weights.CylinderGrid):
        space = dom.spatial
        F = f.reshape(dom.ns, space.num_nodes)
        lap = magop.laplacian_stencil_full(space, potential)
        Pf = mesh._d2_matrix(dom.ns, dom.s_h) @ F + (lap @ F.T).T
        gf = [mesh._d1_matrix(dom.ns, dom.s_h) @ F]
        gf += [(g @ F.T).T for g in space.gradients]
        return Pf.ravel(), np.stack([g.ravel() for g in gf], axis=-1)
    Pf = magop.laplacian_stencil_full(dom, potential) @ f
    return Pf, np.column_stack([g @ f for g in dom.gradients])


def probe_ratios_per_tau(weight, potential, test_functions, taus):
    """The per-tau probe loop, weights applied to the fields before squaring;
    None when exp(tau phi) spans more than double precision on a support."""
    dom = weight.domain
    wq = dom.volume_weights
    phi = weight.phi()
    ratios = np.full(len(taus), -np.inf)
    for f in test_functions:
        if np.max(np.abs(f)) == 0:
            continue
        Pf, gf = probe_fields(dom, potential, f)
        support = (np.abs(f) > 0) | (np.abs(Pf) > 0) | np.any(np.abs(gf) > 0, axis=-1)
        phimax = np.max(phi[support])
        if max(taus) * (phimax - np.min(phi[support])) > 700.0:
            return None
        for i, tau in enumerate(taus):
            w = np.zeros_like(phi)
            w[support] = np.exp(tau * (phi[support] - phimax))
            nf = np.sum(wq * np.abs(w * f) ** 2)
            ngf = np.sum(wq * np.sum(np.abs(w[..., None] * gf) ** 2, axis=-1))
            npf = np.sum(wq * np.abs(w * Pf) ** 2)
            if npf != 0:
                ratios[i] = max(ratios[i], (tau**3 * nf + tau * ngf) / npf)
    return ratios


@pytest.mark.parametrize("kind", ["grid-1d", "grid-2d", "cylinder"])
def test_probe_matches_per_tau_loop(kind):
    @PROBE_PROPERTY
    @given(probe_cases(kind))
    def check(case):
        w, pot, funcs, taus = case
        ref = probe_ratios_per_tau(w, pot, funcs, taus)
        if ref is None:
            with pytest.raises(ValueError, match="double precision"):
                weights.carleman_probe(w, pot, funcs, taus)
            return
        rep = weights.carleman_probe(w, pot, funcs, taus)
        assert rep.samples_used == sum(np.max(np.abs(f)) > 0 for f in funcs)
        assert np.all(np.isfinite(ref))
        assert np.allclose(rep.ratios, ref, rtol=1e-13, atol=0.0)

    check()


# -- derivative fields ------------------------------------------------------


def test_weight_derivative_consistency():
    errs = []
    for n in (33, 65):
        g = mesh.build_grid(1, [1.0], n)
        w = weights.quadratic_weight(g, [-1.0])
        errs.append(w.derivative_consistency())
    assert errs[0] < 1e-10      # exact for quadratics (second-order stencils)
    cyl = weights.make_cylinder(mesh.build_grid(1, [1.0], 33), ns=17)
    wext = weights.cylinder_extend(
        weights.quadratic_weight(cyl.spatial, [-1.0]), cyl, beta=1.0)
    assert wext.derivative_consistency() < 1e-10
