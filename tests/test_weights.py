import numpy as np
import pytest

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


# -- probes ----------------------------------------------------------------


def bump_1d(grid, center, radius):
    r2 = ((grid.coords[:, 0] - center) / radius) ** 2
    return weights._smoothstep(1.0 - r2).astype(complex)


def test_probe_constant_weight_reduces_to_unweighted(grid):
    op = weights.GridOperator(grid, magop.MagneticPotential.zero(grid))
    const = weights.WeightFunction(
        domain=grid, psi=np.full(grid.num_nodes, 2.0),
        grad=np.zeros((grid.num_nodes, 1)),
        hess=np.zeros((grid.num_nodes, 1, 1)), label="flat")
    f = bump_1d(grid, 0.5, 0.25)
    tau = 3.0
    rep = weights.carleman_probe(op, const, [f], [tau])
    Pf = op.apply(f)
    gf = op.gradient(f)
    wq = grid.volume_weights
    plain = ((tau**3 * np.sum(wq * np.abs(f) ** 2)
              + tau * np.sum(wq * np.abs(gf[:, 0]) ** 2))
             / np.sum(wq * np.abs(Pf) ** 2))
    assert np.isclose(rep.ratios[0], plain, rtol=1e-13)


def test_probe_homogeneity_exact(grid):
    op = weights.GridOperator(grid, magop.MagneticPotential.zero(grid))
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = bump_1d(grid, 0.5, 0.25)
    r1 = weights.carleman_probe(op, w, [f], [2.0, 4.0]).ratios
    r2 = weights.carleman_probe(op, w, [2.0 * f], [2.0, 4.0]).ratios
    assert np.array_equal(r1, r2)


def test_probe_rejects_tau_beyond_window(grid):
    op = weights.GridOperator(grid, magop.MagneticPotential.zero(grid))
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = bump_1d(grid, 0.5, 0.25)
    tau_bad = 0.5 / min(grid.h) + 1.0
    with pytest.raises(ValueError):
        weights.carleman_probe(op, w, [f], [tau_bad])


def test_probe_rejects_uncompact_support(grid):
    op = weights.GridOperator(grid, magop.MagneticPotential.zero(grid))
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = np.ones(grid.num_nodes, dtype=complex)
    with pytest.raises(ValueError):
        weights.carleman_probe(op, w, [f], [2.0])


def test_probe_skips_zero_samples(grid):
    op = weights.GridOperator(grid, magop.MagneticPotential.zero(grid))
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(0.3)
    f = bump_1d(grid, 0.5, 0.25)
    zero = np.zeros_like(f)
    rep = weights.carleman_probe(op, w, [zero, f], [2.0])
    assert rep.samples_used == 1
    assert np.isfinite(rep.ratios[0])
    with pytest.raises(ValueError):
        weights.carleman_probe(op, w, [zero], [2.0])


def test_probe_trend_on_shipped_cylinder():
    grid = mesh.build_grid(1, [1.0], 65)
    cyl = weights.make_cylinder(grid, ns=65)
    op = weights.CylinderOperator(cyl, potential=magop.MagneticPotential.zero(grid))
    funcs = weights.bump_functions(cyl, 20, seed=0, cylinder=True)
    w = weights.cylinder_extend(
        weights.quadratic_weight(grid, [-1.0]).with_lambda(0.4), cyl, beta=0.5)
    taus = np.linspace(5.0, 0.5 / cyl.min_h, 10)
    rep = weights.carleman_probe(op, w, funcs, taus)
    assert rep.samples_used == 20
    assert rep.trend_slope <= 2.0 * rep.trend_stderr
    assert rep.bounded


def test_probe_overflow_guard(grid):
    op = weights.GridOperator(grid, magop.MagneticPotential.zero(grid))
    w = weights.quadratic_weight(grid, [-1.0]).with_lambda(4.0)
    f = bump_1d(grid, 0.5, 0.25)
    with pytest.raises(ValueError, match="double precision"):
        weights.carleman_probe(op, w, [f], [16.0])


# -- space-time weights -----------------------------------------------------


def test_spacetime_weights_values(grid):
    w = weights.quadratic_weight(grid, [-1.0])
    T, lam, nt = 2.0, 0.7, 21
    stw = weights.spacetime_weights(w, lam, T, nt)
    assert stw.t_nodes.size == nt - 2
    mid = np.argmin(np.abs(stw.t_nodes - T / 2))
    denom = stw.t_nodes[mid] * (T - stw.t_nodes[mid])
    assert abs(denom - T**2 / 4) < 1e-12
    assert np.allclose(stw.theta[mid], np.exp(lam * w.psi) / (T**2 / 4))
    assert np.all(stw.phi > 0)
    # time symmetry t <-> T - t
    assert np.allclose(stw.theta, stw.theta[::-1], rtol=1e-12)
    assert np.allclose(stw.phi, stw.phi[::-1], rtol=1e-12)


def test_spacetime_weights_need_interior_nodes(grid):
    w = weights.quadratic_weight(grid, [-1.0])
    with pytest.raises(ValueError):
        weights.spacetime_weights(w, 1.0, 1.0, 2)


def test_evolution_probe_smoke():
    grid = mesh.build_grid(1, [1.0], 33)
    pot = magop.MagneticPotential.zero(grid)
    w = weights.construct_psi_G(grid, grid.box_nodes([0.7], [1.0]), [-1.0])
    T, nt = 1.0, 41
    stw = weights.spacetime_weights(w, 0.5, T, nt)
    omega = grid.box_nodes([0.6], [1.0])
    rng = np.random.default_rng(0)
    xs = grid.coords[:, 0]
    t = stw.t_nodes
    samples = []
    for _ in range(5):
        sprof = weights._smoothstep(1 - ((t - T / 2) / (0.35 * T)) ** 2)
        xprof = weights._smoothstep(1 - ((xs - 0.45) / 0.3) ** 2)
        samples.append(np.outer(sprof, xprof)
                       * np.exp(1j * rng.normal() * xs)[None, :])
    s_grid = [2.0, 5.0, 10.0]
    rep = weights.carleman_probe_evolution(grid, pot, stw, samples, s_grid,
                                           omega)
    assert np.all(np.isfinite(rep.ratios))
    assert rep.ratios.max() > 0


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
