"""Acceptance suite: every exit criterion, one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from magschro import evolve, magop, mesh, multiplier, obsgram, spectra, weights
from util_fields import identity_residuals_over_grids


def verdict(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# ---------------------------------------------------------------------- 1


@pytest.fixture(scope="module")
def setups_1d():
    grid = mesh.build_grid(1, [1.0], 256)
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: 0.4 + 0.2 * np.sin(2.1 * p[:, 0]))
    split = mesh.split_boundary(grid, [-0.3])
    mn = np.einsum("ij,ij->i", split.m[split.gamma0],
                   grid.normals[split.gamma0])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = mn
    c = np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    return grid, a, split, c, d


@pytest.fixture(scope="module")
def setups_2d():
    grid = mesh.build_grid(2, [1.0, 1.0], 48)
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: np.column_stack(
            [0.3 * np.sin(2 * p[:, 1]), 0.3 * np.cos(2 * p[:, 0])]))
    split = mesh.split_boundary(grid, [-0.3, 0.5])
    mn = np.einsum("ij,ij->i", split.m[split.gamma0],
                   grid.normals[split.gamma0])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = mn
    c = np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    return grid, a, split, c, d


def _structural_checks(grid, a, split, c, d):
    worst_margin = 0.0
    worst_identity = 0.0
    gen0 = magop.assemble_generator("A0", grid, a)
    assert gen0.hermitian_residual() <= 1e-12
    rng = np.random.default_rng(7)
    for kind in ("A1", "A2", "A3"):
        gen = magop.assemble_generator(kind, grid, a, c=c, d=d, split=split)
        lam, scale = gen.dissipativity_margin()
        assert lam <= 1e-10 * scale
        worst_margin = max(worst_margin, lam / scale)
        L = gen.inner_matrix
        for _ in range(5):
            u = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
            lhs = np.vdot(u, L @ (gen.matrix @ u)).real
            rhs = gen.dissipation(u)
            bilinear = np.linalg.norm(L @ (gen.matrix @ u)) * np.linalg.norm(u)
            rel = abs(lhs - rhs) / bilinear
            assert rel <= 1e-10
            worst_identity = max(worst_identity, rel)
    return worst_margin, worst_identity


def test_criterion_1_structural_identities(setups_1d, setups_2d):
    m1, i1 = _structural_checks(*setups_1d)
    m2, i2 = _structural_checks(*setups_2d)
    verdict(1, f"skew/dissipativity margins <= {max(m1, m2):.2e}, "
               f"dissipation identities <= {max(i1, i2):.2e} relative "
               f"(1D n=256 and 2D n=48^2)")


# ---------------------------------------------------------------------- 2


def test_criterion_2_conservation(setups_1d):
    grid, a, *_ = setups_1d
    gen = magop.assemble_generator("A0", grid, a)
    x = grid.coords[gen.state_idx, 0]
    rng = np.random.default_rng(0)
    u0 = sum(rng.normal() * np.sin(k * np.pi * x) * np.exp(1j * rng.normal())
             for k in (1, 2, 3, 5))
    trace = evolve.simulate(gen, u0, T=10.0, dt=1e-3)
    drift_m = trace.conservation["mass_norm_relative_drift"]
    drift_s = trace.conservation["stiffness_norm_relative_drift"]
    assert drift_m <= 1e-10
    assert drift_s <= 1e-10
    verdict(2, f"T=10 dt=1e-3 relative drifts: state norm {drift_m:.2e}, "
               f"gradient norm {drift_s:.2e}")


# ---------------------------------------------------------------------- 3


def test_criterion_3_gauge_exactness(setups_1d):
    grid, a, *_ = setups_1d
    gen = magop.assemble_generator("A0", grid, a)
    psi = 0.8 * np.sin(3 * grid.coords[:, 0])
    conj = magop.gauge_transform(gen, psi)
    direct = magop.assemble_generator(
        "A0", grid, magop.potential_plus_edge_gradient(a, psi))
    r_conj = sp.linalg.norm(conj - direct.matrix) / sp.linalg.norm(direct.matrix)
    assert r_conj <= 1e-12

    anti = magop.link_path_sum(grid, a)
    red = magop.gauge_transform(gen, -anti)
    zero = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    r_red = sp.linalg.norm(red - zero.matrix) / sp.linalg.norm(zero.matrix)
    assert r_red <= 1e-12

    e1 = la.eigvals(gen.matrix.toarray())
    e2 = la.eigvals(direct.matrix.toarray())
    e1 = e1[np.argsort(e1.imag)]
    e2 = e2[np.argsort(e2.imag)]
    r_spec = np.max(np.abs(e1 - e2)) / np.max(np.abs(e1))
    assert r_spec <= 1e-10
    verdict(3, f"conjugation {r_conj:.2e}, 1D reduction {r_red:.2e}, "
               f"spectra {r_spec:.2e}")


# ---------------------------------------------------------------------- 4


def test_criterion_4_known_rate_decay(setups_1d):
    grid, _, _, c, _ = setups_1d
    a0 = magop.MagneticPotential.zero(grid)
    gen_c = magop.assemble_generator("A1", grid, a0, c=np.ones(grid.num_nodes))
    x = grid.coords[gen_c.state_idx, 0]
    u0 = np.sqrt(2) * np.sin(np.pi * x) + 0j
    trace = evolve.simulate(gen_c, u0, T=2.0, dt=1e-3)
    fit_c = evolve.fit_exponential(trace)
    assert abs(fit_c.rate - 2.0) <= 1e-3

    gen_l = magop.assemble_generator("A1", grid, a0, c=c)
    trace_l = evolve.simulate(gen_l, u0, T=10.0, dt=2e-3)
    fit_l = evolve.fit_exponential(trace_l, window=(1.0, 10.0))
    assert fit_l.rate > 0
    assert fit_l.r_squared >= 0.99
    verdict(4, f"constant damping rate {fit_c.rate:.6f} (target 2 +- 1e-3); "
               f"localized collar rate {fit_l.rate:.4f} > 0 with "
               f"R^2 = {fit_l.r_squared:.6f}")


# ---------------------------------------------------------------------- 5


def _boundary_damped_run(grid, x0, afun):
    split = mesh.split_boundary(grid, x0)
    kappa1 = obsgram.poincare_constant(grid, split.gamma1)
    alpha = 0.05 / kappa1
    a = magop.MagneticPotential.from_callable(grid, lambda p: afun(p, alpha))
    assert a.vanishes_on(split.gamma0, tol=1e-12)
    assert a.sup_norm <= alpha + 1e-12
    mn = np.einsum("ij,ij->i", split.m[split.gamma0],
                   grid.normals[split.gamma0])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = mn
    gen = magop.assemble_generator("A2", grid, a, d=d, split=split)
    x = grid.coords[gen.state_idx]
    u0 = np.ones(gen.size, dtype=complex)
    for ax in range(grid.dim):
        u0 *= np.sin(np.pi * x[:, ax])
    u0 = evolve.prepare_smooth_initial(gen, u0)
    trace = evolve.simulate(gen, u0, T=2.0, dt=2e-3)
    fit = evolve.fit_exponential(trace)
    return bool(np.all(np.diff(trace.energy) < 0)), fit.rate


def test_criterion_5_boundary_damped_decay():
    g1 = mesh.build_grid(1, [1.0], 256)
    dec1, rate1 = _boundary_damped_run(
        g1, [-0.3], lambda p, al: al * np.sin(np.pi * p[:, 0]))
    assert dec1 and rate1 > 0

    g2 = mesh.build_grid(2, [1.0, 1.0], 32)
    dec2, rate2 = _boundary_damped_run(
        g2, [-0.3, 0.5],
        lambda p, al: np.column_stack(
            [al * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
             np.zeros(len(p))]))
    assert dec2 and rate2 > 0
    verdict(5, f"gradient energy strictly decreasing; rates 1D {rate1:.3f}, "
               f"2D {rate2:.3f} (d = m.nu, a = 0 on the observed part)")


# ---------------------------------------------------------------------- 6


def test_criterion_6_resolvent(setups_1d):
    grid, _, split, c, d = setups_1d
    a0 = magop.MagneticPotential.zero(grid)
    gen0 = magop.assemble_generator("A0", grid, a0)
    mus = -np.linspace(5, 450, 100)
    scan0 = spectra.scan_resolvent(gen0, mus)
    oracle = spectra.spectral_distance_norms(gen0, mus)
    rel = np.max(np.abs(scan0.norms - oracle) / oracle)
    assert np.all(scan0.ok)
    assert rel <= 1e-6

    coarse = np.linspace(-500, 0, 26)
    for kind in ("A1", "A3"):
        gen = magop.assemble_generator(kind, grid, a0, c=c, d=d, split=split)
        scan = spectra.scan_resolvent(gen, coarse)
        assert np.all(scan.ok) and np.all(np.isfinite(scan.norms))

    fine = mesh.build_grid(1, [1.0], 512)
    gen_f = magop.assemble_generator("A1", fine, magop.MagneticPotential.zero(fine),
                                     c=np.where(fine.coords[:, 0] < 0.25, 5.0, 0.0))
    scan_f = spectra.scan_resolvent(gen_f, -np.linspace(5, 2500, 160))
    assert scan_f.fit_p is not None
    assert scan_f.fit_p <= 0.65
    verdict(6, f"conservative oracle match {rel:.2e}; damped scans finite; "
               f"free exponent p = {scan_f.fit_p:.3f} <= 0.65 on n=512 "
               f"(growth detected: {scan_f.growth_detected})")


# ---------------------------------------------------------------------- 7


def test_criterion_7_observability_oracles():
    grid = mesh.build_grid(1, [1.0], 128)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    obs_full = obsgram.Observation("interior-l2", grid.interior_idx)
    errs = []
    for T in (1.0, 2.0):
        rep = obsgram.gramian(gen, obs_full, T=T)
        errs.append(abs(rep.c_obs - 1.0 / np.sqrt(T)))
        assert errs[-1] <= 1e-6

    fine = mesh.build_grid(1, [1.0], 1024)
    gen_f = magop.assemble_generator("A0", fine,
                                     magop.MagneticPotential.zero(fine))
    lam, V = la.eigh(gen_f.stiffness.toarray(), np.diag(gen_f.mass_diag))
    obs_b = obsgram.Observation("boundary-conormal", fine.boundary_idx)
    N, W = obs_b.build(gen_f)
    T = 1.25
    worst_disc = 0.0
    worst_cont = 0.0
    for k in (0, 1):
        v = V[:, k].astype(complex)
        got = obsgram.observed_ratio(gen_f, v, obs_b, T=T)
        want_disc = T * float(W @ np.abs(N @ v) ** 2)
        worst_disc = max(worst_disc, abs(got - want_disc) / want_disc)
        ratio = float(np.vdot(v, gen_f.stiffness @ v).real) / got
        worst_cont = max(worst_cont, abs(ratio - 1 / (4 * T)) * 4 * T)
    assert worst_disc <= 1e-4
    assert worst_cont <= 1e-4

    obs_g = obsgram.Observation("boundary-conormal", grid.boundary_idx)
    Ts = np.array([1.0, 2.0, 4.0, 8.0])
    chid = np.array([obsgram.gramian(gen, obs_g, T=t).c_hid for t in Ts])
    A = np.column_stack([np.ones_like(Ts), np.sqrt(Ts)])
    coef, _, _, _ = np.linalg.lstsq(A, chid, rcond=None)
    resid = chid - A @ coef
    r2 = 1 - np.sum(resid**2) / np.sum((chid - chid.mean()) ** 2)
    assert r2 >= 0.98
    verdict(7, f"full-observation C_obs error <= {max(errs):.2e}; eigenmode "
               f"oracle error {worst_disc:.2e} (discrete) / {worst_cont:.2e} "
               f"(continuum, n=1024); hidden-regularity sqrt(T) fit "
               f"R^2 = {r2:.6f}")


# ---------------------------------------------------------------------- 8


def test_criterion_8_product_observability():
    g1 = mesh.build_grid(1, [1.0], 24)
    g2 = mesh.build_grid(1, [1.0], 24)
    gen1 = magop.assemble_generator("A0", g1, magop.MagneticPotential.zero(g1))
    gen2 = magop.assemble_generator("A0", g2, magop.MagneticPotential.zero(g2))
    omega1 = g1.box_nodes([0.0], [0.3])
    rep = obsgram.product_observability(gen1, gen2, omega1, T=1.0, dt=0.01)
    assert rep.tensor_residual <= 1e-12
    assert rep.kron_action_residual <= 1e-12
    assert rep.c_2d <= rep.c_1d * 1.05
    verdict(8, f"tensor identity residual {rep.tensor_residual:.2e}; "
               f"C_2D = {rep.c_2d:.4f} <= 1.05 * C_1D = {1.05 * rep.c_1d:.4f}")


# ---------------------------------------------------------------------- 9


def test_criterion_9_multiplier_identity():
    R = np.array([identity_residuals_over_grids(seed) for seed in range(20)])
    levels = np.arange(R.shape[1], dtype=float)
    rms = np.sqrt(np.mean(R**2, axis=0))
    pooled = -np.polyfit(levels, np.log2(rms), 1)[0]
    per_seed = np.array([-np.polyfit(levels, np.log2(r), 1)[0] for r in R])
    assert pooled >= 1.8
    assert np.median(per_seed) >= 1.8

    T = 0.25
    grid = mesh.build_grid(1, [1.0], 129)
    a = magop.MagneticPotential.zero(grid)
    gen = magop.assemble_generator("A0", grid, a)
    x = grid.coords[gen.state_idx, 0]
    field = multiplier.MultiplierField.radial(grid, [0.0])
    rep = multiplier.multiplier_identity_residual(
        gen, np.sqrt(2) * np.sin(np.pi * x) + 0j, T, 2e-4, field)
    want = np.pi**2 * T
    rel = max(abs(rep.lhs - want), abs(rep.rhs - want)) / want
    assert rel <= 1e-3
    verdict(9, f"pooled order {pooled:.2f}, median per-seed order "
               f"{np.median(per_seed):.2f} (20 seeds); standing-mode "
               f"closed-form match {rel:.2e}")


# --------------------------------------------------------------------- 10


def test_criterion_10_weight_certification():
    g2 = mesh.build_grid(2, [1.0, 1.0], 13)
    w = weights.quadratic_weight(g2, [-1.0, 0.5])
    pc = weights.check_pseudoconvexity(w, np.arange(g2.num_nodes))
    assert pc.margin >= 2.0 - 1e-8

    grid = mesh.build_grid(1, [1.0], 33)
    cyl = weights.make_cylinder(grid, ns=17)
    lw = weights.linear_weight(grid, [1.0], offset=2.0)

    def certified(lam):
        wl = weights.cylinder_extend(lw.with_lambda(lam), cyl, beta=1.0)
        return weights.check_subellipticity(
            wl, np.arange(wl.num_nodes), [1.0, 2.0], samples_per_node=8,
            seed=0)

    lo, hi = 0.2, 8.0
    assert not certified(lo).certified
    assert certified(hi).certified
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        if certified(mid).certified:
            hi = mid
        else:
            lo = mid
    at_twice = certified(2.0 * hi)
    assert at_twice.certified
    assert at_twice.min_bracket > 0

    gp = mesh.build_grid(1, [1.0], 65)
    cylp = weights.make_cylinder(gp, ns=65)
    funcs = weights.bump_functions(cylp, 20, seed=0)
    wq = weights.cylinder_extend(
        weights.quadratic_weight(gp, [-1.0]).with_lambda(0.4), cylp, beta=0.5)
    taus = np.linspace(5.0, 0.5 / min(cylp.h), 10)
    probe = weights.carleman_probe(wq, magop.MagneticPotential.zero(gp), funcs, taus)
    assert probe.trend_slope <= 2.0 * probe.trend_stderr
    verdict(10, f"pseudo-convexity margin {pc.margin:.6f} >= 2 - 1e-8; "
                f"sub-ellipticity threshold lambda* = {hi:.3f}, positive at "
                f"2 lambda* (bracket {at_twice.min_bracket:.3e}); probe trend "
                f"slope {probe.trend_slope:.2e} (non-increasing within noise)")


# --------------------------------------------------------------------- 11


def test_criterion_11_hautus():
    grid = mesh.build_grid(1, [1.0], 128)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    rep_full = spectra.hautus_sweep(gen, grid.interior_idx,
                                    mu_grid=[-80.0, -10.0, 30.0],
                                    aleph0_grid=[0.0])
    assert np.all(rep_full.min_aleph1 == 1.0)

    omega = grid.box_nodes([0.0], [0.3])
    rep_loc = spectra.hautus_sweep(gen, omega, mu_grid=[-60.0, -14.0],
                                   aleph0_grid=[0.0, 1e-3, 1e-2, 1e-1])
    monotone = True
    for row in rep_loc.min_aleph1:
        both = np.isfinite(row[:-1]) & np.isfinite(row[1:])
        if np.any(row[1:][both] - row[:-1][both]
                  > 1e-6 * np.maximum(row[:-1][both], 1.0)):
            monotone = False
    assert monotone
    assert np.isfinite(rep_loc.min_aleph1).any()
    verdict(11, "full observation returns (aleph0, aleph1) = (0, 1) exactly; "
                "localized frontier is monotone in aleph0")
