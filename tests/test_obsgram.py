import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from magschro import evolve, magop, mesh, obsgram, spectra


@pytest.fixture(scope="module")
def grid():
    return mesh.build_grid(1, [1.0], 128)


@pytest.fixture(scope="module")
def gen(grid):
    return magop.assemble_generator(
        "A0", grid, magop.MagneticPotential.zero(grid))


@pytest.fixture(scope="module")
def gen_mag(grid):
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: 0.4 + 0.2 * np.sin(2.0 * p[:, 0]))
    return magop.assemble_generator("A0", grid, a)


@pytest.fixture(scope="module")
def modal(gen):
    lam, V = la.eigh(gen.stiffness.toarray(), np.diag(gen.mass_diag))
    return lam, V


def test_full_observation_gives_inverse_sqrt_T(gen, grid, gen_mag):
    obs = obsgram.Observation("interior-l2", grid.interior_idx)
    for g in (gen, gen_mag):
        for T in (1.0, 2.0):
            rep = obsgram.gramian(g, obs, T=T, dt=0.01)
            assert abs(rep.c_obs - 1.0 / np.sqrt(T)) < 1e-6


def test_zero_horizon_rejected(gen, grid):
    obs = obsgram.Observation("interior-l2", grid.interior_idx)
    with pytest.raises(ValueError):
        obsgram.gramian(gen, obs, T=0.0, dt=0.01)


def test_damped_generator_rejected(grid):
    gen1 = magop.assemble_generator(
        "A1", grid, magop.MagneticPotential.zero(grid), c=np.ones(grid.num_nodes))
    obs = obsgram.Observation("interior-l2", grid.interior_idx)
    with pytest.raises(ValueError):
        obsgram.gramian(gen1, obs, T=1.0, dt=0.01)


def test_boundary_eigenmode_ratio(gen, grid, modal):
    """Eigen-expansion oracle: the observed flux energy of the k-th mode is
    T ||N v_k||^2 exactly for exact phases, and matches the closed-form
    continuum value 4 k^2 pi^2 T / (normalization) at second order."""
    lam, V = modal
    obs = obsgram.Observation("boundary-conormal", grid.boundary_idx)
    N, W = obs.build(gen)
    T = 1.25
    for k in (0, 2):
        v = V[:, k].astype(complex)
        got = obsgram.observed_ratio(gen, v, obs, T=T)
        want_discrete = T * float(W @ np.abs(N @ v) ** 2)
        assert abs(got - want_discrete) < 1e-10 * want_discrete
        # continuum: v ~ sqrt(2) sin((k+1) pi x), |d_nu v|^2 = 2 (k+1)^2 pi^2
        # at each endpoint; second-order agreement, constant grows with mode
        want_cont = T * 4.0 * ((k + 1) * np.pi) ** 2
        tol = 2.0 * ((k + 1) * np.pi * grid.h[0]) ** 2
        assert abs(got - want_cont) < tol * want_cont
        # hidden-regularity-style ratio against the gradient energy;
        # continuum agreement is second order in h on this n = 128 grid
        grad2 = float(np.vdot(v, gen.stiffness @ v).real)
        ratio = grad2 / got
        assert abs(ratio - 1.0 / (4.0 * T)) < 5e-3 / (4.0 * T)


def test_gramian_psd_and_rayleigh_consistency(gen, grid):
    omega = grid.box_nodes([0.0], [0.4])
    obs = obsgram.Observation("interior-l2", omega)
    rep = obsgram.gramian(gen, obs, T=1.0, dt=0.01)
    assert rep.lambda_min >= -1e-12 * rep.lambda_max
    rng = np.random.default_rng(0)
    for _ in range(4):
        v = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
        quad = obsgram.observed_ratio(gen, v, obs, T=1.0)
        norm2 = gen.norm(v) ** 2
        assert norm2 <= rep.c_obs**2 * quad * (1 + 1e-8)


def test_doubling_horizon_never_hurts(gen, grid):
    omega = grid.box_nodes([0.0], [0.4])
    obs = obsgram.Observation("interior-l2", omega)
    prev = np.inf
    for T in (1.0, 2.0, 4.0):
        rep = obsgram.gramian(gen, obs, T=T, dt=0.02)
        assert rep.c_obs <= prev * (1 + 1e-9)
        prev = rep.c_obs


def test_cn_full_observation_exact(gen, grid):
    """Norm conservation makes the stepped full-observation Gramian T.M
    regardless of the Cayley phases."""
    obs = obsgram.Observation("interior-l2", grid.interior_idx)
    rep = obsgram.gramian(gen, obs, T=0.5, dt=0.01, method="cn")
    assert abs(rep.c_obs - 1.0 / np.sqrt(0.5)) < 1e-10


def test_cn_matches_exact_when_resolved():
    """With dt resolving the whole spectrum, the stepped Gramian approaches
    the exact-integral one (at coarser dt the fast gaps alias and only the
    modal path is quantitative)."""
    g = mesh.build_grid(1, [1.0], 16)
    gsmall = magop.assemble_generator(
        "A0", g, magop.MagneticPotential.zero(g))
    obs = obsgram.Observation("interior-l2", g.box_nodes([0.0], [0.4]))
    ref = obsgram.gramian(gsmall, obs, T=0.5, method="eig")
    errs = []
    for dt in (2e-3, 5e-4):
        cn = obsgram.gramian(gsmall, obs, T=0.5, dt=dt, method="cn")
        errs.append(abs(cn.c_hid - ref.c_hid))
    assert errs[1] < 0.05 * ref.c_hid
    assert errs[0] / max(errs[1], 1e-300) > 3.0


def test_interior_h1_observation(gen_mag, grid):
    omega = grid.box_nodes([0.0], [0.5])
    obs = obsgram.Observation("interior-h1", omega)
    rep = obsgram.gramian(gen_mag, obs, T=1.0, dt=0.01)
    assert np.isfinite(rep.c_obs)
    assert rep.lambda_min >= -1e-12 * rep.lambda_max
    assert rep.c_obs > 0


def test_hidden_regularity_sqrt_T_shape(gen, grid):
    obs = obsgram.Observation("boundary-conormal", grid.boundary_idx)
    Ts = np.array([1.0, 2.0, 4.0, 8.0])
    chid = np.array([obsgram.gramian(gen, obs, T=T, dt=0.02).c_hid for T in Ts])
    A = np.column_stack([np.ones_like(Ts), np.sqrt(Ts)])
    coef, _, _, _ = np.linalg.lstsq(A, chid, rcond=None)
    model = A @ coef
    ss_res = np.sum((chid - model) ** 2)
    ss_tot = np.sum((chid - chid.mean()) ** 2)
    assert 1 - ss_res / ss_tot >= 0.98


def test_stride_warning_attached():
    g = mesh.build_grid(1, [1.0], 32)
    gen32 = magop.assemble_generator("A0", g, magop.MagneticPotential.zero(g))
    obs = obsgram.Observation("interior-l2", g.box_nodes([0.0], [0.6]))
    with pytest.warns(UserWarning, match="stride"):
        rep = obsgram.gramian(gen32, obs, T=1.0, dt=0.01, stride=50, method="cn")
    assert any("stride" in w for w in rep.warnings)


def test_observation_validation(grid, gen):
    with pytest.raises(ValueError):
        obsgram.Observation("interior-l2", np.array([], dtype=int))
    with pytest.raises(ValueError):
        obsgram.Observation("nonsense", np.array([1]))
    with pytest.raises(ValueError):
        obsgram.Observation("boundary-conormal", np.array([5])).build(gen)


def _per_node_conormal(obs, gen):
    """The boundary-conormal rows built one node at a time: the oracle."""
    grid = gen.grid
    rows = []
    for node in obs.nodes:
        nu = grid.normals[node]
        axis = int(np.flatnonzero(nu)[0])             # the owner face's axis
        row = (nu[axis] * grid.gradients[axis][node]).astype(complex).tolil()
        a_dot_nu = gen.potential.values[node] @ nu
        row[0, node] = row[0, node] + 1j * a_dot_nu
        rows.append(row.tocsr())
    return sp.vstack(rows).tocsr()[:, gen.state_idx], grid.surface_weights[obs.nodes]


@pytest.mark.parametrize("seed", range(6))
def test_boundary_conormal_matches_per_node_rows(seed):
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 2
    grid = mesh.build_grid(dim, 1.0, int(rng.integers(5, 30)))
    amp, freq = rng.uniform(0.0, 1.0), rng.uniform(0.5, 4.0)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(freq * p + 0.2))
    gen = magop.assemble_generator("A0", grid, a)
    size = int(rng.integers(1, grid.boundary_idx.size + 1))
    nodes = rng.choice(grid.boundary_idx, size=size, replace=False)   # any order
    obs = obsgram.Observation("boundary-conormal", nodes)
    N, W = obs.build(gen)
    N_ref, W_ref = _per_node_conormal(obs, gen)
    assert N.dtype == N_ref.dtype
    assert np.array_equal(N.toarray(), N_ref.toarray())
    assert np.array_equal(W, W_ref)


def test_report_json_fields(gen, grid):
    import json

    obs = obsgram.Observation("interior-l2", grid.interior_idx)
    rep = obsgram.gramian(gen, obs, T=1.0, dt=0.02)
    doc = json.loads(rep.to_json())
    for key in ("observation", "T", "lambda_min", "lambda_max", "C_obs",
                "C_hid", "quadrature_error_estimate"):
        assert key in doc


# -- property test: the closed-form CN Gramian against a forward loop ------
#
# Random small 1D and 2D grids, all observation kinds and strides, a = 0 and
# a != 0, with sampled ranks m s below and above the number of unknowns.

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cn_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 30) if dim == 1 else st.integers(5, 9))
    grid = mesh.build_grid(dim, 1.0, n)
    amp, freq = draw(st.floats(0.0, 1.0)), draw(st.floats(0.5, 4.0))
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(freq * p))
    gen = magop.assemble_generator("A0", grid, a)
    kind = draw(st.sampled_from(["interior-l2", "boundary-conormal", "interior-h1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "boundary-conormal":
        pool = grid.boundary_idx
    else:
        pool = gen.state_idx
    size = max(1, round(draw(st.sampled_from([0.1, 0.4, 0.7, 1.0])) * pool.size))
    nodes = rng.choice(pool, size=size, replace=False)
    dt = draw(st.sampled_from([1e-3, 5e-3, 2e-2]))
    nsteps = draw(st.integers(1, 14))
    stride = draw(st.integers(1, 3))
    return gen, obsgram.Observation(kind, np.sort(nodes)), dt, nsteps, stride


def forward_gramians(gen, obs, dt, nsteps, stride):
    """G and G2 by forward ``evolve.step`` from the identity, one sample at a time."""
    N, W = obs.build(gen)

    def weights(s):
        keep = list(range(0, nsteps + 1, s))
        if keep[-1] != nsteps:
            keep.append(nsteps)
        half = 0.5 * dt * np.diff(keep)
        w = np.append(half, 0.0) + np.insert(half, 0, 0.0)
        return dict(zip(keep, w))

    w1, w2 = weights(stride), weights(2 * stride)
    U = np.eye(gen.size, dtype=complex)
    G = np.zeros((gen.size,) * 2, dtype=complex)
    G2 = np.zeros_like(G)
    for i in range(nsteps + 1):
        Y = N @ U
        Z = (Y.conj().T * W) @ Y
        G += w1.get(i, 0.0) * Z
        G2 += w2.get(i, 0.0) * Z
        U = evolve.step(gen, U, dt)
    return G, G2


def _check_cn_case(case):
    """Check one ``method="cn"`` report against the forward oracle; return
    (rows no wider than the state, sampled rank bound below the state)."""
    gen, obs, dt, nsteps, stride = case
    N = obs.build(gen)[0].toarray()
    n, m, r = gen.size, N.shape[0], np.linalg.matrix_rank(N)

    def samples(s):
        return len(set(range(0, nsteps + 1, s)) | {nsteps})

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = obsgram.gramian(gen, obs, nsteps * dt, dt, stride=stride, method="cn")

    G, G2 = forward_gramians(gen, obs, dt, nsteps, stride)
    L = (sp.diags(gen.mass_diag) if obs.metric == "mass" else gen.stiffness).toarray()
    ev = la.eigvalsh(G, L)
    ev2 = la.eigvalsh(G2, L)
    lo, hi = ev[0], ev[-1]
    lo2, hi2 = ev2[0], ev2[-1]
    deficient = r * samples(stride) < n
    assert rep.c_hid == pytest.approx(np.sqrt(hi), rel=1e-10)
    if deficient:
        # rank <= m s < n: lambda_min is 0 exactly, not a rounding-level value
        assert rep.lambda_min == 0.0
        assert rep.lambda_max == pytest.approx(hi, rel=1e-10)
    else:
        assert abs(rep.lambda_min - lo) <= 1e-11 * abs(hi)
    if r * samples(2 * stride) < n:
        lo2 = 0.0
    quad = abs(hi2 - hi) / max(abs(hi), 1e-300)
    if lo > 1e-4 * hi:
        quad = max(quad, abs(np.sqrt(max(lo2, 0.0) / lo) - 1.0))
    elif np.isfinite(rep.c_obs):
        # the sqrt(lambda_min) term is rounding noise: lambda_min is near 0
        quad = None
    if quad is not None:
        assert rep.quadrature_error_estimate == pytest.approx(quad, rel=1e-10, abs=1e-10)
    assert rep.rank_bound == min(n, r * samples(stride))
    return m <= n, deficient


def test_cn_gramian_matches_forward_loop():
    seen = set()

    @PROPERTY
    @given(cn_cases())
    def check(case):
        seen.add(_check_cn_case(case))

    check()
    assert {wide for wide, _ in seen} == {True, False}        # rows narrower and wider than the state
    assert {deficient for _, deficient in seen} == {True, False}   # m s below and above the state


@pytest.mark.parametrize("dim, kind", [(1, "interior-l2"), (1, "boundary-conormal"),
                                       (1, "interior-h1"), (2, "interior-l2"),
                                       (2, "boundary-conormal"), (2, "interior-h1")])
def test_cn_snapshot_side_every_metric(dim, kind):
    """Few observation rows and samples (m s < n), on both metrics, against
    the forward oracle."""
    grid = mesh.build_grid(dim, 1.0, 60 if dim == 1 else 11)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.7 * np.sin(1.3 * p))
    gen = magop.assemble_generator("A0", grid, a)
    pool = grid.boundary_idx if kind == "boundary-conormal" else gen.state_idx
    obs = obsgram.Observation(kind, pool[:2])
    for stride in (1, 2):
        assert _check_cn_case((gen, obs, 5e-3, 9, stride))[1]


def test_cn_rank_bound_counts_the_rank_of_the_rows():
    """Observing the whole boundary of a 9^2 grid gives 32 conormal rows,
    28 of them nonzero, of rank 24.  Two samples bound the Gramian's rank by
    48 < 49 unknowns, which a count of 64 rows would hide: lambda_min is 0,
    with a warning."""
    grid = mesh.build_grid(2, 1.0, 9)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    obs = obsgram.Observation("boundary-conormal", grid.boundary_idx)
    N = obs.build(gen)[0]
    assert N.shape == (32, 49) and np.linalg.matrix_rank(N.toarray()) == 24
    assert _check_cn_case((gen, obs, 1e-3, 1, 1))[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = obsgram.gramian(gen, obs, T=1e-3, dt=1e-3, method="cn")
    assert rep.rank_bound == 48 and rep.lambda_min == 0.0 and rep.c_obs == float("inf")
    assert any("rank 24 of the 32 observation rows" in w for w in rep.warnings)


# -- the dense limit: every path exact, or refused before it allocates -------


def _refused_peak_bytes(run, order):
    """Run a call that the dense limit must refuse; return the peak bytes it
    allocated, checking the message names the order."""
    tracemalloc.start()
    try:
        with pytest.raises(magop.DenseLimitError, match=rf"dense order {order}, above"):
            run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversize_paths_are_refused_before_allocating(monkeypatch):
    grid = mesh.build_grid(1, 1.0, 402)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    n = gen.size
    wide = obsgram.Observation("interior-l2", gen.state_idx)         # m s >= n
    narrow = obsgram.Observation("interior-l2", gen.state_idx[:10])   # m s < n
    g1 = mesh.build_grid(1, 1.0, 22)
    gen1 = magop.assemble_generator("A0", g1, magop.MagneticPotential.zero(g1))
    dt = 1e-3
    cases = [
        (lambda: obsgram.gramian(gen, narrow, T=1.0), n),                        # eig
        (lambda: obsgram.gramian(gen, wide, T=2 * dt, dt=dt, method="cn"), n),
        (lambda: obsgram.gramian(gen, narrow, T=29 * dt, dt=dt, method="cn"), n),  # m s = 300
        (lambda: obsgram.product_observability(gen1, gen1, g1.box_nodes([0.0], [0.3]),
                                               T=1.0, dt=0.01), 400),
        (lambda: spectra.hautus_sweep(gen, gen.state_idx[:10], [-10.0], [0.0]), n),
        (lambda: spectra.eigenvalues_dense(gen), n),
    ]
    # the 1D closed form is refused before its k x k sine table too
    cases.append((lambda: gen.modes, n))
    for run, order in cases:
        monkeypatch.setattr(magop, "_DENSE_LIMIT", order - 1)
        peak = _refused_peak_bytes(run, order)
        # a real dense matrix of that order would take 8 order^2 bytes
        assert peak < 8 * order**2 / 16


@st.composite
def modal_cases(draw, kind, magnetic):
    """A0 with a sine potential, or in 1D a random tabulated one and in 2D the
    curl-free but non-separable a = amp grad(xy) = amp (y, x), whose x-links
    change across y: that one alone takes the dense eigensolve."""
    dim = draw(st.sampled_from([1, 2]))
    grid = mesh.build_grid(dim, 1.0, draw(st.integers(6, 40) if dim == 1 else st.integers(4, 11)))
    amp = draw(st.floats(0.1, 1.5)) if magnetic else 0.0
    freq = draw(st.floats(0.5, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    preset = draw(st.sampled_from(["sine", "tabulated" if dim == 1 else "grad-xy"]))
    if preset == "sine":
        a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(freq * p))
    elif preset == "tabulated":
        a = magop.MagneticPotential.from_samples(grid, amp * rng.uniform(-1.0, 1.0, grid.num_nodes))
    else:
        a = magop.MagneticPotential.from_callable(grid, lambda p: amp * p[:, ::-1])
    gen = magop.assemble_generator("A0", grid, a)
    pool = grid.boundary_idx if kind == "boundary-conormal" else gen.state_idx
    size = max(1, round(draw(st.sampled_from([0.2, 0.5, 1.0])) * pool.size))
    nodes = np.sort(rng.choice(pool, size=size, replace=False))
    dense = magnetic and preset == "grad-xy"
    return gen, obsgram.Observation(kind, nodes), draw(st.floats(0.1, 2.0)), dense


def generalized_modal_data(gen):
    """Modes of the pencil (S, diag M) by LAPACK's complex generalized eigh."""
    return la.eigh(gen.stiffness.toarray(), np.diag(gen.mass_diag))


def with_modes(gen, modes):
    """A copy of gen that reads the given (lam, V) as its modes, and has no
    axis sines, so its Gramians take the order-k route through them."""
    copy = dataclasses.replace(gen)
    copy.modes = modes
    copy.axis_sines = None
    return copy


def dense_modes(gen):
    """A copy of gen whose modes come from the dense eigensolve."""
    return with_modes(gen, magop._pencil_modes(gen.stiffness, gen.mass_diag))


@pytest.mark.parametrize("magnetic", [False, True])
@pytest.mark.parametrize("kind", ["interior-l2", "boundary-conormal", "interior-h1"])
def test_modal_eigensolve_matches_generalized_eigh(kind, magnetic):
    @settings(PROPERTY, max_examples=10)
    @given(modal_cases(kind, magnetic))
    def check(case):
        gen, obs, T, dense = case
        with pytest.MonkeyPatch.context() as mp:
            orders = eigh_orders(mp)
            lam, V = gen.modes
        assert orders == ([gen.size] if dense else [])   # else the closed form
        lam_ref, _ = generalized_modal_data(gen)
        S, M = gen.stiffness.toarray(), gen.mass_diag
        assert np.isrealobj(V) != magnetic            # A = 0: real modes
        assert np.max(np.abs(V.conj().T @ (M[:, None] * V) - np.eye(gen.size))) <= 1e-13
        assert np.max(np.abs(lam - lam_ref)) <= 1e-13 * lam_ref[-1]
        assert np.linalg.norm(S @ V - (M[:, None] * V) * lam) <= 1e-12 * lam_ref[-1]

        rep = obsgram.gramian(gen, obs, T)
        ref = obsgram.gramian(with_modes(gen, generalized_modal_data(gen)), obs, T)
        assert abs(rep.lambda_max - ref.lambda_max) <= 1e-11 * ref.lambda_max
        assert abs(rep.lambda_min - ref.lambda_min) <= 1e-11 * ref.lambda_max

    check()


# -- separable generators: modes from the two axis factors -------------------

SEPARABLE = {
    "zero": lambda g: magop.MagneticPotential.zero(g),
    "constant": lambda g: magop.MagneticPotential.from_samples(
        g, np.tile([0.7, -0.4], (g.num_nodes, 1))),
    "sine": lambda g: magop.MagneticPotential.from_callable(
        g, lambda p: 0.3 * np.sin(2.0 * p + 0.1)),
}
OBSERVATIONS = {
    "interior-l2": lambda g: g.box_nodes([0.0, 0.0], [0.3, 2.5]),
    "boundary-conormal": lambda g: g.boundary_idx,
    "interior-h1": lambda g: g.box_nodes([0.0, 0.0], [0.5, 1.0]),
}


def eigh_orders(monkeypatch):
    """Record the order of every matrix the package hands to la.eigh."""
    orders = []
    eigh = la.eigh

    def spy(a, *args, **kwargs):
        orders.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(magop.la, "eigh", spy)
    return orders


@pytest.mark.parametrize("n", [(9, 14), (13, 21)])
@pytest.mark.parametrize("preset", sorted(SEPARABLE))
def test_separable_modes_come_from_the_axis_factors(preset, n, monkeypatch):
    grid = mesh.build_grid(2, (1.0, 2.5), n)
    gen = magop.assemble_generator("A0", grid, SEPARABLE[preset](grid))
    with monkeypatch.context() as mp:
        orders = eigh_orders(mp)
        lam, V = gen.modes
    assert orders == []                              # closed form: no dense eigh at all
    with monkeypatch.context() as mp:
        orders = eigh_orders(mp)
        lam_ref, _ = dense_modes(gen).modes
    assert orders == [gen.size]
    M = gen.mass_diag
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(lam - lam_ref)) <= 1e-13 * lam_ref[-1]
    assert np.max(np.abs(V.conj().T @ (M[:, None] * V) - np.eye(gen.size))) <= 1e-13
    assert np.linalg.norm(gen.stiffness @ V - (M[:, None] * V) * lam) <= 1e-12 * lam_ref[-1]
    assert np.isrealobj(V) == (preset == "zero")


# the strip omega_1 x [0, 2.5] of OBSERVATIONS, and a strip along y
STRIP_Y = ([0.0, 0.0], [1.0, 0.7])
# T = 0.8: 400 steps of 0.002, and stride 3 leaves a remainder of 1
METHODS = [{"method": "eig"}, {"method": "cn", "dt": 0.002},
           {"method": "cn", "dt": 0.002, "stride": 3}]


@pytest.mark.parametrize("kind", sorted(OBSERVATIONS))
@pytest.mark.parametrize("preset", sorted(SEPARABLE))
def test_separable_gramian_matches_the_dense_route(preset, kind):
    """Both methods on the separable modes against the order-k route through
    the dense eigensolve; the interior-l2 strips along x and along y take the
    block split."""
    grid = mesh.build_grid(2, (1.0, 2.5), (11, 16))
    gen = magop.assemble_generator("A0", grid, SEPARABLE[preset](grid))
    ref_gen = dense_modes(gen)
    sets = [OBSERVATIONS[kind](grid)]
    if kind == "interior-l2":
        sets.append(grid.box_nodes(*STRIP_Y))
    for nodes in sets:
        obs = obsgram.Observation(kind, nodes)
        assert (obsgram._strip_split(gen, obs) is not None) == (kind == "interior-l2")
        for kwargs in METHODS:
            rep = obsgram.gramian(gen, obs, 0.8, **kwargs)
            ref = obsgram.gramian(ref_gen, obs, 0.8, **kwargs)
            assert abs(rep.lambda_max - ref.lambda_max) <= 1e-11 * ref.lambda_max
            assert abs(rep.lambda_min - ref.lambda_min) <= 1e-11 * ref.lambda_max
            assert rep.rank_bound == ref.rank_bound
            assert abs(rep.quadrature_error_estimate - ref.quadrature_error_estimate) <= 1e-9


def dense_eig_orders(monkeypatch):
    """Record the order of every matrix handed to a dense Hermitian eigensolver."""
    orders = []

    def spy(solve):
        def run(a, *args, **kwargs):
            orders.append(np.shape(a)[-1])
            return solve(a, *args, **kwargs)
        return run

    for mod in (la, np.linalg):
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    return orders


@pytest.mark.parametrize("kwargs", METHODS, ids=["eig", "cn", "cn-remainder"])
def test_strip_gramian_solves_only_axis_order_blocks(kwargs, monkeypatch):
    """A strip's Gramian never forms the order-k modes: every eigensolve has
    at most the order of an axis, max(n_ax - 2).  The box [0, 0.3] x [0, 1]
    is no strip of the (1.0, 2.5) rectangle and takes the order-k route."""
    grid = mesh.build_grid(2, (1.0, 2.5), (11, 16))
    for box, strip in ((([0.0, 0.0], [0.3, 2.5]), True), (STRIP_Y, True),
                       (([0.0, 0.0], [0.3, 1.0]), False)):
        gen = magop.assemble_generator("A0", grid, SEPARABLE["sine"](grid))
        obs = obsgram.Observation("interior-l2", grid.box_nodes(*box))
        with monkeypatch.context() as mp:
            orders = dense_eig_orders(mp)
            obsgram.gramian(gen, obs, 0.8, **kwargs)
        assert orders
        if strip:
            assert max(orders) <= max(n - 2 for n in grid.n)
            assert "modes" not in vars(gen)
        else:
            assert max(orders) == gen.size


@pytest.mark.parametrize("amp", [0.0, 0.6])
def test_strip_constant_is_the_one_factor_constant(amp):
    """On omega_1 x Omega_2 the 2D C_obs is C_1D of the x factor, to 1e-12:
    the oracle gathers the rows of the explicit product modes."""
    n, ext = (14, 11), (1.0, 1.7)
    grid = mesh.build_grid(2, ext, n)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(2.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    g1, g2 = (mesh.build_grid(1, [L], m) for L, m in zip(ext, n))
    a1 = magop.MagneticPotential.from_callable(g1, lambda p: amp * np.sin(2.0 * p))
    gen1 = magop.assemble_generator("A0", g1, a1)
    gen2 = magop.assemble_generator("A0", g2, magop.MagneticPotential.zero(g2))
    for lo, hi in ((0.0, 0.3), (0.2, 0.9)):
        obs = obsgram.Observation("interior-l2", grid.box_nodes([lo, 0.0], [hi, ext[1]]))
        assert obsgram._strip_split(gen, obs) is not None
        c1d, _ = product_oracle(gen1, gen2, g1.box_nodes([lo], [hi]), 0.7)
        assert np.isfinite(c1d)
        assert obsgram.gramian(gen, obs, 0.7).c_obs == pytest.approx(c1d, rel=1e-12)


def test_only_strips_of_separable_modes_split():
    """The split needs interior-l2, modes that separate, a product set and at
    most one partial axis; a duplicated node or a curl potential keeps the
    order-k route."""
    grid = mesh.build_grid(2, (1.0, 2.5), (11, 16))
    gen = magop.assemble_generator("A0", grid, SEPARABLE["constant"](grid))
    strip = np.intersect1d(grid.box_nodes([0.0, 0.0], [0.3, 2.5]), gen.state_idx)
    assert obsgram._strip_split(gen, obsgram.Observation("interior-l2", strip)) is not None
    whole = obsgram._strip_split(gen, obsgram.Observation("interior-l2", gen.state_idx))
    assert whole is not None and np.allclose(whole[1], np.eye(grid.n[0] - 2), atol=1e-13)
    for kind, nodes in (("interior-h1", strip), ("interior-l2", np.append(strip, strip[:1])),
                        ("interior-l2", grid.box_nodes([0.0, 0.0], [0.3, 1.0])),
                        ("interior-l2", np.delete(strip, strip.size // 2))):
        assert obsgram._strip_split(gen, obsgram.Observation(kind, nodes)) is None
    curl = magop.MagneticPotential.from_callable(
        grid, lambda p: 0.5 * np.column_stack([-p[:, 1], p[:, 0]]))
    gen = magop.assemble_generator("A0", grid, curl)
    assert obsgram._strip_split(gen, obsgram.Observation("interior-l2", strip)) is None


def test_curl_potential_keeps_the_dense_route(monkeypatch):
    """a = (-y, x)/2 changes the x-links across y: no Kronecker factors, one
    dense eigensolve, and modes of the pencil (S, diag M)."""
    grid = mesh.build_grid(2, (1.0, 2.5), (9, 14))
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: 0.5 * np.column_stack([-p[:, 1], p[:, 0]]))
    gen = magop.assemble_generator("A0", grid, a)
    assert gen.axis_sines is None
    orders = eigh_orders(monkeypatch)
    lam, V = gen.modes
    assert orders == [gen.size]
    lam_ref, _ = generalized_modal_data(gen)
    M = gen.mass_diag
    assert np.max(np.abs(lam - lam_ref)) <= 1e-13 * lam_ref[-1]
    assert np.max(np.abs(V.conj().T @ (M[:, None] * V) - np.eye(gen.size))) <= 1e-13
    assert np.linalg.norm(gen.stiffness @ V - (M[:, None] * V) * lam) <= 1e-12 * lam_ref[-1]



@pytest.mark.parametrize("route", ["1d", "separable", "dense"])
def test_modes_are_c_ordered(route, monkeypatch):
    """Every route gives C-ordered modes, so the sparse N @ V of the couplings
    takes them uncopied, and C_obs is that of Fortran-ordered modes to 1e-12.
    The sine potential separates in 1D and 2D, so both take the closed form
    with no eigh; the dense route is its one eigh."""
    if route == "1d":
        grid = mesh.build_grid(1, 1.0, 40)
        omega = grid.box_nodes([0.0], [0.3])
    else:
        grid = mesh.build_grid(2, (1.0, 2.5), (11, 16))
        omega = OBSERVATIONS["interior-l2"](grid)
    a = SEPARABLE["sine"](grid)
    gen = magop.assemble_generator("A0", grid, a)
    assert gen.axis_sines is not None
    orders = eigh_orders(monkeypatch)
    if route == "dense":
        gen = dense_modes(gen)
    lam, V = gen.modes
    assert orders == ([gen.size] if route == "dense" else [])
    assert V.flags.c_contiguous and V.shape == (gen.size, gen.size)
    obs = obsgram.Observation("interior-l2", omega)
    rep = obsgram.gramian(gen, obs, 0.8)
    ref = obsgram.gramian(with_modes(gen, (lam, np.asfortranarray(V))), obs, 0.8)
    assert np.isfinite(ref.c_obs)
    assert abs(rep.c_obs - ref.c_obs) <= 1e-12 * ref.c_obs

@pytest.mark.parametrize("preset", ["sine", "curl"])
def test_modes_are_computed_once_per_generator(preset, monkeypatch):
    """gen.modes is built on first use and kept: a second access returns the
    same read-only arrays, ``dataclasses.replace`` gives a copy that computes
    its own, and only the conservative generator has modes."""
    grid = mesh.build_grid(2, (1.0, 2.5), (9, 14))
    a = (SEPARABLE["sine"](grid) if preset == "sine" else magop.MagneticPotential.from_callable(
        grid, lambda p: 0.5 * np.column_stack([-p[:, 1], p[:, 0]])))
    gen = magop.assemble_generator("A0", grid, a)
    axis_sines, solved = magop._axis_sines, []
    monkeypatch.setattr(magop, "_axis_sines",
                        lambda grid, a: solved.append(grid) or axis_sines(grid, a))
    lam, V = gen.modes
    again = gen.modes
    assert again[0] is lam and again[1] is V and solved == [grid]
    for arr in (lam, V):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    lam2, V2 = dataclasses.replace(gen).modes
    assert len(solved) == 2 and lam2 is not lam
    assert np.array_equal(lam2, lam) and np.array_equal(V2, V)
    damped = magop.assemble_generator("A1", grid, a, c=np.ones(grid.num_nodes))
    with pytest.raises(ValueError, match="conservative generator"):
        damped.modes
    assert len(solved) == 2


def test_axis_sines_are_computed_once_per_generator(monkeypatch):
    """A 2D A0 generator's modes, its Crank-Nicolson solves in closed form and
    its strip Gramian all read the one ``axis_sines`` cache: the sines are
    computed once, and the strip's C_obs is that of the order-k route."""
    grid = mesh.build_grid(2, (1.0, 2.5), (9, 14))
    gen = magop.assemble_generator("A0", grid, SEPARABLE["sine"](grid))
    axis_sines, solved = magop._axis_sines, []
    monkeypatch.setattr(magop, "_axis_sines",
                        lambda grid, a: solved.append(grid) or axis_sines(grid, a))
    lam, V = gen.modes
    gen.cayley_solver(0.002)
    assert gen.cayley_route(0.002) == "modes"
    obs = obsgram.Observation("interior-l2", OBSERVATIONS["interior-l2"](grid))
    assert obsgram._strip_split(gen, obs) is not None
    rep = obsgram.gramian(gen, obs, 0.8)
    assert solved == [grid]
    ref = obsgram.gramian(with_modes(gen, (lam, V)), obs, 0.8)
    assert abs(rep.c_obs - ref.c_obs) <= 1e-12 * ref.c_obs
    for arr in (arr for factor in gen.axis_sines for arr in factor if arr is not None):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def product_oracle(gen1, gen2, omega1, T):
    """C_1D and C_2D from the explicit product modes V1 (x) V2: the rows of
    omega1 x Omega2 gathered from the Kronecker product, then the exact
    modal Gramian."""
    (lam1, V1), (lam2, V2) = generalized_modal_data(gen1), generalized_modal_data(gen2)
    pos1 = magop._positions(gen1.grid.num_nodes, gen1.state_idx)
    sel1 = pos1[omega1]
    sel1 = sel1[sel1 >= 0]

    def c_obs(Y, w, lam):
        Z = (Y.conj().T * w) @ Y
        return obsgram._c_obs(*obsgram._extremes_from_modal(
            obsgram._phase_gramian_exact(Z, lam, T), lam, "mass"))

    rows = (sel1[:, None] * gen2.size + np.arange(gen2.size)).ravel()
    M12 = np.kron(gen1.mass_diag, gen2.mass_diag)
    return (c_obs(V1[sel1], gen1.mass_diag[sel1], lam1),
            c_obs(np.kron(V1, V2)[rows], M12[rows], np.add.outer(lam1, lam2).ravel()))


@pytest.mark.parametrize("amp", [0.0, 0.6])
def test_product_constants_match_the_row_gather_oracle(amp):
    g1 = mesh.build_grid(1, [1.0], 14)
    g2 = mesh.build_grid(1, [1.7], 11)
    a1 = magop.MagneticPotential.from_callable(g1, lambda p: amp * np.sin(2.0 * p))
    gen1 = magop.assemble_generator("A0", g1, a1)
    gen2 = magop.assemble_generator("A0", g2, magop.MagneticPotential.zero(g2))
    for omega1 in (g1.box_nodes([0.0], [0.3]), g1.box_nodes([0.2], [0.9])):
        rep = obsgram.product_observability(gen1, gen2, omega1, T=0.7, dt=0.01)
        c1d, c2d = product_oracle(gen1, gen2, omega1, 0.7)
        assert rep.c_1d == pytest.approx(c1d, rel=1e-12)
        assert rep.c_2d == pytest.approx(c2d, rel=1e-12)


# -- the real phase form of the exact modal integral ----------------------


def complex_phase_gramian(Z, lam, T):
    """The phase couplings as first written: Z o F, F_jk the complex closed form
    (exp(i D T) - 1) / (i D) of integral(0,T) exp(i (lam_j - lam_k) t) dt."""
    D = lam[:, None] - lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        F = (np.exp(1j * D * T) - 1.0) / (1j * D)
    F[np.abs(D) < 1e-300] = T
    return Z * F


@st.composite
def phase_cases(draw):
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lam = np.sort(rng.uniform(1.0, draw(st.sampled_from([10.0, 1e3, 5e3])), n))
    # exact ties (D = 0 entries) and near ties; below ~1e-3 the complex form's
    # own cancellation, eps / |D|, would exceed the tolerance
    for j in rng.choice(n - 1, size=draw(st.integers(0, n - 1)), replace=False):
        lam[j + 1] = lam[j] + draw(st.sampled_from([0.0, 0.0, 1e-3, 1e-2]))
    lam = np.sort(lam)
    m = draw(st.integers(1, n))
    Y = rng.normal(size=(m, n))
    if draw(st.booleans()):
        Y = Y + 1j * rng.normal(size=(m, n))
    Z = (Y.conj().T * rng.uniform(0.1, 1.0, m)) @ Y
    return Z, lam, draw(st.floats(0.1, 4.0)), draw(st.sampled_from(["mass", "stiffness"]))


@settings(PROPERTY)
@given(phase_cases())
def test_real_phase_form_has_the_complex_extremes(case):
    Z, lam, T, metric = case
    ref_lo, ref_hi = obsgram._extremes_from_modal(complex_phase_gramian(Z, lam, T), lam, metric)
    Ghat = obsgram._phase_gramian_exact(Z, lam, T)
    assert Ghat.dtype == Z.dtype                     # real Z gives a real problem
    K = obsgram._phase_gramian_exact(np.ones((lam.size, lam.size)), lam, T)
    assert np.array_equal(K, K.T)
    lo, hi = obsgram._extremes_from_modal(Ghat, lam, metric)
    assert abs(hi - ref_hi) <= 1e-12 * ref_hi
    assert abs(lo - ref_lo) <= 1e-12 * ref_hi


def test_real_phase_form_at_tiny_gaps():
    """K_jk = 2 sin(D T/2) / D keeps full accuracy where (exp(i D T) - 1)/(i D)
    cancels: against its Taylor series T (1 - (D T)^2 / 24) at |D T| <= 1e-4."""
    T = 1.5
    lam = 1000.0 + np.array([0.0, 1e-13, 1e-10, 1e-7, 1e-5])
    K = obsgram._phase_gramian_exact(np.ones((lam.size, lam.size)), lam, T)
    D = lam[:, None] - lam[None, :]
    assert np.max(np.abs(K - T * (1.0 - (D * T) ** 2 / 24.0))) <= 4e-16 * T


@pytest.mark.parametrize("complex_z", [False, True])
def test_exact_kernel_is_built_in_place(complex_z):
    """K is built in the buffer beside the gap matrix and a real Z o K is
    written into it: the kernel's peak is two order-n^2 float arrays and a
    byte mask for real Z, three for complex Z (whose product needs its own
    complex array), against one more of each when every step allocated."""
    n, T = 300, 0.7
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(1.0, 1e3, n))
    lam[4] = lam[3]                                  # one exact tie
    Y = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_z else 0.0)
    Z = Y.conj().T @ Y
    tracemalloc.start()
    try:
        Ghat = obsgram._phase_gramian_exact(Z, lam, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ((3 if complex_z else 2) + 0.25) * 8 * n**2
    D = lam[:, None] - lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = 2.0 * np.sin(0.5 * T * D) / D
    K[np.abs(D) < 1e-300] = T
    assert np.array_equal(Ghat, Z * K)


@pytest.mark.parametrize("amp", [0.0, 0.8])
@pytest.mark.parametrize("kind", ["interior-l2", "boundary-conormal"])
def test_observed_ratio_matches_cn_stepped_energy(kind, amp):
    """The exact modal integral of ||N u(t)||_W^2 for a multi-mode state (so the
    phase rotation exp(-i lam T/2) matters) against Crank-Nicolson steps and
    the trapezoid rule in time: second-order agreement."""
    grid = mesh.build_grid(1, [1.0], 32)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(2.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    _, V = gen.modes
    rng = np.random.default_rng(1)
    u0 = V[:, :4] @ (rng.normal(size=4) + 1j * rng.normal(size=4))
    nodes = grid.box_nodes([0.0], [0.3]) if kind == "interior-l2" else grid.boundary_idx
    obs = obsgram.Observation(kind, nodes)
    N, W = obs.build(gen)
    T = 0.5
    want = obsgram.observed_ratio(gen, u0, obs, T)
    errs = []
    for dt in (1e-3, 5e-4):
        nsteps = int(round(T / dt))
        solve = gen.cayley_solver(dt)
        u, energy = u0.astype(complex), []
        for _ in range(nsteps + 1):
            energy.append(float(W @ np.abs(N @ u) ** 2))
            u = solve(u) - u
        got = float(mesh._trapezoid_1d(nsteps + 1, dt) @ np.array(energy))
        errs.append(abs(got - want) / want)
    assert errs[1] < 5e-4
    assert errs[0] / errs[1] > 3.0


def test_modal_eigensolves_are_real_when_a_is_zero(monkeypatch):
    """Guard for the real solve: with A = 0 every matrix the modal path hands
    to eigvalsh is float64, boundary-conormal (complex-typed N) included."""
    seen = []
    eigvalsh = la.eigvalsh

    def recorder(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(obsgram.la, "eigvalsh", recorder)
    grid = mesh.build_grid(2, 1.0, 9)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    for obs in (obsgram.Observation("interior-l2", grid.box_nodes([0.0, 0.0], [0.3, 1.0])),
                obsgram.Observation("boundary-conormal", grid.boundary_idx)):
        obsgram.gramian(gen, obs, T=1.0)
    g1 = mesh.build_grid(1, [1.0], 12)
    gen1 = magop.assemble_generator("A0", g1, magop.MagneticPotential.zero(g1))
    obsgram.product_observability(gen1, gen1, g1.box_nodes([0.0], [0.3]), T=1.0, dt=0.01)
    assert len(seen) == 4
    assert all(dt == np.float64 for dt in seen)


def test_grid_is_freed_with_its_generator():
    def run_and_drop():
        grid = mesh.build_grid(2, 1.0, 10)
        gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
        u0 = np.ones(gen.size, dtype=complex)
        evolve.simulate(gen, u0, 0.01, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            obsgram.gramian(gen, obsgram.Observation("interior-l2", gen.state_idx[:5]),
                            T=0.01, dt=1e-3, method="cn")
        return weakref.ref(grid)

    ref = run_and_drop()
    gc.collect()
    assert ref() is None      # no module-level cache keeps the grid or its factors


# -- product space --------------------------------------------------------


def test_product_tensor_identity_and_bound():
    g1 = mesh.build_grid(1, [1.0], 24)
    g2 = mesh.build_grid(1, [1.0], 24)
    gen1 = magop.assemble_generator("A0", g1, magop.MagneticPotential.zero(g1))
    gen2 = magop.assemble_generator("A0", g2, magop.MagneticPotential.zero(g2))
    omega1 = g1.box_nodes([0.0], [0.3])
    rep = obsgram.product_observability(gen1, gen2, omega1, T=1.0, dt=0.01)
    assert rep.tensor_residual < 1e-12
    assert rep.kron_action_residual < 1e-12
    assert rep.c_2d <= rep.c_1d * 1.05
    assert rep.satisfied


def test_product_one_factor_constant_is_the_gramian_constant(monkeypatch):
    """C_1D is read from the factor's own modes, computed once per factor and
    shared with the Gramian, and equals the exact modal Gramian's C_obs bit
    for bit."""
    g1 = mesh.build_grid(1, [1.0], 20)
    g2 = mesh.build_grid(1, [1.0], 14)
    gen1 = magop.assemble_generator("A0", g1, magop.MagneticPotential.zero(g1))
    gen2 = magop.assemble_generator("A0", g2, magop.MagneticPotential.zero(g2))
    axis_sines, solved = magop._axis_sines, []
    monkeypatch.setattr(magop, "_axis_sines",
                        lambda grid, a: solved.append(grid) or axis_sines(grid, a))
    for omega1 in (g1.box_nodes([0.0], [0.3]), g1.box_nodes([0.2], [0.9])):
        want = obsgram.gramian(gen1, obsgram.Observation("interior-l2", omega1),
                               0.7, method="eig").c_obs
        rep = obsgram.product_observability(gen1, gen2, omega1, T=0.7, dt=0.01)
        assert rep.c_1d == want
    assert solved == [g1, g2]


def test_product_full_omega_recovers_inverse_sqrt_T():
    g1 = mesh.build_grid(1, [1.0], 12)
    g2 = mesh.build_grid(1, [1.0], 10)
    gen1 = magop.assemble_generator("A0", g1, magop.MagneticPotential.zero(g1))
    gen2 = magop.assemble_generator("A0", g2, magop.MagneticPotential.zero(g2))
    rep = obsgram.product_observability(gen1, gen2, np.arange(g1.num_nodes),
                                        T=1.0, dt=0.01)
    assert abs(rep.c_1d - 1.0) < 1e-6
    assert abs(rep.c_2d - 1.0) < 1e-6


def test_product_rejects_damped_factor():
    g1 = mesh.build_grid(1, [1.0], 12)
    gen1 = magop.assemble_generator(
        "A1", g1, magop.MagneticPotential.zero(g1), c=np.ones(g1.num_nodes))
    gen2 = magop.assemble_generator(
        "A0", g1, magop.MagneticPotential.zero(g1))
    with pytest.raises(ValueError):
        obsgram.product_observability(gen1, gen2, np.arange(3), T=1.0, dt=0.01)
