import numpy as np
import pytest
import scipy.linalg as la

from magschro import magop, mesh, obsgram


def test_build_grid_1d_basic():
    g = mesh.build_grid(1, [1.0], 5)
    assert g.h == (0.25,)
    assert abs(g.volume_weights.sum() - 1.0) < 1e-12
    assert set(g.boundary_idx) == {0, 4}
    assert g.normals[0, 0] == -1.0 and g.normals[4, 0] == 1.0


def test_build_grid_2d_counts():
    g = mesh.build_grid(2, [1.0, 1.0], 17)
    assert g.num_nodes == 289
    assert g.boundary_idx.size == 64          # 4*17 - 4 corner dedup
    assert abs(g.volume_weights.sum() - 1.0) < 1e-12


def test_build_grid_rejects_small_n():
    """A grid needs 2 nodes per axis; its gradient matrices need 3 and the
    cross-check Laplacian 4, and each refuses fewer."""
    with pytest.raises(ValueError, match="at least 2 nodes"):
        mesh.build_grid(1, [2.0], 1)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        mesh.build_grid(2, [1.0, 1.0], [5, 1])
    with pytest.raises(ValueError, match="at least 3 nodes"):
        mesh.build_grid(2, 1.0, [5, 2]).gradients
    g = mesh.build_grid(2, 1.0, [5, 3])
    assert len(g.gradients) == 2
    with pytest.raises(ValueError, match="at least 4 nodes"):
        magop.MagneticPotential.zero(g).laplacian
    g = mesh.build_grid(2, 1.0, [5, 4])
    assert magop.MagneticPotential.zero(g).laplacian.shape == (20, 20)


def test_build_grid_rejects_bad_extent():
    with pytest.raises(ValueError):
        mesh.build_grid(1, [-1.0], 8)
    with pytest.raises(ValueError, match="at least 1"):
        mesh.build_grid(0, [], 8)
    with pytest.raises(ValueError, match="must match dim"):
        mesh.build_grid(2, [1.0] * 3, 8)


def test_build_grid_3d_quadrature_and_faces():
    """On a 5^3 cube the volume weights sum to 1, the surface weights are the
    six faces' outer-product trapezoid weights (each face summing to 1), and
    a boundary node takes the normal of its lowest axis's face."""
    g = mesh.build_grid(3, 1.0, 5)
    assert g.num_nodes == 125 and g.boundary_idx.size == 125 - 27
    assert abs(g.volume_weights.sum() - 1.0) < 1e-14
    w = mesh._trapezoid_1d(5, 0.25)
    idx = np.arange(125).reshape(5, 5, 5)
    expect = np.zeros(125)
    for axis in range(3):
        face = np.multiply.outer(w, w).ravel()
        assert abs(face.sum() - 1.0) < 1e-14
        for end in (0, -1):
            expect[idx.take(end, axis=axis).ravel()] += face
    assert np.allclose(g.surface_weights, expect, rtol=1e-15, atol=0.0)
    assert np.all(np.linalg.norm(g.normals[g.boundary_idx], axis=1) == 1.0)
    assert tuple(g.normals[g.flat_index((0, 0, 0))]) == (-1.0, 0.0, 0.0)
    assert tuple(g.normals[g.flat_index((2, 4, 0))]) == (0.0, 1.0, 0.0)
    assert tuple(g.normals[g.flat_index((2, 2, 4))]) == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("dim,extents,n", [(1, [1.0], 9), (1, [2.5], 31),
                                           (2, [1.0, 2.0], [9, 13])])
def test_quadrature_exactness(dim, extents, n):
    g = mesh.build_grid(dim, extents, n)
    measure = np.prod(extents)
    assert abs(g.volume_weights.sum() - measure) < 1e-12 * measure
    perimeter = 2.0 if dim == 1 else 2 * sum(extents)
    assert abs(g.surface_weights.sum() - perimeter) < 1e-12 * perimeter


def test_unit_normals_everywhere():
    g = mesh.build_grid(2, [1.0, 3.0], [7, 11])
    norms = np.linalg.norm(g.normals[g.boundary_idx], axis=1)
    assert np.all(norms == 1.0)


def test_corner_ownership_priority():
    g = mesh.build_grid(2, [1.0, 1.0], 5)
    corner = g.flat_index((0, 0))
    assert tuple(g.normals[corner]) == (-1.0, 0.0)   # x-faces before y-faces


def test_split_1d_exterior_point():
    g = mesh.build_grid(1, [1.0], 5)
    s = mesh.split_boundary(g, [-1.0])
    assert list(s.gamma0) == [4]
    assert list(s.gamma1) == [0]


def test_split_1d_interior_point():
    g = mesh.build_grid(1, [1.0], 5)
    s = mesh.split_boundary(g, [0.5])
    assert set(s.gamma0) == {0, 4}
    assert s.gamma1.size == 0


def test_split_2d_brute_force_oracle():
    g = mesh.build_grid(2, [1.0, 1.0], 9)
    x0 = np.array([-1.0, 0.5])
    s = mesh.split_boundary(g, x0)
    in_g0 = set(int(i) for i in s.gamma0)
    for b in g.boundary_idx:
        sign = float(np.dot(g.coords[b] - x0, g.normals[b]))
        assert (sign > 0) == (int(b) in in_g0)
    # partition property holds exactly
    assert set(s.gamma0) | set(s.gamma1) == set(int(i) for i in g.boundary_idx)
    assert set(s.gamma0) & set(s.gamma1) == set()


def test_split_partition_random_points():
    g = mesh.build_grid(2, [1.0, 2.0], [7, 9])
    rng = np.random.default_rng(0)
    for _ in range(10):
        x0 = rng.uniform(-2, 3, size=2)
        s = mesh.split_boundary(g, x0)
        assert s.gamma0.size + s.gamma1.size == g.boundary_idx.size
        assert np.intersect1d(s.gamma0, s.gamma1).size == 0


def test_split_transition_count_interior_2d():
    g = mesh.build_grid(2, [1.0, 1.0], 9)
    s_in = mesh.split_boundary(g, [0.5, 0.5])        # whole boundary observed
    assert s_in.transition_pairs == 0
    s_out = mesh.split_boundary(g, [-0.4, 0.5])      # mixed faces
    assert s_out.transition_pairs > 0


def test_poincare_full_dirichlet_interval():
    g = mesh.build_grid(1, [1.0], 256)
    kappa = obsgram.poincare_constant(g, g.boundary_idx)
    assert abs(kappa - 1.0 / np.pi) < 1e-3


def test_poincare_scaled_interval():
    L = 2.7
    g = mesh.build_grid(1, [L], 256)
    kappa = obsgram.poincare_constant(g, g.boundary_idx)
    assert abs(kappa - L / np.pi) < 1e-3


def test_poincare_mixed_interval():
    g = mesh.build_grid(1, [1.0], 256)
    kappa = obsgram.poincare_constant(g, np.array([0]))
    assert abs(kappa - 2.0 / np.pi) < 1e-2


def test_poincare_monotone_in_dirichlet_part():
    g = mesh.build_grid(2, [1.0, 1.0], 17)
    s = mesh.split_boundary(g, [-0.4, 0.5])
    small = obsgram.poincare_constant(g, s.gamma1)
    full = obsgram.poincare_constant(g, g.boundary_idx)
    assert full <= small + 1e-6


def test_poincare_second_order_convergence():
    errs = []
    for n in (32, 64, 128):
        g = mesh.build_grid(1, [1.0], n)
        kappa = obsgram.poincare_constant(g, g.boundary_idx)
        errs.append(abs(kappa - 1.0 / np.pi))
    assert errs[0] / errs[1] > 3.4
    assert errs[1] / errs[2] > 3.4


def test_poincare_rejects_empty_part():
    g = mesh.build_grid(1, [1.0], 16)
    with pytest.raises(ValueError):
        obsgram.poincare_constant(g, np.array([], dtype=int))


def test_poincare_is_the_a2_generators_pencil():
    """At a = 0 the A2 state is every node off gamma1 and its stiffness is
    the Poincare stiffness, so kappa is the generator's first mode exactly:
    the lowest-eigenvalue solve of the generator's scaled pencil gives it bit
    for bit, and the pencil's full eigendecomposition agrees to rounding."""
    g = mesh.build_grid(2, [1.0, 1.0], 17)
    s = mesh.split_boundary(g, [-0.4, 0.5])
    d = np.zeros(g.num_nodes)
    d[s.gamma0] = 1.0
    gen = magop.assemble_generator("A2", g, magop.MagneticPotential.zero(g), d=d, split=s)
    root = 1.0 / np.sqrt(gen.mass_diag)
    lam = la.eigvalsh(root[:, None] * gen.stiffness.toarray().real * root,
                      subset_by_index=[0, 0])[0]
    assert obsgram.poincare_constant(g, s.gamma1) == 1.0 / np.sqrt(lam)
    full = magop._pencil_modes(gen.stiffness, gen.mass_diag)[0][0]
    assert abs(lam - full) <= 1e-13 * full


def test_poincare_asks_for_one_eigenvalue_and_no_vectors(monkeypatch):
    """lambda_1 is all kappa needs: the one dense solve asks for the first
    eigenvalue alone, and forms no eigenvector."""
    calls = []

    def spy(solve, vectors):
        def run(a, *args, **kwargs):
            calls.append((a.shape[0], vectors and not kwargs.get("eigvals_only", False),
                          kwargs.get("subset_by_index")))
            return solve(a, *args, **kwargs)
        return run

    monkeypatch.setattr(la, "eigh", spy(la.eigh, True))
    monkeypatch.setattr(la, "eigvalsh", spy(la.eigvalsh, False))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh, True))
    g = mesh.build_grid(2, [1.0, 1.0], 17)
    obsgram.poincare_constant(g, mesh.split_boundary(g, [-0.4, 0.5]).gamma1)
    assert len(calls) == 1
    order, vectors, subset = calls[0]
    assert order == g.num_nodes - 17 and not vectors and list(subset) == [0, 0]


def test_poincare_dirichlet_rectangle_is_the_discrete_sine():
    """Whole boundary Dirichlet on a rectangle: lambda_1 is the sum over axes
    of the 3-point Laplacian's first eigenvalue (4/h^2) sin^2(pi h/2L)."""
    g = mesh.build_grid(2, [1.0, 2.0], [20, 31])
    lam = sum(4.0 / h**2 * np.sin(np.pi * h / (2.0 * L)) ** 2
              for h, L in zip(g.h, g.extents))
    kappa = obsgram.poincare_constant(g, g.boundary_idx)
    assert abs(kappa - lam ** -0.5) <= 1e-12 * lam ** -0.5


def test_poincare_refuses_above_the_dense_limit():
    g = mesh.build_grid(1, [1.0], 4200)
    with pytest.raises(magop.DenseLimitError, match="dense order 4198"):
        obsgram.poincare_constant(g, g.boundary_idx)


def test_box_nodes():
    g = mesh.build_grid(1, [1.0], 11)
    nodes = g.box_nodes([0.0], [0.3])
    assert np.allclose(g.coords[nodes, 0], [0.0, 0.1, 0.2, 0.3])
    # corners of another dimension are refused, not truncated
    square = mesh.build_grid(2, [1.0, 1.0], 5)
    for grid, lo, hi in ((g, [0.0, 0.0], [0.3, 1.0]), (square, [0.0] * 3, [1.0] * 3),
                         (square, [0.0], [1.0])):
        with pytest.raises(ValueError, match=f"{grid.dim}D grid takes box corners"):
            grid.box_nodes(lo, hi)
