import numpy as np
import pytest

from magschro import mesh


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
    with pytest.raises(ValueError):
        mesh.build_grid(1, [2.0], 3)


def test_build_grid_rejects_bad_extent():
    with pytest.raises(ValueError):
        mesh.build_grid(1, [-1.0], 8)
    with pytest.raises(ValueError):
        mesh.build_grid(3, [1.0] * 3, 8)


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
    rep = mesh.poincare_constant(g, g.boundary_idx)
    assert abs(rep.kappa - 1.0 / np.pi) < 1e-3


def test_poincare_scaled_interval():
    L = 2.7
    g = mesh.build_grid(1, [L], 256)
    rep = mesh.poincare_constant(g, g.boundary_idx)
    assert abs(rep.kappa - L / np.pi) < 1e-3


def test_poincare_mixed_interval():
    g = mesh.build_grid(1, [1.0], 256)
    rep = mesh.poincare_constant(g, np.array([0]))
    assert abs(rep.kappa - 2.0 / np.pi) < 1e-2


def test_poincare_monotone_in_dirichlet_part():
    g = mesh.build_grid(2, [1.0, 1.0], 17)
    s = mesh.split_boundary(g, [-0.4, 0.5])
    small = mesh.poincare_constant(g, s.gamma1)
    full = mesh.poincare_constant(g, g.boundary_idx)
    assert full.kappa <= small.kappa + 1e-6


def test_poincare_second_order_convergence():
    errs = []
    for n in (32, 64, 128):
        g = mesh.build_grid(1, [1.0], n)
        rep = mesh.poincare_constant(g, g.boundary_idx)
        errs.append(abs(rep.kappa - 1.0 / np.pi))
    assert errs[0] / errs[1] > 3.4
    assert errs[1] / errs[2] > 3.4


def test_poincare_rejects_empty_part():
    g = mesh.build_grid(1, [1.0], 16)
    with pytest.raises(ValueError):
        mesh.poincare_constant(g, np.array([], dtype=int))


def test_box_nodes():
    g = mesh.build_grid(1, [1.0], 11)
    nodes = g.box_nodes([0.0], [0.3])
    assert np.allclose(g.coords[nodes, 0], [0.0, 0.1, 0.2, 0.3])
