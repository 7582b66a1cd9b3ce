import numpy as np
import pytest

from frwave.mesh2d import (MeshTangleError, jitter, jitter_factor_for_skew,
                           read_mesh, skew_angle, uniform_quad_mesh,
                           write_mesh)


def quad_areas(mesh):
    X = mesh.corner_coords()
    x, y = X[..., 0], X[..., 1]
    cross = x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y
    return 0.5 * np.abs(cross.sum(axis=1))


def test_uniform_mesh_basic_layout():
    m = uniform_quad_mesh(2, 2, 1.0)
    centre = m.nodes[4]   # node (1, 1)
    assert np.allclose(centre, [0.5, 0.5])
    assert m.n_elements == 4
    assert skew_angle(m).alpha == 0.0
    # 3 elements across, 2 up, 4 nodes per row; an nx/ny swap changes it
    m = uniform_quad_mesh(3, 2, 1.0)
    assert m.elements.tolist() == [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6],
                                   [4, 5, 9, 8], [5, 6, 10, 9], [6, 7, 11, 10]]


def test_uniform_mesh_area_sums():
    for nx, ny, L in ((2, 2, 1.0), (5, 7, 3.0)):
        m = uniform_quad_mesh(nx, ny, L)
        assert quad_areas(m).sum() == pytest.approx(L * L, rel=1e-12)


def test_uniform_mesh_counterclockwise():
    m = uniform_quad_mesh(3, 3, 1.0)
    X = m.corner_coords()
    d1 = X[:, 1] - X[:, 0]
    d2 = X[:, 3] - X[:, 0]
    assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)


def test_uniform_mesh_rejects_tiny():
    with pytest.raises(ValueError):
        uniform_quad_mesh(1, 2, 1.0)


def test_jitter_factor_zero_identity():
    m = uniform_quad_mesh(5, 5, 1.0)
    jm = jitter(m, 0.0, seed=99)
    assert np.array_equal(jm.nodes, m.nodes)


def test_jitter_deterministic_for_fixed_seed():
    m = uniform_quad_mesh(7, 7, 1.0)
    a = jitter(m, 0.2, seed=31)
    b = jitter(m, 0.2, seed=31)
    assert np.array_equal(a.nodes, b.nodes)
    c = jitter(m, 0.2, seed=32)
    assert not np.array_equal(a.nodes, c.nodes)


def test_jitter_frozen_stream_values():
    # counter-based generator keyed by the seed: the displacement stream is
    # reproducible across platforms; first interior node of a 4x4 mesh
    m = uniform_quad_mesh(4, 4, 1.0)
    jm = jitter(m, 0.2, seed=12345)
    moved = jm.nodes - m.nodes
    assert np.allclose(moved[6], [0.00731901, 0.01371338], atol=1e-8)
    assert np.allclose(moved[7], [0.01432181, -0.01702017], atol=1e-8)


def test_jitter_pins_boundary_nodes():
    m = uniform_quad_mesh(6, 6, 2.0)
    jm = jitter(m, 0.3, seed=5)
    on_boundary = ((np.abs(m.nodes[:, 0]) < 1e-14) |
                   (np.abs(m.nodes[:, 0] - 2.0) < 1e-14) |
                   (np.abs(m.nodes[:, 1]) < 1e-14) |
                   (np.abs(m.nodes[:, 1] - 2.0) < 1e-14))
    assert np.array_equal(jm.nodes[on_boundary], m.nodes[on_boundary])
    assert not np.array_equal(jm.nodes[~on_boundary], m.nodes[~on_boundary])


def _one_block(mesh, factor, seed):
    """Every interior node displaced by one block draw in row-major order,
    with no redraw."""
    nx, ny = mesh.nx, mesh.ny
    interior = [j * (nx + 1) + i for j in range(1, ny) for i in range(1, nx)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    cell = np.array([mesh.L / nx, mesh.L / ny])
    nodes = mesh.nodes.copy()
    nodes[interior] += factor * cell * rng.uniform(-0.5, 0.5,
                                                   size=(len(interior), 2))
    return nodes


def test_jitter_keeps_elements_untangled():
    from frwave.mesh2d import _corner_jacobians
    m = uniform_quad_mesh(10, 10, 1.0)
    for factor in (0.45, 0.95):
        jm = jitter(m, factor, seed=11)
        jac = _corner_jacobians(jm.corner_coords())
        assert np.all(jac > 0)
    # at 0.95 the one block tangles elements, so redraw rounds ran
    tangled = _corner_jacobians(_one_block(m, 0.95, 11)[m.elements])
    assert np.any(tangled <= 0)


def test_corner_jacobians_are_the_corner_cross_products():
    # corner c: (next corner - c) x (previous corner - c)
    from frwave.mesh2d import _corner_jacobians
    X = jitter(uniform_quad_mesh(5, 3, 2.0), 0.4, seed=6).corner_coords()
    want = np.empty(X.shape[:2])
    for c in range(4):
        a = X[:, (c + 1) % 4] - X[:, c]
        b = X[:, (c + 3) % 4] - X[:, c]
        want[:, c] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    assert np.array_equal(_corner_jacobians(X), want)


@pytest.mark.parametrize("nx, ny, L, factor, seed", [
    (4, 4, 1.0, 0.2, 12345), (10, 10, 1.0, 0.45, 11), (7, 3, 2.0, 0.49, 5),
    (32, 32, 10.0, 0.4, 2031), (200, 200, 10.0, 0.3, 2024)])
def test_jitter_below_half_is_one_block(nx, ny, L, factor, seed):
    # below factor 0.5 no element can tangle, so no node is redrawn
    m = uniform_quad_mesh(nx, ny, L)
    assert np.array_equal(jitter(m, factor, seed).nodes,
                          _one_block(m, factor, seed))


def test_jitter_raises_when_rounds_run_out():
    # displacements of up to ten cells cannot be untangled
    with pytest.raises(MeshTangleError, match="after 100 redraw rounds"):
        jitter(uniform_quad_mesh(4, 4, 1.0), 20.0, seed=0)


def test_jitter_rejects_negative_factor():
    with pytest.raises(ValueError):
        jitter(uniform_quad_mesh(3, 3, 1.0), -0.1, seed=0)


def test_skew_increases_with_jitter_factor():
    m = uniform_quad_mesh(19, 19, 1.0)
    alphas = [skew_angle(jitter(m, f, seed=0)).alpha
              for f in (0.05, 0.15, 0.4)]
    assert alphas[0] < alphas[1] < alphas[2]


def test_skew_angle_hand_computed_quad():
    # diagonals (0,0)-(1,1) and (1,0)-(0,0.5)
    import math
    m = uniform_quad_mesh(2, 2, 1.0)
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.5]])
    elements = np.array([[0, 1, 2, 3]])
    from frwave.mesh2d import QuadMesh2D
    quad = QuadMesh2D(nodes=nodes, elements=elements, nx=1, ny=1, L=1.0)
    d1 = np.array([1.0, 1.0])
    d2 = np.array([0.0, 0.5]) - np.array([1.0, 0.0])
    cosb = abs(d1 @ d2) / (np.linalg.norm(d1) * np.linalg.norm(d2))
    beta = math.degrees(math.acos(cosb))
    report = skew_angle(quad)
    assert report.per_element[0] == pytest.approx(abs(beta - 90.0), abs=1e-10)
    assert report.per_element[0] == pytest.approx(18.434948822922, abs=1e-6)


def test_skew_angle_rotation_invariant():
    m = jitter(uniform_quad_mesh(9, 9, 1.0), 0.25, seed=17)
    base = skew_angle(m).alpha
    th = np.radians(37.0)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = m.nodes @ R.T
    from frwave.mesh2d import QuadMesh2D
    mr = QuadMesh2D(nodes=rotated, elements=m.elements, nx=m.nx, ny=m.ny, L=m.L)
    assert skew_angle(mr).alpha == pytest.approx(base, abs=1e-12)


def test_skew_report_mean_of_absolute_values():
    m = jitter(uniform_quad_mesh(8, 8, 1.0), 0.3, seed=2)
    rep = skew_angle(m)
    assert rep.alpha == pytest.approx(np.mean(np.abs(rep.per_element)))
    assert np.all(rep.per_element >= 0)


def test_jitter_factor_for_skew_hits_target():
    m = uniform_quad_mesh(19, 19, 1.0)
    for target in (1.5, 6.0, 15.0):
        factor, jm = jitter_factor_for_skew(m, target, seed=3, tol=0.15)
        assert abs(skew_angle(jm).alpha - target) <= 0.15
        assert 0 < factor < 0.95


def test_mesh_file_roundtrip(tmp_path):
    m = jitter(uniform_quad_mesh(5, 4, 2.0), 0.2, seed=8)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, m.nodes)
    assert np.array_equal(back.elements, m.elements)
    assert back.nx == 5 and back.ny == 4 and back.L == 2.0
    assert back.jitter_factor == 0.2 and back.seed == 8
    big = jitter(uniform_quad_mesh(200, 200, 10.0), 0.3, seed=2024)
    write_mesh(big, tmp_path / "big.txt")
    back = read_mesh(tmp_path / "big.txt")
    assert np.array_equal(back.nodes, big.nodes)
    assert np.array_equal(back.elements, big.elements)


@pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (-1.5, 1e-7)],
                         ids=["jittered", "signed-tiny"])
def test_write_mesh_matches_line_by_line_format(tmp_path, shift, scale):
    # the block write must give the file the per-line format gave
    from frwave.mesh2d import QuadMesh2D
    m = jitter(uniform_quad_mesh(6, 4, 3.0), 0.3, seed=9)
    m = QuadMesh2D(nodes=(m.nodes + shift) * scale, elements=m.elements,
                   nx=6, ny=4, L=3.0, jitter_factor=0.3, seed=9)
    lines = [f"quadmesh {m.nx} {m.ny} {float(m.L)!r} "
             f"{float(m.jitter_factor)!r} {m.seed}\n",
             f"{len(m.nodes)} {len(m.elements)}\n"]
    lines += [f"{float(x)!r} {float(y)!r}\n" for x, y in m.nodes]
    lines += [" ".join(str(c) for c in quad) + "\n" for quad in m.elements]
    write_mesh(m, tmp_path / "mesh.txt")
    assert (tmp_path / "mesh.txt").read_text(encoding="utf-8") == "".join(lines)


def test_read_mesh_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("trianglemesh 2 2\n")
    with pytest.raises(ValueError):
        read_mesh(path)
