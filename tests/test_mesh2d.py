import re

import numpy as np
import pytest

from frwave.mesh2d import (MeshTangleError, QuadMesh2D, jitter,
                           jitter_factor_for_skew, read_mesh, skew_angle,
                           uniform_quad_mesh, write_mesh)


def quad_areas(mesh):
    x, y = mesh.corner_planes()
    cross = x * np.roll(y, -1, axis=0) - np.roll(x, -1, axis=0) * y
    return 0.5 * np.abs(cross.sum(axis=0))


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
    x, y = m.corner_planes()
    assert np.all((x[1] - x[0]) * (y[3] - y[0]) - (y[1] - y[0]) * (x[3] - x[0]) > 0)


def test_uniform_mesh_rejects_tiny():
    with pytest.raises(ValueError):
        uniform_quad_mesh(1, 2, 1.0)


@pytest.mark.parametrize("L", [np.nan, np.inf, 0.0, -2.0])
def test_uniform_mesh_rejects_side_length_not_positive_finite(L):
    with pytest.raises(ValueError, match="mesh side length must be a positive finite number"):
        uniform_quad_mesh(3, 3, L)


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
        jac = _corner_jacobians(*jm.corner_planes())
        assert np.all(jac > 0)
    # at 0.95 the one block tangles elements, so redraw rounds ran
    nodes = _one_block(m, 0.95, 11)[m.elements.T]
    tangled = _corner_jacobians(nodes[..., 0], nodes[..., 1])
    assert np.any(tangled <= 0)


def test_corner_jacobians_are_the_corner_cross_products():
    # corner c: (next corner - c) x (previous corner - c), bit for bit; at
    # factor 0.95 the one-block draw has tangled elements, whose verdicts
    # must not move either.  Edge c runs from corner c to the next
    from frwave.mesh2d import _corner_jacobians, _edge
    for nx, ny, factor, seed in ((5, 3, 0.4, 6), (10, 10, 0.95, 11)):
        m = uniform_quad_mesh(nx, ny, 2.0)
        nodes = _one_block(m, factor, seed)
        X = nodes[m.elements]
        want = np.empty(X.shape[:2])
        for c in range(4):
            a = X[:, (c + 1) % 4] - X[:, c]
            b = X[:, (c + 3) % 4] - X[:, c]
            want[:, c] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        assert np.any(want <= 0) == (factor > 0.5)
        jm = QuadMesh2D(nodes=nodes, nx=nx, ny=ny, L=2.0)
        x, y = jm.corner_planes()
        assert np.array_equal(x, X[..., 0].T) and np.array_equal(y, X[..., 1].T)
        got = _corner_jacobians(x, y)
        assert np.array_equal(got, want.T)
        edges = np.roll(X, -1, axis=1) - X
        assert all(np.array_equal(np.stack(_edge(x, y, c), axis=-1), edges[:, c]) for c in range(4))
        assert np.array_equal(got <= 0, want.T <= 0)


def test_vector_length_is_the_norm():
    # lengths are sqrt(a*a + b*b), which is what np.linalg.norm computes
    # along a last axis of two: bit for bit, also for tiny, huge, zero and
    # mixed-scale components
    from frwave.mesh2d import _length
    rng = np.random.default_rng(41)
    v = rng.normal(size=(40_000, 2)) * 10.0 ** rng.uniform(-150, 150, (40_000, 2))
    v[:4] = [[0.0, 0.0], [0.0, -3.0], [1e-160, 1e-160], [1e150, -1e150]]
    assert np.array_equal(_length(v[:, 0], v[:, 1]), np.linalg.norm(v, axis=-1))


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


def test_jitter_counts_a_non_finite_jacobian_as_tangled():
    # at factor 1e308 the nodes overflow and every corner Jacobian is NaN,
    # which once passed the check and gave a mesh of non-finite nodes
    with pytest.raises(MeshTangleError, match="16 elements still tangled"):
        jitter(uniform_quad_mesh(4, 4, 10.0), 1e308, seed=0)


def test_jitter_rejects_negative_factor():
    # a NaN factor once passed the check and gave NaN nodes
    for factor in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="jitter factor must be non-negative"):
            jitter(uniform_quad_mesh(3, 3, 1.0), factor, seed=0)


def test_skew_increases_with_jitter_factor():
    m = uniform_quad_mesh(19, 19, 1.0)
    alphas = [skew_angle(jitter(m, f, seed=0)).alpha
              for f in (0.05, 0.15, 0.4)]
    assert alphas[0] < alphas[1] < alphas[2]


def test_skew_angle_hand_computed_quad():
    # diagonals (0,0)-(1,1) and (1,0)-(0,0.5)
    import math
    m = uniform_quad_mesh(2, 2, 1.0)
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.0, 1.0]])
    from frwave.mesh2d import QuadMesh2D
    quad = QuadMesh2D(nodes=nodes, nx=1, ny=1, L=1.0)
    d1 = np.array([1.0, 1.0])
    d2 = np.array([0.0, 0.5]) - np.array([1.0, 0.0])
    cosb = abs(d1 @ d2) / (np.linalg.norm(d1) * np.linalg.norm(d2))
    beta = math.degrees(math.acos(cosb))
    report = skew_angle(quad)
    assert report.per_element[0] == pytest.approx(abs(beta - 90.0), abs=1e-10)
    assert report.per_element[0] == pytest.approx(18.434948822922, abs=1e-6)


def test_skew_angle_rejects_a_zero_length_diagonal():
    # the squared diagonals of 5e-201-wide cells underflow to zero
    with pytest.raises(ValueError, match="zero-length cross diagonal"):
        skew_angle(uniform_quad_mesh(2, 2, 1e-200))


def test_skew_angle_rotation_invariant():
    m = jitter(uniform_quad_mesh(9, 9, 1.0), 0.25, seed=17)
    base = skew_angle(m).alpha
    th = np.radians(37.0)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = m.nodes @ R.T
    from frwave.mesh2d import QuadMesh2D
    mr = QuadMesh2D(nodes=rotated, nx=m.nx, ny=m.ny, L=m.L)
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


def test_jitter_factor_for_skew_reports_a_missed_target():
    # on 8x8 with seed 2024 the skew jumps from about 14.05 to 15.84 deg
    # between factors 0.81 and 0.83, where redraws start, so 15 +- 0.15 deg
    # is never hit; the mesh nearest the target was once returned silently
    m = uniform_quad_mesh(8, 8, 10.0)
    with pytest.raises(ValueError, match=r"within 0\.15 deg of 15 deg; the nearest was 14\.33"):
        jitter_factor_for_skew(m, 15, seed=2024, tol=0.15)
    # a NaN target once bisected to a near-uniform mesh
    for target in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="target skew must be non-negative"):
            jitter_factor_for_skew(m, target, seed=2024)


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
    m = QuadMesh2D(nodes=(m.nodes + shift) * scale, nx=6, ny=4, L=3.0,
                   jitter_factor=0.3, seed=9)
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


# write_mesh's file of uniform_quad_mesh(2, 2, 1.0); each malformed file
# below changes one field of it
_MESH_2X2 = ("quadmesh 2 2 1.0 0.0 0\n9 4\n"
             + "".join(f"{x} {y}\n" for y in (0.0, 0.5, 1.0) for x in (0.0, 0.5, 1.0))
             + "0 1 4 3\n1 2 5 4\n3 4 7 6\n4 5 8 7\n")


@pytest.mark.parametrize("text, message", [
    ("", " is not a quadmesh file"),
    ("quadmesh 2 2 1.0 0.0\n9 4\n", " is not a quadmesh file"),
    ("quadmesh 2 2 1.0 0.0 0\n", " is not a quadmesh file"),
    ("quadmesh 2 2 1.0 0.0 0\n9 4\n0.0 0.0\n0.5 0.0\n",
     ": 4 values after the counts, not the 34 of 9 nodes and 4 elements"),
    (_MESH_2X2.replace("quadmesh 2 2", "quadmesh two 2"),
     ": invalid literal for int() with base 10: 'two'"),
    (_MESH_2X2.replace("0.5 0.5\n", "0.5 zero\n"),
     ": could not convert string to float: 'zero'"),
    (_MESH_2X2.replace("9 4\n", "9 four\n"),
     ": invalid literal for int() with base 10: 'four'"),
    (_MESH_2X2.replace("4 5 8 7", "4 5 8 6.5"),
     ": invalid literal for int() with base 10: '6.5'")],
    ids=["empty", "five-header-fields", "no-count-line", "short-of-nodes",
         "word-in-header", "word-for-coordinate", "word-for-count",
         "fractional-element-index"])
def test_read_mesh_names_the_file_it_cannot_read(tmp_path, text, message):
    # these once raised an IndexError, a tuple unpacking error, numpy's
    # reshape error or a bare conversion error, none of which named the file
    path = tmp_path / "mesh.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        read_mesh(path)


def _connectivity(nx, ny):
    """Explicit (n_elem, 4) counterclockwise corner indices of the grid."""
    return np.array([[j * (nx + 1) + i, j * (nx + 1) + i + 1,
                      (j + 1) * (nx + 1) + i + 1, (j + 1) * (nx + 1) + i]
                     for j in range(ny) for i in range(nx)])


def _redraw_reference(mesh, factor, seed):
    """jitter's nodes as first written: corners gathered through an explicit
    connectivity every round, and the nodes to redraw found by np.isin."""
    from frwave.mesh2d import _corner_jacobians
    nx, ny = mesh.nx, mesh.ny
    elements = _connectivity(nx, ny)
    rng = np.random.Generator(np.random.Philox(key=seed))
    step = factor * np.array([mesh.L / nx, mesh.L / ny])
    nodes = mesh.nodes.copy()
    interior = nodes.reshape(ny + 1, nx + 1, 2)[1:-1, 1:-1]
    base = interior.copy()
    redo = np.ones(base.shape[:2], dtype=bool)
    for _ in range(101):
        interior[redo] = base[redo] + step * rng.uniform(-0.5, 0.5, size=(redo.sum(), 2))
        X = nodes[elements]
        bad = np.any(_corner_jacobians(X[..., 0].T, X[..., 1].T) <= 0.0, axis=0)
        if not bad.any():
            return nodes
        redo = np.isin(np.arange(len(nodes)), elements[bad])
        redo = redo.reshape(ny + 1, nx + 1)[1:-1, 1:-1]
    raise AssertionError("reference ran out of redraw rounds")


@pytest.mark.parametrize("nx, ny, factor, seed", [(10, 10, 0.95, 11), (12, 7, 0.9, 3)])
def test_jitter_redraw_matches_gather_reference(nx, ny, factor, seed):
    # redraw rounds ran (the one block tangles elements), and the nodes they
    # pick by slicing the element grid are the ones the gather picked
    m = uniform_quad_mesh(nx, ny, 1.0)
    got = jitter(m, factor, seed).nodes
    assert not np.array_equal(got, _one_block(m, factor, seed))
    assert np.array_equal(got, _redraw_reference(m, factor, seed))


def test_corner_planes_are_the_connectivity_gather(tmp_path):
    # slices of the node grid, bit for bit the gather over the explicit
    # connectivity, as C-contiguous planes
    meshes = [uniform_quad_mesh(3, 2), uniform_quad_mesh(5, 7, 3.0),
              jitter(uniform_quad_mesh(10, 10), 0.95, 11),
              jitter(uniform_quad_mesh(12, 7, 2.0), 0.9, 3)]
    write_mesh(meshes[-1], tmp_path / "mesh.txt")
    meshes.append(read_mesh(tmp_path / "mesh.txt"))
    for m in meshes:
        elements = _connectivity(m.nx, m.ny)
        assert np.array_equal(m.elements, elements)
        planes = m.corner_planes()
        assert planes.shape == (2, 4, m.n_elements)
        assert all(plane.flags.c_contiguous for plane in planes)
        assert np.array_equal(planes, np.take(m.nodes.T, elements.T, axis=1))


@pytest.mark.parametrize("edit, counts", [
    (lambda nodes, quads: (nodes, quads[::-1], 64), "81 nodes, 64 elements"),
    (lambda nodes, quads: (nodes[:-9], quads, 64), "72 nodes, 64 elements"),
    (lambda nodes, quads: (nodes, quads[:-1], 63), "81 nodes, 63 elements"),
    (lambda nodes, quads: (nodes, quads, 63), "81 nodes, 63 elements")],
    ids=["reversed-elements", "short-a-node-row", "element-count", "count-not-lines"])
def test_read_mesh_rejects_files_the_solvers_would_misread(tmp_path, edit, counts):
    # both solvers read neighbours by the structured numbering, so a file
    # listing the same quads in another order once ran and gave a wrong
    # vortex error (FR) or a NonPhysicalStateError (FV)
    path = tmp_path / "mesh.txt"
    write_mesh(jitter(uniform_quad_mesh(8, 8, 10.0), 0.3, seed=2024), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    nodes, quads, n_elem = edit(lines[2:83], lines[83:])
    path.write_text(lines[0] + f"{len(nodes)} {n_elem}\n" + "".join(nodes + quads),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=rf"mesh\.txt: {counts}, not a structured 8x8 mesh"):
        read_mesh(path)
