import itertools
import math

import numpy as np
import pytest

from perfhom import geometry, meshing
from perfhom.errors import (
    InconsistentMeshError,
    MeshingError,
    MissingFacetTagsError,
    ResolutionTooCoarseError,
)

from _oracles import p1_geometry_unblocked


def test_box_mesh_volume_and_orientation():
    m = meshing.mesh_box((0.0, 0.0), (1.0, 1.0), 0.25)
    assert m.check()
    vol = m.simplex_volumes()
    assert vol.min() > 0
    assert vol.sum() == pytest.approx(1.0, abs=1e-13)
    # outer boundary length of the unit square
    assert m.facet_measures(m.facet_mask("outer")).sum() == pytest.approx(4.0)


def test_box_mesh_3d_volume():
    m = meshing.mesh_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.5)
    assert m.simplex_volumes().sum() == pytest.approx(1.0, abs=1e-13)
    assert m.facet_measures(m.facet_mask("outer")).sum() == pytest.approx(6.0)


def test_interface_facet_layer():
    m = meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.0, 1 / 16)
    mask = m.facet_mask("interface")
    assert mask.sum() == 16
    assert m.facet_measures(mask).sum() == pytest.approx(1.0, abs=1e-13)
    on_plane = m.vertices[m.facet_vertices("interface"), 1]
    assert np.all(on_plane == 0.0)

    m2 = meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.0, 1 / 32)
    assert m2.facet_mask("interface").sum() == 32


def test_no_element_straddles_interface():
    m = meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.25, 0.11)
    y = m.vertices[m.simplices, 1] - 0.25
    straddles = (y.min(axis=1) < -1e-12) & (y.max(axis=1) > 1e-12)
    assert not straddles.any()


def test_interface_outside_box_rejected():
    with pytest.raises(ValueError):
        meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 1.5, 0.25)


def test_perforated_mesh_cavity_groups():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.08)
    assert m.check()
    tags = set(int(t) for t in m.facet_tags)
    assert set(range(lay.n_cavities)) <= tags
    # every cavity contributes a closed polygon of positive length
    for k in range(lay.n_cavities):
        assert m.facet_measures(m.facet_mask(k)).sum() > 0
    # cavity walls are the only interior boundary; S itself is not a facet,
    # but a vertex row sits on it exactly
    assert m.facet_mask("interface").sum() == 0
    assert (m.vertices[:, 1] == 0.0).sum() > 0


def test_perforated_cavity_vertices_on_analytic_boundary():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.08)
    rho = 0.15 * lay.cavity_scale
    for k in range(lay.n_cavities):
        v = m.vertices[m.facet_vertices(k)] - lay.centers[k]
        r = np.linalg.norm(v, axis=1)
        assert np.abs(r - rho).max() < 1e-12


def test_perforated_perimeter_second_order():
    lay = geometry.make_layout("explicit", {"centers": [[0.5, 0.0]]}, 1 / 8)
    exact = 2 * math.pi * 0.15 * lay.cavity_scale
    errs = []
    for h in (0.02, 0.01):
        m = meshing.mesh_perforated(lay, h)
        per = m.facet_measures(m.facet_mask(0)).sum()
        errs.append(abs(per - exact))
    assert errs[1] < errs[0] / 3.0


def test_perforated_empty_layout_is_plain_box():
    lay = geometry.make_layout("explicit", {"centers": [], "shapes": []}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.1)
    assert m.facet_mask("cavity").sum() == 0
    assert m.simplex_volumes().sum() == pytest.approx(1.0, abs=1e-12)


def test_perforated_volume_accounts_for_cavities():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    hole = lay.n_cavities * math.pi * (0.15 * lay.cavity_scale) ** 2
    m = meshing.mesh_perforated(lay, 0.04)
    # polygonal cavities are inscribed, so the mesh slightly overshoots
    assert m.simplex_volumes().sum() == pytest.approx(1.0 - hole, rel=1e-3)


def test_resolution_too_coarse_raises():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    with pytest.raises(ResolutionTooCoarseError):
        meshing.mesh_perforated(lay, 0.2, refine_factor_near_cavities=1.0)


def test_missing_facet_selector_raises():
    m = meshing.mesh_box((0.0, 0.0), (1.0, 1.0), 0.5)
    with pytest.raises(MissingFacetTagsError):
        m.facet_vertices("interface")
    with pytest.raises(ValueError):
        m.facet_mask("inner")


def test_check_rejects_bad_indices():
    m = meshing.mesh_box((0.0, 0.0), (1.0, 1.0), 0.5)
    bad = meshing.Mesh(m.vertices, m.simplices.copy(), m.facets, m.facet_tags, m.h)
    bad.simplices[0, 0] = 10_000
    with pytest.raises(InconsistentMeshError):
        bad.check()


def test_text_roundtrip(tmp_path):
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.08)
    path = tmp_path / "mesh.txt"
    m.to_text(path)
    back = meshing.Mesh.from_text(path)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.simplices, m.simplices)
    assert np.array_equal(back.facets, m.facets)
    assert np.array_equal(back.facet_tags, m.facet_tags)


def test_locate_and_interpolate_reproduce_linears():
    m = meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.0, 0.2)
    vals = 2.0 * m.vertices[:, 0] + 3.0 * m.vertices[:, 1] - 0.5
    rng = np.random.default_rng(7)
    pts = rng.uniform([0.0, -1.0], [1.0, 1.0], size=(200, 2))
    got = meshing.interpolate(m, vals, pts)
    want = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] - 0.5
    assert np.abs(got - want).max() < 1e-12


def test_locate_outside_returns_minus_one():
    m = meshing.mesh_box((0.0, 0.0), (1.0, 1.0), 0.25)
    got, _ = meshing.locate(m, [[2.0, 2.0], [0.5, -0.1], [1.0 + 1e-6, 0.5], [0.3, 0.6]])
    assert (got[:3] == -1).all() and got[3] >= 0
    with pytest.raises(MeshingError):
        meshing.interpolate(m, np.zeros(m.n_vertices), [[2.0, 2.0]])
    # only grid meshes locate points
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    mp = meshing.mesh_perforated(lay, 0.08)
    with pytest.raises(MeshingError):
        meshing.locate(mp, lay.centers[:1])


def _grid_line_points(m, rng, n):
    """Random points of m's box, points with one coordinate on a grid line,
    and every vertex of m."""
    axes = m.grid["axes"]
    lo, hi = [ax[0] for ax in axes], [ax[-1] for ax in axes]
    inner = rng.uniform(lo, hi, size=(n, len(axes)))
    on_lines = rng.uniform(lo, hi, size=(n, len(axes)))
    for p, a in enumerate(rng.integers(len(axes), size=n)):
        on_lines[p, a] = rng.choice(axes[a])
    return np.vstack([inner, on_lines, m.vertices])


@pytest.mark.parametrize("build", [
    lambda: meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.3, 0.15),
    lambda: meshing.mesh_interface((0.0, 0.0, -0.5), (1.0, 0.75, 0.5), 0.1, 0.25),
    lambda: meshing.mesh_slab((0.0, -0.5), (1.0, 0.25), 0.5, 0.1),
], ids=["interface2", "interface3", "slab3"])
def test_interpolation_matrix_is_the_p1_transfer(build):
    m = build()
    rng = np.random.default_rng(5)
    pts = _grid_line_points(m, rng, 150)
    P = meshing.interpolation_matrix(m, pts)
    assert P.shape == (len(pts), m.n_vertices)
    assert P.nnz == (m.dim + 1) * len(pts)
    np.testing.assert_allclose(P.sum(axis=1).A1, 1.0, rtol=0, atol=1e-14)
    coef = np.array([2.0, -3.0, 0.5][:m.dim])
    got = P @ (m.vertices @ coef - 0.5)
    np.testing.assert_allclose(got, pts @ coef - 0.5, rtol=0, atol=1e-12)
    # vertices map onto themselves
    np.testing.assert_allclose(P[-m.n_vertices:].toarray(), np.eye(m.n_vertices),
                               rtol=0, atol=1e-12)
    # the weights locate keeps for the winning simplex are, bit for bit, a
    # second barycentric evaluation on the located simplices
    idx, _ = meshing.locate(m, pts)
    np.testing.assert_array_equal(P.indices, m.simplices[idx].ravel())
    np.testing.assert_array_equal(P.data, meshing._barycentric(m, pts, idx).ravel())
    # the per-point einsum of barycentric weights from an LU solve of each
    # simplex's edge matrix gives the same values
    vals = rng.random(m.n_vertices)
    v = m.vertices[m.simplices[idx]]
    lam = np.linalg.solve(np.swapaxes(v[:, 1:] - v[:, :1], 1, 2),
                          (pts - v[:, 0])[..., None])[..., 0]
    lam = np.column_stack([1.0 - lam.sum(axis=1), lam])
    want = np.einsum("pk,pk->p", lam, vals[m.simplices[idx]])
    np.testing.assert_allclose(meshing.interpolate(m, vals, pts), want,
                               rtol=0, atol=1e-15)


def test_slab_bottom_tags_and_grading():
    m = meshing.mesh_slab((0.0,), (1.0,), 1.0, 0.05)
    assert m.check()
    bottom = m.facet_mask("interface")
    assert m.facet_measures(bottom).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(m.vertices[m.facet_vertices("interface"), 1] == 0.0)
    rows = m.grid["axes"][-1]
    gaps = np.diff(rows)
    assert gaps[0] == pytest.approx(0.05)
    # rows coarsen away from the bottom; the closing row may stretch the
    # cap by up to half a step
    assert gaps.max() <= 1.5 / 8.0 + 1e-12
    assert gaps[-2] > 2 * gaps[0]


@pytest.mark.parametrize("args, name", [
    (((0.0,), (1.0,), 0.5, 0.0), "h_bottom"),
    (((0.0,), (1.0,), 0.5, -0.05), "h_bottom"),
    (((0.0,), (1.0,), 0.5, math.inf), "h_bottom"),
    (((0.0,), (1.0,), 0.0, 0.05), "height"),
    (((0.0,), (1.0,), -0.5, 0.05), "height"),
    (((0.0,), (1.0,), math.nan, 0.05), "height"),
    (((0.0,), (0.0,), 0.5, 0.05), "tangential"),
    (((0.0, 1.0), (1.0, 0.5), 0.5, 0.1), "tangential"),
    (((0.0,), (math.inf,), 0.5, 0.05), "tangential"),
    (((), (), 0.5, 0.05), "tangential"),
], ids=["h-zero", "h-negative", "h-inf", "height-zero", "height-negative",
        "height-nan", "extent-empty", "extent-reversed", "extent-infinite",
        "no-tangential-axis"])
def test_mesh_slab_rejects_sizes_outside_their_domain(args, name):
    # h_bottom = 0 used to add slab rows forever
    with pytest.raises(ValueError, match=name):
        meshing.mesh_slab(*args)


def test_perforated_3d_smoke():
    lay = geometry.make_layout(
        "periodic", {"dim": 3, "domain": ((0.0, 0.0, -0.5), (0.5, 0.5, 0.5))},
        1 / 4)
    m = meshing.mesh_perforated(lay, 0.2)
    assert m.check()
    assert set(range(lay.n_cavities)) <= set(int(t) for t in m.facet_tags)
    hole = lay.n_cavities * 4 / 3 * math.pi * (0.15 * lay.cavity_scale) ** 3
    assert m.simplex_volumes().sum() == pytest.approx(0.25 - hole, rel=5e-3)


def _tri_grid_loop(xs, ys):
    """Cell-by-cell reference for meshing._tri_grid."""
    nx, ny = len(xs) - 1, len(ys) - 1
    vid = lambda i, j: i * (ny + 1) + j
    tris, cell_tri = [], np.empty((nx, ny, 2), dtype=np.int64)
    for i in range(nx):
        for j in range(ny):
            v00, v10, v01, v11 = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris += [(v00, v10, v11), (v00, v11, v01)]
            else:
                tris += [(v10, v11, v01), (v10, v01, v00)]
            cell_tri[i, j] = (len(tris) - 2, len(tris) - 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()]), np.array(tris, dtype=np.int64), cell_tri


def _tet_grid_loop(xs, ys, zs):
    """Cell-by-cell reference for meshing._tet_grid (Kuhn paths, the last
    two vertices swapped on odd permutations)."""
    nx, ny, nz = len(xs) - 1, len(ys) - 1, len(zs) - 1
    vid = lambda c: (c[0] * (ny + 1) + c[1]) * (nz + 1) + c[2]
    tets, cell_tet = [], np.empty((nx, ny, nz, 6), dtype=np.int64)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                for p, perm in enumerate(itertools.permutations(range(3))):
                    corner = [i, j, k]
                    ids = [vid(corner)]
                    for ax in perm:
                        corner[ax] += 1
                        ids.append(vid(corner))
                    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                    if inversions % 2:
                        ids[2], ids[3] = ids[3], ids[2]
                    cell_tet[i, j, k, p] = len(tets)
                    tets.append(ids)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    return verts, np.array(tets, dtype=np.int64), cell_tet


@pytest.mark.parametrize("build, reference, shape", [
    (meshing._tri_grid, _tri_grid_loop, (3, 4)),
    (meshing._tet_grid, _tet_grid_loop, (2, 3, 2)),
])
def test_structured_grid_matches_cell_loop(build, reference, shape):
    rng = np.random.default_rng(3)
    axes = [np.sort(rng.random(n + 1)) for n in shape]
    *want, cell_map = reference(*axes)
    for got, ref in zip(build(*axes), want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    # locate's rule: cells run i-major and own m consecutive simplices
    m = cell_map.shape[-1]
    cells = np.indices(shape).reshape(len(shape), -1)
    rule = np.ravel_multi_index(cells, shape)[:, None] * m + np.arange(m)
    np.testing.assert_array_equal(cell_map.reshape(-1, m), rule)


def _boundary_faces_unique(simplices, dim):
    """Faces of exactly one simplex, ordered by their sorted vertex indices:
    an np.unique reference for the facets of every mesh."""
    faces = np.concatenate([simplices[:, [j for j in range(dim + 1) if j != i]]
                            for i in range(dim + 1)], axis=0)
    _, first, counts = np.unique(np.sort(faces, axis=1), axis=0,
                                 return_index=True, return_counts=True)
    return faces[first[counts == 1]]


def _on_cavity_boundary(layout, k, pts):
    """True for points on cavity k's analytic boundary: each unit shape is
    star-shaped about its center, so a boundary point pulled in radially is
    in the shape, and pushed out is not."""
    y = (pts - layout.centers[k]) / layout.cavity_scale
    shape = layout.shapes[k]
    return shape.contains(y * (1 - 1e-9)) & ~shape.contains(y * (1 + 1e-9))


_ELLIPSE = {"family": "ellipse", "params": {"semi_axes": [0.18, 0.11]}}
_STAR = {"family": "star", "params": {"r0": 0.15, "r1": 0.04, "wings": 5}}


def _perforated(kind, params, eps, h):
    lay = geometry.make_layout(kind, params, eps)
    return meshing.mesh_perforated(lay, h), lay


@pytest.mark.parametrize("build", [
    lambda: (meshing.mesh_box((0.0, 0.0), (1.0, 1.0), 0.1), None),
    lambda: (meshing.mesh_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.25), None),
    lambda: (meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.2, 0.1), None),
    lambda: (meshing.mesh_slab((0.0, 0.0), (1.0, 1.0), 0.5, 0.1), None),
    lambda: _perforated("periodic", {}, 1 / 8, 0.06),
    lambda: _perforated("periodic", {"shape": _ELLIPSE}, 1 / 12, 0.05),
    lambda: _perforated("periodic", {"shape": _STAR}, 1 / 8, 0.04),
    lambda: _perforated("clustered", {"beta": 0.25}, 1 / 12, 0.0625),
    lambda: _perforated("perturbed-periodic",
                        {"mu": 0.1, "seed": 3, "perimeter_jitter": 0.2}, 1 / 8, 0.06),
    lambda: _perforated("periodic", {"dim": 3, "domain": ((0.0, 0.0, -0.5), (0.5, 0.5, 0.5))},
                        1 / 4, 0.2),
], ids=["box2", "box3", "interface2", "slab3", "perforated2", "ellipse2", "star2",
        "clustered2", "perturbed2", "perforated3"])
def test_boundary_faces_match_unique_reference(build):
    m, lay = build()
    want = _boundary_faces_unique(m.simplices, m.dim)
    assert m.facets.dtype == want.dtype
    lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    v = m.vertices[m.facets]
    on_box = np.zeros(len(v), dtype=bool)
    for a in range(m.dim):
        on_box |= (v[:, :, a] == lo[a]).all(axis=1) | (v[:, :, a] == hi[a]).all(axis=1)
    if lay is None:
        # a grid mesh's facets are its boundary faces, each once, on a box
        # side, and besides them only the interior layer's INTERFACE_TAG facets
        boundary = set(map(tuple, np.sort(want, axis=1).tolist()))
        rows = list(map(tuple, np.sort(m.facets, axis=1).tolist()))
        once = np.array([r in boundary for r in rows])
        assert once.sum() == len(boundary) == len(want)
        np.testing.assert_array_equal(once, on_box)
        assert (m.facet_tags[~once] == meshing.INTERFACE_TAG).all()
        return
    np.testing.assert_array_equal(m.facets, want)
    # a facet lies on a box side, or is a face of cavity k's inscribed
    # polygon or shell: its vertices on k's boundary, the center of k the
    # nearest to its midpoint
    np.testing.assert_array_equal(m.facet_tags == meshing.OUTER_TAG, on_box)
    mid = v[~on_box].mean(axis=1)
    nearest = np.linalg.norm(mid[:, None] - lay.centers[None], axis=2).argmin(axis=1)
    np.testing.assert_array_equal(m.facet_tags[~on_box], nearest)
    for k in range(lay.n_cavities):
        assert _on_cavity_boundary(lay, k, m.vertices[m.facet_vertices(k)]).all()


def _cloud_with(point):
    """A _cavity_cloud that appends point(layout) to cavity 0's rings."""
    real = meshing._cavity_cloud

    def cloud(layout, k, *args):
        pts, n_boundary, protect = real(layout, k, *args)
        if k == 0:
            pts = np.vstack([pts, point(layout)])
        return pts, n_boundary, protect
    return cloud


def test_facets_neither_on_the_box_nor_on_a_cavity_are_refused(monkeypatch):
    # a point beyond the box puts hull faces off the box and off every cavity
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    monkeypatch.setattr(meshing, "_cavity_cloud", _cloud_with(lambda lay: [[0.5, 0.7]]))
    with pytest.raises(MeshingError, match="2 boundary facets not attributable"):
        meshing.mesh_perforated(lay, 0.08)


# two balls of radius R2 = 0.2 whose centers are 2*b*R2*eps apart, the
# closest spacing validate_layout allows
_CLOSEST_PAIR = geometry.make_layout(
    "explicit", {"centers": [[0.5, 0.0], [0.56, 0.0]],
                 "shape": {"family": "ball", "params": {"radius": 0.2}}}, 1 / 8)


@pytest.mark.parametrize("h", [0.03, 0.015])
def test_rings_stay_out_of_the_neighbouring_cavity(monkeypatch, h):
    lay, clouds, real = _CLOSEST_PAIR, {}, meshing._cavity_cloud

    def spy(layout, k, *args):
        clouds[k] = real(layout, k, *args)
        return clouds[k]
    monkeypatch.setattr(meshing, "_cavity_cloud", spy)
    meshing.mesh_perforated(lay, h)
    for k, (pts, n_boundary, _) in clouds.items():
        rings = pts[n_boundary:]
        assert len(rings)
        y = (rings - lay.centers[1 - k]) / lay.cavity_scale
        assert not lay.shapes[1 - k].contains(y).any()


def test_points_inside_a_cavity_are_dropped_or_refused(monkeypatch):
    # the carve keeps every simplex around a point inside a cavity, so a
    # ring point there is dropped: the mesh is the one without it
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    plain = meshing.mesh_perforated(lay, 0.08)
    monkeypatch.setattr(meshing, "_cavity_cloud", _cloud_with(lambda lay: lay.centers[:1]))
    m = meshing.mesh_perforated(lay, 0.08)
    monkeypatch.undo()
    for name in ("vertices", "simplices", "facets", "facet_tags"):
        np.testing.assert_array_equal(getattr(m, name), getattr(plain, name))
    # at the closest spacing validate_layout allows, each cavity's facets
    # lie on its own boundary
    lay = _CLOSEST_PAIR
    m = meshing.mesh_perforated(lay, 0.03)
    for k in range(2):
        assert _on_cavity_boundary(lay, k, m.vertices[m.facet_vertices(k)]).all()
    # a boundary point inside another cavity means the two overlap
    ball = geometry.Shape("ball", {"radius": 0.15})
    lay = geometry.PerforationLayout(2, (0.0, -0.5), (1.0, 0.5), 0.0, 1 / 8, 1.0,
                                     [[0.5, 0.0], [0.52, 0.0]], [ball])
    assert not geometry.validate_layout(lay).passed
    with pytest.raises(MeshingError, match="cavities overlap"):
        meshing.mesh_perforated(lay, 0.04)


def _faces_on_plane(m, c):
    """Distinct faces of m's simplices with every vertex at x_n == c, as
    sorted rows."""
    faces = np.concatenate([np.delete(m.simplices, i, axis=1) for i in range(m.dim + 1)])
    on = np.all(m.vertices[faces, -1] == c, axis=1)
    return set(map(tuple, np.sort(faces[on], axis=1).tolist()))


@pytest.mark.parametrize("build, plane", [
    (lambda: meshing.mesh_box((0.0, 0.0), (1.0, 1.0), 0.1), None),
    (lambda: meshing.mesh_box((0.0, 0.0, -0.5), (1.0, 0.75, 0.5), 0.25), None),
    (lambda: meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.2, 0.1), 0.2),
    (lambda: meshing.mesh_interface((0.0, 0.0, -1.0), (1.0, 0.75, 1.0), 0.2, 0.25), 0.2),
    (lambda: meshing.mesh_slab((0.25,), (1.25,), 0.5, 0.05), 0.0),
    (lambda: meshing.mesh_slab((0.0, -0.5), (1.0, 0.25), 0.5, 0.1), 0.0),
], ids=["box2", "box3", "interface2", "interface3", "slab2", "slab3"])
def test_grid_meshes_come_from_arithmetic_alone(build, plane, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a grid mesh needs no orientation search")

    monkeypatch.setattr(meshing, "_orient", forbidden)
    m = build()
    monkeypatch.undo()
    det = meshing._edge_cofactors(m.vertices, m.simplices)[0]
    assert (det > 0).all()
    rows = list(map(tuple, np.sort(m.facets, axis=1).tolist()))
    assert len(set(rows)) == len(rows)
    boundary = set(map(tuple, np.sort(
        _boundary_faces_unique(m.simplices, m.dim), axis=1).tolist()))
    layer = set() if plane is None else _faces_on_plane(m, plane)
    assert set(rows) == boundary | layer
    tagged = {r for r, t in zip(rows, m.facet_tags) if t == meshing.INTERFACE_TAG}
    assert tagged == layer
    assert set(m.facet_tags.tolist()) <= {meshing.OUTER_TAG, meshing.INTERFACE_TAG}


@pytest.mark.parametrize("build, shape", [
    (meshing._tri_grid, (5, 4)),
    (meshing._tet_grid, (3, 4, 2)),
])
def test_grid_simplices_are_positively_oriented(build, shape):
    rng = np.random.default_rng(4)
    axes = [np.cumsum(rng.uniform(0.1, 2.0, n + 1)) for n in shape]
    verts, simp = build(*axes)
    det = meshing._edge_cofactors(verts, simp)[0]
    assert (det > 0).all()
    # the simplices of each cell (consecutive, cells i-major) fill it
    cells = np.prod(np.meshgrid(*map(np.diff, axes), indexing="ij"), axis=0).ravel()
    vols = det.reshape(len(cells), -1).sum(axis=1) / math.factorial(len(shape))
    np.testing.assert_allclose(vols, cells, rtol=1e-13)


def _interface_facets_loop(axes, k):
    """Cell-by-cell reference for the interface facets of mesh_interface."""
    n = [len(a) for a in axes]
    if len(axes) == 2:
        return np.array([[i * n[1] + k, (i + 1) * n[1] + k] for i in range(n[0] - 1)],
                        dtype=np.int64)
    vid = lambda i, j: (i * n[1] + j) * n[2] + k
    out = []
    for i in range(n[0] - 1):
        for j in range(n[1] - 1):
            out += [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)),
                    (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1))]
    return np.asarray(out, dtype=np.int64)


@pytest.mark.parametrize("lo, hi", [((0.0, -1.0), (1.0, 1.0)),
                                    ((0.0, 0.0, -1.0), (1.0, 0.75, 1.0))])
def test_interface_facets_match_cell_loop(lo, hi):
    m = meshing.mesh_interface(lo, hi, 0.2, 0.25)
    axes = m.grid["axes"]
    k = int(np.argmin(np.abs(axes[-1] - 0.2)))
    got = m.facets[m.facet_mask("interface")]
    want = _interface_facets_loop(axes, k)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 15, 16])
def test_blocks_cover_the_range_with_two_rows_or_more(monkeypatch, n):
    monkeypatch.setattr(meshing, "SIMPLEX_BLOCK", 7)
    seen = []

    def kernel(blk):
        seen.append((blk.start, blk.stop))
        return np.arange(blk.start, blk.stop), np.ones((blk.stop - blk.start, 2))

    idx, ones = meshing.blockwise(n, kernel)
    np.testing.assert_array_equal(idx, np.arange(n))
    assert ones.shape == (n, 2) and (ones == 1).all()
    assert [a for a, _ in seen[1:]] == [b for _, b in seen[:-1]]
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(b - a >= min(n, 2) for a, b in seen)
    assert all(b - a <= 8 for a, b in seen)
    # np.emath.sqrt turns complex on the first block with a negative input
    want = np.emath.sqrt(6.5 - np.arange(n))
    got = meshing.blockwise(n, lambda blk: np.emath.sqrt(6.5 - np.arange(n)[blk]))
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dim, h", [(2, 1 / 8), (3, 1 / 3)])
def test_blocked_p1_geometry_matches_unblocked(monkeypatch, dim, h):
    monkeypatch.setattr(meshing, "SIMPLEX_BLOCK", 7)
    m = meshing.mesh_box(np.zeros(dim), np.ones(dim), h)
    rng = np.random.default_rng(2)
    verts = m.vertices + 0.2 * h * rng.uniform(-1.0, 1.0, m.vertices.shape)
    got = meshing._p1_geometry(verts, m.simplices)
    for a, b in zip(got, p1_geometry_unblocked(verts, m.simplices)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dim", [2, 3])
def test_p1_geometry_matches_lapack(dim):
    rng = np.random.default_rng(11)
    ns = 400
    ref = np.vstack([np.zeros(dim), np.eye(dim)])
    v = (ref + 0.2 * rng.standard_normal((ns, dim + 1, dim))) \
        * rng.uniform(0.01, 3.0, (ns, 1, 1)) + rng.uniform(-5.0, 5.0, (ns, 1, dim))
    verts = v.reshape(-1, dim)
    simp = np.arange(ns * (dim + 1), dtype=np.int64).reshape(ns, dim + 1)
    simp[::2, [-2, -1]] = simp[::2, [-1, -2]]   # half arrive negatively oriented
    edges = verts[simp][:, 1:] - verts[simp][:, :1]
    det = np.linalg.det(edges)
    assert (det < 0).sum() >= ns // 4
    inv = np.linalg.inv(edges)
    want = np.concatenate([-inv.sum(axis=2)[:, None, :], np.swapaxes(inv, 1, 2)], axis=1)

    vols, grads = meshing._p1_geometry(verts, simp)
    np.testing.assert_allclose(vols, np.abs(det) / math.factorial(dim), rtol=1e-13, atol=0)
    scale = np.abs(want).max(axis=(1, 2))
    assert (np.abs(grads - want).max(axis=(1, 2)) <= 1e-13 * scale).all()
    flipped = meshing._orient(simp, meshing._edge_cofactors(verts, simp)[0])
    assert (np.linalg.det(verts[flipped][:, 1:] - verts[flipped][:, :1]) > 0).all()
    np.testing.assert_array_equal(flipped[det > 0], simp[det > 0])
