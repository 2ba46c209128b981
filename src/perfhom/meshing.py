"""Simplicial meshes: structured interface meshes, graded slabs, and
Delaunay meshes of a box with cavities carved out.

No external mesh generator is used.  Box, interface and slab meshes are
tensor grids whose simplices, orientation and facets follow from index
arithmetic alone (_grid_mesh), and so does point location on them (locate).
Perforated meshes go through qhull (scipy.spatial.Delaunay): cavity
boundaries are approximated by inscribed polygons/point shells whose
vertices lie exactly on the analytic boundary, so boundary quantities
converge at O(h^2).  The carve, the boundary facets and their tags follow
from qhull's neighbours and from the cavity each point was placed on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay, cKDTree

from .errors import (
    InconsistentMeshError,
    MeshingError,
    MissingFacetTagsError,
    ResolutionTooCoarseError,
)

log = logging.getLogger(__name__)

OUTER_TAG = -1
INTERFACE_TAG = -2


@dataclass
class Mesh:
    """P1-ready simplicial mesh with tagged boundary/interface facets.

    facet_tags: OUTER_TAG for the outer boundary, INTERFACE_TAG for facets
    lying on the interface plane, k >= 0 for the boundary of cavity k.
    """

    vertices: np.ndarray
    simplices: np.ndarray
    facets: np.ndarray
    facet_tags: np.ndarray
    h: float
    grid: dict | None = field(default=None, repr=False)
    _geometry: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.simplices = np.asarray(self.simplices, dtype=np.int64)
        self.facets = np.asarray(self.facets, dtype=np.int64)
        self.facet_tags = np.asarray(self.facet_tags, dtype=np.int64)
        if self.facets.size == 0:
            self.facets = self.facets.reshape(0, self.dim)

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_simplices(self):
        return len(self.simplices)

    def facet_mask(self, selector):
        """Boolean mask over facets: 'outer', 'interface', 'cavity', int, or
        an iterable of tags."""
        t = self.facet_tags
        if isinstance(selector, str):
            if selector == "outer":
                return t == OUTER_TAG
            if selector == "interface":
                return t == INTERFACE_TAG
            if selector == "cavity":
                return t >= 0
            raise ValueError(f"unknown facet selector {selector!r}")
        if isinstance(selector, (int, np.integer)):
            return t == int(selector)
        sel = set(int(s) for s in selector)
        return np.isin(t, list(sel))

    def facet_vertices(self, selector):
        mask = self.facet_mask(selector)
        if not mask.any():
            raise MissingFacetTagsError(f"no facets match {selector!r}")
        return np.unique(self.facets[mask])

    def p1_geometry(self):
        """(volumes, gradients) of the P1 basis, computed once per mesh.

        gradients[s, k] (ns, dim + 1, dim) is the gradient of the barycentric
        coordinate of vertex k on simplex s.
        """
        if self._geometry is None:
            self._geometry = _p1_geometry(self.vertices, self.simplices)
        return self._geometry

    def simplex_volumes(self):
        return self.p1_geometry()[0]

    def facet_measures(self, mask=None):
        f = self.facets if mask is None else self.facets[mask]
        return _facet_measures(self.vertices[f])

    def check(self):
        """Structural sanity; raises InconsistentMeshError on failure."""
        if self.simplices.min(initial=0) < 0 or (
            self.n_simplices and self.simplices.max() >= self.n_vertices
        ):
            raise InconsistentMeshError("simplex index out of range")
        if len(self.facets) and self.facets.max() >= self.n_vertices:
            raise InconsistentMeshError("facet index out of range")
        vol = self.simplex_volumes()
        if len(vol) and vol.min() <= 0:
            raise InconsistentMeshError("degenerate simplex (zero volume)")
        return True

    # -- text serialization -------------------------------------------------

    def to_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"{self.dim} {self.n_vertices} {self.n_simplices} {len(self.facets)}\n")
            for v in self.vertices:
                fh.write(" ".join(repr(float(x)) for x in v) + "\n")
            for s in self.simplices:
                fh.write(" ".join(str(int(i)) for i in s) + "\n")
            for f, t in zip(self.facets, self.facet_tags):
                fh.write(" ".join(str(int(i)) for i in f) + f" {int(t)}\n")

    @staticmethod
    def from_text(path):
        with open(path) as fh:
            header = fh.readline().split()
            dim, nv, ns, nf = (int(x) for x in header)
            verts = np.array(
                [[float(x) for x in fh.readline().split()] for _ in range(nv)]
            )
            simp = np.array(
                [[int(x) for x in fh.readline().split()] for _ in range(ns)],
                dtype=np.int64,
            )
            rows = [[int(x) for x in fh.readline().split()] for _ in range(nf)]
        rows = np.asarray(rows, dtype=np.int64).reshape(nf, dim + 1)
        mesh = Mesh(verts, simp, rows[:, :dim], rows[:, dim], h=0.0)
        mesh.check()
        return mesh


def _facet_measures(v):
    """Measures of the facets with vertex coordinates v (F, dim, dim)."""
    if v.shape[2] == 2:
        return np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
    a = v[:, 1] - v[:, 0]
    b = v[:, 2] - v[:, 0]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def _edge_cofactors(vertices, simplices):
    """Closed-form det E and cofactors of the edge matrices E (rows
    e_k = v_k - v_0), for dim 2 and 3.

    Returns det (ns,) and C (ns, dim, dim) whose row k - 1 is det E times the
    gradient of barycentric coordinate k, i.e. column k - 1 of adj E.
    """
    v = vertices[simplices]
    e = v[:, 1:, :] - v[:, :1, :]
    if e.shape[1] == 2:
        cof = np.empty_like(e)
        cof[:, 0, 0], cof[:, 0, 1] = e[:, 1, 1], -e[:, 1, 0]
        cof[:, 1, 0], cof[:, 1, 1] = -e[:, 0, 1], e[:, 0, 0]
    else:
        cof = np.stack([np.cross(e[:, 1], e[:, 2]), np.cross(e[:, 2], e[:, 0]),
                        np.cross(e[:, 0], e[:, 1])], axis=1)
    return np.einsum("fn,fn->f", e[:, 0], cof[:, 0]), cof


# simplices per block of a per-simplex kernel, at least 2: its temporaries stay
# this size whatever the mesh size
SIMPLEX_BLOCK = 4096


def blockwise(n, kernel):
    """Stack kernel(s) over consecutive slices s of range(n), SIMPLEX_BLOCK
    long, into preallocated arrays of length n.

    kernel returns an array, or a tuple of arrays, whose rows are those of
    its slice; each row's arithmetic is the kernel's alone, so the result is
    the one kernel(slice(0, n)) gives, bit for bit.  That needs blocks of at
    least two rows: numpy multiplies a one-row matrix by the vector path of
    BLAS, whose complex products round otherwise, so a last block of one row
    joins the block before it.
    """
    starts = list(range(0, n, SIMPLEX_BLOCK)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    out = None
    for start, stop in zip(starts, starts[1:] + [n]):
        parts = kernel(slice(start, stop))
        single = not isinstance(parts, tuple)
        parts = (parts,) if single else parts
        if out is None:
            out = [np.empty((n,) + p.shape[1:], dtype=p.dtype) for p in parts]
        for i, p in enumerate(parts):
            if np.result_type(out[i], p) != out[i].dtype:
                out[i] = out[i].astype(np.result_type(out[i], p))
            out[i][start:stop] = p
    return out[0] if single else tuple(out)


def _p1_geometry(vertices, simplices):
    factorial = math.factorial(vertices.shape[1])

    def kernel(blk):
        det, cof = _edge_cofactors(vertices, simplices[blk])
        # a degenerate simplex gets non-finite gradients; Mesh.check rejects it
        with np.errstate(divide="ignore", invalid="ignore"):
            g = cof / det[:, None, None]
        grads = np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1)
        return np.abs(det) / factorial, grads

    return blockwise(len(simplices), kernel)


def _orient(rows, det):
    """Rows of per-vertex values of simplices, such as their vertex indices,
    reordered to positive orientation given the simplices' edge determinants
    det: a row with det < 0 swaps its last two entries."""
    flip = det < 0
    if flip.any():
        rows = rows.copy()
        rows[flip, -1], rows[flip, -2] = rows[flip, -2].copy(), rows[flip, -1].copy()
    return rows


def _on_box_side(pts, lo, hi, tol):
    """For facet vertex blocks (nf, d, dim): True if some coordinate plane of
    the box contains the whole facet."""
    on = np.zeros(len(pts), dtype=bool)
    for i in range(pts.shape[2]):
        on |= np.all(np.abs(pts[:, :, i] - lo[i]) < tol, axis=1)
        on |= np.all(np.abs(pts[:, :, i] - hi[i]) < tol, axis=1)
    return on


# ---------------------------------------------------------------------------
# structured meshes


def _segment(lo, hi, h):
    n = max(1, int(round((hi - lo) / h)))
    return np.linspace(lo, hi, n + 1)


def _segment_through(lo, hi, s, h):
    """Grid on [lo, hi] with s as an exact grid point."""
    left = _segment(lo, s, h)
    right = _segment(s, hi, h)
    return np.concatenate([left, right[1:]])


def _tri_grid(xs, ys):
    """Triangulate a tensor grid with parity-alternating diagonals.

    Cells run i-major; cell (i, j) owns triangles 2*(i*ny + j) and the next.
    """
    nx, ny = len(xs) - 1, len(ys) - 1
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    I, J = np.meshgrid(np.arange(nx, dtype=np.int64),
                       np.arange(ny, dtype=np.int64), indexing="ij")
    v00 = (I * (ny + 1) + J).ravel()
    v01, v10 = v00 + 1, v00 + ny + 1
    v11 = v10 + 1
    even = ((I + J) % 2 == 0).ravel()[:, None]
    first = np.where(even, np.column_stack([v00, v10, v11]),
                     np.column_stack([v10, v11, v01]))
    second = np.where(even, np.column_stack([v00, v11, v01]),
                      np.column_stack([v10, v01, v00]))
    return verts, np.stack([first, second], axis=1).reshape(-1, 3)


# Kuhn paths; an unswapped path has edge determinant sign(perm) * hx*hy*hz,
# so swapping the last two vertices of the odd ones makes every tet positive
_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
_KUHN_ODD = np.array([False, True, True, False, False, True])


def _tet_grid(xs, ys, zs):
    """Kuhn 6-tet subdivision of a tensor grid (consistent face diagonals).

    Tet p of cell (i, j, k) walks from its lowest corner along the axes in
    the order _KUHN_PERMS[p], with the last two vertices swapped on odd
    paths; cells run i-major and own 6 consecutive tets.
    """
    nx, ny, nz = len(xs) - 1, len(ys) - 1, len(zs) - 1
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    stride = np.array([(ny + 1) * (nz + 1), nz + 1, 1], dtype=np.int64)
    steps = np.cumsum(stride[np.array(_KUHN_PERMS)], axis=1)
    offsets = np.column_stack([np.zeros(len(_KUHN_PERMS), dtype=np.int64), steps])
    offsets[_KUHN_ODD, 2:] = offsets[_KUHN_ODD, 2:][:, ::-1]
    I, J, K = np.meshgrid(*(np.arange(n, dtype=np.int64) for n in (nx, ny, nz)),
                          indexing="ij")
    base = ((I * (ny + 1) + J) * (nz + 1) + K).ravel()
    return verts, (base[:, None, None] + offsets[None]).reshape(-1, 4)


def _grid_layer(n, axis, k):
    """Facets on the plane of node index k along axis of a tensor grid with
    n nodes per axis, cells i-major.  A 3D cell splits along its diagonal
    from the lowest corner, as the Kuhn tets split every coordinate plane."""
    n = np.asarray(n, dtype=np.int64)
    stride = np.cumprod(np.r_[1, n[:0:-1]])[::-1]
    other = [a for a in range(len(n)) if a != axis]
    cells = np.meshgrid(*(np.arange(n[a] - 1) for a in other), indexing="ij")
    v00 = (k * stride[axis] + sum(c * stride[a] for c, a in zip(cells, other))).ravel()
    if len(other) == 1:
        return np.column_stack([v00, v00 + stride[other[0]]])
    v10, v01 = v00 + stride[other[0]], v00 + stride[other[1]]
    v11 = v10 + stride[other[1]]
    return np.stack([np.column_stack([v00, v10, v11]),
                     np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)


def _grid_mesh(axes, h, k=None):
    """Mesh of the tensor grid on axes by index arithmetic alone: every
    simplex of _tri_grid and _tet_grid is positive, and the box faces are
    grid layers.  The layer of node index k along the last axis is tagged
    INTERFACE_TAG, replacing OUTER_TAG when it is a box face."""
    dim = len(axes)
    n = [len(a) for a in axes]
    verts, simp = _tri_grid(*axes) if dim == 2 else _tet_grid(*axes)
    layers = [(axis, side) for axis in range(dim) for side in (0, n[axis] - 1)]
    if k is not None and 0 < k < n[-1] - 1:
        layers.append((dim - 1, k))
    facets = [_grid_layer(n, axis, i) for axis, i in layers]
    tags = np.concatenate([
        np.full(len(f), INTERFACE_TAG if layer == (dim - 1, k) else OUTER_TAG)
        for f, layer in zip(facets, layers)])
    mesh = Mesh(verts, simp, np.concatenate(facets), tags, h=h,
                grid={"axes": axes})
    mesh.check()
    return mesh


def mesh_box(domain_lo, domain_hi, h):
    """Structured simplicial mesh of a box, outer boundary tagged."""
    return mesh_interface(domain_lo, domain_hi, None, h)


def mesh_interface(domain_lo, domain_hi, s0, h):
    """Structured mesh with the plane {x_n = s0} as an exact facet layer.

    The facets on the plane are appended and tagged INTERFACE_TAG; pass
    s0=None for a plain box mesh without interface facets.
    """
    lo = np.asarray(domain_lo, dtype=float)
    hi = np.asarray(domain_hi, dtype=float)
    if len(lo) not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if s0 is not None and not lo[-1] < s0 < hi[-1]:
        raise ValueError("interface coordinate outside the box")
    axes = [_segment(a, b, h) for a, b in zip(lo[:-1], hi[:-1])]
    if s0 is None:
        return _grid_mesh(axes + [_segment(lo[-1], hi[-1], h)], h)
    axes.append(_segment_through(lo[-1], hi[-1], s0, h))
    return _grid_mesh(axes, h, k=int(np.searchsorted(axes[-1], s0)))


_SLAB_GROW = 1.35        # ratio of consecutive slab row gaps


def _finite_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def slab_axes(tangential_lo, tangential_hi, height, h_bottom):
    """Grid axes of the graded slab (tangential box) x (0, height): each
    tangential axis a uniform segment of step about h_bottom, then the rows,
    of height h_bottom at the bottom (the interface) and coarsening
    geometrically upward up to height / 8.

    Raises ValueError for a size outside its domain, and MeshingError unless
    every axis is strictly increasing, so that every cell, and each of its
    simplices, has positive volume.
    """
    lo = np.atleast_1d(np.asarray(tangential_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(tangential_hi, dtype=float))
    if lo.ndim != 1 or lo.shape != hi.shape or len(lo) not in (1, 2):
        raise ValueError("tangential_lo and tangential_hi must give the same "
                         "1 or 2 tangential coordinates")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
        raise ValueError(f"tangential extent from tangential_lo {lo.tolist()} to "
                         f"tangential_hi {hi.tolist()} must be finite and nonempty")
    _finite_positive("height", height)
    _finite_positive("h_bottom", h_bottom)
    h_cap = height / 8.0
    rows = [0.0]
    step = h_bottom
    while rows[-1] < height - 1e-12:
        step = min(step, h_cap, height - rows[-1])
        nxt = rows[-1] + step
        if height - nxt < 0.5 * step:
            nxt = height
        rows.append(nxt)
        step *= _SLAB_GROW
    axes = [_segment(a, b, h_bottom) for a, b in zip(lo, hi)]
    axes.append(np.asarray(rows))
    if not all(len(a) > 1 and (np.diff(a) > 0).all() for a in axes):
        raise MeshingError("slab axes must be strictly increasing, with a cell each")
    return axes


def mesh_slab(tangential_lo, tangential_hi, height, h_bottom):
    """Mesh of the graded slab on slab_axes; bottom facets are tagged
    INTERFACE_TAG."""
    return _grid_mesh(slab_axes(tangential_lo, tangential_hi, height, h_bottom),
                      h_bottom, k=0)


# ---------------------------------------------------------------------------
# perforated meshes


def _cavity_cloud(layout, k, h_near, h_band, gap_k, wall_k):
    """Boundary polygon/shell, then graded offset rings, for cavity k; also
    the boundary block's length and the background drop radius."""
    shape = layout.shapes[k]
    center = layout.centers[k]
    cs = layout.cavity_scale
    dim = layout.dim
    rmax = shape.rmax(dim)
    blocks = []
    if dim == 2:
        L = cs * shape.boundary_measure(2)
        m = max(16, int(math.ceil(L / h_near)))
        blocks.append(center + cs * shape.boundary_points(2, m))
    else:
        A = cs * cs * shape.boundary_measure(3)
        m = max(64, int(math.ceil(2.2 * A / (h_near * h_near))))
        blocks.append(center + cs * shape.boundary_points(3, m))
    cap = min(0.45 * gap_k, 0.8 * (wall_k - cs * rmax), 4.0 * h_band + 2.0 * h_near)
    d, s = 0.0, h_near
    while True:
        d += s
        if d > cap:
            break
        if dim == 2:
            L_ring = cs * shape.boundary_measure(2) + 2.0 * math.pi * d
            m = max(12, int(math.ceil(L_ring / s)))
            blocks.append(center + cs * shape.boundary_points(2, m, offset=d / cs))
        else:
            A_ring = 4.0 * math.pi * (cs * rmax + d) ** 2
            m = max(32, int(math.ceil(2.2 * A_ring / (s * s))))
            blocks.append(center + cs * shape.boundary_points(3, m, offset=d / cs))
        s *= 1.35
        if s > h_band:
            break
    protect = cs * rmax + d + 0.55 * h_band
    return np.concatenate(blocks, axis=0), len(blocks[0]), protect


def _one_cavity(owner, rows):
    """Per row of point indices, the cavity owning all of them, or -1."""
    k = owner[rows]
    return np.where((k == k[:, :1]).all(axis=1), k[:, 0], -1)


def _graded_rows(lo, hi, s0, h_band, w_band, h):
    """Normal positions of the background rows: step h_band within w_band of
    s0, then steps growing by 1.5 per row up to h."""
    grow = 1.5
    rows = set()
    r = s0
    while r <= min(s0 + w_band, hi):
        rows.add(r)
        r += h_band
    r = s0
    while r >= max(s0 - w_band, lo):
        rows.add(r)
        r -= h_band
    # coarsen outward from the band edges
    for sign in (+1.0, -1.0):
        edge = s0 + sign * min(w_band, (hi - s0) if sign > 0 else (s0 - lo))
        r = edge
        step = h_band * grow
        limit = hi if sign > 0 else lo
        while (limit - r) * sign > 1e-12:
            step = min(step * grow, h, abs(limit - r))
            r = r + sign * step
            if (limit - r) * sign < 0.5 * step:
                r = limit
            rows.add(r)
    rows.add(lo)
    rows.add(hi)
    return np.array(sorted(rows))


def mesh_perforated(layout, h, refine_factor_near_cavities=4.0):
    """Mesh the box minus the cavities.

    The target size is h in the bulk, about eps*R2 in a band around the
    interface, and h/refine_factor_near_cavities at the cavity boundaries.
    Cavity boundary vertices lie exactly on the analytic boundaries.
    """
    dim = layout.dim
    lo = np.asarray(layout.domain_lo, dtype=float)
    hi = np.asarray(layout.domain_hi, dtype=float)
    eps, eta = layout.eps, layout.eta
    cs = layout.cavity_scale
    R2 = layout.constants["R2"]
    h_near = h / float(refine_factor_near_cavities)
    if h_near > eps * eta / 2.0:
        raise ResolutionTooCoarseError(
            f"near-cavity size {h_near:.3g} exceeds eps*eta/2 = {eps*eta/2:.3g}"
        )
    h_band = min(h, max(2.0 * h_near, eps * R2))
    centers = layout.centers
    n_cav = layout.n_cavities

    if n_cav:
        tree_c = cKDTree(centers)  # nearest-cavity queries
        # distances used to cap the graded rings; a lone cavity's second
        # neighbour is at inf
        dnn = tree_c.query(centers, k=2)[0][:, 1]
        wall = np.minimum((centers - lo[None, :]).min(axis=1),
                          (hi[None, :] - centers).min(axis=1))

    # a point's owner is the cavity on whose boundary it lies, or -1
    clouds, owners = [], []
    protect = np.zeros(n_cav)
    for k in range(n_cav):
        cloud, n_boundary, protect[k] = _cavity_cloud(layout, k, h_near, h_band,
                                                      dnn[k], wall[k])
        clouds.append(cloud)
        owners.append(np.repeat([k, -1], [n_boundary, len(cloud) - n_boundary]))

    # background rows: normal positions with graded spacing, each row a
    # uniform tangential grid matched to the local row gap
    if n_cav:
        w_band = layout.constants["R0"] * eps + cs * R2 + protect.max() + h_band
    else:
        w_band = 2 * h_band
    rows = _graded_rows(lo[dim - 1], hi[dim - 1], layout.s0, h_band, w_band, h)
    # rows holds lo < hi, so each row has one or two adjacent gaps; its
    # local gap is the smaller
    gaps = np.diff(rows)
    local_gaps = np.minimum(np.r_[gaps[0], gaps], np.r_[gaps, gaps[-1]])
    rng = np.random.default_rng(20240817)
    bg_blocks = []
    for r, local in zip(rows, local_gaps):
        dx = min(h, max(h_band, 0.9 * local))
        if dim == 2:
            xs = _segment(lo[0], hi[0], dx)
            bg_blocks.append(np.column_stack([xs, np.full(len(xs), r)]))
        else:
            xs = _segment(lo[0], hi[0], dx)
            ys = _segment(lo[1], hi[1], dx)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            blk = np.column_stack([X.ravel(), Y.ravel(), np.full(X.size, r)])
            # break the cospherical lattice degeneracy for qhull: each
            # coordinate is jittered only where it is strictly interior, so
            # wall points slide within their wall plane and the interface row
            # keeps its normal coordinate exact
            can = np.zeros(blk.shape, dtype=bool)
            tiny = 1e-12
            can[:, 0] = (blk[:, 0] > lo[0] + tiny) & (blk[:, 0] < hi[0] - tiny)
            can[:, 1] = (blk[:, 1] > lo[1] + tiny) & (blk[:, 1] < hi[1] - tiny)
            can[:, 2] = (lo[2] + tiny < r < hi[2] - tiny) and abs(r - layout.s0) > tiny
            amp = np.array([0.08 * dx, 0.08 * dx, 0.08 * min(dx, local)])
            blk += np.where(can, rng.uniform(-1.0, 1.0, blk.shape) * amp, 0.0)
            bg_blocks.append(blk)
    bg = np.concatenate(bg_blocks, axis=0)

    # keep wall points; drop interior background points inside protection radii
    on_wall = _on_box_side(bg[:, None, :], lo, hi, 1e-12 * float((hi - lo).max()))
    if n_cav:
        d_near, k_near = tree_c.query(bg)
        drop = (d_near < protect[k_near]) & ~on_wall
        bg = bg[~drop]

    pts = np.concatenate(clouds + [bg], axis=0)
    owner = np.concatenate(owners + [np.full(len(bg), -1)])
    # the carve keeps every simplex with a vertex off cavity k's boundary, so
    # no such point may lie in cavity k: ring points of a nearly touching
    # neighbour and background points there are dropped, and a boundary
    # point there means the cavities overlap
    reach = cs * np.array([s.rmax(dim) for s in layout.shapes])
    inside = np.zeros(len(pts), dtype=bool)
    for k, idx in enumerate(cKDTree(pts).query_ball_point(centers, reach)):
        y = (pts[idx] - centers[k]) / cs
        inside[idx] |= layout.shapes[k].contains(y) & (owner[idx] != k)
    if (owner[inside] >= 0).any():
        raise MeshingError("cavities overlap")
    pts, owner = pts[~inside], owner[~inside]

    tri = Delaunay(pts)
    live = np.ones(len(tri.simplices), dtype=bool)
    k_s = _one_cavity(owner, tri.simplices)
    for k in np.unique(k_s[k_s >= 0]):
        rows_k = np.nonzero(k_s == k)[0]
        y = (pts[tri.simplices[rows_k]].mean(axis=1) - centers[k]) / cs
        live[rows_k[layout.shapes[k].contains(y)]] = False
    kept = np.nonzero(live)[0]

    # qhull can emit flat simplices whose vertices are all cocircular points
    # of one box face; they carry no volume and are safe to drop
    det = blockwise(len(kept),
                    lambda blk: _edge_cofactors(pts, tri.simplices[kept[blk]])[0])
    vols = np.abs(det)
    flat = vols <= 1e-10 * np.median(vols)
    if flat.any():
        wall_tol = 1e-9 * float((hi - lo).max())
        if not _on_box_side(pts[tri.simplices[kept[flat]]], lo, hi, wall_tol).all():
            raise MeshingError("degenerate simplex away from the box walls")
        live[kept[flat]] = False
        kept, det = kept[~flat], det[~flat]

    # face i of a kept simplex, opposite vertex i, is a boundary facet when
    # qhull's neighbour across it is carved, flat or none (-1: the False)
    open_face = ~np.append(live, False)[tri.neighbors[kept]]
    used, renumbered = np.unique(tri.simplices[kept], return_inverse=True)
    verts = pts[used]
    # renumbering keeps each simplex's coordinates, and so its determinant;
    # reordering a simplex's vertices reorders its faces alike
    open_face = _orient(open_face, det)
    simplices = _orient(renumbered.reshape(len(kept), dim + 1), det)

    bfaces = np.concatenate([np.delete(simplices, i, axis=1)[open_face[:, i]]
                             for i in range(dim + 1)])
    # rows in lexicographic order of their sorted vertex indices: a vertex's
    # facet sums, of three or more terms in 3D, round in row order
    bfaces = bfaces[np.lexsort(np.sort(bfaces, axis=1).T[::-1])]
    on_box = _on_box_side(verts[bfaces], lo, hi, 1e-9 * float((hi - lo).max()))
    k_f = _one_cavity(owner[used], bfaces)
    bad = ~on_box & (k_f < 0)
    if bad.any():
        raise MeshingError(
            f"{int(bad.sum())} boundary facets not attributable to a cavity"
        )
    tags = np.where(on_box, OUTER_TAG, k_f)
    if len(np.unique(tags[tags >= 0])) != n_cav:
        raise MeshingError("some cavities have no boundary facets")

    mesh = Mesh(verts, simplices, bfaces, tags, h=h)
    mesh.check()
    return mesh


# ---------------------------------------------------------------------------
# point location and interpolation

# a barycentric coordinate down to -_LOCATE_TOL still counts as inside
_LOCATE_TOL = 1e-10


def _barycentric(mesh, pts, simp_idx):
    """Barycentric coordinates of each point on its simplex (pts and
    simp_idx broadcast), from the mesh's P1 gradients:
    lam_k(x) = lam_k(v_0) + grad lam_k . (x - v_0)."""
    lam = np.einsum("...kd,...d->...k", mesh.p1_geometry()[1][simp_idx],
                    pts - mesh.vertices[mesh.simplices[simp_idx, 0]])
    lam[..., 0] += 1.0
    return lam


def locate(mesh, pts):
    """Simplex index of a grid mesh containing each point (-1 if none), and
    the point's barycentric coordinates on it (on its first candidate if none).

    A point's cell follows from the grid axes.  Cells run i-major and own
    consecutive simplices, 2 in 2D and 6 in 3D, so only those are tried; the
    first that holds the point wins.
    """
    if mesh.grid is None:
        raise MeshingError("point location needs a grid mesh")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    axes = mesh.grid["axes"]
    cell = [np.clip(np.searchsorted(ax, pts[:, a]) - 1, 0, len(ax) - 2)
            for a, ax in enumerate(axes)]
    m = 2 if mesh.dim == 2 else 6
    cand = (np.ravel_multi_index(cell, [len(ax) - 1 for ax in axes])[:, None] * m
            + np.arange(m))
    lam = _barycentric(mesh, pts[:, None], cand)
    inside = np.all(lam >= -_LOCATE_TOL, axis=2)
    rows, first = np.arange(len(pts)), inside.argmax(axis=1)
    return np.where(inside.any(axis=1), cand[rows, first], -1), lam[rows, first]


def interpolation_matrix(mesh, pts):
    """P1 transfer from a grid mesh onto points, as a CSR matrix of shape
    (len(pts), n_vertices): row p holds the barycentric weights of the
    simplex containing pts[p].  Raises if a point lies in no simplex."""
    idx, lam = locate(mesh, pts)
    if (idx < 0).any():
        raise MeshingError(f"{int((idx < 0).sum())} points outside the mesh")
    k = mesh.dim + 1
    return sp.csr_matrix((lam.ravel(), mesh.simplices[idx].ravel(),
                          np.arange(0, k * len(idx) + 1, k)),
                         shape=(len(idx), mesh.n_vertices))


def interpolate(mesh, values, pts):
    """Evaluate a P1 field of a grid mesh at points."""
    return interpolation_matrix(mesh, pts) @ np.asarray(values)
