"""Static debugging figures: SVG scenes for 2D, OBJ overlays for 3D.

All coordinates are written with fixed formats so identical inputs give
byte-identical files.
"""

import numpy as np

from .errors import InputError

SVG_STYLE = {
    "outline": "#1f4e79",
    "trace": "#c77d2e",
    "weight": "#b03434",
    "marker": "#2e7d46",
    "target": "#444444",
}


def _fmt(x):
    return f"{float(x):.6f}"


def _pts_attr(points):
    return " ".join(f"{_fmt(p[0])},{_fmt(-p[1])}" for p in points)


def _svg_lines(segments, color, width):
    return [f'<line x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(-b[1])}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"/>'
            for a, b in np.asarray(segments, dtype=float)]


def svg_scene(polygon=None, mesh_edges=None, points=None, point_sizes=None,
              target=None, trace=None, segments=None) -> str:
    """Compose an SVG from polygon outlines, traces and marked points.

    polygon: (n, 2) closed outline; mesh_edges: (m, 2, 2) open segments;
    points: (k, 2) markers, sized by point_sizes (relative weights);
    trace: iterable of dicts with a "curve" polyline and a "companion"
    point; segments: extra (m, 2, 2) emphasized segments.
    """
    chunks = []
    bbox = [np.asarray(a, dtype=float).reshape(-1, 2)
            for a in (polygon, points, target, mesh_edges, segments) if a is not None]
    if trace:
        for entry in trace:
            bbox.append(np.asarray(entry["curve"], dtype=float))
    if not bbox:
        raise InputError("empty scene")
    allp = np.vstack(bbox)
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    span = float(max((hi - lo).max(), 1e-9))
    pad = 0.08 * span
    width = (hi[0] - lo[0]) + 2 * pad
    height = (hi[1] - lo[1]) + 2 * pad
    stroke = 0.006 * span

    chunks.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(lo[0] - pad)} {_fmt(-hi[1] - pad)} '
        f'{_fmt(width)} {_fmt(height)}">')

    if mesh_edges is not None:
        chunks += _svg_lines(mesh_edges, "#b8c4cc", stroke * 0.7)
    if polygon is not None:
        chunks.append(
            f'<polygon points="{_pts_attr(np.asarray(polygon, dtype=float))}" '
            f'fill="none" stroke="{SVG_STYLE["outline"]}" '
            f'stroke-width="{_fmt(stroke)}"/>')
    if trace:
        for entry in trace:
            chunks.append(
                f'<polyline points="{_pts_attr(np.asarray(entry["curve"], dtype=float))}" '
                f'fill="none" stroke="{SVG_STYLE["trace"]}" '
                f'stroke-width="{_fmt(stroke * 0.6)}" opacity="0.75"/>')
            comp = np.asarray(entry["companion"], dtype=float)
            chunks.append(
                f'<circle cx="{_fmt(comp[0])}" cy="{_fmt(-comp[1])}" '
                f'r="{_fmt(stroke * 1.6)}" fill="{SVG_STYLE["trace"]}"/>')
    if segments is not None:
        chunks += _svg_lines(segments, SVG_STYLE["marker"], stroke * 1.2)
    if points is not None:
        pts = np.asarray(points, dtype=float)
        sizes = np.ones(len(pts)) if point_sizes is None else np.asarray(
            point_sizes, dtype=float)
        smax = float(sizes.max()) if len(sizes) and sizes.max() > 0 else 1.0
        for p, s in zip(pts, sizes):
            r = stroke * (1.5 + 2.5 * np.sqrt(max(s, 0.0) / smax))
            chunks.append(
                f'<circle cx="{_fmt(p[0])}" cy="{_fmt(-p[1])}" '
                f'r="{_fmt(r)}" fill="{SVG_STYLE["weight"]}" opacity="0.85"/>')
    if target is not None:
        t = np.asarray(target, dtype=float)
        arm = stroke * 4
        for dx, dy in ((arm, 0.0), (0.0, arm)):
            chunks.append(
                f'<line x1="{_fmt(t[0] - dx)}" y1="{_fmt(-t[1] - dy)}" '
                f'x2="{_fmt(t[0] + dx)}" y2="{_fmt(-t[1] + dy)}" '
                f'stroke="{SVG_STYLE["target"]}" '
                f'stroke-width="{_fmt(stroke)}"/>')
    chunks.append("</svg>")
    return "\n".join(chunks) + "\n"


# orthonormal view plane for flattening 3D scenes into SVG
ISO_U = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
ISO_W = np.array([-1.0, -1.0, 2.0]) / np.sqrt(6.0)


def project_iso(points3):
    p = np.asarray(points3, dtype=float)
    return np.stack([p @ ISO_U, p @ ISO_W], axis=-1)


def mesh_edges3(poly):
    """Unique mesh edges as a (m, 2, 3) coordinate array."""
    seen = set()
    for f in poly.faces:
        for i, a in enumerate(f):
            b = f[(i + 1) % len(f)]
            seen.add((min(a, b), max(a, b)))
    idx = np.array(sorted(seen))
    return np.stack([poly.vertices[idx[:, 0]], poly.vertices[idx[:, 1]]], axis=1)


def svg_scene3(poly, points=None, loop=None, target=None) -> str:
    """Isometric wireframe of a mesh with optional markers and a loop."""
    edges2 = project_iso(mesh_edges3(poly))
    pts2 = None if points is None else project_iso(points)
    segs2 = None
    if loop is not None:
        loop = np.asarray(loop, dtype=float)
        seg3 = np.stack([loop, np.roll(loop, -1, axis=0)], axis=1)
        segs2 = project_iso(seg3)
    tgt2 = None if target is None else project_iso(np.asarray(target, dtype=float))
    return svg_scene(mesh_edges=edges2, points=pts2, segments=segs2, target=tgt2)


def _obj_fmt(x):
    return f"{float(x):.9g}"


def obj_overlay(poly=None, points=None, loops=None, labels=()) -> str:
    """OBJ text: the mesh plus marker points and closed marker loops."""
    out = []
    base = 0
    if poly is not None:
        out.append("o surface")
        for v in poly.vertices:
            out.append("v " + " ".join(_obj_fmt(c) for c in v))
        for f in poly.faces:
            out.append("f " + " ".join(str(i + 1) for i in f))
        base = len(poly.vertices)
    if points is not None and len(points):
        out.append("o markers")
        for p in np.asarray(points, dtype=float):
            out.append("v " + " ".join(_obj_fmt(c) for c in p))
        out.append("p " + " ".join(str(base + i + 1) for i in range(len(points))))
        base += len(points)
    for k, loop in enumerate(loops or []):
        loop = np.asarray(loop, dtype=float)
        name = labels[k] if k < len(labels) else f"loop{k}"
        out.append(f"o {name}")
        for p in loop:
            out.append("v " + " ".join(_obj_fmt(c) for c in p))
        ids = [str(base + i + 1) for i in range(len(loop))]
        out.append("l " + " ".join(ids + [ids[0]]))
        base += len(loop)
    return "\n".join(out) + "\n"
