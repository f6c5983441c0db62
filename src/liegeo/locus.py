"""Berger-sphere conjugate determinant, first conjugate times, tangent locus.

The closed-form determinant for a Berger sphere (Cheeger metric on su(2)
shrunk or expanded along a one-dimensional subgroup) is, up to the positive
factor t / R^4,

    det = sin(Rt) (-delta |q0|^2 R t cos(Rt) + (1+delta) S sin(Rt)),
    R = sqrt((1+delta)^2 |p0|^2 + |q0|^2),  S = (1+delta)|p0|^2 + |q0|^2,

whose zero set on t > 0 marks the conjugate times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .roots import bisect

UNITS = ("momentum", "biinvariant", "metric")


def berger_R(delta, p_norm, q_norm):
    return float(np.sqrt((1.0 + delta) ** 2 * p_norm**2 + q_norm**2))


def berger_S(delta, p_norm, q_norm):
    return float((1.0 + delta) * p_norm**2 + q_norm**2)


def berger_det(t, delta, p_norm, q_norm):
    """Closed-form conjugate determinant of the Berger sphere."""
    if delta <= -1.0:
        raise ValueError("delta must exceed -1")
    r = berger_R(delta, p_norm, q_norm)
    s = berger_S(delta, p_norm, q_norm)
    t = np.asarray(t, dtype=float)
    out = np.sin(r * t) * (
        -delta * q_norm**2 * r * t * np.cos(r * t) + (1.0 + delta) * s * np.sin(r * t)
    )
    return float(out) if out.ndim == 0 else out


@dataclass
class BergerFirstConjugate:
    time: float
    branch: str  # 'sin-root' | 'tan-root' | 'steady-axis'


def berger_first_conjugate_time(delta, p_norm, q_norm):
    """First positive zero of the Berger determinant.

    For delta >= 0 this is pi/R exactly.  For delta < 0 (and q_norm > 0) it
    is the unique root in (pi/2R, pi/R) of

        tan(Rt)/(Rt) = delta |q0|^2 / ((1+delta) S),

    found by bisection to 1e-12.  A direction purely along the subgroup
    (q_norm = 0) is steady; its sin-factor zero pi/((1+delta)|p0|) is
    labeled separately.
    """
    if delta <= -1.0:
        raise ValueError("delta must exceed -1")
    if p_norm == 0.0 and q_norm == 0.0:
        raise ValueError("direction must be nonzero")
    r = berger_R(delta, p_norm, q_norm)
    if q_norm == 0.0:
        return BergerFirstConjugate(np.pi / ((1.0 + delta) * p_norm), "steady-axis")
    if delta >= 0.0:
        return BergerFirstConjugate(np.pi / r, "sin-root")
    target = delta * q_norm**2 / ((1.0 + delta) * berger_S(delta, p_norm, q_norm))

    def fn(t):
        return np.tan(r * t) / (r * t) - target

    lo = np.pi / (2.0 * r) * (1.0 + 1e-13)
    hi = np.pi / r * (1.0 - 1e-13)
    return BergerFirstConjugate(bisect(fn, lo, hi, fn(lo), 1e-12), "tan-root")


@dataclass
class LocusSlice:
    delta: float
    theta: np.ndarray
    t_star: np.ndarray
    branch: list
    unit: str  # 'momentum', 'biinvariant' or 'metric'

    @property
    def points(self):
        return np.column_stack(
            [self.t_star * np.cos(self.theta), self.t_star * np.sin(self.theta)]
        )


def generate_locus_slice(delta, n_angles=720, unit="momentum"):
    """First-conjugate-time polar curve over a circle of initial directions.

    Direction conventions:

    * ``unit='momentum'`` (default): unit momentum Lambda u0, i.e.
      |p0| = |cos theta|/(1+delta), |q0| = |sin theta|.  This is the
      convention that reproduces the nested family of curves: every slice
      meets the subgroup axis at radius pi and deeper deformations sit
      strictly inside shallower ones off the axis.
    * ``unit='biinvariant'``: unit bi-invariant velocity, |p0| = |cos theta|,
      |q0| = |sin theta|.  Near the subgroup axis first conjugate times grow
      like pi/(1+delta), so those slices are *not* globally nested.
    * ``unit='metric'``: unit metric velocity g(u0,u0) = 1.
    """
    if n_angles < 8:
        raise ValueError("n_angles must be at least 8")
    if unit not in UNITS:
        raise ValueError(f"unit must be one of {UNITS}")
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    t_star = np.empty(n_angles)
    branch = []
    for i, th in enumerate(theta):
        p, q = abs(np.cos(th)), abs(np.sin(th))
        p, q = (0.0 if p < 1e-12 else p), (0.0 if q < 1e-12 else q)
        if unit == "metric":
            speed = np.sqrt((1.0 + delta) * p**2 + q**2)
            p, q = p / speed, q / speed
        elif unit == "momentum":
            p = p / (1.0 + delta)
        res = berger_first_conjugate_time(delta, p, q)
        t_star[i] = res.time
        branch.append(res.branch)
    return LocusSlice(
        delta=float(delta), theta=theta, t_star=t_star, branch=branch, unit=unit
    )


def emit_locus_csv(slices, path, config_hash=None):
    """CSV columns theta,t_star,x,y,delta across all slices."""
    with open(path, "w") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash: {config_hash}\n")
        fh.write("theta,t_star,x,y,delta\n")
        for sl in slices:
            pts = sl.points
            for th, ts, (x, y) in zip(sl.theta, sl.t_star, pts):
                fh.write(
                    f"{th:.17g},{ts:.17g},{x:.17g},{y:.17g},{sl.delta:.17g}\n"
                )


_SVG_COLORS = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f",
]


def emit_locus_svg(slices, path, size=640, config_hash=None):
    """Static SVG overlay: one closed path per slice, stroke-labeled by delta."""
    rmax = max(float(sl.t_star.max()) for sl in slices) * 1.08
    half = size / 2.0
    scale = half / rmax

    def xy(x, y):
        return half + x * scale, half - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    if config_hash is not None:
        parts.append(f"<!-- config_hash: {config_hash} -->")
    parts.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    for idx, sl in enumerate(slices):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = [xy(x, y) for x, y in sl.points]
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in coords) + " Z"
        parts.append(
            f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5">'
            f"<title>delta = {sl.delta:g}</title></path>"
        )
        lx, ly = xy(0.0, float(sl.t_star[len(sl.theta) // 4]))
        parts.append(
            f'<text x="{lx + 4:.1f}" y="{ly - 4:.1f}" font-size="12" '
            f'fill="{color}">&#948; = {sl.delta:g}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_locus(slices, path, fmt):
    if fmt == "csv":
        emit_locus_csv(slices, path)
    elif fmt == "svg":
        emit_locus_svg(slices, path)
    else:
        raise ValueError(f"unknown locus format {fmt!r}")
