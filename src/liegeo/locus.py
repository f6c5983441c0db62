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

from .errors import ConfigError
from .roots import bisect_many

UNITS = ("momentum", "biinvariant", "metric")
SVG_SIZE = 640  # emit_locus_svg: width and height in pixels


def berger_R(delta, p_norm, q_norm):
    a = 1.0 + delta
    return float(np.sqrt(a * a * (p_norm * p_norm) + q_norm * q_norm))


def berger_S(delta, p_norm, q_norm):
    return float((1.0 + delta) * (p_norm * p_norm) + q_norm * q_norm)


def berger_det(t, delta, p_norm, q_norm):
    """Closed-form conjugate determinant of the Berger sphere."""
    if delta <= -1.0:
        raise ConfigError("delta must exceed -1")
    r = berger_R(delta, p_norm, q_norm)
    s = berger_S(delta, p_norm, q_norm)
    t = np.asarray(t, dtype=float)
    out = np.sin(r * t) * (
        -delta * (q_norm * q_norm) * r * t * np.cos(r * t) + (1.0 + delta) * s * np.sin(r * t)
    )
    return float(out) if out.ndim == 0 else out


@dataclass
class BergerFirstConjugate:
    time: float
    branch: str  # 'sin-root' | 'tan-root' | 'steady-axis'


_BRANCHES = ("steady-axis", "sin-root", "tan-root")


def _first_times(delta, p, q):
    """First positive zeros of the Berger determinant for arrays of |p0|, |q0|.

    Returns the times and an index into _BRANCHES per element.  No element
    may have p = q = 0.
    """
    a = 1.0 + delta
    r = np.sqrt(a * a * (p * p) + q * q)
    steady = q == 0.0
    code = np.where(steady, 0, 1 if delta >= 0.0 else 2)
    t = np.empty_like(r)
    t[steady] = np.pi / (a * p[steady])
    rest = ~steady
    r = r[rest]
    if delta >= 0.0:
        t[rest] = np.pi / r
        return t, code
    p, q = p[rest], q[rest]
    target = delta * (q * q) / (a * (a * (p * p) + q * q))

    def fn(x):
        return np.tan(r * x) / (r * x) - target

    lo = np.pi / (2.0 * r) * (1.0 + 1e-13)
    hi = np.pi / r * (1.0 - 1e-13)
    t[rest] = bisect_many(fn, lo, hi, fn(lo), 1e-12)
    return t, code


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
        raise ConfigError("delta must exceed -1")
    if p_norm == 0.0 and q_norm == 0.0:
        raise ConfigError("direction must be nonzero")
    t, code = _first_times(delta, np.array([p_norm], dtype=float), np.array([q_norm], dtype=float))
    return BergerFirstConjugate(float(t[0]), _BRANCHES[code[0]])


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

    All angles are solved at once: the branch of each is picked by a mask and
    the tan roots are bisected together (``roots.bisect_many``).

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
        raise ConfigError("n_angles must be at least 8")
    if unit not in UNITS:
        raise ConfigError(f"unit must be one of {UNITS}")
    if delta <= -1.0:
        raise ConfigError("delta must exceed -1")
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    p, q = np.abs(np.cos(theta)), np.abs(np.sin(theta))
    p[p < 1e-12] = 0.0
    q[q < 1e-12] = 0.0
    if unit == "metric":
        speed = np.sqrt((1.0 + delta) * (p * p) + q * q)
        p, q = p / speed, q / speed
    elif unit == "momentum":
        p = p / (1.0 + delta)
    t_star, code = _first_times(delta, p, q)
    return LocusSlice(
        delta=float(delta),
        theta=theta,
        t_star=t_star,
        branch=[_BRANCHES[c] for c in code],
        unit=unit,
    )


def emit_locus_csv(slices, path, config_hash=None):
    """CSV columns theta,t_star,x,y,delta across all slices."""
    with open(path, "w") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash: {config_hash}\n")
        fh.write("theta,t_star,x,y,delta\n")
        for sl in slices:
            fh.write(
                "".join(
                    f"{th:.17g},{ts:.17g},{x:.17g},{y:.17g},{sl.delta:.17g}\n"
                    for th, ts, (x, y) in zip(
                        sl.theta.tolist(), sl.t_star.tolist(), sl.points.tolist()
                    )
                )
            )


_SVG_COLORS = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f",
]


def emit_locus_svg(slices, path, config_hash=None):
    """Static SVG overlay: one closed path per slice, stroke-labeled by delta."""
    rmax = max(float(sl.t_star.max()) for sl in slices) * 1.08
    half = SVG_SIZE / 2.0
    scale = half / rmax

    def xy(x, y):
        return half + x * scale, half - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]
    if config_hash is not None:
        parts.append(f"<!-- config_hash: {config_hash} -->")
    parts.append(f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>')
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
        raise ConfigError(f"unknown locus format {fmt!r}")
