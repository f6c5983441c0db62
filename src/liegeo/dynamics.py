"""Geodesic integration: Euler-Arnold + flow equations, exact Cheeger solutions.

RK4 runs step by step only on the nonlinear Euler-Arnold equation for u; the
frame equation gamma' = gamma u is linear given the stage velocities, so its
steps are RK4 step maps (``rk4_step_maps``) built in blocks, each followed by
its polar factor.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, GroupElement, expm_skew
from .errors import ConfigError, IntegrationDivergedError, MetricConstructionError
from .roots import brent_min

CONSERVATION_TOL = 1e-9
TRAJECTORY_STEADY_TOL = 1e-8  # max |u'| along a steady trajectory
CLOSED_SAMPLES = 4096         # closed_biinvariant_time: scan grid on (0, horizon]
CLOSED_TOL = 1e-8             # closed_biinvariant_time: |exp(t Lambda u0) - id|_F
STEP_BLOCK = 256  # steps whose RK4 step maps are built at once (bounds memory)


def _polar_retract(m):
    """Nearest orthogonal/unitary matrices (polar factors) of a (..., n, n) stack.

    Unitary factors get the det-phase fix that puts them in SU(n).  Also
    returns a mask of the matrices whose frame left the group, so callers can
    report divergence with a time: those that are numerically singular
    (sigma_min <= n eps sigma_max, where the polar factor and its orientation
    are rounding noise) and, for real ones, those whose factor flips
    orientation.
    """
    u, s, vh = np.linalg.svd(m)
    q = u @ vh
    det = np.linalg.det(q)
    n = q.shape[-1]
    left = s[..., -1] <= n * np.finfo(float).eps * s[..., 0]
    if np.iscomplexobj(q):
        phase = np.exp(-1j * np.angle(det) / n)
        return q * phase[..., None, None], left
    return q, left | (det < 0)


class GeodesicTrajectory:
    """Sampled geodesic: times, algebra velocities u(t_i), group frames gamma(t_i).

    Stores the conserved pair (k, l) = (g(u,u), <Lambda u, Lambda u>) per
    sample; their relative drift is the integrator's health metric.  There is
    no interpolation between samples: ``stages[i]`` holds the four RK4 stage
    velocities of the step from sample i, and u off the grid comes from the
    stages of a shorter step from the sample before it (``rk4_stages``).
    """

    def __init__(self, metric, times, velocities, frames, conserved, stages):
        self.metric = metric
        self.basis = metric.basis
        self.times = np.asarray(times)
        self.velocities = np.asarray(velocities)
        self.frames = np.asarray(frames)
        self.conserved = np.asarray(conserved)
        self.stages = np.asarray(stages)
        self._slopes = metric.ad_star_raw(self.velocities, self.velocities)
        for arr in (self.times, self.velocities, self.frames, self.conserved, self.stages):
            arr.setflags(write=False)

    @property
    def u0(self):
        return AlgebraElement(self.basis, self.velocities[0])

    def duration(self):
        return float(self.times[-1])

    def is_steady(self):
        return float(np.max(np.linalg.norm(self._slopes, axis=1))) < TRAJECTORY_STEADY_TOL

    def conservation_drift(self):
        """Max relative drift of (k, l) over the grid."""
        ref = np.abs(self.conserved[0])
        ref = np.where(ref > 1e-300, ref, 1.0)
        return float(np.abs((self.conserved - self.conserved[0]) / ref).max())

    def frame_at_index(self, i):
        return GroupElement(self.basis, self.frames[i])

    def index_of_time(self, t, tol=1e-9):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol + 1e-12 * max(1.0, abs(t)):
            raise ConfigError(f"t={t} is not on the sample grid")
        return i

    def export_csv(self, path, config_hash=None):
        """CSV with t, u coordinates, vectorized frame entries, k, l."""
        dim = self.basis.dim
        n = self.basis.matrix_size
        complex_frames = np.iscomplexobj(self.frames)
        cols = ["t"]
        cols += [f"u{i}" for i in range(dim)]
        for r in range(n):
            for c in range(n):
                cols += (
                    [f"g{r}{c}re", f"g{r}{c}im"] if complex_frames else [f"g{r}{c}"]
                )
        cols += ["k", "l"]
        with open(path, "w") as fh:
            if config_hash is not None:
                fh.write(f"# config_hash: {config_hash}\n")
            fh.write(",".join(cols) + "\n")
            for idx, t in enumerate(self.times):
                row = [f"{t:.17g}"]
                row += [f"{v:.17g}" for v in self.velocities[idx]]
                for entry in self.frames[idx].flat:
                    if complex_frames:
                        row += [f"{entry.real:.17g}", f"{entry.imag:.17g}"]
                    else:
                        row += [f"{entry:.17g}"]
                row += [f"{v:.17g}" for v in self.conserved[idx]]
                fh.write(",".join(row) + "\n")


def rk4(rhs, x, h):
    """One classical RK4 step of x' = rhs(s, x), where s = 0..3 names the stage.

    Returns the new state and the four stage states (x, x2, x3, x4); a linear
    rhs may freeze its coefficients per stage.
    """
    k1 = rhs(0, x)
    x2 = x + 0.5 * h * k1
    k2 = rhs(1, x2)
    x3 = x + 0.5 * h * k2
    k3 = rhs(2, x3)
    x4 = x + h * k3
    k4 = rhs(3, x4)
    return x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), (x, x2, x3, x4)


def rk4_stages(metric, u, h):
    """One RK4 step of u' = ad*_u u: the new u and the four stage velocities.

    u may be a (..., dim) stack, one step per row.
    """
    return rk4(lambda s, v: metric.ad_star_raw(v, v), u, h)


def rk4_step_maps(G, h):
    """RK4 step maps M (x_next = M x) of the linear system x' = G_s x.

    G is a (..., 4, k, k) stack of the generators at the four RK4 stages of
    steps of length h; M is the matrix polynomial that the classical RK4
    step applies to x (Hairer, Norsett & Wanner, Solving ODEs I, II.6).
    """
    g1, g2, g3, g4 = (G[..., s, :, :] for s in range(4))
    p2 = g2 + 0.5 * h * (g2 @ g1)
    p3 = g3 + 0.5 * h * (g3 @ p2)
    p4 = g4 + h * (g4 @ p3)
    return np.eye(G.shape[-1]) + h / 6.0 * (g1 + 2 * p2 + 2 * p3 + p4)


def _frame_step_maps(mats, stages, h):
    """Maps M with gamma_next = gamma M for gamma' = gamma u, from (..., 4, dim) stages."""
    dim, n = mats.shape[0], mats.shape[-1]
    gens = (stages @ mats.reshape(dim, n * n)).reshape(stages.shape[:-1] + (n, n))
    return rk4_step_maps(gens.swapaxes(-1, -2), h).swapaxes(-1, -2)


def rk4_step(metric, mats, u, gamma, h):
    """One classical RK4 step of u' = ad*_u u, gamma' = gamma u (no retraction)."""
    u_next, stages = rk4_stages(metric, u, h)
    return u_next, gamma @ _frame_step_maps(mats, np.stack(stages), h)


def default_step(T):
    return min(1e-3, T / 2000.0)


def integrate_euler_arnold(metric, u0, T, dt=None):
    """Fixed-step RK4 on gamma' = gamma u, u' = ad*_u u, from the identity.

    Only the nonlinear u recurrence runs step by step, and it keeps the four
    stage velocities of each step.  Given those, gamma' = gamma u is linear:
    each frame step is gamma M with M the RK4 step map (``rk4_step_maps``),
    and the frame is re-projected to the group by its polar factor after
    every step.  For unitary gamma, polar(gamma M) = gamma polar(M), so the
    maps and their polar factors are built STEP_BLOCK steps at a time and
    chained by one product, re-projected again at each block end.  Raises
    IntegrationDivergedError at the first step whose state is non-finite or
    whose frame leaves the group (checked in that order; a numerically
    singular step map counts as leaving it), reporting the last valid time.
    """
    basis = metric.basis
    basis.require_same(u0.basis)
    if not (np.isfinite(T) and T > 0):
        raise ConfigError("horizon T must be a positive finite number")
    if dt is None:
        dt = default_step(T)
    if not dt > 0:
        raise ConfigError("step dt must be positive")
    if dt > T:
        raise ConfigError("dt must not exceed T")
    n_steps = int(round(T / dt))
    dt = T / n_steps
    mats = basis.basis_matrices
    n = basis.matrix_size

    times = np.linspace(0.0, T, n_steps + 1)
    velocities = np.empty((n_steps + 1, basis.dim))
    stages = np.empty((n_steps, 4, basis.dim))
    velocities[0] = u0.coords
    done = n_steps  # steps taken; the last one may end non-finite
    # a diverging step overflows; it is reported below as a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            velocities[step + 1], stages[step] = rk4_stages(metric, velocities[step], dt)
            if not np.all(np.isfinite(velocities[step + 1])):
                done = step + 1
                break

    frames = np.empty((n_steps + 1, n, n), dtype=mats.dtype)
    frames[0] = np.eye(n)
    for b in range(0, done, STEP_BLOCK):
        e = min(b + STEP_BLOCK, done)
        with np.errstate(over="ignore", invalid="ignore"):
            maps = _frame_step_maps(mats, stages[b:e], dt)
        finite = np.isfinite(maps).all(axis=(1, 2))
        finite &= np.isfinite(velocities[b + 1 : e + 1]).all(axis=1)
        good = e - b if finite.all() else int(np.argmin(finite))
        polar, left = _polar_retract(maps[:good])
        if left.any():
            j = b + int(np.argmax(left))
            raise IntegrationDivergedError(
                f"frame left the group at t={times[j + 1]:.6g}", last_valid_time=float(times[j])
            )
        if good < e - b:
            j = b + good
            raise IntegrationDivergedError(
                f"non-finite state at t={times[j + 1]:.6g}", last_valid_time=float(times[j])
            )
        for j in range(b, e):
            np.matmul(frames[j], polar[j - b], out=frames[j + 1])
        frames[e] = _polar_retract(frames[e])[0]

    # (1, dim) @ (dim, 1) per sample: the same bits as each u @ Lambda u
    lu = metric.apply_raw(velocities)
    conserved = np.concatenate(
        [v[:, None, :] @ lu[:, :, None] for v in (velocities, lu)], axis=1
    )[..., 0]
    return GeodesicTrajectory(metric, times, velocities, frames, conserved, stages)


def cheeger_geodesic_exact(metric, u0, t):
    """Exact Cheeger geodesic gamma(t) = e^{t Lambda u0} e^{-delta t p0}.

    Returns the frame and the algebra velocity u(t) = Ad_{exp(delta t p0)} u0.
    """
    if metric.variant != "cheeger":
        raise MetricConstructionError("exact geodesic formula needs a Cheeger metric")
    basis = metric.basis
    basis.require_same(u0.basis)
    delta = metric.delta
    m = basis.subalgebra_dim
    p0 = np.zeros(basis.dim)
    p0[:m] = u0.coords[:m]
    lam_u0 = metric.apply_raw(u0.coords)
    p0_mat = np.tensordot(p0, basis.basis_matrices, axes=1)
    frame = expm_skew(t * np.tensordot(lam_u0, basis.basis_matrices, axes=1)) @ expm_skew(
        -delta * t * p0_mat
    )
    eta = expm_skew(delta * t * p0_mat)
    u_mat = eta @ np.tensordot(u0.coords, basis.basis_matrices, axes=1) @ eta.conj().T
    return GroupElement(basis, frame), AlgebraElement(basis, basis.coords_of(u_mat))


def _local_minima_below(vals, level):
    """Indices i, in order, with vals[i] < level and no larger than either neighbour."""
    padded = np.concatenate([[np.inf], vals, [np.inf]])
    mid = padded[1:-1]
    return np.flatnonzero((mid < level) & (mid <= padded[:-2]) & (mid <= padded[2:]))


def closed_biinvariant_time(metric, u0, horizon):
    """Smallest t in (0, horizon] with exp(t Lambda u0) = id, or None.

    Scans the Frobenius distance of the one-parameter subgroup generated by
    Lambda u0 from the identity and refines local minima by Brent's minimizer.
    """
    if metric.variant != "cheeger":
        raise MetricConstructionError("closed-time scan is defined for Cheeger metrics")
    basis = metric.basis
    lam_u0 = np.tensordot(metric.apply_raw(u0.coords), basis.basis_matrices, axes=1)
    w = np.linalg.eigvalsh(1j * np.asarray(lam_u0, dtype=complex))

    def defect(t):
        # || exp(t Lambda u0) - id ||_F from the eigenphases
        return float(np.sqrt(np.sum(np.abs(np.exp(-1j * w * t) - 1.0) ** 2)))

    ts = np.linspace(0.0, horizon, CLOSED_SAMPLES + 1)[1:]
    vals = np.sqrt(np.sum(np.abs(np.exp(-1j * np.outer(ts, w)) - 1.0) ** 2, axis=1))
    # earliest closing time wins: walk the local minima in time order
    for i in _local_minima_below(vals, 1e-2).tolist():
        lo = ts[max(i - 1, 0)] if i > 0 else ts[i] / 2.0
        hi = ts[min(i + 1, len(ts) - 1)]
        t_min, defect_min = brent_min(defect, lo, hi, 1e-14 * max(1.0, hi))
        if defect_min < CLOSED_TOL:
            return float(t_min)
    return None
