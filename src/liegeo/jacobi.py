"""Jacobi fields along geodesics, the solution operator, conjugate detection.

The Jacobi system in the Lie algebra along a geodesic with velocity u(t) is

    y' + ad_u y = z,        z' = ad*_u z + ad*_z u,

a linear nonautonomous system; a conjugate point at time tau corresponds to a
solution with y(0) = y(tau) = 0 and z(0) != 0, i.e. to the solution operator
Omega(t): z0 -> y(t) (with y(0) = 0) becoming singular.

(y, z) is carried through the same classical RK4 stages as the geodesic
itself: step i evaluates the coefficients at the four stage velocities the
integrator stored for its step from u(t_i), so (u, y, z) is one RK4 on the
augmented system and u is never interpolated.  The system is linear, so each
step is one 2dim x 2dim RK4 step map (``rk4_step_maps``), built STEP_BLOCK
steps at a time and applied as a chain of products.  Off the grid, Omega(t)
is one step of length t - t_i from the checkpoint at the grid node t_i
before t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Ad_matrix, AlgebraElement, GroupElement, ad_matrix_raw
from .dynamics import STEP_BLOCK, rk4_stages, rk4_step, rk4_step_maps
from .errors import ConfigError, CriterionInapplicableError
from .roots import brent_min, sign_changes

SIGMA_REL_THRESHOLD = 1e-6
TIME_TOLERANCE = 1e-9
ISOMETRY_TOL = 1e-9
FIELD_TOL = 1e-8       # closed_geodesic_conjugacy: |y(tau)| of the explicit field


class JacobiSolution:
    """Sampled (y, z) pair solving the Jacobi system along a trajectory."""

    def __init__(self, trajectory, times, y_samples, z_samples):
        self.trajectory = trajectory
        self.times = times
        self.y_samples = y_samples
        self.z_samples = z_samples

    def residual(self):
        """Max centered-difference residual of y' + ad_u y - z over the grid."""
        ts, ys, zs = self.times, self.y_samples, self.z_samples
        dy = (ys[2:] - ys[:-2]) / (ts[2:] - ts[:-2])[:, None]
        ad = ad_matrix_raw(self.trajectory.basis, self.trajectory.velocities[1:-1])
        r = dy + (ad @ ys[1:-1, :, None])[..., 0] - zs[1:-1]
        return float(np.linalg.norm(r, axis=1).max(initial=0.0))


@dataclass
class SolutionOperatorSample:
    t: float
    omega: np.ndarray
    det: float
    sigma_min: float
    sigma_max: float


@dataclass
class ConjugateEvent:
    time: float
    multiplicity: int
    method: str
    det: float = 0.0
    sigma_min: float = 0.0


@dataclass
class ConjugateReport:
    events: list
    horizon: float
    tolerances: dict = field(default_factory=dict)

    @property
    def times(self):
        return [e.time for e in self.events]

    def first_time(self):
        return self.events[0].time if self.events else None

    def to_json_dict(self):
        return {
            "times": [e.time for e in self.events],
            "multiplicities": [e.multiplicity for e in self.events],
            "method": [e.method for e in self.events],
            "tolerances": dict(self.tolerances),
        }


def _step_maps(traj, us, h):
    """RK4 step maps of [y; z]' = [[A, I], [0, F]] [y; z] for steps of length h.

    A = -ad_U and F = ad*_U + ad*_(.) U at the stage velocities U; us is a
    (..., 4, dim) stack of them, one step per leading index.
    """
    metric, dim = traj.metric, traj.basis.dim
    gen = np.zeros(us.shape[:-1] + (2 * dim, 2 * dim))
    gen[..., :dim, :dim] = -ad_matrix_raw(traj.basis, us)
    gen[..., :dim, dim:] = np.eye(dim)
    gen[..., dim:, dim:] = metric.ad_star_matrix_of(us) + metric.coad_force_matrix(us)
    return rk4_step_maps(gen, h)


def _grid_step(traj):
    return traj.duration() / (len(traj.times) - 1)


def _checkpoint(times, t):
    """Index of the last grid node at or before t, which must lie on the grid."""
    if not times[0] <= t <= times[-1] + 1e-12 * max(1.0, times[-1]):
        raise ConfigError(f"t={t} outside the trajectory range")
    return int(np.searchsorted(times, t, side="right")) - 1


def _propagate(traj, x, count):
    """Augmented states [y; z] at the first count grid nodes, from x at t = 0."""
    h = _grid_step(traj)
    xs = np.empty((count,) + x.shape)
    xs[0] = x
    for b in range(0, count - 1, STEP_BLOCK):
        maps = _step_maps(traj, traj.stages[b : min(b + STEP_BLOCK, count - 1)], h)
        for j, step_map in enumerate(maps):
            x = step_map @ x
            xs[b + j + 1] = x
    return xs


def integrate_jacobi(traj, y0, z0):
    """Integrate the Jacobi system with initial data (y0, z0) along traj."""
    traj.basis.require_same(y0.basis)
    traj.basis.require_same(z0.basis)
    dim = traj.basis.dim
    xs = _propagate(traj, np.concatenate([y0.coords, z0.coords]), len(traj.times))
    return JacobiSolution(traj, traj.times, xs[:, :dim], xs[:, dim:])


def _svd_stats(omega):
    s = np.linalg.svd(omega, compute_uv=False)
    return float(np.linalg.det(omega)), float(s[-1]), float(s[0])


def _omega_start(dim):
    """[y; z] = [0; I]: the columns of Omega start from z0 = b_j, y0 = 0."""
    return np.vstack([np.zeros((dim, dim)), np.eye(dim)])


def solution_operator(traj):
    """Omega(t) at every grid node, all columns integrated in a single pass."""
    ts = traj.times
    dim = traj.basis.dim
    ys = _propagate(traj, _omega_start(dim), len(ts))[:, :dim]
    dets = np.linalg.det(ys)
    svals = np.linalg.svd(ys, compute_uv=False)
    return [
        SolutionOperatorSample(
            float(ts[i]),
            ys[i],
            float(dets[i]),
            float(svals[i, -1]),
            float(svals[i, 0]),
        )
        for i in range(len(ts))
    ]


class _OmegaEvaluator:
    """Evaluate Omega(t) anywhere by one short step from a grid checkpoint."""

    def __init__(self, traj, horizon):
        self.traj = traj
        mask = traj.times <= horizon + 1e-12 * max(1.0, horizon)
        self.times = traj.times[mask]
        if len(self.times) < 3:
            raise ConfigError("horizon too short for the trajectory grid")
        self.h = _grid_step(traj)
        self.dim = traj.basis.dim
        self.chk = _propagate(traj, _omega_start(self.dim), len(self.times))
        self.y_chk = self.chk[:, : self.dim]

    def omega(self, t):
        i = _checkpoint(self.times, t)
        s = t - float(self.times[i])
        us = np.stack(rk4_stages(self.traj.metric, self.traj.velocities[i], s)[1])
        return (_step_maps(self.traj, us, s) @ self.chk[i])[: self.dim]

    def det(self, t):
        return float(np.linalg.det(self.omega(t)))


def find_conjugate_times(
    traj,
    horizon=None,
    sigma_rel_threshold=SIGMA_REL_THRESHOLD,
    time_tol=TIME_TOLERANCE,
):
    """Detect conjugate times through det sign changes and sigma_min dips.

    Determinant sign flips are refined by Brent's root finder;
    even-multiplicity touches (no sign flip) are caught as local minima of
    sigma_min below the relative threshold and refined by Brent's minimizer
    when a three-point quadratic fit of sigma_min^2 opens upward.
    """
    if horizon is None:
        horizon = traj.duration()
    if horizon > traj.duration() + 1e-12:
        raise ConfigError("horizon exceeds trajectory length")
    ev = _OmegaEvaluator(traj, horizon)
    ts = ev.times
    dets = np.linalg.det(ev.y_chk)
    svals = np.linalg.svd(ev.y_chk, compute_uv=False)
    sig_min, sig_max = svals[:, -1], svals[:, 0]
    ratio = sig_min / np.where(sig_max > 0, sig_max, 1.0)

    # skip the trivial zero at t=0: wait until Omega is comfortably regular
    i0 = 1
    while i0 < len(ts) and ratio[i0] <= sigma_rel_threshold:
        i0 += 1

    events = []

    def add_event(t, method):
        omega = ev.omega(t)
        det, smin, smax = _svd_stats(omega)
        if smax == 0.0 or smin > sigma_rel_threshold * smax:
            return
        for e in events:
            if abs(e.time - t) < 3 * ev.h:
                return
        s = np.linalg.svd(omega, compute_uv=False)
        mult = int(np.sum(s < sigma_rel_threshold * s[0]))
        events.append(
            ConjugateEvent(float(t), max(mult, 1), method, det=det, sigma_min=smin)
        )

    for t in sign_changes(ev.det, ts[i0:], dets[i0:], time_tol):
        add_event(t, "det-sign-change")

    def sigma_at(t):
        s = np.linalg.svd(ev.omega(t), compute_uv=False)
        return float(s[-1])

    # even-multiplicity touches: loose local-minimum trigger on the ratio,
    # then refine and keep only dips that reach the relative threshold
    dip_trigger = max(1e-2, sigma_rel_threshold)
    inner = np.arange(max(i0, 1), len(ts) - 1)
    dips = inner[
        (ratio[inner] < dip_trigger)
        & (sig_min[inner] <= sig_min[inner - 1])
        & (sig_min[inner] <= sig_min[inner + 1])
    ]
    for i in dips:
        # quadratic vertex of sigma_min^2 as the starting guess
        t0, t1, t2 = float(ts[i - 1]), float(ts[i]), float(ts[i + 1])
        f0, f1, f2 = sig_min[i - 1] ** 2, sig_min[i] ** 2, sig_min[i + 1] ** 2
        denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
        a = (t2 * (f1 - f0) + t1 * (f0 - f2) + t0 * (f2 - f1)) / denom
        t_star = brent_min(sigma_at, t0, t2, time_tol)[0] if a > 0 else t1
        add_event(float(t_star), "sigma-min-dip")

    events.sort(key=lambda e: e.time)
    return ConjugateReport(
        events=events,
        horizon=float(horizon),
        tolerances={
            "sigma_rel_threshold": sigma_rel_threshold,
            "time_tol": time_tol,
        },
    )


# -- closed-geodesic criterion ------------------------------------------------------


def right_translation_isometry_check(metric, g):
    """Whether right translation by g is an isometry: Ad*_g Ad_g = I."""
    m = metric.Ad_star_matrix(g) @ Ad_matrix(g)
    return float(np.linalg.norm(m - np.eye(metric.basis.dim))) < ISOMETRY_TOL


def _state_at_time(traj, t):
    """(u, gamma) at arbitrary t by one RK4 step from the grid node before t."""
    i = _checkpoint(traj.times, t)
    return rk4_step(
        traj.metric, traj.basis.basis_matrices, traj.velocities[i], traj.frames[i],
        t - float(traj.times[i]),
    )


def explicit_closed_field(traj, t):
    """The Jacobi field Ad*_{gamma(t)} u0 - Ad_{gamma(t)^{-1}} u0 (with z = u')."""
    u0 = traj.velocities[0]
    _, gamma = _state_at_time(traj, t)
    g = GroupElement(traj.basis, gamma)
    y = traj.metric.Ad_star_matrix(g) @ u0 - Ad_matrix(g.inverse()) @ u0
    return AlgebraElement(traj.basis, y)


@dataclass
class ClosedGeodesicVerdict:
    tau: float
    isometry_ok: bool
    field_norm_at_tau: float
    conjugate_at_or_before_tau: bool


def closed_geodesic_conjugacy(traj, tau):
    """Certify a conjugate point at (or before) tau on a nonsteady geodesic.

    Requires right translation by gamma(tau) to be an isometry; then the
    explicit field above is a nontrivial Jacobi field vanishing at 0 and tau.
    """
    if tau > traj.duration() + 1e-12:
        raise ConfigError("tau outside the trajectory range")
    if traj.is_steady():
        raise CriterionInapplicableError(
            "closed-geodesic criterion needs a nonsteady geodesic"
        )
    _, gamma = _state_at_time(traj, tau)
    ok = right_translation_isometry_check(traj.metric, GroupElement(traj.basis, gamma))
    norm_tau = explicit_closed_field(traj, tau).norm_biinv()
    return ClosedGeodesicVerdict(
        tau=float(tau),
        isometry_ok=bool(ok),
        field_norm_at_tau=float(norm_tau),
        conjugate_at_or_before_tau=bool(ok and norm_tau < FIELD_TOL),
    )
