"""Jacobi fields along geodesics, the solution operator, conjugate detection.

The Jacobi system in the Lie algebra along a geodesic with velocity u(t) is

    y' + ad_u y = z,        z' = ad*_u z + ad*_z u,

a linear nonautonomous system; a conjugate point at time tau corresponds to a
solution with y(0) = y(tau) = 0 and z(0) != 0, i.e. to the solution operator
Omega(t): z0 -> y(t) (with y(0) = 0) becoming singular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import Ad_matrix, AlgebraElement, GroupElement, ad_matrix_raw
from .dynamics import rk4_step
from .errors import CriterionInapplicableError
from .roots import golden_min, sign_changes

SIGMA_REL_THRESHOLD = 1e-6
TIME_TOLERANCE = 1e-9
ISOMETRY_TOL = 1e-9


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
        basis = self.trajectory.basis
        worst = 0.0
        for i in range(1, len(ts) - 1):
            dy = (ys[i + 1] - ys[i - 1]) / (ts[i + 1] - ts[i - 1])
            u = self.trajectory.velocities[i]
            r = dy + ad_matrix_raw(basis, u) @ ys[i] - zs[i]
            worst = max(worst, float(np.linalg.norm(r)))
        return worst


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

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)


class _JacobiPropagator:
    """RK4 propagator for the linear Jacobi system with interpolated u(t)."""

    def __init__(self, traj):
        self.traj = traj
        self.metric = traj.metric
        self.basis = traj.basis

    def _coeffs(self, t):
        u = self.traj.velocity_at(t)
        a = -ad_matrix_raw(self.basis, u)
        f = self.metric.ad_star_matrix_of(u) + self.metric.coad_force_matrix(u)
        return a, f

    @staticmethod
    def _rk4(y, z, h, a1, f1, a2, f2, a4, f4):
        k1y, k1z = a1 @ y + z, f1 @ z
        y2, z2 = y + 0.5 * h * k1y, z + 0.5 * h * k1z
        k2y, k2z = a2 @ y2 + z2, f2 @ z2
        y3, z3 = y + 0.5 * h * k2y, z + 0.5 * h * k2z
        k3y, k3z = a2 @ y3 + z3, f2 @ z3
        y4, z4 = y + h * k3y, z + h * k3z
        k4y, k4z = a4 @ y4 + z4, f4 @ z4
        return (
            y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y),
            z + h / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z),
        )

    def step(self, t, y, z, h):
        a1, f1 = self._coeffs(t)
        a2, f2 = self._coeffs(t + 0.5 * h)
        a4, f4 = self._coeffs(t + h)
        return self._rk4(y, z, h, a1, f1, a2, f2, a4, f4)

    def coeff_stacks(self, times):
        """(A, F) at the grid nodes and at the step midpoints, precomputed."""
        node = [self._coeffs(float(t)) for t in times]
        mid = [
            self._coeffs(float(0.5 * (times[i] + times[i + 1])))
            for i in range(len(times) - 1)
        ]
        a_n = np.array([c[0] for c in node])
        f_n = np.array([c[1] for c in node])
        a_m = np.array([c[0] for c in mid])
        f_m = np.array([c[1] for c in mid])
        return a_n, f_n, a_m, f_m

    def run(self, times, y, z, store=True):
        """Propagate (y, z) across the whole grid; optionally store all states."""
        a_n, f_n, a_m, f_m = self.coeff_stacks(times)
        if store:
            ys = np.empty((len(times),) + y.shape)
            zs = np.empty((len(times),) + z.shape)
            ys[0], zs[0] = y, z
        for i in range(len(times) - 1):
            h = float(times[i + 1] - times[i])
            y, z = self._rk4(y, z, h, a_n[i], f_n[i], a_m[i], f_m[i], a_n[i + 1], f_n[i + 1])
            if store:
                ys[i + 1], zs[i + 1] = y, z
        if store:
            return ys, zs
        return y, z

    def advance(self, t0, y, z, t1, h_max):
        """Propagate from t0 to t1 in uniform RK4 steps no longer than h_max."""
        if t1 <= t0:
            return y, z
        n = max(1, int(np.ceil((t1 - t0) / h_max)))
        h = (t1 - t0) / n
        for k in range(n):
            y, z = self.step(t0 + k * h, y, z, h)
        return y, z


def integrate_jacobi(traj, y0, z0, n_steps=None):
    """Integrate the Jacobi system with initial data (y0, z0) along traj."""
    traj.basis.require_same(y0.basis)
    traj.basis.require_same(z0.basis)
    prop = _JacobiPropagator(traj)
    ts = traj.times
    if n_steps is not None:
        ts = np.linspace(ts[0], ts[-1], n_steps + 1)
    ys, zs = prop.run(ts, np.array(y0.coords), np.array(z0.coords))
    return JacobiSolution(traj, ts, ys, zs)


def _svd_stats(omega):
    s = np.linalg.svd(omega, compute_uv=False)
    return float(np.linalg.det(omega)), float(s[-1]), float(s[0])


def solution_operator(traj, t_grid=None):
    """Columns of Omega(t): z0 = b_j, y0 = 0, integrated in a single pass."""
    prop = _JacobiPropagator(traj)
    ts = traj.times if t_grid is None else np.asarray(t_grid)
    dim = traj.basis.dim
    ys, _ = prop.run(ts, np.zeros((dim, dim)), np.eye(dim))
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
    """Evaluate Omega(t) anywhere by restarting from stored grid checkpoints."""

    def __init__(self, traj, horizon):
        self.prop = _JacobiPropagator(traj)
        mask = traj.times <= horizon + 1e-12 * max(1.0, horizon)
        self.times = traj.times[mask]
        if len(self.times) < 3:
            raise ValueError("horizon too short for the trajectory grid")
        self.h = float(self.times[1] - self.times[0])
        dim = traj.basis.dim
        self.y_chk, self.z_chk = self.prop.run(
            self.times, np.zeros((dim, dim)), np.eye(dim)
        )

    def omega(self, t):
        i = min(
            int(np.searchsorted(self.times, t, side="right") - 1),
            len(self.times) - 1,
        )
        i = max(i, 0)
        y, z = self.prop.advance(
            float(self.times[i]), self.y_chk[i].copy(), self.z_chk[i].copy(), t, self.h
        )
        return y

    def det(self, t):
        return float(np.linalg.det(self.omega(t)))


def find_conjugate_times(
    traj,
    horizon=None,
    sigma_rel_threshold=SIGMA_REL_THRESHOLD,
    time_tol=TIME_TOLERANCE,
):
    """Detect conjugate times through det sign changes and sigma_min dips.

    Determinant sign flips are refined by bisection; even-multiplicity
    touches (no sign flip) are caught as local minima of sigma_min below the
    relative threshold and refined by golden-section search when a
    three-point quadratic fit of sigma_min^2 opens upward.
    """
    if horizon is None:
        horizon = traj.duration()
    if horizon > traj.duration() + 1e-12:
        raise ValueError("horizon exceeds trajectory length")
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
    for i in range(max(i0, 1), len(ts) - 1):
        if (
            ratio[i] < dip_trigger
            and sig_min[i] <= sig_min[i - 1]
            and sig_min[i] <= sig_min[i + 1]
        ):
            # quadratic vertex of sigma_min^2 as the starting guess
            t0, t1, t2 = float(ts[i - 1]), float(ts[i]), float(ts[i + 1])
            f0, f1, f2 = sig_min[i - 1] ** 2, sig_min[i] ** 2, sig_min[i + 1] ** 2
            denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
            a = (t2 * (f1 - f0) + t1 * (f0 - f2) + t0 * (f2 - f1)) / denom
            t_star = golden_min(sigma_at, t0, t2, time_tol) if a > 0 else t1
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


def right_translation_isometry_check(metric, g, tol=ISOMETRY_TOL):
    """Whether right translation by g is an isometry: Ad*_g Ad_g = I."""
    m = metric.Ad_star_matrix(g) @ Ad_matrix(g)
    return float(np.linalg.norm(m - np.eye(metric.basis.dim))) < tol


def _state_at_time(traj, t):
    """(u, gamma) at arbitrary t by one short RK4 restart from the grid."""
    i = min(
        int(np.searchsorted(traj.times, t, side="right") - 1), len(traj.times) - 1
    )
    i = max(i, 0)
    u = np.array(traj.velocities[i])
    gamma = np.array(traj.frames[i])
    t0 = float(traj.times[i])
    if t <= t0:
        return u, gamma
    h_max = float(traj.times[1] - traj.times[0])
    n = max(1, int(np.ceil((t - t0) / h_max)))
    h = (t - t0) / n
    for _ in range(n):
        u, gamma = rk4_step(traj.metric, traj.basis.basis_matrices, u, gamma, h)
    return u, gamma


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


def closed_geodesic_conjugacy(traj, tau, field_tol=1e-8):
    """Certify a conjugate point at (or before) tau on a nonsteady geodesic.

    Requires right translation by gamma(tau) to be an isometry; then the
    explicit field above is a nontrivial Jacobi field vanishing at 0 and tau.
    """
    if tau > traj.duration() + 1e-12:
        raise ValueError("tau outside the trajectory range")
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
        conjugate_at_or_before_tau=bool(ok and norm_tau < field_tol),
    )
