"""Geodesic integration: Euler-Arnold + flow equations, exact Cheeger solutions."""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, GroupElement, expm_skew
from .errors import IntegrationDivergedError, MetricConstructionError
from .roots import golden_min

CONSERVATION_TOL = 1e-9


def _polar_retract(gamma):
    """Nearest orthogonal/unitary matrix (polar factor), with det-phase fix.

    Returns None when the polar factor flips orientation (the frame left the
    special group entirely), so callers can report divergence with a time.
    """
    u, _, vh = np.linalg.svd(gamma)
    q = u @ vh
    det = np.linalg.det(q)
    if np.iscomplexobj(q):
        return q * np.exp(-1j * np.angle(det) / q.shape[0])
    if det < 0:
        return None
    return q


class GeodesicTrajectory:
    """Sampled geodesic: times, algebra velocities u(t_i), group frames gamma(t_i).

    Stores the conserved pair (k, l) = (g(u,u), <Lambda u, Lambda u>) per
    sample; their relative drift is the integrator's health metric.  There is
    no interpolation between samples: u off the grid comes from the RK4
    stages of the step that starts at the sample before it (``rk4_stages``).
    """

    def __init__(self, metric, times, velocities, frames, conserved):
        self.metric = metric
        self.basis = metric.basis
        self.times = np.asarray(times)
        self.velocities = np.asarray(velocities)
        self.frames = np.asarray(frames)
        self.conserved = np.asarray(conserved)
        self._slopes = metric.ad_star_raw(self.velocities, self.velocities)
        for arr in (self.times, self.velocities, self.frames, self.conserved):
            arr.setflags(write=False)

    @property
    def u0(self):
        return AlgebraElement(self.basis, self.velocities[0])

    def duration(self):
        return float(self.times[-1])

    def is_steady(self, tol=1e-8):
        return float(np.max(np.linalg.norm(self._slopes, axis=1))) < tol

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
            raise ValueError(f"t={t} is not on the sample grid")
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


def rk4_step(metric, mats, u, gamma, h):
    """One classical RK4 step of u' = ad*_u u, gamma' = gamma u (no retraction)."""
    u_next, stages = rk4_stages(metric, u, h)
    gamma_next, _ = rk4(lambda s, g: g @ np.tensordot(stages[s], mats, axes=1), gamma, h)
    return u_next, gamma_next


def default_step(T):
    return min(1e-3, T / 2000.0)


def integrate_euler_arnold(metric, u0, T, dt=None):
    """Fixed-step RK4 on gamma' = gamma u, u' = ad*_u u, from the identity.

    The frame is re-projected to the group by polar decomposition after
    every step.  Raises IntegrationDivergedError on non-finite state,
    reporting the last valid time.
    """
    basis = metric.basis
    basis.require_same(u0.basis)
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if dt is None:
        dt = default_step(T)
    if dt > T:
        raise ValueError("dt must not exceed T")
    n_steps = int(round(T / dt))
    dt = T / n_steps
    mats = basis.basis_matrices

    u = np.array(u0.coords)
    gamma = np.eye(basis.matrix_size, dtype=mats.dtype)
    gram = basis.biinv_gram

    def conserved_pair(u):
        lu = metric.apply_raw(u)
        return (float(u @ gram @ lu), float(lu @ gram @ lu))

    times = np.linspace(0.0, T, n_steps + 1)
    velocities = np.empty((n_steps + 1, basis.dim))
    frames = np.empty((n_steps + 1,) + gamma.shape, dtype=gamma.dtype)
    conserved = np.empty((n_steps + 1, 2))
    velocities[0], frames[0], conserved[0] = u, gamma, conserved_pair(u)

    for step in range(n_steps):
        u, gamma = rk4_step(metric, mats, u, gamma, dt)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(gamma))):
            raise IntegrationDivergedError(
                f"non-finite state at t={times[step + 1]:.6g}",
                last_valid_time=float(times[step]),
            )
        gamma = _polar_retract(gamma)
        if gamma is None:
            raise IntegrationDivergedError(
                f"frame left the group at t={times[step + 1]:.6g}",
                last_valid_time=float(times[step]),
            )
        velocities[step + 1] = u
        frames[step + 1] = gamma
        conserved[step + 1] = conserved_pair(u)

    return GeodesicTrajectory(metric, times, velocities, frames, conserved)


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


def closed_biinvariant_time(metric, u0, horizon, n_samples=4096, tol=1e-8):
    """Smallest t in (0, horizon] with exp(t Lambda u0) = id, or None.

    Scans the Frobenius distance of the one-parameter subgroup generated by
    Lambda u0 from the identity and refines local minima by golden-section.
    """
    if metric.variant != "cheeger":
        raise MetricConstructionError("closed-time scan is defined for Cheeger metrics")
    basis = metric.basis
    lam_u0 = np.tensordot(metric.apply_raw(u0.coords), basis.basis_matrices, axes=1)
    w = np.linalg.eigvalsh(1j * np.asarray(lam_u0, dtype=complex))

    def defect(t):
        # || exp(t Lambda u0) - id ||_F from the eigenphases
        return float(np.sqrt(np.sum(np.abs(np.exp(-1j * w * t) - 1.0) ** 2)))

    ts = np.linspace(0.0, horizon, n_samples + 1)[1:]
    vals = np.sqrt(np.sum(np.abs(np.exp(-1j * np.outer(ts, w)) - 1.0) ** 2, axis=1))
    # earliest closing time wins: walk the local minima in time order
    candidates = [
        i
        for i in range(len(ts))
        if vals[i] < 1e-2
        and (i == 0 or vals[i] <= vals[i - 1])
        and (i == len(ts) - 1 or vals[i] <= vals[i + 1])
    ]
    for i in candidates:
        lo = ts[max(i - 1, 0)] if i > 0 else ts[i] / 2.0
        hi = ts[min(i + 1, len(ts) - 1)]
        t_min = golden_min(defect, lo, hi, 0.0, rtol=1e-14)
        if defect(t_min) < tol:
            return float(t_min)
    return None
