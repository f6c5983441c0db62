"""Conjugate-point criteria for steady and nonsteady geodesics.

Steady criteria work with the operators L(v) = ad_{u0} v and
F(v) = ad*_{u0} v + ad*_v u0 on the g-orthogonal complement of u0: given an
R with RF + LR = I there, the geodesic has a conjugate point exactly when

    det(e^{tau L} R e^{tau F} - e^{-tau L} R e^{-tau F}) = 0

for some tau > 0, and the conjugate point sits at geodesic time 2 tau (the
construction is symmetric about the midpoint).  When Lambda u0 = lambda u0
and L^2 commutes with Lambda, the determinant splits over 2x2 blocks into
explicitly known functions of generalized trigonometric type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.linalg

from .algebra import ad_matrix_raw, biinv_form, bracket
from .errors import ConfigError, CriterionInapplicableError
from .jacobi import ConjugateEvent, ConjugateReport
from .roots import brent_min, brent_root, sign_changes

STEADY_TOL = 1e-10
SYLVESTER_RELATIVE_CUTOFF = 1e-10
COMMUTATION_TOL = 1e-9
L2_COMMUTATION_TOL = 1e-12   # rigid_body_L2_check, relative to |Lambda|
ENDPOINT_TOL = 1e-10         # index_form_value: |y| at both ends of the test field
GRID_BLOCK = 256           # tau samples per stacked determinant evaluation


# -- general steady criterion -------------------------------------------------------


@dataclass
class SteadyCriterion:
    metric: object
    u0: np.ndarray
    frame: np.ndarray          # g-orthonormal basis of u0-perp, as columns
    L: np.ndarray              # ad_{u0} restricted to the active subspace
    F: np.ndarray              # v -> ad*_{u0} v + ad*_v u0, restricted
    R: np.ndarray | None       # solves RF + LR = I on the active subspace
    status: str                # applicable | inapplicable-spectral | inapplicable-singular
    kernel_dim: int            # joint-kernel directions split off before solving
    residual: float            # || RF + LR - I || when applicable
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "criterion": "steady-det",
            "status": self.status,
            "kernel_dim": self.kernel_dim,
            "residual": self.residual,
            "diagnostics": dict(self.diagnostics),
        }


def _g_orthonormal_complement(metric, u0):
    """Columns: a g-orthonormal basis of the g-orthogonal complement of u0."""
    lam = metric.matrix
    dim = metric.basis.dim
    e0 = u0 / np.sqrt(u0 @ lam @ u0)
    cols = []
    for i in range(dim):
        v = np.zeros(dim)
        v[i] = 1.0
        v = v - (e0 @ lam @ v) * e0
        for q in cols:
            v = v - (q @ lam @ v) * q
        nrm = np.sqrt(max(v @ lam @ v, 0.0))
        if nrm > 1e-8:
            cols.append(v / nrm)
    if len(cols) != dim - 1:
        raise RuntimeError("failed to span the orthogonal complement")
    return np.array(cols).T


def _solve_sylvester(L, F, cutoff=SYLVESTER_RELATIVE_CUTOFF):
    """Solve R F + L R = I by dense Kronecker vectorization; None if singular."""
    n = L.shape[0]
    if n == 0:
        return None, 0.0
    k = np.kron(F.T, np.eye(n)) + np.kron(np.eye(n), L)
    s = np.linalg.svd(k, compute_uv=False)
    if s[-1] <= cutoff * s[0]:
        return None, float(s[-1] / s[0] if s[0] > 0 else 0.0)
    r = np.linalg.solve(k, np.eye(n).flatten(order="F")).reshape((n, n), order="F")
    return r, float(s[-1] / s[0])


def steady_operators(m, u0):
    """Operators (L, F, R) of the steady criterion on the complement of u0.

    The Sylvester equation is first attempted on the whole complement; if the
    vectorized system is singular, the joint kernel of (L, F) is split off
    (those directions evolve as y = t z0 and never produce conjugate points)
    and the solve is retried on the active invariant subspace.
    """
    basis = m.basis
    basis.require_same(u0.basis)
    u = np.asarray(u0.coords, dtype=float)
    if not m.is_steady(u0, tol=STEADY_TOL):
        raise CriterionInapplicableError("u0 is not a steady solution")
    frame = _g_orthonormal_complement(m, u)
    l_full = ad_matrix_raw(basis, u)
    f_full = m.ad_star_matrix_of(u) + m.coad_force_matrix(u)
    lam = m.matrix
    lc = frame.T @ lam @ l_full @ frame
    fc = frame.T @ lam @ f_full @ frame
    diagnostics = {}

    r, cond = _solve_sylvester(lc, fc)
    kernel_dim = 0
    if r is None:
        # split off the joint kernel of (L, F)
        stacked = np.vstack([lc, fc])
        _, s, vt = np.linalg.svd(stacked)
        tol = max(s[0], 1.0) * 1e-10 if s.size else 1e-10
        rank = int(np.sum(s > tol))
        kernel = vt[rank:].T                 # joint kernel columns
        active = vt[:rank].T                 # row-space columns
        kernel_dim = kernel.shape[1]
        if active.shape[1] == 0:
            status = "inapplicable-spectral"
            diagnostics["reason"] = "L and F vanish on the whole complement"
            return SteadyCriterion(
                m, u, frame, lc, fc, None, status, kernel_dim, np.inf, diagnostics
            )
        leak = max(
            float(np.abs(kernel.T @ lc @ active).max(initial=0.0)),
            float(np.abs(kernel.T @ fc @ active).max(initial=0.0)),
        )
        diagnostics["kernel_leak"] = leak
        if leak > 1e-8:
            status = "inapplicable-singular"
            diagnostics["reason"] = "no invariant splitting off the joint kernel"
            return SteadyCriterion(
                m, u, frame, lc, fc, None, status, kernel_dim, np.inf, diagnostics
            )
        la = active.T @ lc @ active
        fa = active.T @ fc @ active
        r, cond = _solve_sylvester(la, fa)
        if r is None:
            status = "inapplicable-spectral"
            diagnostics["reason"] = "spectra of -L and F intersect on the active subspace"
            diagnostics["sylvester_cond"] = cond
            return SteadyCriterion(
                m, u, frame, lc, fc, None, status, kernel_dim, np.inf, diagnostics
            )
        frame = frame @ active
        lc, fc = la, fa
    residual = float(np.linalg.norm(r @ fc + lc @ r - np.eye(lc.shape[0])))
    diagnostics["sylvester_cond"] = cond
    return SteadyCriterion(
        m, u, frame, lc, fc, r, "applicable", kernel_dim, residual, diagnostics
    )


def _steady_criterion_matrix(crit, tau):
    el = scipy.linalg.expm(tau * crit.L)
    ef = scipy.linalg.expm(tau * crit.F)
    el_inv = scipy.linalg.expm(-tau * crit.L)
    ef_inv = scipy.linalg.expm(-tau * crit.F)
    return el @ crit.R @ ef - el_inv @ crit.R @ ef_inv


def steady_determinant_value(crit, tau):
    """det(e^{tau L} R e^{tau F} - e^{-tau L} R e^{-tau F})."""
    return float(np.linalg.det(_steady_criterion_matrix(crit, tau)))


def _first_powers(step, count):
    """Stack of step^1 .. step^count by doubling: step^{m+j} = step^j step^m."""
    powers = np.empty((count,) + step.shape)
    powers[0] = step
    m = 1
    while m < count:
        k = min(m, count - m)
        powers[m : m + k] = powers[:k] @ powers[m - 1]
        m += k
    return powers


def steady_determinant_grid(crit, h, count):
    """steady_determinant_value at tau_k = k h for k = 1..count, as one array.

    On a uniform grid e^{+-tau_k L} and e^{+-tau_k F} are the k-th powers of
    the four one-step exponentials, so they are built by matrix products
    rather than by an ``expm`` per sample.  Powers, unlike a diagonalization,
    need no eigenvector conditioning and so also serve a defective or
    hyperbolic F.  Samples go in blocks of GRID_BLOCK to bound memory.
    """
    steps = [scipy.linalg.expm(s * h * a) for a in (crit.L, crit.F) for s in (1.0, -1.0)]
    powers = [_first_powers(e, min(count, GRID_BLOCK)) for e in steps]
    carry = [np.eye(len(e)) for e in steps]
    vals = np.empty(count)
    for start in range(0, count, GRID_BLOCK):
        k = min(GRID_BLOCK, count - start)
        el, el_inv, ef, ef_inv = (p[:k] @ c for p, c in zip(powers, carry))
        vals[start : start + k] = np.linalg.det(el @ crit.R @ ef - el_inv @ crit.R @ ef_inv)
        carry = [c @ p[-1] for p, c in zip(powers, carry)]
    return vals


def _multiplicity(matrix, scale, rel=1e-6):
    s = np.linalg.svd(matrix, compute_uv=False)
    ref = max(float(s[0]), scale)
    if ref == 0.0:
        return matrix.shape[0]
    return max(int(np.sum(s < rel * ref)), 1)


def steady_determinant_scan(crit, horizon, samples=4000):
    """Scan the criterion determinant on (0, horizon] and refine its zeros.

    Sign flips are refined by Brent's root finder; even-order touches (the
    determinant dips to zero without flipping) by Brent's minimizer on
    |det|.  A dip that refines to a zero across which the determinant flips
    is a simple root whose partner lies in the same bracket of equal-sign
    samples; the partner is found on the side whose ends differ in sign.
    Reported conjugate times are the geodesic times 2*tau; the determinant
    parameters tau themselves are kept on the report as ``taus``.
    """
    if crit.status != "applicable":
        raise CriterionInapplicableError(f"steady criterion status: {crit.status}")
    taus = np.linspace(0.0, horizon, samples + 1)[1:]
    h_grid = float(taus[1] - taus[0])

    def det(tau):
        return steady_determinant_value(crit, tau)

    vals = steady_determinant_grid(crit, horizon / samples, samples)
    events = [(tau, "det-sign-change") for tau in sign_changes(det, taus, vals, 1e-12)]
    # even-order touches: |det| local minima that refine to machine zero
    mag = np.abs(vals)
    left, mid, right = mag[:-2], mag[1:-1], mag[2:]
    dips = (mid <= left) & (mid <= right) & (np.maximum(left, right) > 0)
    for i in np.flatnonzero(dips) + 1:
        local = max(abs(vals[i - 1]), abs(vals[i + 1]))
        a, b = float(taus[i - 1]), float(taus[i + 1])
        tau, det_min = brent_min(lambda t: abs(det(t)), a, b, 1e-12)
        if det_min >= 1e-9 * local:
            continue
        if any(abs(tau - e[0]) <= 2 * h_grid for e in events):
            continue
        lo, hi = tau - 1e-6 * h_grid, tau + 1e-6 * h_grid
        det_lo, det_hi = det(lo), det(hi)
        if (det_lo < 0) == (det_hi < 0):
            events.append((tau, "det-dip"))
            continue
        if (vals[i - 1] < 0) != (det_lo < 0):
            partner = brent_root(det, a, lo, float(vals[i - 1]), det_lo, 1e-12)
        else:
            partner = brent_root(det, hi, b, det_hi, float(vals[i + 1]), 1e-12)
        events += [(tau, "det-sign-change"), (partner, "det-sign-change")]
    events.sort()
    report_events = []
    for tau, kind in events:
        # neighboring values set the scale in case the matrix vanishes entirely
        scale = max(
            np.linalg.norm(_steady_criterion_matrix(crit, tau + h_grid), 2),
            np.linalg.norm(_steady_criterion_matrix(crit, max(tau - h_grid, 0.0)), 2),
        )
        matrix = _steady_criterion_matrix(crit, tau)
        report_events.append(
            ConjugateEvent(
                time=2.0 * tau,
                multiplicity=_multiplicity(matrix, scale),
                method="criterion",
                det=float(np.linalg.det(matrix)),
            )
        )
    report = ConjugateReport(
        events=report_events,
        horizon=2.0 * horizon,
        tolerances={"tau_bisection": 1e-12, "samples": samples},
    )
    report.taus = [tau for tau, _ in events]
    return report


# -- commuting steady criterion (eigenvector of Lambda) -------------------------------


@dataclass
class SteadyBlock:
    eps: float
    alpha: float
    beta: float
    d: float
    first_zero_f: float
    first_zero_g: float


@dataclass
class CommutingBlockData:
    lam: float
    blocks: list
    kernel_dim: int
    eulerian_stable: bool  # no block with d_j < 0, i.e. F has no real eigenvalue pair

    def to_json_dict(self):
        return {
            "criterion": "steady-blocks",
            "lambda": self.lam,
            "kernel_dim": self.kernel_dim,
            "eulerian_stable": self.eulerian_stable,
            "blocks": [
                {
                    "eps": b.eps,
                    "alpha": b.alpha,
                    "beta": b.beta,
                    "d": b.d,
                    "first_zero_f": b.first_zero_f,
                    "first_zero_g": b.first_zero_g,
                }
                for b in self.blocks
            ],
        }


def _generalized_trig(d):
    """(c_j, s_j) with e^{tF_j} = c_j(t) I + s_j(t) F_j, per sign of d = det F_j."""
    if d > 0:
        r = np.sqrt(d)
        return (lambda t: np.cos(r * t)), (lambda t: np.sin(r * t) / r), r
    if d < 0:
        r = np.sqrt(-d)
        return (lambda t: np.cosh(r * t)), (lambda t: np.sinh(r * t) / r), r
    return (lambda t: np.ones_like(t)), (lambda t: t), 0.0


def block_functions(eps, alpha, beta, lam):
    """The pair (f_j, g_j) whose zeros mark conjugate pairs for one block."""
    d = eps**2 * (beta - lam) * (alpha - lam) / (alpha * beta)
    c, s, r = _generalized_trig(d)

    def f(t):
        return np.sin(eps * t) * c(t) - (eps * (alpha - lam) / alpha) * s(t) * np.cos(eps * t)

    def g(t):
        return np.sin(eps * t) * c(t) - (eps * (beta - lam) / beta) * s(t) * np.cos(eps * t)

    return f, g, d, r


def _first_zero(fn, horizon, samples=8000):
    """First zero of fn on (0, horizon]: an exact zero or a refined sign change.

    fn is evaluated once over the whole sample grid, so it must broadcast.
    """
    ts = np.linspace(0.0, horizon, samples + 1)[1:]
    vals = fn(ts)
    return next(sign_changes(fn, ts, vals, 1e-12), None)


def commuting_block_scan(m, u0):
    """Block decomposition and first conjugate time where L^2 commutes with Lambda.

    Requires Lambda u0 = lambda u0 and [L^2, Lambda] = 0.  The earliest zero
    over all block functions f_j, g_j at parameter tau gives the first
    conjugate point at geodesic time 2 tau; the theorem guarantees a zero
    within three times the slowest block window.
    """
    basis = m.basis
    basis.require_same(u0.basis)
    u = np.asarray(u0.coords, dtype=float)
    if not m.is_steady(u0, tol=STEADY_TOL):
        raise CriterionInapplicableError("u0 is not steady")
    lam_mat = m.matrix
    lu = m.apply_raw(u)
    unorm2 = float(u @ u)
    lam = float(u @ lu) / unorm2
    if np.linalg.norm(lu - lam * u) > STEADY_TOL * max(1.0, np.linalg.norm(lu)):
        raise CriterionInapplicableError("u0 is not an eigenvector of Lambda")
    l_full = ad_matrix_raw(basis, u)
    l2 = l_full @ l_full
    comm = l2 @ lam_mat - lam_mat @ l2
    if np.linalg.norm(comm) > COMMUTATION_TOL * max(1.0, np.linalg.norm(lam_mat)):
        raise CriterionInapplicableError(
            f"[L^2, Lambda] does not vanish (residual {np.linalg.norm(comm):.2e})"
        )

    # joint eigenbasis of the commuting symmetric pair (L^2, Lambda)
    sym_l2 = 0.5 * (l2 + l2.T)
    w, v = np.linalg.eigh(sym_l2)
    blocks = []
    kernel_dim = 0
    used = np.zeros(basis.dim, dtype=bool)
    # cluster L^2 eigenvalues, diagonalize Lambda inside each eigenspace
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    i = 0
    vecs, eps_of, alpha_of = [], [], []
    while i < basis.dim:
        j = i
        while j + 1 < basis.dim and abs(w[j + 1] - w[i]) < 1e-9 * max(1.0, abs(w[i])):
            j += 1
        sub = v[:, i : j + 1]
        lam_sub = sub.T @ lam_mat @ sub
        evals, evecs = np.linalg.eigh(0.5 * (lam_sub + lam_sub.T))
        basis_vecs = sub @ evecs
        eps2 = max(-float(np.mean(w[i : j + 1])), 0.0)
        for k in range(basis_vecs.shape[1]):
            vecs.append(basis_vecs[:, k])
            eps_of.append(np.sqrt(eps2))
            alpha_of.append(float(evals[k]))
        i = j + 1

    for idx, w1 in enumerate(vecs):
        if used[idx]:
            continue
        eps = eps_of[idx]
        if eps < 1e-9:
            used[idx] = True
            if abs(w1 @ u) < 1e-8 * np.linalg.norm(u):
                kernel_dim += 1
            continue
        w2 = (l_full @ w1) / eps
        # locate the partner among the remaining joint eigenvectors
        partner, best = None, 0.0
        for jdx, cand in enumerate(vecs):
            if used[jdx] or jdx == idx:
                continue
            ov = abs(cand @ w2)
            if ov > best:
                best, partner = ov, jdx
        if partner is None or best < 1.0 - 1e-7:
            raise CriterionInapplicableError(
                "no L-conjugate partner; simultaneous normal form failed"
            )
        beta_residual = np.linalg.norm(lam_mat @ w2 - (w2 @ lam_mat @ w2) * w2)
        if beta_residual > 1e-7 * max(1.0, np.linalg.norm(lam_mat)):
            raise CriterionInapplicableError(
                "L-image of a joint eigenvector is not a Lambda eigenvector"
            )
        used[idx] = used[partner] = True
        alpha = alpha_of[idx]
        beta = float(w2 @ lam_mat @ w2)
        f, g, d, r = block_functions(eps, alpha, beta, lam)
        window = 2 * np.pi / eps
        if r > 0:
            window = max(window, 2 * np.pi / r)
        zf = _first_zero(f, 3.0 * window)
        zg = _first_zero(g, 3.0 * window)
        blocks.append(
            SteadyBlock(
                eps=float(eps),
                alpha=alpha,
                beta=beta,
                d=float(d),
                first_zero_f=zf,
                first_zero_g=zg,
            )
        )

    if not blocks:
        raise CriterionInapplicableError("ad_{u0} vanishes; no oscillating blocks")
    data = CommutingBlockData(
        lam=lam,
        blocks=blocks,
        kernel_dim=kernel_dim,
        eulerian_stable=bool(all(b.d >= -1e-12 for b in blocks)),
    )
    zero_tol = 1e-9
    candidates = []
    for b in blocks:
        for z in (b.first_zero_f, b.first_zero_g):
            if z is not None:
                candidates.append((z, b))
    candidates.sort(key=lambda c: c[0])
    # block-function zeros at the same parameter add up: each vanishing
    # diagonal entry of the criterion matrix contributes one dimension
    events = []
    for z, b in candidates:
        if events and abs(2.0 * z - events[-1].time) < zero_tol:
            events[-1].multiplicity += 1
            continue
        events.append(
            ConjugateEvent(time=2.0 * z, multiplicity=1, method="criterion")
        )
    report = ConjugateReport(
        events=events,
        horizon=2.0 * max(c[0] for c in candidates) if candidates else 0.0,
        tolerances={"zero_bisection": 1e-12},
    )
    report.taus = [c[0] for c in candidates]
    return data, report


def rigid_body_L2_check(m, u0):
    """Whether ad_{u0}^2 commutes with Lambda (computed, not assumed)."""
    basis = m.basis
    basis.require_same(u0.basis)
    l = ad_matrix_raw(basis, u0.coords)
    l2 = l @ l
    lam = m.matrix
    return float(np.linalg.norm(l2 @ lam - lam @ l2)) < L2_COMMUTATION_TOL * max(
        1.0, float(np.linalg.norm(lam))
    )


# -- nonsteady criterion (orthogonal frame, index form) ---------------------------


@dataclass
class NonsteadyFrame:
    times: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    w: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    orthogonality_residual: float


def nonsteady_frame(traj):
    """The frame (v1, v2, v3) = (u'/g(u',u'), k Lambda u - l u, u) per sample.

    Also evaluates w = v1' + ad_u v1 and x = Lambda w + ad_{v1} Lambda u,
    with v1' computed analytically through u'' = ad*_{u'} u + ad*_u u'.
    """
    if traj.is_steady():
        raise CriterionInapplicableError("nonsteady frame needs a nonsteady geodesic")
    m = traj.metric
    basis = traj.basis
    n = len(traj.times)
    dim = basis.dim
    v1 = np.empty((n, dim))
    v2 = np.empty((n, dim))
    v3 = np.array(traj.velocities)
    wf = np.empty((n, dim))
    xf = np.empty((n, dim))
    psi = np.empty(n)
    phi = np.empty(n)
    k_const = float(traj.conserved[0, 0])
    l_const = float(traj.conserved[0, 1])
    worst = 0.0
    for i in range(n):
        u = traj.velocities[i]
        up = m.ad_star_raw(u, u)
        upp = m.ad_star_raw(up, u) + m.ad_star_raw(u, up)
        gupup = m.inner_raw(up, up)
        if gupup <= 0:
            raise CriterionInapplicableError("u' vanished along the trajectory")
        v1[i] = up / gupup
        v1p = upp / gupup - up * (2.0 * m.inner_raw(upp, up)) / gupup**2
        lu = m.apply_raw(u)
        v2[i] = k_const * lu - l_const * u
        wf[i] = v1p + ad_matrix_raw(basis, u) @ v1[i]
        xf[i] = m.apply_raw(wf[i]) + ad_matrix_raw(basis, v1[i]) @ lu
        psi[i] = 1.0 / m.inner_raw(v1[i], v1[i])
        gv2 = m.inner_raw(v2[i], v2[i])
        if gv2 < 1e-12:
            raise CriterionInapplicableError(
                "degenerate v2: Lambda u parallel to u along the orbit"
            )
        lw = m.apply_raw(wf[i])
        phi[i] = k_const**2 * float(lw @ lu) ** 2 / gv2 - float(wf[i] @ xf[i])
        worst = max(
            worst,
            abs(m.inner_raw(v1[i], v2[i])),
            abs(m.inner_raw(v1[i], v3[i])),
            abs(m.inner_raw(v2[i], v3[i])),
        )
    return NonsteadyFrame(
        times=np.array(traj.times),
        v1=v1,
        v2=v2,
        v3=v3,
        w=wf,
        x=xf,
        psi=psi,
        phi=phi,
        orthogonality_residual=float(worst),
    )


@dataclass
class NonsteadyVerdict:
    verdict: str           # satisfied-on-horizon | not-satisfied | degenerate
    psi_min: float
    phi_min: float
    horizon: float

    def to_json_dict(self):
        return {
            "criterion": "nonsteady-phi",
            "status": self.verdict,
            "psi_min": self.psi_min,
            "phi_min": self.phi_min,
            "horizon": self.horizon,
        }


def nonsteady_quadratic_criterion(traj, horizon=None):
    """Check the positivity of psi and phi on the sampled horizon.

    This is a finite-horizon check of hypotheses stated over [0, infinity);
    a 'satisfied-on-horizon' verdict is never a claim about all time.
    """
    if horizon is None:
        horizon = traj.duration()
    try:
        frame = nonsteady_frame(traj)
    except CriterionInapplicableError as exc:
        if "degenerate" in str(exc):
            return NonsteadyVerdict("degenerate", np.nan, np.nan, horizon), None
        raise
    mask = frame.times <= horizon + 1e-12
    psi_min = float(frame.psi[mask].min())
    phi_min = float(frame.phi[mask].min())
    verdict = (
        "satisfied-on-horizon" if psi_min > 0 and phi_min > 0 else "not-satisfied"
    )
    return NonsteadyVerdict(verdict, psi_min, phi_min, float(horizon)), frame


def index_form_tau(psi_min, phi_min):
    """Horizon at which the two-sine test field makes the index form negative."""
    if psi_min <= 0 or phi_min <= 0:
        raise CriterionInapplicableError("psi and phi must be positive")
    return 2.0 * np.pi / np.sqrt(psi_min * phi_min)


def cheeger_nonsteady_condition(delta, p0, q0):
    """Index-form inequality guaranteeing conjugate points on a Cheeger group:

    delta |p0|^2 |q0|^2 |[q0,[p0,q0]]|^2
        < (1+delta) |[p0,q0]|^4 ((1+delta)|p0|^2 + |q0|^2).
    """
    p0.basis.require_same(q0.basis)
    r0 = bracket(p0, q0)
    r0_norm2 = biinv_form(r0, r0)
    if r0_norm2 < 1e-24:
        raise CriterionInapplicableError("[p0, q0] = 0: steady direction")
    p2 = biinv_form(p0, p0)
    q2 = biinv_form(q0, q0)
    qr = bracket(q0, r0)
    lhs = delta * p2 * q2 * biinv_form(qr, qr)
    rhs = (1.0 + delta) * r0_norm2**2 * ((1.0 + delta) * p2 + q2)
    return bool(lhs < rhs)


def index_form_value(traj, y_samples, tau):
    """I(y,y) = integral of <Lambda z + ad_y Lambda u, z> dt over [0, tau].

    z is recovered from the samples as y' + ad_u y with centered differences;
    the integral uses composite Simpson.  A negative value certifies a
    conjugate point strictly before tau.
    """
    i_tau = traj.index_of_time(tau, tol=1e-6)
    ts = traj.times[: i_tau + 1]
    ys = np.asarray(y_samples)[: i_tau + 1]
    if np.linalg.norm(ys[0]) > ENDPOINT_TOL or np.linalg.norm(ys[-1]) > ENDPOINT_TOL:
        raise ConfigError("test field must vanish at both endpoints")
    m = traj.metric
    basis = traj.basis
    vals = np.empty(len(ts))
    for i in range(len(ts)):
        if i == 0:
            dy = (ys[1] - ys[0]) / (ts[1] - ts[0])
        elif i == len(ts) - 1:
            dy = (ys[-1] - ys[-2]) / (ts[-1] - ts[-2])
        else:
            dy = (ys[i + 1] - ys[i - 1]) / (ts[i + 1] - ts[i - 1])
        u = traj.velocities[i]
        adu = ad_matrix_raw(basis, u)
        z = dy + adu @ ys[i]
        lu = m.apply_raw(u)
        integrand = m.apply_raw(z) + ad_matrix_raw(basis, ys[i]) @ lu
        vals[i] = float(integrand @ z)
    return float(scipy.integrate.simpson(vals, x=ts))


def cheeger_index_test_field(traj, frame, tau):
    """Two-sine Appendix test field y = y1 v1 + y2 v2 on [0, tau].

    y1 = k1 sin(pi t / tau) + k2 sin(2 pi t / tau) with the combination chosen
    so that the constraint integral of xi * y1 vanishes, and y2' = -xi y1.
    """
    i_tau = traj.index_of_time(tau, tol=1e-6)
    ts = traj.times[: i_tau + 1]
    m = traj.metric
    k_const = float(traj.conserved[0, 0])
    xi = np.empty(len(ts))
    for i in range(len(ts)):
        lw = m.apply_raw(frame.w[i])
        lu = m.apply_raw(traj.velocities[i])
        xi[i] = k_const * float(lw @ lu) / m.inner_raw(frame.v2[i], frame.v2[i])
    s1 = np.sin(np.pi * ts / tau)
    s2 = np.sin(2 * np.pi * ts / tau)
    cum1 = scipy.integrate.cumulative_trapezoid(xi * s1, ts, initial=0.0)
    cum2 = scipy.integrate.cumulative_trapezoid(xi * s2, ts, initial=0.0)
    c1, c2 = float(cum1[-1]), float(cum2[-1])
    if abs(c1) < 1e-14 and abs(c2) < 1e-14:
        k1, k2 = 1.0, 0.0
    else:
        scale = np.hypot(c1, c2)
        k1, k2 = c2 / scale, -c1 / scale
    y1 = k1 * s1 + k2 * s2
    # same quadrature as the constraint, so y2 vanishes at tau to roundoff
    y2 = -(k1 * cum1 + k2 * cum2)
    ys = y1[:, None] * frame.v1[: len(ts)] + y2[:, None] * frame.v2[: len(ts)]
    return ys


def criterion_report(obj, conjugate_report=None, **extra):
    """Uniform report dict {criterion, status, conjugate_times, diagnostics}."""
    doc = obj.to_json_dict() if hasattr(obj, "to_json_dict") else dict(obj)
    doc.setdefault("status", "applicable")
    doc["conjugate_times"] = (
        conjugate_report.times if conjugate_report is not None else []
    )
    diagnostics = doc.pop("diagnostics", {})
    for key in list(doc.keys()):
        if key not in ("criterion", "status", "conjugate_times"):
            diagnostics[key] = doc.pop(key)
    doc["diagnostics"] = diagnostics
    if conjugate_report is not None:
        doc["diagnostics"]["multiplicities"] = [
            e.multiplicity for e in conjugate_report.events
        ]
        doc["diagnostics"]["tolerances"] = conjugate_report.tolerances
    doc["diagnostics"].update(extra)
    return doc
