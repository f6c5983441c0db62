"""Reference computations for the benchmark's checks, written apart from liegeo.

Nothing here imports liegeo.  The coordinate conventions (basis order, the
bi-invariant form -1/2 Re Tr(uv), the Cheeger operator Lambda = I + delta P)
are the documented ones, retyped from the paper's definitions, so a fault in
the program's bases, metrics, integrators or root finders cannot hide in its
own oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import scipy.linalg
import scipy.optimize

# -- bases ---------------------------------------------------------------------------


def so_matrices(n):
    """e_ij (i<j, lexicographic): -1 at (i, j), +1 at (j, i)."""
    mats = []
    for i, j in itertools.combinations(range(n), 2):
        m = np.zeros((n, n))
        m[i, j], m[j, i] = -1.0, 1.0
        mats.append(m)
    return np.array(mats)


def su_matrices(n):
    """su(n) with so(n) first: e_ij, then i(E_ij + E_ji), then i*diag(d_k)."""
    mats = list(so_matrices(n).astype(complex))
    for i, j in itertools.combinations(range(n), 2):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = m[j, i] = 1j
        mats.append(m)
    for k in range(1, n):
        d = np.zeros(n)
        d[:k], d[k] = 1.0, -float(k)
        mats.append(1j * np.diag(d * np.sqrt(2.0 / (k * (k + 1)))))
    return np.array(mats)


def coords(x, mats):
    """Coordinates of algebra matrices x (..., n, n) in an orthonormal basis."""
    return -0.5 * np.real(np.einsum("...ab,kba->...k", x, mats))


def to_matrix(c, mats):
    return np.tensordot(c, mats, axes=1)


def structure_constants(mats):
    """c[i, j, k] with [b_i, b_j] = sum_k c[i, j, k] b_k."""
    comm = np.einsum("iab,jbc->ijac", mats, mats)
    comm = comm - comm.transpose(1, 0, 2, 3)
    return coords(comm, mats)


def killing_beta(c, block):
    """beta with Tr(ad_v ad_v) = -beta |v|^2 on the span of ``block``."""
    vals = []
    for i in block:
        ad = c[i].T[np.ix_(block, block)]
        vals.append(-np.trace(ad @ ad))
    return float(np.mean(vals))


# -- Cheeger geodesics ---------------------------------------------------------------


def _expm_skew_t(x, ts):
    """exp(t x) for every t, x anti-Hermitian, via one eigendecomposition."""
    w, v = np.linalg.eigh(1j * x)
    phase = np.exp(-1j * np.outer(ts, w))
    return (v * phase[:, None, :]) @ v.conj().T


def _cheeger_generators(u, delta, m, mats):
    """Matrices of Lambda u and P u, Lambda = I + delta P, P the projection on h."""
    lam_u = np.array(u, dtype=float)
    lam_u[:m] *= 1.0 + delta
    p = np.zeros_like(lam_u)
    p[:m] = u[:m]
    return to_matrix(lam_u, mats), to_matrix(p, mats)


def cheeger_exp(u, delta, m, mats, ts):
    """gamma_u(t) = exp(t Lambda u) exp(-delta t P u) for all t in ``ts``."""
    lam_u, p = _cheeger_generators(u, delta, m, mats)
    return _expm_skew_t(lam_u, ts) @ _expm_skew_t(p, -delta * ts)


def cheeger_frame_exact(u, delta, m, mats, t):
    """The exact frame at one time, with scipy's Pade exponential."""
    lam_u, p = _cheeger_generators(u, delta, m, mats)
    return scipy.linalg.expm(t * lam_u) @ scipy.linalg.expm(-delta * t * p)


FD_STEP = 2e-6


def exp_differential(u, delta, m, mats, ts, h=FD_STEP):
    """gamma(t)^{-1} d/dv gamma_v(t) at v = u, by central differences.

    Its columns are the left-translated Jacobi fields with y(0) = 0 and
    y'(0) = e_j, i.e. the solution operator Omega(t) that the program
    integrates; it vanishes on the same conjugate times.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    dim = len(u)
    ginv = np.conj(np.swapaxes(cheeger_exp(u, delta, m, mats, ts), -1, -2))
    out = np.empty((len(ts), dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        diff = cheeger_exp(u + e, delta, m, mats, ts) - cheeger_exp(u - e, delta, m, mats, ts)
        out[:, :, j] = coords(ginv @ diff, mats) / (2.0 * h)
    return out


MULT_REL = 1e-6


def cheeger_conjugate_times(u, delta, m, mats, horizon, samples=4000):
    """Conjugate times on (0, horizon] from the finite-difference differential.

    Returns sorted (time, multiplicity, kind) with kind 'sign' for a sign
    change of the determinant (brentq) and 'touch' for a minimum of
    sigma_min that reaches zero without a sign change.  The default grid
    is the program's own (step 1e-3 on a horizon of 4), so both scans see
    the same sign pattern and the check compares what each refines.
    """
    ts = np.linspace(0.0, horizon, samples + 1)[1:]
    grid = exp_differential(u, delta, m, mats, ts)
    dets = np.linalg.det(grid)
    s = np.linalg.svd(grid, compute_uv=False)
    ratios = s[:, -1] / s[:, 0]

    def det_at(t):
        return float(np.linalg.det(exp_differential(u, delta, m, mats, [t])[0]))

    def sigma_at(t):
        s = np.linalg.svd(exp_differential(u, delta, m, mats, [t])[0], compute_uv=False)
        return float(s[-1] / s[0])

    def multiplicity(t):
        s = np.linalg.svd(exp_differential(u, delta, m, mats, [t])[0], compute_uv=False)
        return int(np.sum(s < MULT_REL * s[0]))

    found = []
    for i in np.nonzero(np.sign(dets[:-1]) != np.sign(dets[1:]))[0]:
        t = scipy.optimize.brentq(det_at, ts[i], ts[i + 1], xtol=1e-13)
        found.append((t, multiplicity(t), "sign"))
    h = ts[1] - ts[0]
    for i in range(1, len(ts) - 1):
        if ratios[i] < 1e-2 and ratios[i] <= ratios[i - 1] and ratios[i] <= ratios[i + 1]:
            if any(abs(ts[i] - t) < 3 * h for t, _, _ in found):
                continue
            res = scipy.optimize.minimize_scalar(
                sigma_at, bounds=(ts[i - 1], ts[i + 1]), method="bounded",
                options={"xatol": 1e-12},
            )
            if res.fun < MULT_REL:
                found.append((float(res.x), multiplicity(res.x), "touch"))
    return sorted(found)


# -- Berger sphere closed form -------------------------------------------------------


def berger_R(delta, p, q):
    return np.sqrt((1.0 + delta) ** 2 * p**2 + q**2)


def berger_factor(t, delta, p, q):
    """-delta q^2 R t cos(Rt) + (1+delta) S sin(Rt), with S = (1+delta) p^2 + q^2."""
    r = berger_R(delta, p, q)
    s = (1.0 + delta) * p**2 + q**2
    return -delta * q**2 * r * t * np.cos(r * t) + (1.0 + delta) * s * np.sin(r * t)


def berger_det(t, delta, p, q):
    """The closed-form determinant sin(Rt) times ``berger_factor``."""
    return np.sin(berger_R(delta, p, q) * t) * berger_factor(t, delta, p, q)


def berger_roots(delta, p, q, horizon, samples=20000):
    """Zeros of the closed-form determinant on (0, horizon], with multiplicity.

    The determinant is sin(Rt) g(t): the sine gives k pi / R, the second
    factor g is bracketed on a grid and solved with brentq; coinciding
    zeros add their multiplicities (delta = 0 gives double zeros).
    """
    r = berger_R(delta, p, q)

    def g(t):
        return berger_factor(t, delta, p, q)

    roots = [k * np.pi / r for k in range(1, int(horizon * r / np.pi) + 1)]
    ts = np.linspace(0.0, horizon, samples + 1)[1:]
    vals = g(ts)
    for i in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]:
        roots.append(scipy.optimize.brentq(g, ts[i], ts[i + 1], xtol=1e-14))
    roots.sort()
    merged = []
    for t in roots:
        if merged and abs(t - merged[-1][0]) < 1e-9:
            merged[-1] = (merged[-1][0], merged[-1][1] + 1)
        else:
            merged.append((t, 1))
    return merged


def berger_first_times(delta, theta):
    """First conjugate time per angle, unit momentum |Lambda u0| = 1.

    |p0| = |cos theta| / (1+delta), |q0| = |sin theta|.  On the subgroup
    axis (q0 = 0) it is pi / ((1+delta)|p0|); for delta >= 0 it is pi/R;
    for delta < 0 the second factor changes sign once in (pi/2R, pi/R) and
    is positive before, so its root there, found by bisection, comes first.
    """
    theta = np.asarray(theta, dtype=float)
    p = np.abs(np.cos(theta)) / (1.0 + delta)
    q = np.abs(np.sin(theta))
    p = np.where(p < 1e-12, 0.0, p)
    q = np.where(q < 1e-12, 0.0, q)
    r = berger_R(delta, p, q)
    out = np.pi / r
    if delta < 0:
        lo, hi = np.pi / (2.0 * r), np.pi / r
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            g = berger_factor(mid, delta, p, q)
            lo, hi = np.where(g > 0, mid, lo), np.where(g > 0, hi, mid)
        out = np.where(q > 0, 0.5 * (lo + hi), out)
    return np.where(q > 0, out, np.pi / ((1.0 + delta) * np.where(p > 0, p, 1.0)))


# -- rigid bodies on so(n) -----------------------------------------------------------


def rigid_ricci(mu):
    """Ric(e_ij, e_ij) = sum_{k != i,j} (l_ij - l_ik + l_jk)(l_ij + l_ik - l_jk) / (2 l_ik l_jk)."""
    mu = np.asarray(mu, dtype=float)
    n = len(mu)

    def lam(i, j):
        return 0.5 * (mu[i] + mu[j])

    out = []
    for i, j in itertools.combinations(range(n), 2):
        out.append(
            sum(
                (lam(i, j) - lam(i, k) + lam(j, k)) * (lam(i, j) + lam(i, k) - lam(j, k))
                / (2.0 * lam(i, k) * lam(j, k))
                for k in range(n)
                if k not in (i, j)
            )
        )
    return np.array(out)


def _block_function(eps, gamma, lam, d):
    """sin(eps t) c(t) - eps (gamma - lam)/gamma s(t) cos(eps t), e^{tF} = cI + sF."""
    a = eps * (gamma - lam) / gamma
    if d > 0:
        r = np.sqrt(d)
        return lambda t: np.sin(eps * t) * np.cos(r * t) - a * np.sin(r * t) / r * np.cos(eps * t)
    if d < 0:
        r = np.sqrt(-d)
        return lambda t: np.sin(eps * t) * np.cosh(r * t) - a * np.sinh(r * t) / r * np.cos(eps * t)
    return lambda t: np.sin(eps * t) - a * t * np.cos(eps * t)


def _zeros(fn, horizon, samples=40000):
    ts = np.linspace(0.0, horizon, samples + 1)[1:]
    vals = fn(ts)
    return [
        scipy.optimize.brentq(fn, ts[i], ts[i + 1], xtol=1e-14)
        for i in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    ]


def rigid_steady_zeros(mu, i, j, horizon):
    """Zeros in tau of the block functions of the steady rotation about e_ij.

    Lambda e_ij = lam e_ij with lam = (mu_i + mu_j)/2.  For each k not in
    {i, j}, ad_{e_ij} turns the plane (e_ik, e_jk) with eps = 1, and the
    block's pair of functions uses alpha = lam_ik and beta = lam_jk.
    Returns (blocks, zeros): per block the sorted pair of first zeros (None
    past the search window), and all zeros on (0, horizon] as sorted
    (tau, multiplicity).
    """
    mu = np.asarray(mu, dtype=float)
    lam = 0.5 * (mu[i] + mu[j])
    blocks, all_zeros = [], []
    for k in range(len(mu)):
        if k in (i, j):
            continue
        alpha, beta = 0.5 * (mu[i] + mu[k]), 0.5 * (mu[j] + mu[k])
        d = (beta - lam) * (alpha - lam) / (alpha * beta)
        # the theorem puts a zero within three windows of the slower rotation
        window = 2 * np.pi if d == 0 else max(2 * np.pi, 2 * np.pi / np.sqrt(abs(d)))
        firsts = []
        for gamma in (alpha, beta):
            fn = _block_function(1.0, gamma, lam, d)
            zs = _zeros(fn, max(3.0 * window, horizon))
            firsts.append(zs[0] if zs else None)
            all_zeros.extend(z for z in zs if z <= horizon)
        blocks.append(tuple(sorted(firsts, key=lambda z: np.inf if z is None else z)))
    all_zeros.sort()
    merged = []
    for z in all_zeros:
        if merged and abs(z - merged[-1][0]) < 1e-9:
            merged[-1] = (merged[-1][0], merged[-1][1] + 1)
        else:
            merged.append((z, 1))
    return blocks, merged


def rigid_misiolek_value(mu, i, j, v):
    """g(ad_v u0 + ad*_v u0, ad_v u0) for u0 = e_ij, with matrices."""
    n = len(mu)
    mats = so_matrices(n)
    pairs = list(itertools.combinations(range(n), 2))
    lam = np.array([0.5 * (mu[a] + mu[b]) for a, b in pairs])
    u0 = np.zeros(len(pairs))
    u0[pairs.index((i, j))] = 1.0
    vm = to_matrix(v, mats)
    ad_v_u0 = coords(vm @ to_matrix(u0, mats) - to_matrix(u0, mats) @ vm, mats)
    lu0 = to_matrix(lam * u0, mats)
    ad_star = -coords(vm @ lu0 - lu0 @ vm, mats) / lam
    return float((ad_v_u0 + ad_star) @ (lam * ad_v_u0))


# -- Cheeger block-Einstein constants ------------------------------------------------


def block_einstein(n, delta):
    """(beta_G, beta_H, C1, C2) for the Cheeger metric on su(n) along so(n).

    C1 = ((1+d)^2 beta_G - d(2+d) beta_H)/4 on h, C2 = (1-d) beta_G/4 on h-perp.
    """
    c = structure_constants(su_matrices(n))
    m = n * (n - 1) // 2
    beta_g = killing_beta(c, list(range(len(c))))
    beta_h = killing_beta(c, list(range(m)))
    c1 = ((1 + delta) ** 2 * beta_g - delta * (2 + delta) * beta_h) / 4.0
    c2 = (1 - delta) * beta_g / 4.0
    return beta_g, beta_h, c1, c2


# -- run configuration ---------------------------------------------------------------


def config_hash(cfg):
    """16-hex sha256 prefix of the compact, key-sorted JSON of a config."""
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
