"""Sectional and Ricci curvature: numeric formulas and closed forms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ad_matrix_raw, project_h, project_h_perp
from .errors import ConfigError, CriterionInapplicableError, UnsupportedSplitError

RICCI_DIAG_TOL = 1e-10
CARTAN_TOL = 1e-12    # cartan_condition_check: max |c| outside h
KILLING_TOL = 1e-9    # beta_constants: relative spread of the per-vector values


def _raw(m, x):
    m.basis.require_same(x.basis)
    return x.coords


def sectional_numerator(m, u, v):
    """g(R(u,v)v,u) = 1/4 ||ad*_u v + ad*_v u + ad_u v||^2
    - g(ad*_u v + ad_u v, ad_u v) - g(ad*_u u, ad*_v v)."""
    uc, vc = _raw(m, u), _raw(m, v)
    return sectional_numerator_raw(m, uc, vc)


def sectional_numerator_raw(m, u, v):
    c = m.basis.structure_constants
    ad_uv = np.einsum("i,j,ijk->k", u, v, c)
    as_uv = m.ad_star_raw(u, v)
    as_vu = m.ad_star_raw(v, u)
    w = as_uv + as_vu + ad_uv
    return (
        0.25 * m.inner_raw(w, w)
        - m.inner_raw(as_uv + ad_uv, ad_uv)
        - m.inner_raw(m.ad_star_raw(u, u), m.ad_star_raw(v, v))
    )


def sectional_numerator_arnold(m, u, v):
    """Arnold's four-term curvature formula; independent cross-check."""
    uc, vc = _raw(m, u), _raw(m, v)
    c = m.basis.structure_constants
    ad_uv = np.einsum("i,j,ijk->k", uc, vc, c)
    as_uv = m.ad_star_raw(uc, vc)
    as_vu = m.ad_star_raw(vc, uc)
    s = as_uv + as_vu
    return (
        0.25 * m.inner_raw(s, s)
        - m.inner_raw(m.ad_star_raw(uc, uc), m.ad_star_raw(vc, vc))
        - 0.75 * m.inner_raw(ad_uv, ad_uv)
        + 0.5 * m.inner_raw(ad_uv, as_vu - as_uv)
    )


def _g_orthonormal_frame(m):
    """Columns of a g-orthonormal frame in basis coordinates."""
    # Cholesky-based Gram-Schmidt of the coordinate basis
    return np.linalg.inv(np.linalg.cholesky(m.matrix)).T


def ricci_numeric(m, u):
    """Ric(u,u) as a sum of sectional numerators over a g-orthonormal frame."""
    uc = _raw(m, u)
    frame = _g_orthonormal_frame(m)
    return float(
        sum(sectional_numerator_raw(m, frame[:, k], uc) for k in range(frame.shape[1]))
    )


@dataclass
class RicciResult:
    matrix: np.ndarray
    diagonality_residual: float

    def diagonal(self):
        return np.diag(self.matrix)


def ricci_matrix(m):
    """Ric(b_i, b_j) in closed form: the sectional sum of ricci_numeric,
    sum_k g(R(e_k,v)v, e_k) over a g-orthonormal frame, as one quadratic form.

    With A_k = ad_{e_k}, S_k = ad*_{e_k}, W_k = S_k + ad*_(.) e_k + A_k and the
    metric Gram Lambda, Ric = sum_k 1/4 W_k^T Lambda W_k - (S_k + A_k)^T Lambda A_k.  The
    sectional term g(ad*_u u, ad*_v v) sums to zero over the frame, since ad
    is traceless on a unimodular group.  Milnor's formula (Besse 7.38) is not
    used: on a Cheeger metric two of its terms grow like 1/(1+delta) and
    cancel, where here they cancel exactly inside W_k.
    """
    basis = m.basis
    frame = _g_orthonormal_frame(m).T
    lam = m.matrix
    ad_e = ad_matrix_raw(basis, frame)
    ad_star_e = m.ad_star_matrix_of(frame)
    w = ad_star_e + m.coad_force_matrix(frame) + ad_e
    ric = (
        0.25 * np.einsum("kia,ij,kjb->ab", w, lam, w, optimize=True)
        - np.einsum("kia,ij,kjb->ab", ad_star_e + ad_e, lam, ad_e, optimize=True)
    )
    ric = 0.5 * (ric + ric.T)
    off = ric - np.diag(np.diag(ric))
    return RicciResult(matrix=ric, diagonality_residual=float(np.abs(off).max()))


def ricci_rigid_closed_form(n, lam=None, mu=None):
    """Diagonal Ricci values of a diagonal metric on so(n), lexicographic order.

    Ric(e_ij, e_ij) = sum_{k != i,j} (l_ij - l_ik + l_jk)(l_ij + l_ik - l_jk)
                                      / (2 l_ik l_jk).

    Pass either the full lambda vector (length n(n-1)/2, lex order) or the
    rigid-body moments mu (length n), which set l_ij = (mu_i + mu_j)/2.
    """
    if (lam is None) == (mu is None):
        raise ConfigError("pass exactly one of lam or mu")
    if mu is not None:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (n,) or np.any(mu <= 0):
            raise ConfigError("mu must be n positive moments")
        lam_of = lambda i, j: 0.5 * (mu[i] + mu[j])
    else:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (n * (n - 1) // 2,) or np.any(lam <= 0):
            raise ConfigError("lam must be n(n-1)/2 positive values")
        index = {}
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                index[(i, j)] = k
                k += 1
        lam_of = lambda i, j: lam[index[(min(i, j), max(i, j))]]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            val = 0.0
            for k in range(n):
                if k in (i, j):
                    continue
                lij, lik, ljk = lam_of(i, j), lam_of(i, k), lam_of(j, k)
                val += (lij - lik + ljk) * (lij + lik - ljk) / (2.0 * lik * ljk)
            out.append(val)
    return np.array(out)


def cartan_condition_check(basis):
    """Whether [h-perp, h-perp] lands inside h."""
    m = basis.subalgebra_dim
    if not m:
        raise UnsupportedSplitError(f"{basis.name} has no subalgebra split")
    c = basis.structure_constants
    return float(np.abs(c[m:, m:, m:]).max()) < CARTAN_TOL


def cheeger_sectional(m, u, v):
    """Closed-form g(R(u,v)v,u) for a Cheeger metric and u in h or h-perp.

    Uses the two-term formulas when the Cartan condition holds; for u in
    h-perp without it, falls back to the projected variant.  Mixed u is not
    supported in closed form; use sectional_numerator instead.
    """
    if m.variant != "cheeger":
        raise UnsupportedSplitError("closed-form sectional needs a Cheeger metric")
    basis = m.basis
    basis.require_same(u.basis)
    basis.require_same(v.basis)
    delta = m.delta
    split = basis.subalgebra_dim
    uc, vc = u.coords, v.coords
    nrm_h = float(np.linalg.norm(uc[split:]))
    nrm_p = float(np.linalg.norm(uc[:split]))
    scale = max(np.linalg.norm(uc), 1e-300)
    adu = ad_matrix_raw(basis, uc)
    pv, qv = project_h(v).coords, project_h_perp(v).coords
    if nrm_h < 1e-14 * scale:  # u purely in h
        return float(
            (1 + delta) / 4.0 * (adu @ pv) @ (adu @ pv)
            + (1 + delta) ** 2 / 4.0 * (adu @ qv) @ (adu @ qv)
        )
    if nrm_p < 1e-14 * scale:  # u purely in h-perp
        if cartan_condition_check(basis):
            return float(
                (1 + delta) ** 2 / 4.0 * (adu @ pv) @ (adu @ pv)
                + (1 - 3 * delta) / 4.0 * (adu @ qv) @ (adu @ qv)
            )
        ad_qv = adu @ qv
        ad_lv = adu @ m.apply_raw(vc)
        p_ad_qv = np.concatenate([ad_qv[:split], np.zeros(basis.dim - split)])
        q_ad_lv = np.concatenate([np.zeros(split), ad_lv[split:]])
        return float(
            (1 - 3 * delta) / 4.0 * p_ad_qv @ p_ad_qv + 0.25 * q_ad_lv @ q_ad_lv
        )
    raise UnsupportedSplitError(
        "u mixes h and h-perp; no closed form (use sectional_numerator)"
    )


def beta_constants(basis):
    """(beta_G, beta_H) with Tr(ad_v ad_v) = -beta |v|^2, computed numerically.

    beta_G uses the full algebra; beta_H restricts to the subalgebra block
    (0.0 when the basis has no split or h is abelian).  Raises if the
    per-basis-vector values are inconsistent (non-simple algebra).
    """
    c = basis.structure_constants
    dim = basis.dim

    def beta_on(block):
        vals = []
        for i in block:
            ad_i = c[i].T  # (ad_{b_i})_{kj} = c[i, j, k]
            sub = ad_i[np.ix_(block, block)]
            vals.append(-np.trace(sub @ sub))
        vals = np.array(vals)
        if np.ptp(vals) > KILLING_TOL * max(1.0, np.abs(vals).max()):
            raise ConfigError(
                f"inconsistent Killing constant across basis vectors: {vals}"
            )
        return float(vals.mean())

    beta_g = beta_on(list(range(dim)))
    m = basis.subalgebra_dim
    beta_h = beta_on(list(range(m))) if m else 0.0
    return beta_g, beta_h


def block_einstein_constants(beta_g, beta_h, delta):
    """(C1, C2) for the block-Einstein Ricci of a Cheeger metric:
    C1 = ((1+d)^2 beta_G - d(2+d) beta_H)/4, C2 = (1-d) beta_G / 4."""
    c1 = ((1 + delta) ** 2 * beta_g - delta * (2 + delta) * beta_h) / 4.0
    c2 = (1 - delta) * beta_g / 4.0
    return c1, c2


def block_einstein_report(m, ric=None):
    """Compare the numeric Ricci with the block constants; JSON-able dict.

    The blocks are measured in the bi-invariant form: Ric(v,v) =
    C1 |P v|^2 + C2 |Q v|^2.  Pass the RicciResult of m as ``ric`` when it
    is already at hand; otherwise it is computed here.
    """
    basis = m.basis
    if m.variant != "cheeger":
        raise UnsupportedSplitError("block-Einstein report needs a Cheeger metric")
    beta_g, beta_h = beta_constants(basis)
    c1, c2 = block_einstein_constants(beta_g, beta_h, m.delta)
    if ric is None:
        ric = ricci_matrix(m)
    split = basis.subalgebra_dim
    expected = np.diag(
        np.concatenate([np.full(split, c1), np.full(basis.dim - split, c2)])
    )
    residual = float(np.abs(ric.matrix - expected).max())
    return {
        "C1": c1,
        "C2": c2,
        "beta_G": beta_g,
        "beta_H": beta_h,
        "delta": m.delta,
        "residual": residual,
    }


# -- Misiolek criterion ----------------------------------------------------------


def misiolek_value(m, u0, v):
    """g(ad_v u0 + ad*_v u0, ad_v u0); negative for some v implies conjugate
    points along the steady geodesic generated by u0."""
    if not m.is_steady(u0):
        raise CriterionInapplicableError("Misiolek criterion needs a steady u0")
    u, w = _raw(m, u0), _raw(m, v)
    c = m.basis.structure_constants
    ad_vu = np.einsum("i,j,ijk->k", w, u, c)
    return float(m.inner_raw(ad_vu + m.ad_star_raw(w, u), ad_vu))


@dataclass
class MisiolekScanResult:
    minimum: float
    argmin: np.ndarray
    detected: bool
    n_evaluated: int

    def verdict(self):
        return "conjugate-point-detected" if self.detected else "not detected"


def misiolek_scan(m, u0, n_random=200, seed=0):
    """Scan basis vectors plus random unit directions for a negative value.

    Absence of a negative value on the grid means "not detected", never a
    claim that conjugate points are absent (the criterion is sufficient-only).
    """
    if not m.is_steady(u0):
        raise CriterionInapplicableError("Misiolek criterion needs a steady u0")
    rng = np.random.default_rng(seed)
    dim = m.basis.dim
    best, best_v = np.inf, None
    count = 0
    for i in range(dim):
        v = m.basis.basis_element(i)
        val = misiolek_value(m, u0, v)
        count += 1
        if val < best:
            best, best_v = val, v.coords
    for _ in range(n_random):
        coords = rng.standard_normal(dim)
        coords /= np.linalg.norm(coords)
        val = misiolek_value(m, u0, m.basis.element(coords))
        count += 1
        if val < best:
            best, best_v = val, coords
    return MisiolekScanResult(
        minimum=float(best),
        argmin=np.asarray(best_v),
        detected=bool(best < 0.0),
        n_evaluated=count,
    )
