"""Matrix Lie algebra foundations: bases, brackets, bi-invariant forms, adjoints.

Every object in the package lives on a :class:`StructuredBasis`, which caches
the structure constants and (optionally) an orthogonal subalgebra split.  The
basis is orthonormal for the bi-invariant form, checked once when it is built,
so that form is the dot product of coordinates.  Coordinate vectors are always
real, also for su(n), whose basis matrices are complex.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np
import scipy.linalg

from .errors import BasisMismatchError, InvalidDimensionError, UnsupportedSplitError

log = logging.getLogger(__name__)

ALGEBRA_TOL = 1e-12  # algebraic identities (orthonormality, Jacobi, ad-invariance)
# Largest basis built, checked before any allocation: so(16) and su(11) (dim 120)
# build in ~4 s at a peak RSS of 235 and 285 MB (2 vCPUs); so(40) (dim 780)
# would need ~76 GB in one _forms contraction.
MAX_BASIS_DIM = 120


def matrix_form(u, v):
    """Bi-invariant pairing -1/2 Tr(uv) of two anti-Hermitian matrices.

    Equals 1/2 Tr(u v^T) on real antisymmetric matrices.
    """
    return float(np.real(-0.5 * np.trace(u @ v)))


def _forms(a, b):
    """matrix_form of each matrix of a (..., n, n) stack with each of b (k, n, n).

    Returns (..., k).  The diagonal of a @ b is summed as np.trace sums it,
    so on builder bases (at most one nonzero per column of every b) each
    entry has the bits of matrix_form.
    """
    diag = np.einsum("...ij,kji->...ki", a, b)
    return -0.5 * np.real(diag.sum(axis=-1))


def _check_dim(name, dim):
    if dim > MAX_BASIS_DIM:
        raise InvalidDimensionError(f"{name}: dim {dim} exceeds the largest basis, {MAX_BASIS_DIM}")


class StructuredBasis:
    """Ordered basis of a matrix Lie algebra with cached structure data.

    Attributes:
        name: human-readable group name, e.g. ``"so(3)"``.
        dim: number of basis elements.
        matrix_size: size of the square basis matrices.
        basis_matrices: (dim, n, n) array, real or complex.
        labels: one short label per basis element (``e12``, ``s13``, ``d2``).
        structure_constants: c[i, j, k] with [b_i, b_j] = sum_k c[i,j,k] b_k.
        subalgebra_dim: m > 0 when the first m elements span a subalgebra h
            and the rest span its orthogonal complement; 0 means no split.

    The matrices must be orthonormal for the bi-invariant form, so coordinates
    are pairings with the basis and the form is their dot product.  A Gram more
    than ALGEBRA_TOL from I, or dim > MAX_BASIS_DIM, raises InvalidDimensionError.
    """

    def __init__(self, name, matrices, labels, subalgebra_dim=0):
        mats = np.asarray(matrices)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise InvalidDimensionError("basis matrices must be square and stacked")
        _check_dim(name, mats.shape[0])
        self.name = name
        self.dim = mats.shape[0]
        self.matrix_size = mats.shape[1]
        self.basis_matrices = mats
        self.labels = list(labels)
        self.subalgebra_dim = int(subalgebra_dim)

        self._orthonormality = float(np.abs(_forms(mats, mats) - np.eye(self.dim)).max())
        self.structure_constants = self._compute_structure_constants()
        self.structure_constants.setflags(write=False)
        self.basis_matrices.setflags(write=False)
        self._validate()

    # -- construction helpers -------------------------------------------------

    def _compute_structure_constants(self):
        # all commutators [b_i, b_j], i < j, at once; c[j, i] = -c[i, j]
        mats = self.basis_matrices
        i, j = np.triu_indices(self.dim, 1)
        bi, bj = mats[i], mats[j]
        coeff = _forms(bi @ bj - bj @ bi, mats)
        c = np.zeros((self.dim, self.dim, self.dim))
        c[i, j] = coeff
        c[j, i] = -coeff
        return c

    def identity_residuals(self):
        """Max residuals of the basis and Lie identities.

        Keys: ``orthonormality`` (max |G - I| of the bi-invariant Gram G, as
        measured at build), ``jacobi-identity``, ``ad-invariance`` of the
        bi-invariant form (<[u,v],w> + <v,[u,w]> = 0 on basis triples) and,
        with a split, ``split [h,h] in h`` and ``split [h,hp] in hp``.
        """
        c = self.structure_constants
        d = self.dim
        rows, cols = c.reshape(d, d * d), c.reshape(d * d, d)
        # cyclic sum [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j], one
        # (dim, dim, dim) block per i: no dim^4 array
        jac = 0.0
        for i in range(d):
            block = (
                (c[i] @ rows).reshape(d, d, d)
                + (cols @ c[:, i, :]).reshape(d, d, d)
                + (c[:, i, :] @ rows).reshape(d, d, d).transpose(1, 0, 2)
            )
            jac = max(jac, float(np.abs(block).max()))
        out = {
            "orthonormality": self._orthonormality,
            "jacobi-identity": jac,
            "ad-invariance": float(np.abs(c + c.transpose(0, 2, 1)).max()),
        }
        m = self.subalgebra_dim
        if m:
            out["split [h,h] in h"] = float(np.abs(c[:m, :m, m:]).max())
            out["split [h,hp] in hp"] = float(np.abs(c[:m, m:, :m]).max())
        return out

    def _validate(self):
        # the Jacobi bound scales with dim and the size of c, ad-invariance with dim
        tol = ALGEBRA_TOL * self.dim
        bounds = {
            "jacobi-identity": tol * max(1.0, np.abs(self.structure_constants).max()),
            "ad-invariance": tol,
        }
        for name, residual in self.identity_residuals().items():
            if residual > bounds.get(name, ALGEBRA_TOL):
                raise InvalidDimensionError(f"{self.name}: {name} residual {residual:.2e}")

    # -- element factories -----------------------------------------------------

    def element(self, coords):
        return AlgebraElement(self, coords)

    def zero(self):
        return AlgebraElement(self, np.zeros(self.dim))

    def basis_element(self, index):
        coords = np.zeros(self.dim)
        coords[index] = 1.0
        return AlgebraElement(self, coords)

    def element_by_label(self, label):
        try:
            return self.basis_element(self.labels.index(label))
        except ValueError:
            raise KeyError(f"no basis element labeled {label!r} in {self.name}")

    def coords_of(self, matrix):
        """Coordinates of an algebra-valued matrix, or of each of a (..., n, n) stack."""
        return _forms(matrix, self.basis_matrices)

    def require_same(self, other):
        if self is not other:
            raise BasisMismatchError(
                f"elements on different bases: {self.name} vs {other.name}"
            )

    def __repr__(self):
        split = f", h-dim {self.subalgebra_dim}" if self.subalgebra_dim else ""
        return f"StructuredBasis({self.name}, dim {self.dim}{split})"


class AlgebraElement:
    """Real coordinate vector relative to a StructuredBasis."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis, coords):
        coords = np.array(coords, dtype=float)
        if coords.shape != (basis.dim,):
            raise BasisMismatchError(
                f"expected {basis.dim} coordinates, got shape {coords.shape}"
            )
        coords.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def matrix(self):
        return np.tensordot(self.coords, self.basis.basis_matrices, axes=1)

    def __add__(self, other):
        self.basis.require_same(other.basis)
        return AlgebraElement(self.basis, self.coords + other.coords)

    def __sub__(self, other):
        self.basis.require_same(other.basis)
        return AlgebraElement(self.basis, self.coords - other.coords)

    def __mul__(self, scalar):
        return AlgebraElement(self.basis, self.coords * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement(self.basis, -self.coords)

    def norm_biinv(self):
        return float(np.sqrt(self.coords @ self.coords))

    def __repr__(self):
        return f"AlgebraElement({self.basis.name}, {self.coords})"


class GroupElement:
    """Group matrix of the same shape as the basis matrices."""

    __slots__ = ("basis", "matrix")

    def __init__(self, basis, matrix):
        matrix = np.asarray(matrix)
        if matrix.shape != (basis.matrix_size, basis.matrix_size):
            raise BasisMismatchError("group matrix has wrong shape for basis")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def inverse(self):
        # all groups built here are real-orthogonal or unitary
        return GroupElement(self.basis, self.matrix.conj().T)

    def __matmul__(self, other):
        self.basis.require_same(other.basis)
        return GroupElement(self.basis, self.matrix @ other.matrix)

    def unitary_defect(self):
        n = self.basis.matrix_size
        return float(
            np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(n))
        )

    def __repr__(self):
        return f"GroupElement({self.basis.name})"


# -- basis builders -------------------------------------------------------------


def build_so_basis(n):
    """Orthonormal basis e_ij (i<j, lexicographic) of so(n).

    e_ij has -1 at (i,j) and +1 at (j,i); the bi-invariant form 1/2 Tr(uv^T)
    makes this basis orthonormal.
    """
    if n < 2:
        raise InvalidDimensionError(f"so(n) needs n >= 2, got {n}")
    _check_dim(f"so({n})", n * (n - 1) // 2)
    mats, labels, pairs = [], [], []
    for i, j in itertools.combinations(range(n), 2):
        m = np.zeros((n, n))
        m[i, j] = -1.0
        m[j, i] = 1.0
        mats.append(m)
        labels.append(f"e{i + 1}{j + 1}")
        pairs.append((i, j))
    basis = StructuredBasis(f"so({n})", mats, labels)
    basis.pairs = pairs
    return basis


def build_su_basis(n, embed_so_subalgebra=False):
    """Orthonormal basis of su(n) in the form -1/2 Tr(uv).

    With ``embed_so_subalgebra`` the first n(n-1)/2 elements are the real
    antisymmetric e_ij spanning so(n), followed by i*(symmetric traceless)
    matrices spanning the orthogonal complement.
    """
    if n < 2:
        raise InvalidDimensionError(f"su(n) needs n >= 2, got {n}")
    _check_dim(f"su({n})", n * n - 1)
    mats, labels, pairs = [], [], []
    for i, j in itertools.combinations(range(n), 2):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = -1.0
        m[j, i] = 1.0
        mats.append(m)
        labels.append(f"e{i + 1}{j + 1}")
        pairs.append((i, j))
    for i, j in itertools.combinations(range(n), 2):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1j
        m[j, i] = 1j
        mats.append(m)
        labels.append(f"s{i + 1}{j + 1}")
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        d *= np.sqrt(2.0 / (k * (k + 1)))
        mats.append(1j * np.diag(d).astype(complex))
        labels.append(f"d{k}")
    m_h = n * (n - 1) // 2 if embed_so_subalgebra else 0
    name = f"su({n})/so({n})" if embed_so_subalgebra else f"su({n})"
    basis = StructuredBasis(name, mats, labels, subalgebra_dim=m_h)
    basis.pairs = pairs
    return basis


def build_torus_basis(k=2):
    """Abelian surrogate so(2) + ... + so(2): k commuting rotation generators."""
    if k < 1:
        raise InvalidDimensionError(f"torus surrogate needs k >= 1, got {k}")
    _check_dim(f"torus({k})", k)
    mats, labels = [], []
    for b in range(k):
        m = np.zeros((2 * k, 2 * k))
        m[2 * b, 2 * b + 1] = -1.0
        m[2 * b + 1, 2 * b] = 1.0
        mats.append(m)
        labels.append(f"t{b + 1}")
    return StructuredBasis(f"torus({k})", mats, labels)


# -- operations -------------------------------------------------------------------


def bracket(x, y):
    """Lie bracket via the cached structure constants."""
    x.basis.require_same(y.basis)
    c = x.basis.structure_constants
    return AlgebraElement(x.basis, np.einsum("i,j,ijk->k", x.coords, y.coords, c))


def biinv_form(x, y):
    x.basis.require_same(y.basis)
    return float(x.coords @ y.coords)


def project_h(x):
    """Orthogonal projection P onto the subalgebra h (coordinate slice)."""
    m = x.basis.subalgebra_dim
    if not m:
        raise UnsupportedSplitError(f"{x.basis.name} has no subalgebra split")
    coords = np.zeros_like(x.coords)
    coords[:m] = x.coords[:m]
    return AlgebraElement(x.basis, coords)


def project_h_perp(x):
    """Complementary projection Q = I - P onto h-perp."""
    m = x.basis.subalgebra_dim
    if not m:
        raise UnsupportedSplitError(f"{x.basis.name} has no subalgebra split")
    coords = np.zeros_like(x.coords)
    coords[m:] = x.coords[m:]
    return AlgebraElement(x.basis, coords)


def ad_matrix(x):
    """Matrix of ad_x acting on coordinates: columns are bracket(x, b_j)."""
    return ad_matrix_raw(x.basis, x.coords)


def ad_matrix_raw(basis, coords):
    """Matrix of ad_u on coordinates; a (..., dim) stack gives (..., dim, dim)."""
    return np.einsum("...i,ijk->...kj", coords, basis.structure_constants)


def _is_skew_hermitian(m, tol=1e-12):
    scale = max(1.0, np.abs(m).max())
    return np.abs(m + m.conj().T).max() <= tol * scale


def expm_skew(m):
    """exp of a skew-Hermitian/skew-symmetric matrix by eigendecomposition.

    Falls back to scipy's scaling-and-squaring (Pade 13) for general input.
    """
    if _is_skew_hermitian(m):
        w, v = np.linalg.eigh(1j * np.asarray(m, dtype=complex))
        out = (v * np.exp(-1j * w)) @ v.conj().T
        if np.isrealobj(m):
            return out.real.copy()
        return out
    log.debug("expm_skew: input not skew-Hermitian, using scaling-and-squaring")
    return scipy.linalg.expm(m)


def group_exp(x, t=1.0):
    """Group exponential exp(t x) as a GroupElement."""
    return GroupElement(x.basis, expm_skew(float(t) * x.matrix()))


def Ad_matrix(g):
    """Matrix of Ad_g on coordinates: columns are coords of g b_j g^{-1}."""
    ginv = g.matrix.conj().T
    return g.basis.coords_of(g.matrix @ g.basis.basis_matrices @ ginv).T
