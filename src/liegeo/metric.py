"""Left-invariant metric operators g(u,v) = <u, Lambda v> and their adjoints."""

from __future__ import annotations

import numpy as np

from .algebra import Ad_matrix, AlgebraElement, ad_matrix_raw
from .errors import MetricConstructionError, UnsupportedSplitError

SYMMETRY_TOL = 1e-10


class MetricOperator:
    """Symmetric positive-definite Lambda defining a left-invariant metric.

    Construct through one of the classmethods:

    * :meth:`rigid_body` -- diagonal on so(n) with lambda_ij = (mu_i + mu_j)/2,
    * :meth:`diagonal` -- arbitrary positive diagonal in the basis,
    * :meth:`cheeger` -- Lambda = I + delta P along a subalgebra split,
    * :meth:`generic` -- any symmetric positive-definite matrix.

    Coordinates are orthonormal for the bi-invariant form: Lambda is the Gram of g.

    Diagonal variants keep their eigenvalue vector for closed-form work; the
    dense matrix is materialized on demand for determinant/Sylvester work.
    """

    def __init__(self, basis, variant, diag=None, dense=None, mu=None, delta=None):
        self.basis = basis
        self.variant = variant
        self.mu = None if mu is None else np.array(mu, dtype=float)
        self.delta = delta
        if diag is not None:
            diag = np.array(diag, dtype=float)
            if diag.shape != (basis.dim,) or np.any(diag <= 0):
                raise MetricConstructionError("diagonal of Lambda must be positive")
            diag.setflags(write=False)
            self._diag = diag
            self._matrix = None
        else:
            self._diag = None
            self._matrix = np.array(dense, dtype=float)
            self._matrix.setflags(write=False)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def rigid_body(cls, basis, mu):
        """Kinetic-energy metric of a rigid body with inertia moments mu."""
        mu = np.asarray(mu, dtype=float)
        pairs = getattr(basis, "pairs", None)
        if pairs is None or len(pairs) != basis.dim:
            raise MetricConstructionError("rigid body metric needs an so(n) basis")
        if mu.shape != (basis.matrix_size,) or np.any(mu <= 0):
            raise MetricConstructionError("moments of inertia must be positive")
        diag = np.array([(mu[i] + mu[j]) / 2.0 for i, j in pairs])
        return cls(basis, "rigid-body", diag=diag, mu=mu)

    @classmethod
    def diagonal(cls, basis, lam):
        """Diagonal quadratic metric; no rigid-body triangle condition imposed."""
        return cls(basis, "diagonal", diag=lam)

    @classmethod
    def cheeger(cls, basis, delta):
        """Cheeger deformation Lambda = I + delta P along the basis split."""
        if not basis.subalgebra_dim:
            raise UnsupportedSplitError(
                f"{basis.name} has no subalgebra split for a Cheeger metric"
            )
        delta = float(delta)
        if delta <= -1.0:
            raise MetricConstructionError("Cheeger deformation needs delta > -1")
        diag = np.ones(basis.dim)
        diag[: basis.subalgebra_dim] = 1.0 + delta
        return cls(basis, "cheeger", diag=diag, delta=delta)

    @classmethod
    def biinvariant(cls, basis):
        return cls(basis, "diagonal", diag=np.ones(basis.dim))

    @classmethod
    def generic(cls, basis, matrix):
        """Dense Lambda, symmetric to SYMMETRY_TOL (stored symmetrized) and positive-definite."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (basis.dim, basis.dim):
            raise MetricConstructionError("Lambda matrix has wrong shape")
        if np.abs(matrix - matrix.T).max() > SYMMETRY_TOL * max(1.0, np.abs(matrix).max()):
            raise MetricConstructionError("Lambda is not symmetric")
        matrix = (matrix + matrix.T) / 2.0
        if np.any(np.linalg.eigvalsh(matrix) <= 0):
            raise MetricConstructionError("Lambda must be positive-definite")
        return cls(basis, "generic", dense=matrix)

    # -- core linear algebra on raw coordinate arrays --------------------------

    @property
    def diag(self):
        return self._diag

    @property
    def matrix(self):
        if self._matrix is None:
            return np.diag(self._diag)
        return self._matrix

    # apply_raw, apply_inv_raw, ad_star_raw, ad_star_matrix_of and
    # coad_force_matrix also take (..., dim) stacks of coordinate rows

    def apply_raw(self, coords):
        if self._diag is not None:
            return self._diag * coords
        return (self._matrix @ coords[..., None])[..., 0]

    def apply_inv_raw(self, coords):
        if self._diag is not None:
            return coords / self._diag
        return np.linalg.solve(self._matrix, coords[..., None])[..., 0]

    def inner_raw(self, a, b):
        return float(a @ self.apply_raw(b))

    # -- spec operations --------------------------------------------------------

    def apply_lambda(self, x):
        self.basis.require_same(x.basis)
        return AlgebraElement(self.basis, self.apply_raw(x.coords))

    def apply_lambda_inv(self, x):
        self.basis.require_same(x.basis)
        return AlgebraElement(self.basis, self.apply_inv_raw(x.coords))

    def metric_inner(self, x, y):
        self.basis.require_same(x.basis)
        self.basis.require_same(y.basis)
        return self.inner_raw(x.coords, y.coords)

    def ad_star_raw(self, u, v):
        """ad*_u v = -Lambda^{-1} [u, Lambda v] on raw coordinates."""
        lv = self.apply_raw(v)
        alv = np.einsum("...i,...j,ijk->...k", u, lv, self.basis.structure_constants)
        return -self.apply_inv_raw(alv)

    def ad_star(self, u, v):
        self.basis.require_same(u.basis)
        self.basis.require_same(v.basis)
        return AlgebraElement(self.basis, self.ad_star_raw(u.coords, v.coords))

    def ad_star_matrix_of(self, u):
        """Matrix of v -> ad*_u v = -Lambda^{-1} ad_u Lambda."""
        adu = ad_matrix_raw(self.basis, u)
        if self._diag is not None:
            return -(adu * self._diag[None, :]) / self._diag[:, None]
        return -np.linalg.solve(self._matrix, adu @ self._matrix)

    def coad_force_matrix(self, u):
        """Matrix of z -> ad*_z u = Lambda^{-1} ad_{Lambda u} z."""
        ad_lu = ad_matrix_raw(self.basis, self.apply_raw(u))
        if self._diag is not None:
            return ad_lu / self._diag[:, None]
        return np.linalg.solve(self._matrix, ad_lu)

    def Ad_star_matrix(self, g):
        """Matrix of Ad*_g, the metric adjoint of Ad_g, on coordinates."""
        self.basis.require_same(g.basis)
        lam = self.matrix
        return np.linalg.solve(lam, Ad_matrix(g).T @ lam)

    def is_steady(self, u0, tol=1e-10):
        """Whether ad*_{u0} u0 vanishes, i.e. u0 generates a one-parameter subgroup."""
        return float(np.linalg.norm(self.ad_star_raw(u0.coords, u0.coords))) < tol

    def __repr__(self):
        return f"MetricOperator({self.variant} on {self.basis.name})"
