import numpy as np
import pytest

from liegeo import (
    Ad_matrix,
    InvalidDimensionError,
    LieGeoError,
    StructuredBasis,
    UnsupportedSplitError,
    biinv_form,
    bracket,
    build_so_basis,
    build_su_basis,
    build_torus_basis,
    group_exp,
    project_h,
    project_h_perp,
)
from liegeo import algebra
from liegeo.algebra import ALGEBRA_TOL, ad_matrix, ad_matrix_raw, expm_skew, matrix_form


def test_so_basis_shape(so3, so4):
    assert so3.dim == 3 and so4.dim == 6
    assert so3.labels == ["e12", "e13", "e23"]
    assert so4.labels[:3] == ["e12", "e13", "e14"]  # lexicographic order
    assert so3.identity_residuals()["orthonormality"] == 0.0
    assert so4.identity_residuals()["orthonormality"] == 0.0


def test_so_basis_rejects_small_n():
    with pytest.raises(InvalidDimensionError):
        build_so_basis(1)
    with pytest.raises(InvalidDimensionError):
        build_su_basis(0)


def test_so3_bracket_table(so3):
    e12, e13, e23 = (so3.element_by_label(l) for l in ("e12", "e13", "e23"))
    assert np.allclose(bracket(e12, e13).coords, e23.coords)
    assert np.allclose(bracket(e13, e23).coords, e12.coords)
    assert np.allclose(bracket(e23, e12).coords, e13.coords)


def test_so4_disjoint_pairs_commute(so4):
    e12 = so4.element_by_label("e12")
    e34 = so4.element_by_label("e34")
    assert np.allclose(bracket(e12, e34).coords, 0.0)


def test_so3_form_normalization(so3):
    e12 = so3.element_by_label("e12")
    # two unit entries give trace 2, so (1/2) Tr(e12 e12^T) = 1
    assert biinv_form(e12, e12) == pytest.approx(1.0, abs=1e-14)


def test_su_basis_dimensions(su3):
    assert su3.dim == 8
    assert su3.subalgebra_dim == 3
    assert su3.identity_residuals()["orthonormality"] == 0.0


def test_su_cartan_closure(su3):
    # commutators of two h-perp elements land back in h
    c = su3.structure_constants
    m = su3.subalgebra_dim
    assert np.abs(c[m:, m:, m:]).max() < 1e-12


def test_su2_split_exhaustive(su2):
    assert su2.subalgebra_dim == 1
    c = su2.structure_constants
    for i in range(1, 3):
        for j in range(1, 3):
            assert np.abs(c[i, j, 1:]).max() < 1e-12  # [hp, hp] in h


def test_bracket_antisymmetry_and_self(so4, rng):
    x = so4.element(rng.standard_normal(so4.dim))
    y = so4.element(rng.standard_normal(so4.dim))
    assert np.allclose(bracket(x, x).coords, 0.0, atol=1e-14)
    assert np.allclose(bracket(x, y).coords, -bracket(y, x).coords, atol=1e-14)


def test_bracket_matches_matrix_commutator(su3, rng):
    # dense matrix commutator as the independent oracle
    for _ in range(20):
        x = su3.element(rng.standard_normal(su3.dim))
        y = su3.element(rng.standard_normal(su3.dim))
        comm = x.matrix() @ y.matrix() - y.matrix() @ x.matrix()
        assert np.abs(bracket(x, y).matrix() - comm).max() < 1e-12 * 10


def test_ad_invariance_random_triples(su3, rng):
    for _ in range(100):
        u, v, w = (su3.element(rng.standard_normal(su3.dim)) for _ in range(3))
        lhs = biinv_form(bracket(u, v), w) + biinv_form(v, bracket(u, w))
        assert abs(lhs) < 1e-12


def test_projections(su3, rng):
    x = su3.element(rng.standard_normal(su3.dim))
    p, q = project_h(x), project_h_perp(x)
    assert np.allclose((p + q).coords, x.coords)
    assert np.allclose(project_h(p).coords, p.coords)  # P^2 = P
    assert abs(biinv_form(p, project_h_perp(x))) < 1e-14
    e12 = su3.element_by_label("e12")
    assert np.allclose(project_h(e12).coords, e12.coords)
    d1 = su3.element_by_label("d1")
    assert np.allclose(project_h(d1).coords, 0.0)


def test_projection_requires_split(so3):
    with pytest.raises(UnsupportedSplitError):
        project_h(so3.element([1.0, 0.0, 0.0]))


def test_torus_is_abelian(torus):
    assert np.abs(torus.structure_constants).max() == 0.0


def test_ad_matrix_columns(so4, rng):
    x = so4.element(rng.standard_normal(so4.dim))
    mat = ad_matrix(x)
    for j in range(so4.dim):
        col = bracket(x, so4.basis_element(j)).coords
        assert np.allclose(mat[:, j], col, atol=1e-14)


def test_group_exp_identity(so3):
    g = group_exp(so3.zero(), 3.7)
    assert np.allclose(g.matrix, np.eye(3), atol=1e-15)


def test_group_exp_so3_period(so3):
    # eigenvalues of e12 are {+-i, 0}: a closed 2 pi rotation
    g = group_exp(so3.element_by_label("e12"), 2.0 * np.pi)
    assert np.abs(g.matrix - np.eye(3)).max() < 1e-13


def test_group_exp_homomorphism(su3, rng):
    import scipy.linalg

    for _ in range(10):
        x = su3.element(rng.standard_normal(su3.dim))
        s, t = rng.uniform(0, 3, 2)
        lhs = group_exp(x, s + t).matrix
        rhs = group_exp(x, s).matrix @ group_exp(x, t).matrix
        assert np.abs(lhs - rhs).max() < 1e-10


def test_Ad_exp_equals_exp_ad(so4, rng):
    import scipy.linalg

    for _ in range(10):
        x = so4.element(rng.standard_normal(so4.dim))
        t = rng.uniform(0, 5)
        lhs = Ad_matrix(group_exp(x, t))
        rhs = scipy.linalg.expm(t * ad_matrix_raw(so4, x.coords))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_group_elements_stay_special(su3, rng):
    x = su3.element(rng.standard_normal(su3.dim))
    g = group_exp(x, 1.3)
    assert g.unitary_defect() < 1e-10
    assert abs(np.linalg.det(g.matrix) - 1.0) < 1e-10


def test_expm_skew_fallback_general_matrix(rng):
    # non-normal input goes through scaling-and-squaring and stays correct
    import scipy.linalg

    a = rng.standard_normal((4, 4))
    assert np.abs(expm_skew(a) - scipy.linalg.expm(a)).max() < 1e-10


def _jacobi_dim4(c):
    """The cyclic Jacobi sum over all index quadruples, as one dim^4 array."""
    return (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )


def test_jacobi_identity_all_builders():
    for basis in (build_so_basis(5), build_su_basis(3), build_torus_basis(3)):
        assert np.abs(_jacobi_dim4(basis.structure_constants)).max() < 1e-12


# -- orthonormal coordinates ----------------------------------------------------------


_ORTHONORMAL = {
    **{f"so{n}": lambda n=n: build_so_basis(n) for n in range(2, 11)},
    **{f"su{n}": lambda n=n: build_su_basis(n) for n in range(2, 9)},
    **{f"su{n}-split": lambda n=n: build_su_basis(n, True) for n in range(2, 9)},
    "torus3": lambda: build_torus_basis(3),
}


@pytest.mark.parametrize("name", _ORTHONORMAL)
def test_builder_bases_are_orthonormal(name):
    basis = _ORTHONORMAL[name]()
    mats = basis.basis_matrices
    gram = np.array([[matrix_form(a, b) for b in mats] for a in mats])
    residual = basis.identity_residuals()["orthonormality"]
    assert residual == float(np.abs(gram - np.eye(basis.dim)).max())
    assert residual <= ALGEBRA_TOL


@pytest.mark.parametrize("n", range(4, 9))
def test_coords_of_recovers_coordinates(n):
    # from su(4) on the Gram misses I by an ulp; coordinates still come back
    basis = build_su_basis(n)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, (4, basis.dim))
    mats = np.einsum("ki,inm->knm", x, basis.basis_matrices)
    assert np.abs(basis.coords_of(mats) - x).max() <= 1e-15


def test_non_orthonormal_basis_is_rejected():
    # Gram diag(1, 4, 9): pairings are not coordinates on this basis
    mats = build_so_basis(3).basis_matrices * np.array([1.0, 2.0, 3.0])[:, None, None]
    with pytest.raises(LieGeoError, match="orthonormality"):
        StructuredBasis("so(3) scaled", mats, ["a", "b", "c"])


# -- size guard ------------------------------------------------------------------------


def test_size_guard_at_its_threshold(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_BASIS_DIM", 6)
    assert build_so_basis(4).dim == 6
    assert StructuredBasis("so(4)", build_so_basis(4).basis_matrices, range(6)).dim == 6
    with pytest.raises(InvalidDimensionError, match="largest basis"):
        build_so_basis(5)
    with pytest.raises(InvalidDimensionError, match="largest basis"):
        build_su_basis(3)
    with pytest.raises(InvalidDimensionError, match="largest basis"):
        build_torus_basis(7)


def test_size_guard_refuses_before_building():
    # so(16) and su(11) are the largest builds; beyond them nothing is allocated
    assert 16 * 15 // 2 == algebra.MAX_BASIS_DIM == 11 * 11 - 1
    for build, n in ((build_so_basis, 17), (build_so_basis, 40), (build_su_basis, 12)):
        with pytest.raises(InvalidDimensionError, match="largest basis"):
            build(n)
    with pytest.raises(InvalidDimensionError, match="largest basis"):
        build_so_basis(10**6)
    # a direct construction is refused before any pairing of its matrices
    with pytest.raises(InvalidDimensionError, match="largest basis"):
        StructuredBasis("big", np.zeros((algebra.MAX_BASIS_DIM + 1, 1, 1)), [])


# -- batched structure data against the per-pair matrix_form loops ---------------------


def _loop_coords(mats, matrix):
    return np.array([matrix_form(matrix, b) for b in mats])


def _loop_structure_constants(mats):
    dim = len(mats)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            c[i, j] = _loop_coords(mats, comm)
            c[j, i] = -c[i, j]
    return c


_BASES = {
    **{f"so{n}": lambda n=n: build_so_basis(n) for n in range(3, 9)},
    **{f"su{n}": lambda n=n: build_su_basis(n) for n in range(2, 6)},
    **{f"su{n}-split": lambda n=n: build_su_basis(n, True) for n in range(2, 6)},
    "torus2": lambda: build_torus_basis(2),
}


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("name", _BASES)
def test_batched_basis_data_matches_pair_loops(name):
    basis = _BASES[name]()
    mats = basis.basis_matrices
    assert _bits(basis.structure_constants) == _bits(_loop_structure_constants(mats))
    rng = np.random.default_rng(basis.dim)
    g = group_exp(basis.element(rng.standard_normal(basis.dim)), 0.9)
    ginv = g.matrix.conj().T
    conj = np.array([g.matrix @ b @ ginv for b in mats])
    loop = np.array([_loop_coords(mats, m) for m in conj])
    assert _bits(basis.coords_of(conj[0])) == _bits(loop[0])
    assert _bits(basis.coords_of(conj)) == _bits(loop)
    assert _bits(Ad_matrix(g)) == _bits(loop.T)


@pytest.mark.parametrize("name", _BASES)
def test_identity_residuals_match_dim4_reference(name):
    basis = _BASES[name]()
    ref = float(np.abs(_jacobi_dim4(basis.structure_constants)).max())
    assert basis.identity_residuals()["jacobi-identity"] == ref
