from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegeo import (
    CriterionInapplicableError,
    LieGeoError,
    MetricOperator,
    StructuredBasis,
    UnsupportedSplitError,
    beta_constants,
    biinv_form,
    block_einstein_constants,
    block_einstein_report,
    bracket,
    build_so_basis,
    build_su_basis,
    cartan_condition_check,
    cheeger_sectional,
    misiolek_scan,
    misiolek_value,
    ricci_matrix,
    ricci_numeric,
    ricci_rigid_closed_form,
    sectional_numerator,
    sectional_numerator_arnold,
)


def test_biinvariant_sectional_is_quarter_bracket(su3, rng):
    m = MetricOperator.cheeger(su3, 0.0)
    for _ in range(20):
        u = su3.element(rng.standard_normal(su3.dim))
        v = su3.element(rng.standard_normal(su3.dim))
        br = bracket(u, v)
        assert sectional_numerator(m, u, v) == pytest.approx(
            0.25 * biinv_form(br, br), abs=1e-10
        )


def test_parallel_plane_degenerates(so3, rigid3, rng):
    u = so3.element(rng.standard_normal(3))
    assert sectional_numerator(rigid3, u, -2.5 * u) == pytest.approx(0.0, abs=1e-12)


def test_arnold_formula_agreement(so4, rng):
    m = MetricOperator.diagonal(so4, rng.uniform(0.5, 3.0, so4.dim))
    for _ in range(50):
        u = so4.element(rng.standard_normal(so4.dim))
        v = so4.element(rng.standard_normal(so4.dim))
        assert sectional_numerator(m, u, v) == pytest.approx(
            sectional_numerator_arnold(m, u, v), abs=1e-10
        )


def test_sectional_symmetric_in_arguments(so4, rng):
    m = MetricOperator.diagonal(so4, rng.uniform(0.5, 3.0, so4.dim))
    for _ in range(50):
        u = so4.element(rng.standard_normal(so4.dim))
        v = so4.element(rng.standard_normal(so4.dim))
        assert sectional_numerator(m, u, v) == pytest.approx(
            sectional_numerator(m, v, u), abs=1e-10
        )


def test_rigid_body_ricci_so3(so3, rigid3):
    closed = ricci_rigid_closed_form(3, mu=[1.0, 2.0, 3.0])
    assert np.allclose(closed, [0.2, 0.4, 1.0], atol=1e-14)
    res = ricci_matrix(rigid3)
    assert res.diagonality_residual < 1e-10
    assert np.allclose(np.diag(res.matrix), [0.2, 0.4, 1.0], atol=1e-10)


def test_ricci_closed_form_equal_moments():
    # mu = (1,1,1): single k-term (1)(1)/2 per diagonal entry
    assert np.allclose(ricci_rigid_closed_form(3, mu=[1.0, 1.0, 1.0]), 0.5)


def test_ricci_rigid_positive_random(rng):
    for n in (3, 4, 5):
        for _ in range(10):
            mu = rng.uniform(0.1, 10.0, n)
            assert np.all(ricci_rigid_closed_form(n, mu=mu) > 0)


def test_ricci_nonrigid_can_go_negative():
    # large l12 with l13 = l23 = 1 violates the rigid-body regime
    found = False
    for l12 in np.linspace(1.0, 10.0, 19):
        vals = ricci_rigid_closed_form(3, lam=[l12, 1.0, 1.0])
        if np.any(vals < 0):
            found = True
            break
    assert found


def test_abelian_ricci_vanishes(torus):
    m = MetricOperator.diagonal(torus, [1.0, 2.0])
    res = ricci_matrix(m)
    assert np.abs(res.matrix).max() < 1e-14


def test_ricci_numeric_matches_closed_form_so4(so4, rng):
    lam = rng.uniform(0.5, 3.0, so4.dim)
    m = MetricOperator.diagonal(so4, lam)
    res = ricci_matrix(m)
    assert res.diagonality_residual < 1e-10
    closed = ricci_rigid_closed_form(4, lam=lam)
    assert np.abs(np.diag(res.matrix) - closed).max() < 1e-10


def test_ricci_numeric_single_direction(so3, rigid3):
    e13 = so3.element_by_label("e13")
    assert ricci_numeric(rigid3, e13) == pytest.approx(0.4, abs=1e-10)


# -- property tests of the Ricci claims ------------------------------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
OPEN_DELTA = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


@lru_cache(maxsize=None)
def _so(n):
    return build_so_basis(n)


@lru_cache(maxsize=None)
def _su(n):
    return build_su_basis(n, embed_so_subalgebra=True)


def _floats(draw, size, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))


@st.composite
def metrics(draw):
    """Rigid, diagonal and generic metrics on so(3)..so(6); Cheeger on su(2)..su(4)."""
    kind = draw(st.sampled_from(["rigid-body", "diagonal", "generic", "cheeger"]))
    if kind == "cheeger":
        return MetricOperator.cheeger(_su(draw(st.integers(2, 4))), draw(OPEN_DELTA))
    n = draw(st.integers(3, 6))
    basis = _so(n)
    if kind == "rigid-body":
        return MetricOperator.rigid_body(basis, _floats(draw, n, 0.2, 5.0))
    if kind == "diagonal":
        return MetricOperator.diagonal(basis, _floats(draw, basis.dim, 0.2, 5.0))
    a = _floats(draw, basis.dim**2, -1.0, 1.0).reshape(basis.dim, basis.dim)
    return MetricOperator.generic(basis, np.eye(basis.dim) + a @ a.T / basis.dim)


@PROPERTY
@given(st.data())
def test_ricci_matrix_is_the_sectional_sum(data):
    m = data.draw(metrics())
    u = _floats(data.draw, m.basis.dim, -1.0, 1.0)
    ric = ricci_matrix(m).matrix
    assert np.abs(ric - ric.T).max() <= 1e-14 * max(1.0, np.abs(ric).max())
    numeric = ricci_numeric(m, m.basis.element(u))
    assert abs(u @ ric @ u - numeric) <= 1e-10 * max(1.0, u @ u)


@PROPERTY
@given(st.data())
def test_rigid_body_ricci_is_diagonal_positive_and_closed(data):
    # the paper's SO(n) claim: Ric is diagonal in e_ij and positive-definite
    n = data.draw(st.integers(3, 10))
    mu = _floats(data.draw, n, 0.1, 10.0)
    res = ricci_matrix(MetricOperator.rigid_body(_so(n), mu))
    scale = max(1.0, np.abs(res.matrix).max())
    assert res.diagonality_residual <= 1e-10 * scale
    assert np.abs(res.diagonal() - ricci_rigid_closed_form(n, mu=mu)).max() <= 1e-10 * scale
    assert np.linalg.eigvalsh(res.matrix).min() > 0


@PROPERTY
@given(st.integers(2, 5), OPEN_DELTA)
def test_cheeger_ricci_is_block_einstein(n, delta):
    assert block_einstein_report(MetricOperator.cheeger(_su(n), delta))["residual"] <= 1e-9


def _milnor_ricci(m):
    """Milnor's unimodular formula in basis coordinates, as an outside oracle:
    -1/2 sum g([x,e_i],[y,e_i]) - 1/2 B(x,y) + 1/4 sum g([e_i,e_j],x) g([e_i,e_j],y)."""
    c = m.basis.structure_constants
    gram = m.matrix
    gi = np.linalg.inv(gram)
    low = c @ gram
    ric = (
        -0.5 * np.einsum("apl,pq,bql->ab", low, gi, c)
        - 0.5 * np.einsum("apk,bkp->ab", c, c)
        + 0.25 * np.einsum("pr,qs,pqa,rsb->ab", gi, gi, low, low, optimize=True)
    )
    return 0.5 * (ric + ric.T)


def test_ricci_matrix_matches_milnor_formula(so4, su3, rng):
    w = rng.standard_normal((so4.dim, so4.dim))
    for m in (
        MetricOperator.rigid_body(_so(5), [1.0, 2.0, 3.5, 4.0, 0.5]),
        MetricOperator.generic(so4, np.eye(so4.dim) + 0.2 * w @ w.T),
        MetricOperator.cheeger(su3, -2.0 / 3.0),
        MetricOperator.cheeger(su3, 0.5),
    ):
        ric = ricci_matrix(m).matrix
        assert np.abs(ric - _milnor_ricci(m)).max() <= 1e-12 * max(1.0, np.abs(ric).max())


def test_cheeger_closed_forms(su3, rng):
    delta = 1.0
    m = MetricOperator.cheeger(su3, delta)
    split = su3.subalgebra_dim
    # u in h
    for _ in range(10):
        coords = np.zeros(su3.dim)
        coords[:split] = rng.standard_normal(split)
        u = su3.element(coords)
        v = su3.element(rng.standard_normal(su3.dim))
        assert cheeger_sectional(m, u, v) == pytest.approx(
            sectional_numerator(m, u, v), abs=1e-10
        )
    # u in h-perp: coefficient on |ad_u Qv|^2 is (1 - 3 delta)/4 = -0.5
    for _ in range(10):
        coords = np.zeros(su3.dim)
        coords[split:] = rng.standard_normal(su3.dim - split)
        u = su3.element(coords)
        v = su3.element(rng.standard_normal(su3.dim))
        assert cheeger_sectional(m, u, v) == pytest.approx(
            sectional_numerator(m, u, v), abs=1e-10
        )
    with pytest.raises(UnsupportedSplitError):
        cheeger_sectional(m, su3.element(np.ones(su3.dim)), v)


def test_cheeger_hperp_negative_coefficient(su3):
    # delta = 1: the h-perp/h-perp plane coefficient (1-3 delta)/4 = -0.5
    m = MetricOperator.cheeger(su3, 1.0)
    u = su3.element_by_label("s12")
    v = su3.element_by_label("s13")
    qbr = bracket(u, v)  # lands in h by the Cartan condition
    val = sectional_numerator(m, u, v)
    assert val == pytest.approx(-0.5 * biinv_form(qbr, qbr), abs=1e-12)
    assert val < 0


def _u1_split_su3():
    """su(3) reordered so h = span{d1}: a split without the Cartan condition."""
    full = build_su_basis(3)
    idx = full.labels.index("d1")
    order = [idx] + [i for i in range(full.dim) if i != idx]
    mats = [full.basis_matrices[i] for i in order]
    labels = [full.labels[i] for i in order]
    return StructuredBasis("su(3)/u(1)", mats, labels, subalgebra_dim=1)


def test_cartan_condition_check(su3):
    assert cartan_condition_check(su3)
    assert not cartan_condition_check(_u1_split_su3())


def test_remark_formula_without_cartan(rng):
    basis = _u1_split_su3()
    m = MetricOperator.cheeger(basis, 0.45)
    for _ in range(20):
        coords = np.zeros(basis.dim)
        coords[1:] = rng.standard_normal(basis.dim - 1)
        u = basis.element(coords)
        v = basis.element(rng.standard_normal(basis.dim))
        assert cheeger_sectional(m, u, v) == pytest.approx(
            sectional_numerator(m, u, v), abs=1e-10
        )


def test_beta_constants(su3, su2):
    bg, bh = beta_constants(su3)
    assert bg == pytest.approx(12.0, abs=1e-12)   # 4n at n = 3
    assert bh == pytest.approx(2.0, abs=1e-12)    # 2(n-2) for so(3)
    bg2, bh2 = beta_constants(su2)
    assert bg2 == pytest.approx(8.0, abs=1e-12)
    assert bh2 == pytest.approx(0.0, abs=1e-12)   # so(2) is abelian


def test_block_einstein_constants_delta_zero():
    c1, c2 = block_einstein_constants(12.0, 2.0, 0.0)
    assert c1 == c2 == 3.0  # bi-invariant Einstein case: beta_G / 4


def test_block_einstein_report(su3):
    for delta in (-2.0 / 3.0, -0.3, 0.5):
        m = MetricOperator.cheeger(su3, delta)
        rep = block_einstein_report(m)
        assert rep["residual"] < 1e-9
        assert rep["C2"] == pytest.approx((1 - delta) * 3.0, abs=1e-12)
    zeitlin = block_einstein_report(MetricOperator.cheeger(su3, -2.0 / 3.0))
    assert zeitlin["C2"] == pytest.approx(5.0, abs=1e-10)


def test_zeitlin_c2_against_numeric(su3):
    m = MetricOperator.cheeger(su3, -2.0 / 3.0)
    s12 = su3.element_by_label("s12")  # h-perp unit vector
    assert ricci_numeric(m, s12) == pytest.approx(5.0, abs=1e-10)


def test_misiolek_values(so3, rigid3, rng):
    e12 = so3.element_by_label("e12")
    e23 = so3.element_by_label("e23")
    # largest eigenvalue direction: scan finds a negative value
    scan = misiolek_scan(rigid3, e23, seed=1)
    assert scan.minimum < 0 and scan.detected
    # smallest eigenvalue direction: (Lambda - lambda I) is PSD on the range
    scan = misiolek_scan(rigid3, e12, seed=1)
    assert scan.minimum >= -1e-12 and not scan.detected
    # v in the kernel of L gives exactly zero
    assert misiolek_value(rigid3, e12, e12) == pytest.approx(0.0, abs=1e-14)


def test_misiolek_quadratic_form(so3, rigid3, rng):
    # eigenvector case: value equals <(Lambda - lambda) L v, L v>
    e13 = so3.element_by_label("e13")
    lam = 2.0
    from liegeo.algebra import ad_matrix_raw

    for _ in range(20):
        v = rng.standard_normal(3)
        lv = ad_matrix_raw(so3, e13.coords) @ v
        expected = float(((rigid3.diag - lam) * lv) @ lv)
        assert misiolek_value(rigid3, e13, so3.element(v)) == pytest.approx(
            expected, abs=1e-12
        )


def test_misiolek_negative_implies_positive_curvature(so3, rigid3, rng):
    e23 = so3.element_by_label("e23")
    for _ in range(200):
        v = so3.element(rng.standard_normal(3))
        if misiolek_value(rigid3, e23, v) < 0:
            assert sectional_numerator(rigid3, e23, v) > 0


def test_misiolek_rejects_nonsteady(so3, rigid3):
    u0 = so3.element([1.0, 0.0, 1.0])
    with pytest.raises(CriterionInapplicableError):
        misiolek_value(rigid3, u0, so3.element([0.0, 1.0, 0.0]))


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"mu": [1.0, 2.0]}, {"lam": [1.0, -2.0, 3.0]}],
    ids=["neither", "mu-length", "lam-sign"],
)
def test_ricci_closed_form_input_errors_are_typed(kwargs):
    with pytest.raises(ValueError) as excinfo:
        ricci_rigid_closed_form(3, **kwargs)
    assert isinstance(excinfo.value, LieGeoError)


def test_beta_constants_non_simple_algebra_is_typed(so3):
    # so(3) + R: the abelian direction has Killing constant 0, the rest 2
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = so3.structure_constants
    fake = type("Basis", (), {"structure_constants": c, "dim": 4, "subalgebra_dim": 0})
    with pytest.raises(ValueError) as excinfo:
        beta_constants(fake)
    assert isinstance(excinfo.value, LieGeoError)
