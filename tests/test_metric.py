import numpy as np
import pytest

from liegeo import (
    MetricConstructionError,
    MetricOperator,
    biinv_form,
    bracket,
    group_exp,
    project_h,
)
from liegeo.algebra import Ad_matrix, ad_matrix_raw


def test_rigid_body_eigenvalues(so3, rigid3):
    # lambda_ij = (mu_i + mu_j)/2 for mu = (1, 2, 3)
    assert np.allclose(rigid3.diag, [1.5, 2.0, 2.5])
    e12 = so3.element_by_label("e12")
    assert np.allclose(rigid3.apply_lambda(e12).coords, 1.5 * e12.coords)


def test_cheeger_apply(su3, rng):
    delta = 0.7
    m = MetricOperator.cheeger(su3, delta)
    x = su3.element(rng.standard_normal(su3.dim))
    p = project_h(x)
    q = x - p
    expected = (1 + delta) * p.coords + q.coords
    assert np.allclose(m.apply_lambda(x).coords, expected, atol=1e-14)
    # explicit inverse formula I - delta/(1+delta) P, exactly inverse in coords
    back = m.apply_lambda_inv(m.apply_lambda(x))
    assert np.allclose(back.coords, x.coords, atol=1e-12)


def test_delta_zero_is_biinvariant(su3, rng):
    m = MetricOperator.cheeger(su3, 0.0)
    x = su3.element(rng.standard_normal(su3.dim))
    y = su3.element(rng.standard_normal(su3.dim))
    assert np.allclose(m.apply_lambda(x).coords, x.coords)
    assert m.metric_inner(x, y) == pytest.approx(biinv_form(x, y), abs=1e-13)


def test_construction_rejections(so3, su3):
    with pytest.raises(MetricConstructionError):
        MetricOperator.cheeger(su3, -1.0)
    with pytest.raises(MetricConstructionError):
        MetricOperator.rigid_body(so3, [1.0, -2.0, 3.0])
    with pytest.raises(MetricConstructionError):
        MetricOperator.diagonal(so3, [1.0, 0.0, 3.0])
    skew = np.array([[1.0, 0.5, 0], [-0.5, 1.0, 0], [0, 0, 1.0]])
    with pytest.raises(MetricConstructionError):
        MetricOperator.generic(so3, skew)


def test_ad_star_table_so3(so3, rigid3):
    # ad*_{e13} e12 = (l12 / l23) e23 = 0.6 e23 for mu = (1,2,3)
    e12, e13, e23 = (so3.element_by_label(l) for l in ("e12", "e13", "e23"))
    out = rigid3.ad_star(e13, e12)
    assert np.allclose(out.coords, 0.6 * e23.coords, atol=1e-14)
    # eigenvectors of Lambda are steady
    assert np.allclose(rigid3.ad_star(e12, e12).coords, 0.0, atol=1e-14)
    assert rigid3.is_steady(e12)


def test_ad_star_duality_all_variants(so3, so4, su3, rng):
    w = rng.standard_normal((so3.dim, so3.dim))
    metrics = [
        MetricOperator.rigid_body(so3, [1.0, 2.0, 3.0]),
        MetricOperator.diagonal(so4, rng.uniform(0.5, 3.0, so4.dim)),
        MetricOperator.cheeger(su3, -2.0 / 3.0),
        MetricOperator.generic(so3, np.eye(3) + 0.1 * (w + w.T)),
    ]
    for m in metrics:
        basis = m.basis
        for _ in range(100):
            u, v, z = (basis.element(rng.standard_normal(basis.dim)) for _ in range(3))
            lhs = m.metric_inner(m.ad_star(u, v), z)
            rhs = m.metric_inner(v, bracket(u, z))
            assert abs(lhs - rhs) < 1e-11


def test_steady_set_diagonal(so4, rng):
    m = MetricOperator.diagonal(so4, rng.uniform(0.5, 4.0, so4.dim))
    for i in range(so4.dim):
        b = so4.basis_element(i)
        assert np.linalg.norm(m.ad_star_raw(b.coords, b.coords)) < 1e-12


def test_ad_star_matrix_consistency(su3, rng):
    m = MetricOperator.cheeger(su3, 0.3)
    u = rng.standard_normal(su3.dim)
    v = rng.standard_normal(su3.dim)
    assert np.allclose(m.ad_star_matrix_of(u) @ v, m.ad_star_raw(u, v), atol=1e-13)
    # coad force: z -> ad*_z u
    assert np.allclose(m.coad_force_matrix(u) @ v, m.ad_star_raw(v, u), atol=1e-13)


def test_Ad_star_biinvariant_inverse(so4, rng):
    m = MetricOperator.biinvariant(so4)
    g = group_exp(so4.element(rng.standard_normal(so4.dim)), 0.8)
    prod = m.Ad_star_matrix(g) @ Ad_matrix(g)
    assert np.abs(prod - np.eye(so4.dim)).max() < 1e-11


def test_Ad_star_cheeger_subgroup_isometry(su3, rng):
    # eta = exp(delta t p0) commutes with Lambda, so Ad*_eta Ad_eta = I
    delta = -2.0 / 3.0
    m = MetricOperator.cheeger(su3, delta)
    p0 = project_h(su3.element(rng.standard_normal(su3.dim)))
    eta = group_exp(p0, delta * 2.37)
    prod = m.Ad_star_matrix(eta) @ Ad_matrix(eta)
    assert np.abs(prod - np.eye(su3.dim)).max() < 1e-11


def test_Ad_star_duality_generic(so3, rng):
    w = rng.standard_normal((3, 3))
    m = MetricOperator.generic(so3, np.eye(3) + 0.1 * (w + w.T))
    g = group_exp(so3.element(rng.standard_normal(3)), 1.1)
    adm = Ad_matrix(g)
    adsm = m.Ad_star_matrix(g)
    for _ in range(20):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        lhs = m.inner_raw(adsm @ u, v)
        rhs = m.inner_raw(u, adm @ v)
        assert abs(lhs - rhs) < 1e-11


@pytest.mark.parametrize("variant", ["rigid", "diagonal", "cheeger", "generic"])
def test_stacked_kernels_match_row_calls(variant, so4, su3, rng):
    spd = rng.standard_normal((so4.dim, so4.dim))
    m = {
        "rigid": lambda: MetricOperator.rigid_body(so4, [1.0, 2.0, 3.5, 4.0]),
        "diagonal": lambda: MetricOperator.diagonal(so4, rng.uniform(0.5, 4.0, so4.dim)),
        "cheeger": lambda: MetricOperator.cheeger(su3, -2.0 / 3.0),
        "generic": lambda: MetricOperator.generic(so4, spd @ spd.T + so4.dim * np.eye(so4.dim)),
    }[variant]()
    dim = m.basis.dim
    # k == dim: a stack that np.linalg.solve(M, stack) would take for one matrix
    for k in (1, 5, dim):
        u = rng.standard_normal((k, dim))
        v = rng.standard_normal((k, dim))
        kernels = {
            "ad_matrix_raw": (lambda x: ad_matrix_raw(m.basis, x), (u,)),
            "ad_star_raw": (m.ad_star_raw, (u, v)),
            "ad_star_matrix_of": (m.ad_star_matrix_of, (u,)),
            "coad_force_matrix": (m.coad_force_matrix, (u,)),
        }
        for name, (fn, args) in kernels.items():
            rows = np.array([fn(*(a[r] for a in args)) for r in range(k)])
            assert np.array_equal(fn(*args), rows), (name, k)
