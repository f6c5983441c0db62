import numpy as np
import pytest
import scipy.linalg

from liegeo import (
    ConfigError,
    CriterionInapplicableError,
    MetricOperator,
    berger_det,
    closed_geodesic_conjugacy,
    commuting_block_scan,
    explicit_closed_field,
    find_conjugate_times,
    group_exp,
    integrate_euler_arnold,
    integrate_jacobi,
    right_translation_isometry_check,
    solution_operator,
)
from liegeo import jacobi
from liegeo.algebra import Ad_matrix, ad_matrix_raw
from liegeo.dynamics import rk4, rk4_stages


def berger_traj(su2, delta=-0.5, u0=(1.0, 1.0, 0.0), T=4.0, dt=1e-3):
    m = MetricOperator.cheeger(su2, delta)
    return integrate_euler_arnold(m, su2.element(list(u0)), T=T, dt=dt)


def test_steady_zero_solution(so3, rigid3):
    traj = integrate_euler_arnold(rigid3, so3.element_by_label("e12"), T=2.0, dt=1e-2)
    sol = integrate_jacobi(traj, so3.zero(), so3.zero())
    assert np.abs(sol.y_samples).max() == 0.0


def test_discrete_residual(su2):
    # centered differences are O(h^2): the 1e-7 bound needs a fine grid
    traj = berger_traj(su2, T=1.0, dt=1e-4)
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal(3)
    z0 = rng.standard_normal(3)
    sol = integrate_jacobi(
        traj, su2.element(y0 / np.linalg.norm(y0)), su2.element(z0 / np.linalg.norm(z0))
    )
    assert sol.residual() < 1e-7
    # the stacked residual is the per-node one
    ts, ys, zs = sol.times, sol.y_samples, sol.z_samples
    per_node = max(
        np.linalg.norm(
            (ys[i + 1] - ys[i - 1]) / (ts[i + 1] - ts[i - 1])
            + ad_matrix_raw(su2, traj.velocities[i]) @ ys[i]
            - zs[i]
        )
        for i in range(1, len(ts) - 1)
    )
    assert abs(sol.residual() - per_node) <= 1e-15 * per_node


def test_closed_geodesic_particular_solution(su2):
    # y(t) = Ad*_{gamma} u0 - Ad_{gamma^-1} u0 solves the system with z = u'(t)
    traj = berger_traj(su2, T=2.0, dt=2e-4)
    m = traj.metric
    ts = traj.times
    ys = np.empty((len(ts), 3))
    zs = np.empty((len(ts), 3))
    for i in range(0, len(ts)):
        g = traj.frame_at_index(i)
        u = traj.velocities[i]
        ys[i] = m.Ad_star_matrix(g) @ traj.velocities[0] - Ad_matrix(g.inverse()) @ traj.velocities[0]
        zs[i] = m.ad_star_raw(u, u)
    worst = 0.0
    for i in range(1, len(ts) - 1, 50):
        dy = (ys[i + 1] - ys[i - 1]) / (ts[i + 1] - ts[i - 1])
        r = dy + ad_matrix_raw(traj.basis, traj.velocities[i]) @ ys[i] - zs[i]
        worst = max(worst, np.linalg.norm(r))
    assert worst < 1e-7  # centered-difference truncation at dt = 2e-4
    assert np.linalg.norm(ys[0]) < 1e-12


def _constant_coefficient_solution(traj, y0, z0, t_index):
    """Cartan-split oracle: the transformed Jacobi system has constant
    coefficients A = -[(1+d) ad_{p0} + ad_{q0}], N = -d ad_{u0} P."""
    basis = traj.basis
    m = traj.metric
    delta = m.delta
    split = basis.subalgebra_dim
    u0 = traj.velocities[0]
    p0 = np.concatenate([u0[:split], np.zeros(basis.dim - split)])
    q0 = u0 - p0
    proj = np.diag(np.concatenate([np.ones(split), np.zeros(basis.dim - split)]))
    a = -((1 + delta) * ad_matrix_raw(basis, p0) + ad_matrix_raw(basis, q0))
    n = -delta * ad_matrix_raw(basis, u0) @ proj
    dim = basis.dim
    big = np.zeros((2 * dim, 2 * dim))
    big[:dim, :dim] = a
    big[:dim, dim:] = np.eye(dim)
    big[dim:, dim:] = n
    t = traj.times[t_index]
    state = scipy.linalg.expm(t * big) @ np.concatenate([y0, z0])
    eta = group_exp(basis.element(p0), delta * t)
    return Ad_matrix(eta) @ state[:dim]


@pytest.mark.parametrize("case", ["su2", "su3"])
def test_constant_coefficient_oracle(case, su2, su3, rng):
    if case == "su2":
        traj = berger_traj(su2, delta=0.8, T=2.0)
    else:
        m = MetricOperator.cheeger(su3, -2.0 / 3.0)
        coords = rng.standard_normal(su3.dim)
        traj = integrate_euler_arnold(m, su3.element(coords), T=2.0, dt=1e-3)
    basis = traj.basis
    y0 = rng.standard_normal(basis.dim)
    z0 = rng.standard_normal(basis.dim)
    sol = integrate_jacobi(traj, basis.element(y0), basis.element(z0))
    for idx in (len(sol.times) // 3, len(sol.times) - 1):
        ref = _constant_coefficient_solution(traj, y0, z0, idx)
        assert np.linalg.norm(sol.y_samples[idx] - ref) < 1e-8


def test_omega_starts_like_t_identity(su2):
    traj = berger_traj(su2, T=0.5)
    samples = solution_operator(traj)
    s = samples[20]  # t = 0.02
    assert np.abs(s.omega - s.t * np.eye(3)).max() < 5 * s.t**2
    assert samples[0].det == 0.0


def test_berger_determinant_matches_closed_form(su2):
    # delta = 1, |p0| = |q0| = 1: R = sqrt(5), S = 3; the numeric 3x3
    # determinant carries the extra positive factor t / R^4
    traj = berger_traj(su2, delta=1.0, T=3.0)
    samples = solution_operator(traj)
    r4 = 25.0
    for s in samples[::100]:
        ref = s.t / r4 * berger_det(s.t, 1.0, 1.0, 1.0)
        assert abs(s.det - ref) < 1e-7


def test_biinvariant_su2_first_zero_at_pi(su2):
    m = MetricOperator.cheeger(su2, 0.0)
    u0 = su2.element([0.6, 0.8, 0.0])  # unit
    traj = integrate_euler_arnold(m, u0, T=4.0, dt=1e-3)
    rep = find_conjugate_times(traj)
    assert rep.first_time() == pytest.approx(np.pi, abs=1e-6)
    assert rep.events[0].multiplicity == 2


def test_abelian_flat_no_conjugate_points(torus):
    m = MetricOperator.diagonal(torus, [1.0, 2.0])
    traj = integrate_euler_arnold(m, torus.element([1.0, 0.7]), T=12.0, dt=5e-3)
    rep = find_conjugate_times(traj)
    assert rep.events == []
    samples = solution_operator(traj)
    for s in samples[::400]:
        assert s.det == pytest.approx(s.t ** torus.dim, rel=1e-9, abs=1e-12)


def test_omega_linearity(so3, rigid3, rng):
    traj = integrate_euler_arnold(rigid3, so3.element([0.4, 0.3, 0.8]), T=2.0, dt=2e-3)
    z1 = rng.standard_normal(3)
    z2 = rng.standard_normal(3)
    a, b = 0.7, -1.3
    y1 = integrate_jacobi(traj, so3.zero(), so3.element(z1)).y_samples
    y2 = integrate_jacobi(traj, so3.zero(), so3.element(z2)).y_samples
    y12 = integrate_jacobi(traj, so3.zero(), so3.element(a * z1 + b * z2)).y_samples
    assert np.abs(a * y1 + b * y2 - y12).max() < 1e-10


@pytest.mark.parametrize("case", ["berger", "zeitlin-su3"])
def test_one_step_restart_reproduces_checkpoint(case, su2, su3):
    if case == "berger":
        traj = berger_traj(su2, T=1.0)
    else:
        m = MetricOperator.cheeger(su3, -2.0 / 3.0)
        u0 = su3.element([0.4, 0.1, 0.3, 0.2, 0.5, 0.1, 0.2, 0.3])
        traj = integrate_euler_arnold(m, u0, T=1.0, dt=1e-3)
    ev = jacobi._OmegaEvaluator(traj, traj.duration())
    ts, dim = ev.times, traj.basis.dim
    for i in (0, 1, 300, len(ts) // 2 + 1, len(ts) - 2):
        s = float(ts[i + 1] - ts[i])
        us = np.stack(rk4_stages(traj.metric, traj.velocities[i], s)[1])
        omega = (jacobi._step_maps(traj, us, s) @ ev.chk[i])[:dim]
        ref = ev.y_chk[i + 1]
        assert np.linalg.norm(omega - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("case", ["berger", "zeitlin-su3"])
def test_step_map_checkpoints_match_per_step_rk4(case, su2, su3):
    if case == "berger":
        traj = berger_traj(su2, T=2.0)
    else:
        m = MetricOperator.cheeger(su3, -2.0 / 3.0)
        u0 = su3.element([0.4, 0.1, 0.3, 0.2, 0.5, 0.1, 0.2, 0.3])
        traj = integrate_euler_arnold(m, u0, T=2.0, dt=1e-3)
    m, basis, dim = traj.metric, traj.basis, traj.basis.dim
    h = traj.duration() / (len(traj.times) - 1)
    chk = jacobi.solution_operator(traj)
    x = np.vstack([np.zeros((dim, dim)), np.eye(dim)])
    worst = 0.0
    for i, us in enumerate(traj.stages):
        gens = []
        for u in us:
            gen = np.zeros((2 * dim, 2 * dim))
            gen[:dim, :dim] = -ad_matrix_raw(basis, u)
            gen[:dim, dim:] = np.eye(dim)
            gen[dim:, dim:] = m.ad_star_matrix_of(u) + m.coad_force_matrix(u)
            gens.append(gen)
        x = rk4(lambda s, v: gens[s] @ v, x, h)[0]
        omega = chk[i + 1].omega
        worst = max(worst, np.linalg.norm(omega - x[:dim]) / np.linalg.norm(omega))
    assert worst <= 1e-13


def test_steady_detection_matches_block_scan(so3, rigid3):
    u0 = so3.element_by_label("e23")
    _, block_rep = commuting_block_scan(rigid3, u0)
    t_pred = block_rep.first_time()
    traj = integrate_euler_arnold(rigid3, u0, T=1.1 * t_pred, dt=2e-3)
    rep = find_conjugate_times(traj)
    assert rep.first_time() == pytest.approx(t_pred, abs=1e-6)


def test_isometry_checks(so4, su2, rng):
    m = MetricOperator.biinvariant(so4)
    g = group_exp(so4.element(rng.standard_normal(so4.dim)), 1.0)
    assert right_translation_isometry_check(m, g)
    # Cheeger: right translation by exp(-delta tau p0) is an isometry
    delta = -0.5
    mc = MetricOperator.cheeger(su2, delta)
    p0 = su2.element([1.0, 0.0, 0.0])
    assert right_translation_isometry_check(mc, group_exp(p0, -delta * 2.2))
    # but a generic group element is not an isometry
    q = group_exp(su2.element([0.3, 1.0, 0.4]), 1.0)
    assert not right_translation_isometry_check(mc, q)


def test_closed_geodesic_field_vanishes(su2):
    from liegeo import closed_biinvariant_time

    m = MetricOperator.cheeger(su2, -0.5)
    u0 = su2.element([1.0, 1.0, 0.0])
    tau = closed_biinvariant_time(m, u0, horizon=8.0)
    traj = integrate_euler_arnold(m, u0, T=1.05 * tau, dt=1e-3)
    assert explicit_closed_field(traj, tau).norm_biinv() < 1e-8
    assert explicit_closed_field(traj, 0.4 * tau).norm_biinv() > 1e-2
    verdict = closed_geodesic_conjugacy(traj, tau)
    assert verdict.isometry_ok and verdict.conjugate_at_or_before_tau
    # bad times are config errors, typed and still ValueErrors
    for bad in (
        lambda: explicit_closed_field(traj, traj.duration() + 0.5),
        lambda: closed_geodesic_conjugacy(traj, traj.duration() + 0.5),
        lambda: jacobi._checkpoint(traj.times, -1e-3),
    ):
        with pytest.raises(ConfigError):
            bad()
    assert issubclass(ConfigError, ValueError)


def test_closed_geodesic_rejects_steady(so3, rigid3):
    traj = integrate_euler_arnold(rigid3, so3.element_by_label("e12"), T=2.0, dt=1e-2)
    with pytest.raises(CriterionInapplicableError):
        closed_geodesic_conjugacy(traj, 1.0)


def test_report_json_schema(su2):
    traj = berger_traj(su2, delta=1.0, T=2.0)
    rep = find_conjugate_times(traj)
    doc = rep.to_json_dict()
    assert set(doc) == {"times", "multiplicities", "method", "tolerances"}
    assert len(doc["times"]) == len(doc["multiplicities"]) == len(doc["method"])
    # a horizon past the trajectory, or one grid step short of three nodes
    for horizon in (traj.duration() + 0.5, 1e-3):
        with pytest.raises(ConfigError):
            find_conjugate_times(traj, horizon=horizon)
