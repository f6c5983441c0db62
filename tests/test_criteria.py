import numpy as np
import pytest

from liegeo import (
    CriterionInapplicableError,
    LieGeoError,
    MetricOperator,
    cheeger_index_test_field,
    cheeger_nonsteady_condition,
    commuting_block_scan,
    index_form_tau,
    index_form_value,
    integrate_euler_arnold,
    misiolek_scan,
    nonsteady_frame,
    nonsteady_quadratic_criterion,
    project_h,
    project_h_perp,
    rigid_body_L2_check,
    steady_determinant_scan,
    steady_operators,
)
from liegeo.algebra import ad_matrix_raw, build_so_basis
from liegeo.criteria import (
    GRID_BLOCK,
    _first_zero,
    _generalized_trig,
    _multiplicity,
    _steady_criterion_matrix,
    block_functions,
    steady_determinant_grid,
    steady_determinant_value,
)
from liegeo.roots import bisect, sign_changes


def test_steady_operators_so3(so3, rigid3):
    u0 = so3.element_by_label("e12")
    crit = steady_operators(rigid3, u0)
    assert crit.status == "applicable"
    assert crit.residual < 1e-12
    # the paper's explicit R = lambda^-1 L^-1 Lambda on span{e13, e23}
    r_explicit = np.linalg.solve(crit.L, np.diag([2.0, 2.5])) / 1.5
    check = r_explicit @ crit.F + crit.L @ r_explicit
    assert np.abs(check - np.eye(2)).max() < 1e-12
    assert np.abs(crit.R @ crit.F + crit.L @ crit.R - np.eye(2)).max() < 1e-12


def test_steady_operators_preserve_complement(so4, rng):
    m = MetricOperator.diagonal(so4, rng.uniform(0.5, 3.0, so4.dim))
    for i in range(so4.dim):
        u0 = so4.basis_element(i)
        crit = steady_operators(m, u0)
        lam = m.matrix
        e0 = u0.coords / np.sqrt(u0.coords @ lam @ u0.coords)
        l_full = ad_matrix_raw(so4, u0.coords)
        f_full = m.ad_star_matrix_of(u0.coords) + m.coad_force_matrix(u0.coords)
        for mat in (l_full, f_full):
            img = mat @ crit.frame
            assert np.abs(e0 @ lam @ img).max() < 1e-10
        if crit.status == "applicable":
            dim = crit.L.shape[0]
            assert crit.residual < 1e-9


def test_steady_operators_rejects_nonsteady(so3, rigid3):
    with pytest.raises(CriterionInapplicableError):
        steady_operators(rigid3, so3.element([1.0, 0.0, 1.0]))


def test_abelian_is_inapplicable(torus):
    m = MetricOperator.diagonal(torus, [1.0, 2.0])
    crit = steady_operators(m, torus.element([1.0, 0.0]))
    assert crit.status == "inapplicable-spectral"
    with pytest.raises(CriterionInapplicableError):
        steady_determinant_scan(crit, horizon=5.0)


def test_determinant_nonzero_near_zero(so3, rigid3):
    crit = steady_operators(rigid3, so3.element_by_label("e12"))
    for tau in (1e-3, 1e-2, 0.1):
        assert steady_determinant_value(crit, tau) != 0.0
    # M(tau) ~ 2 tau I for small tau
    val = steady_determinant_value(crit, 1e-4)
    assert val == pytest.approx((2e-4) ** 2, rel=1e-3)


def _grid_bodies():
    """Steady axes on so(3)..so(6), plus a hyperbolic and a defective F."""
    rng = np.random.default_rng(5)
    bodies = []
    for n in (3, 4, 5, 6):
        mu = rng.uniform(1.0, 4.0, n)
        i, j = sorted(int(k) for k in rng.choice(n, 2, replace=False))
        m = MetricOperator.rigid_body(build_so_basis(n), mu)
        bodies.append((m, f"e{i + 1}{j + 1}", None))
    so3 = build_so_basis(3)
    # middle axis: one block with d < 0; Lambda eigenvalue equal to lambda: d = 0
    bodies.append((MetricOperator.rigid_body(so3, [1.0, 2.0, 3.0]), "e13", -1))
    bodies.append((MetricOperator.diagonal(so3, [1.0, 1.0, 2.0]), "e12", 0))
    return bodies


@pytest.mark.parametrize("count", [50, 4001])
def test_determinant_grid_matches_expm_loop(count):
    assert count % GRID_BLOCK != 0
    h = 4.0 / count
    for m, label, d_sign in _grid_bodies():
        u0 = m.basis.element_by_label(label)
        if d_sign is not None:
            data, _ = commuting_block_scan(m, u0)
            assert [np.sign(round(b.d, 12)) for b in data.blocks] == [d_sign]
        crit = steady_operators(m, u0)
        grid = steady_determinant_grid(crit, h, count)
        taus = h * np.arange(1, count + 1)
        mats = np.array([_steady_criterion_matrix(crit, t) for t in taus])
        loop = np.array([steady_determinant_value(crit, t) for t in taus])
        assert np.array_equal(loop, np.linalg.det(mats))
        # a determinant's rounding scale is the n-th power of its matrix norm
        scale = np.linalg.norm(mats, 2, axis=(1, 2)) ** mats.shape[1]
        assert np.all(np.abs(grid - loop) <= 1e-11 * scale), (m.basis.name, label)


def _golden_min(f, a, b, xtol):
    """Golden-section search to a bracket no longer than xtol."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _reference_det_scan(crit, horizon, samples):
    """(taus, multiplicities) of the steady det scan by bisection and golden section."""
    taus = np.linspace(0.0, horizon, samples + 1)[1:]
    h = float(taus[1] - taus[0])
    vals = steady_determinant_grid(crit, horizon / samples, samples)

    def det(t):
        return steady_determinant_value(crit, t)

    events = []
    for i in range(samples - 1):
        if vals[i] == 0.0:
            events.append(float(taus[i]))
        elif (vals[i] < 0) != (vals[i + 1] < 0):
            events.append(bisect(det, float(taus[i]), float(taus[i + 1]), vals[i], 1e-12))
    mag = np.abs(vals)
    for i in range(1, samples - 1):
        if not (mag[i] <= mag[i - 1] and mag[i] <= mag[i + 1] and max(mag[i - 1], mag[i + 1]) > 0):
            continue
        a, b = float(taus[i - 1]), float(taus[i + 1])
        tau = _golden_min(lambda t: abs(det(t)), a, b, 1e-12)
        if abs(det(tau)) >= 1e-9 * max(mag[i - 1], mag[i + 1]):
            continue
        if any(abs(tau - e) <= 2 * h for e in events):
            continue
        lo, hi = tau - 1e-6 * h, tau + 1e-6 * h
        if (det(lo) < 0) == (det(hi) < 0):
            events.append(tau)
        elif (vals[i - 1] < 0) != (det(lo) < 0):
            events += [tau, bisect(det, a, lo, vals[i - 1], 1e-12)]
        else:
            events += [tau, bisect(det, hi, b, det(hi), 1e-12)]
    events.sort()
    mults = []
    for tau in events:
        scale = max(
            np.linalg.norm(_steady_criterion_matrix(crit, tau + h), 2),
            np.linalg.norm(_steady_criterion_matrix(crit, max(tau - h, 0.0)), 2),
        )
        mults.append(_multiplicity(_steady_criterion_matrix(crit, tau), scale))
    return events, mults


def test_det_scan_matches_bisection_reference():
    horizon, samples = 6.0, 1200
    for m, label, _ in _grid_bodies():
        crit = steady_operators(m, m.basis.element_by_label(label))
        scan = steady_determinant_scan(crit, horizon, samples)
        want_taus, want_mults = _reference_det_scan(crit, horizon, samples)
        assert want_taus, (m.basis.name, label)
        assert np.abs(np.array(scan.taus) - want_taus).max() <= 1e-12, (m.basis.name, label)
        assert [e.multiplicity for e in scan.events] == want_mults


@pytest.mark.parametrize(
    "alpha, beta, d_sign",
    [(2.0, 2.5, 1), (1.0, 2.0, -1), (1.5, 2.5, 0)],
    ids=["elliptic", "hyperbolic", "defective"],
)
def test_first_zero_matches_scalar_loop(alpha, beta, d_sign):
    eps, lam = 1.0, 1.5
    f, g, d, r = block_functions(eps, alpha, beta, lam)
    assert np.sign(d) == d_sign
    horizon = 3.0 * max(2 * np.pi / eps, 2 * np.pi / r if r > 0 else 0.0)
    ts = np.linspace(0.0, horizon, 8001)[1:]
    c, s, _ = _generalized_trig(d)
    assert np.shape(c(ts)) == np.shape(s(ts)) == ts.shape
    for fn in (f, g):
        vals = np.array([fn(t) for t in ts])
        want = next(sign_changes(fn, ts, vals, 1e-12), None)
        assert want is not None
        assert _first_zero(fn, horizon) == want


def test_commuting_block_scan_so3(so3, rigid3):
    u0 = so3.element_by_label("e12")
    data, rep = commuting_block_scan(rigid3, u0)
    assert data.lam == pytest.approx(1.5)
    assert len(data.blocks) == 1
    b = data.blocks[0]
    assert (b.eps, b.alpha, b.beta) == pytest.approx((1.0, 2.0, 2.5))
    assert b.d == pytest.approx(0.1, abs=1e-14)  # eps^2 (b-l)(a-l)/(ab)
    assert data.kernel_dim == 0
    assert rep.events and rep.first_time() > 0


def test_block_scan_middle_axis_unstable(so3, rigid3):
    data, rep = commuting_block_scan(rigid3, so3.element_by_label("e13"))
    assert data.blocks[0].d == pytest.approx(-1.0 / 15.0, abs=1e-14)
    assert not data.eulerian_stable
    assert rep.events  # hyperbolic case still produces a conjugate time


def test_block_scan_equal_eigenvalues_gives_pi(so3):
    # alpha = beta = lambda: deformation terms vanish, first zero at pi/eps
    m = MetricOperator.rigid_body(so3, [1.0, 1.0, 1.0])
    data, rep = commuting_block_scan(m, so3.element_by_label("e12"))
    assert data.blocks[0].first_zero_f == pytest.approx(np.pi, abs=1e-9)
    assert rep.first_time() == pytest.approx(2 * np.pi, abs=1e-8)


def test_det_scan_matches_block_scan(so3, so4, rigid3, rng):
    cases = [
        (rigid3, "e12"),
        (rigid3, "e23"),
        (MetricOperator.diagonal(so4, rng.uniform(0.5, 3.0, so4.dim)), "e14"),
    ]
    for m, label in cases:
        u0 = m.basis.element_by_label(label)
        data, block_rep = commuting_block_scan(m, u0)
        crit = steady_operators(m, u0)
        scan = steady_determinant_scan(crit, horizon=0.75 * block_rep.first_time())
        assert scan.first_time() == pytest.approx(block_rep.first_time(), abs=1e-5)


def test_det_scan_resolves_two_zeros_within_one_step():
    # two block-function zeros 1.7e-5 apart in tau, well inside one scan step
    so6 = build_so_basis(6)
    mu = [2.0170291789243997, 3.364176307160545, 1.6498900074163851,
          1.398828382928375, 3.1472802488066316, 1.1508281450968572]
    m = MetricOperator.rigid_body(so6, mu)
    u0 = so6.element_by_label("e45")
    _, block_rep = commuting_block_scan(m, u0)
    scan = steady_determinant_scan(steady_operators(m, u0), horizon=4.0)
    block_times = [t for t in block_rep.times if t <= 8.0]
    assert len(block_times) == 7
    assert scan.times == pytest.approx(block_times, abs=1e-7)
    assert [e.multiplicity for e in scan.events] == [1] * 7


def test_nonrigid_negative_ricci_still_conjugate(so4):
    # l12 large: some Ricci values negative, conjugate points persist
    from liegeo import ricci_rigid_closed_form

    lam = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert np.any(ricci_rigid_closed_form(4, lam=lam) < 0)
    m = MetricOperator.diagonal(so4, lam)
    data, rep = commuting_block_scan(m, so4.element_by_label("e12"))
    assert rep.events
    # f = g = sin(5t) in both active blocks: fourfold zero at pi/5
    assert rep.first_time() == pytest.approx(2 * np.pi / 5.0, abs=1e-9)
    assert rep.events[0].multiplicity == 4


def test_rigid_body_steady_directions_so5(rng):
    # every steady basis direction of a rigid body develops conjugate points
    from liegeo import build_so_basis

    so5 = build_so_basis(5)
    m = MetricOperator.rigid_body(so5, [1.0, 1.7, 2.4, 3.1, 4.2])
    for label in ("e12", "e25", "e34"):
        data, rep = commuting_block_scan(m, so5.element_by_label(label))
        assert rep.events and rep.first_time() > 0


def test_rigid_body_L2_check(so3, so4, rigid3, rng):
    assert rigid_body_L2_check(rigid3, so3.element_by_label("e12"))
    from liegeo import build_so_basis

    so5 = build_so_basis(5)
    m5 = MetricOperator.diagonal(so5, rng.uniform(0.5, 4.0, so5.dim))
    for label in ("e24", "e15", "e45"):
        assert rigid_body_L2_check(m5, so5.element_by_label(label))
    # L^2 e13 = -e13 for u0 = e12 in so(3)
    l = ad_matrix_raw(so3, so3.element_by_label("e12").coords)
    e13 = so3.element_by_label("e13").coords
    assert np.allclose(l @ (l @ e13), -e13)


def test_nonsteady_frame_berger_constants(su2):
    m = MetricOperator.cheeger(su2, -0.5)
    traj = integrate_euler_arnold(m, su2.element([1.0, 1.0, 0.0]), T=3.0, dt=1e-3)
    frame = nonsteady_frame(traj)
    assert frame.orthogonality_residual < 1e-8
    assert np.ptp(frame.psi) < 1e-8
    assert np.ptp(frame.phi) < 1e-8


def test_nonsteady_frame_so3(so3, rigid3):
    traj = integrate_euler_arnold(rigid3, so3.element([1.0, 0.2, 0.8]), T=5.0, dt=1e-3)
    frame = nonsteady_frame(traj)
    assert frame.orthogonality_residual < 1e-8


def test_nonsteady_frame_rejects_steady(so3, rigid3):
    traj = integrate_euler_arnold(rigid3, so3.element_by_label("e12"), T=1.0, dt=1e-2)
    with pytest.raises(CriterionInapplicableError):
        nonsteady_frame(traj)


def test_nonsteady_verdict(su3, rng):
    m = MetricOperator.cheeger(su3, -2.0 / 3.0)
    coords = rng.standard_normal(su3.dim)
    traj = integrate_euler_arnold(m, su3.element(coords), T=2.0, dt=2e-3)
    verdict, frame = nonsteady_quadratic_criterion(traj)
    assert verdict.verdict == "satisfied-on-horizon"
    assert verdict.psi_min > 0 and verdict.phi_min > 0
    tau = index_form_tau(verdict.psi_min, verdict.phi_min)
    assert tau > 0


def test_cheeger_condition(su3, su2, rng):
    # any -1 < delta <= 0 with [p0,q0] != 0 satisfies the inequality
    coords = rng.standard_normal(su3.dim)
    u0 = su3.element(coords)
    p0, q0 = project_h(u0), project_h_perp(u0)
    for delta in (-0.9, -2.0 / 3.0, -0.1, 0.0):
        assert cheeger_nonsteady_condition(delta, p0, q0)
    # Berger spheres (dim h = 1): satisfied for any delta > -1
    p2 = project_h(su2.element([1.0, 0.6, -0.2]))
    q2 = project_h_perp(su2.element([1.0, 0.6, -0.2]))
    for delta in (-0.95, 0.0, 1.0, 5.0, 50.0):
        assert cheeger_nonsteady_condition(delta, p2, q2)
    # steady direction rejected
    with pytest.raises(CriterionInapplicableError):
        cheeger_nonsteady_condition(-0.5, p0, su3.zero())


def test_index_form_zero_field(so3, rigid3):
    traj = integrate_euler_arnold(rigid3, so3.element([1.0, 0.0, 1.0]), T=2.0, dt=1e-3)
    ys = np.zeros((len(traj.times), 3))
    assert index_form_value(traj, ys, traj.duration()) == 0.0


def test_index_form_endpoint_check(so3, rigid3):
    traj = integrate_euler_arnold(rigid3, so3.element([1.0, 0.0, 1.0]), T=2.0, dt=1e-3)
    ys = np.ones((len(traj.times), 3))
    with pytest.raises(ValueError) as excinfo:
        index_form_value(traj, ys, traj.duration())
    assert isinstance(excinfo.value, LieGeoError)


def test_index_form_misiolek_field_negative(so3, rigid3):
    # steady u0 = e23 with misiolek_value < 0: y = sin(pi t / tau) v goes negative
    u0 = so3.element_by_label("e23")
    scan = misiolek_scan(rigid3, u0, seed=1)
    assert scan.minimum < 0
    v = scan.argmin
    tau = 40.0
    traj = integrate_euler_arnold(rigid3, u0, T=tau, dt=tau / 4000)
    f = np.sin(np.pi * traj.times / tau)
    ys = f[:, None] * v[None, :]
    assert index_form_value(traj, ys, tau) < 0


def test_index_form_appendix_field_negative(su3, rng):
    # two-sine ansatz on a Zeitlin nonsteady geodesic at 1.5x the threshold tau
    m = MetricOperator.cheeger(su3, -2.0 / 3.0)
    coords = rng.standard_normal(su3.dim)
    coords /= np.linalg.norm(coords)
    probe = integrate_euler_arnold(m, su3.element(coords), T=1.0, dt=2e-3)
    verdict, _ = nonsteady_quadratic_criterion(probe)
    tau = 1.5 * index_form_tau(verdict.psi_min, verdict.phi_min)
    traj = integrate_euler_arnold(m, su3.element(coords), T=tau, dt=tau / 4000)
    _, frame = nonsteady_quadratic_criterion(traj)
    ys = cheeger_index_test_field(traj, frame, traj.duration())
    assert np.linalg.norm(ys[0]) < 1e-10 and np.linalg.norm(ys[-1]) < 1e-10
    assert index_form_value(traj, ys, traj.duration()) < 0
    # a certified-negative index form must be matched by a detector event
    from liegeo import find_conjugate_times

    rep = find_conjugate_times(traj)
    assert rep.events and rep.first_time() < traj.duration()
