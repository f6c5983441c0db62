import numpy as np
import pytest

from liegeo import (
    ConfigError,
    LieGeoError,
    MetricConstructionError,
    MetricOperator,
    cheeger_geodesic_exact,
    closed_biinvariant_time,
    group_exp,
    integrate_euler_arnold,
)
from liegeo.dynamics import rk4, rk4_stages, rk4_step_maps


def test_steady_direction_is_one_parameter_subgroup(so3, rigid3):
    u0 = so3.element_by_label("e12")
    traj = integrate_euler_arnold(rigid3, u0, T=3.0, dt=1e-3)
    assert np.abs(traj.velocities - u0.coords).max() < 1e-12
    g_ref = group_exp(u0, 3.0)
    assert np.abs(traj.frames[-1] - g_ref.matrix).max() < 1e-9


def test_conservation_and_frames_long_run(so3, rigid3):
    u0 = so3.element([1.0, 0.0, 1.0])  # e12 + e23, nonsteady
    traj = integrate_euler_arnold(rigid3, u0, T=20.0, dt=2.5e-3)
    assert traj.conservation_drift() < 1e-9
    # k equals g(u0, u0) exactly at t=0
    assert traj.conserved[0, 0] == pytest.approx(rigid3.metric_inner(u0, u0), abs=0.0)
    # orthogonality of frames preserved by the retraction
    defect = max(
        np.abs(traj.frames[i].T @ traj.frames[i] - np.eye(3)).max()
        for i in range(0, len(traj.times), 400)
    )
    assert defect < 1e-9


def test_momentum_conservation_law(so3, rigid3):
    u0 = so3.element([0.4, 0.3, 0.8])
    traj = integrate_euler_arnold(rigid3, u0, T=5.0, dt=1e-3)
    for idx in range(0, len(traj.times), 500):
        g = traj.frame_at_index(idx)
        back = rigid3.Ad_star_matrix(g.inverse()) @ traj.velocities[idx]
        assert np.linalg.norm(back - u0.coords) < 1e-8


def test_fourth_order_convergence(so3, rigid3):
    u0 = so3.element([0.4, 0.3, 0.8])
    ref = integrate_euler_arnold(rigid3, u0, T=2.0, dt=1.25e-4)
    errs = []
    for dt in (2e-2, 1e-2):
        t = integrate_euler_arnold(rigid3, u0, T=2.0, dt=dt)
        errs.append(np.linalg.norm(t.velocities[-1] - ref.velocities[-1]))
    order = np.log2(errs[0] / errs[1])
    assert abs(order - 4.0) < 0.5  # halving dt cuts the error ~16x


def test_cheeger_exact_delta_zero(su2):
    m = MetricOperator.cheeger(su2, 0.0)
    u0 = su2.element([0.3, 0.8, -0.1])
    g, u = cheeger_geodesic_exact(m, u0, 1.7)
    assert np.abs(g.matrix - group_exp(u0, 1.7).matrix).max() < 1e-12
    assert np.allclose(u.coords, u0.coords, atol=1e-12)


def test_cheeger_exact_pure_subgroup_direction(su2):
    # q0 = 0: both exponentials commute and collapse to exp(t p0)
    m = MetricOperator.cheeger(su2, -0.4)
    p0 = su2.element([1.0, 0.0, 0.0])
    g, u = cheeger_geodesic_exact(m, p0, 2.2)
    assert np.abs(g.matrix - group_exp(p0, 2.2).matrix).max() < 1e-11
    assert np.allclose(u.coords, p0.coords, atol=1e-12)


def test_cheeger_exact_vs_rk4(su2):
    m = MetricOperator.cheeger(su2, -0.5)
    u0 = su2.element([1.0, 0.7, -0.4])
    traj = integrate_euler_arnold(m, u0, T=2.0, dt=2e-4)
    g, u = cheeger_geodesic_exact(m, u0, 2.0)
    assert np.abs(traj.frames[-1] - g.matrix).max() < 1e-10
    assert np.linalg.norm(traj.velocities[-1] - u.coords) < 1e-10


def test_cheeger_exact_requires_cheeger(so3, rigid3):
    with pytest.raises(MetricConstructionError):
        cheeger_geodesic_exact(rigid3, so3.element([1, 0, 0]), 1.0)


@pytest.mark.parametrize("case", ["rigid-so3", "zeitlin-su3"])
def test_rk4_stages_reproduce_the_trajectory(case, so3, rigid3, su3):
    if case == "rigid-so3":
        m, u0 = rigid3, so3.element([0.4, 0.3, 0.8])
    else:
        m = MetricOperator.cheeger(su3, -2.0 / 3.0)
        u0 = su3.element([0.4, 0.1, 0.3, 0.2, 0.5, 0.1, 0.2, 0.3])
    traj = integrate_euler_arnold(m, u0, T=1.3, dt=1e-3)
    dt = traj.duration() / (len(traj.times) - 1)
    u_next, stages = rk4_stages(m, traj.velocities[:-1], dt)
    assert np.array_equal(u_next, traj.velocities[1:])
    assert np.array_equal(stages[0], traj.velocities[:-1])
    assert np.array_equal(traj.stages, np.stack(stages, axis=1))
    rows = np.array([m.ad_star_raw(u, u) for u in traj.velocities])
    assert np.array_equal(traj._slopes, rows)


def _per_step_frames(m, u0, T, dt):
    """Reference: RK4 on (u, gamma) and a polar retraction after every step."""
    mats = m.basis.basis_matrices
    n_steps = int(round(T / dt))
    h = T / n_steps
    u, gamma = np.array(u0.coords), np.eye(m.basis.matrix_size, dtype=mats.dtype)
    frames = [gamma]
    for _ in range(n_steps):
        u, stages = rk4_stages(m, u, h)
        gamma, _ = rk4(lambda s, g: g @ np.tensordot(stages[s], mats, axes=1), gamma, h)
        w, _, vh = np.linalg.svd(gamma)
        gamma = w @ vh
        if np.iscomplexobj(gamma):
            gamma = gamma * np.exp(-1j * np.angle(np.linalg.det(gamma)) / len(gamma))
        frames.append(gamma)
    return np.array(frames)


@pytest.mark.parametrize("case", ["rigid-so3", "rigid-so4", "zeitlin-su3"])
def test_step_map_frames_match_per_step_polar_rk4(case, so3, so4, rigid3, su3):
    if case == "rigid-so3":
        m, u0 = rigid3, so3.element([0.4, 0.3, 0.8])
    elif case == "rigid-so4":
        m = MetricOperator.rigid_body(so4, [1.0, 2.0, 3.0, 4.5])
        u0 = so4.element([0.4, -0.2, 0.3, 0.7, 0.1, -0.5])
    else:
        m = MetricOperator.cheeger(su3, -2.0 / 3.0)
        u0 = su3.element([0.4, 0.1, 0.3, 0.2, 0.5, 0.1, 0.2, 0.3])
    # 700 steps: two full blocks of step maps and a partial one
    traj = integrate_euler_arnold(m, u0, T=1.4, dt=2e-3)
    ref = _per_step_frames(m, u0, T=1.4, dt=2e-3)
    assert np.abs(traj.frames - ref).max() < 1e-12
    eye = np.eye(m.basis.matrix_size)
    defect = np.abs(np.swapaxes(traj.frames, 1, 2).conj() @ traj.frames - eye).max()
    assert defect < 1e-13
    if np.iscomplexobj(traj.frames):
        assert np.abs(np.linalg.det(traj.frames) - 1.0).max() < 1e-13


def test_rk4_step_maps_apply_one_rk4_step(rng):
    # the map of x' = G_s x is the step rk4 takes, for a batch of steps
    gens = rng.standard_normal((5, 4, 6, 6))
    x = rng.standard_normal((6, 2))
    maps = rk4_step_maps(gens, 0.3)
    for g, step_map in zip(gens, maps):
        ref = rk4(lambda s, v: g[s] @ v, x, 0.3)[0]
        assert np.abs(step_map @ x - ref).max() <= 1e-14 * np.abs(ref).max()


def test_closed_time_su2(su2):
    m = MetricOperator.cheeger(su2, -0.5)
    u0 = su2.element([1.0, 1.0, 0.0])
    tau = closed_biinvariant_time(m, u0, horizon=8.0)
    assert tau == pytest.approx(2 * np.pi / np.sqrt(1.25), abs=1e-8)


def test_closed_time_incommensurate_none(su3):
    m = MetricOperator.cheeger(su3, -0.4)
    rng = np.random.default_rng(3)
    u0 = su3.element(rng.standard_normal(su3.dim))
    assert closed_biinvariant_time(m, u0, horizon=30.0) is None


def test_closed_time_local_minima_match_loop(su2, su3):
    from liegeo.dynamics import _local_minima_below

    def loop(vals, level):
        n = len(vals)
        return [
            i
            for i in range(n)
            if vals[i] < level
            and (i == 0 or vals[i] <= vals[i - 1])
            and (i == n - 1 or vals[i] <= vals[i + 1])
        ]

    rng = np.random.default_rng(5)
    cases = [
        (MetricOperator.cheeger(su2, -0.5), su2.element([1.0, 1.0, 0.0]), 8.0),
        (MetricOperator.cheeger(su2, 0.3), su2.element([0.0, 1.0, 0.0]), 40.0),
        (MetricOperator.cheeger(su3, -0.4), su3.element(rng.standard_normal(su3.dim)), 30.0),
    ]
    for m, u0, horizon in cases:
        lam = np.tensordot(m.apply_raw(u0.coords), m.basis.basis_matrices, axes=1)
        w = np.linalg.eigvalsh(1j * np.asarray(lam, dtype=complex))
        ts = np.linspace(0.0, horizon, 4097)[1:]
        vals = np.sqrt(np.sum(np.abs(np.exp(-1j * np.outer(ts, w)) - 1.0) ** 2, axis=1))
        for level in (1e-2, 0.5, np.inf):
            assert _local_minima_below(vals, level).tolist() == loop(vals, level)
    plateau = np.array([0.0, 0.0, 1.0, 0.5, 0.5, 2.0, 0.001])
    assert _local_minima_below(plateau, 1.0).tolist() == loop(plateau, 1.0) == [0, 1, 3, 4, 6]


def test_divergence_reports_last_valid_time(so3, rigid3):
    from liegeo import IntegrationDivergedError

    # grossly oversized steps make the quadratic RHS blow up in finite steps;
    # the first failing step wins, the non-finite check before the group check.
    # A numerically singular step map counts as leaving the group, so the
    # verdict does not hang on rounding: nudging u0 by one ulp keeps it.
    cases = [
        ([50.0, 40.0, 30.0], 1000.0, 10.0, "frame left the group at t=10", 0.0),
        ([50.0, 40.0, 30.0], 100.0, 0.5, "frame left the group at t=0.5", 0.0),
        ([50.0, 40.0, 30.0], 100.0, 0.2, "frame left the group at t=0.6", 0.4),
        ([500.0, 400.0, 300.0], 100.0, 0.1, "frame left the group at t=0.1", 0.0),
        ([15.0, 12.0, 9.0], 100.0, 10.0, "frame left the group at t=10", 0.0),
        ([150.0, 120.0, 90.0], 10.0, 0.1, "frame left the group at t=0.2", 0.1),
        ([5.0, 4.0, 3.0], 30.0, 3.0, "frame left the group at t=6", 3.0),
        ([5e100, 4e100, 3e100], 1.0, 0.1, "non-finite state at t=0.1", 0.0),
    ]
    for u0, T, dt, message, last_valid in cases:
        for nudge in (0.0, np.inf, -np.inf):
            u = np.array(u0) if nudge == 0.0 else np.nextafter(u0, nudge)
            with pytest.raises(IntegrationDivergedError) as excinfo:
                integrate_euler_arnold(rigid3, so3.element(u), T=T, dt=dt)
            assert str(excinfo.value) == message
            assert excinfo.value.last_valid_time == last_valid


@pytest.mark.parametrize(
    "T, dt",
    [(0.0, None), (-1.0, 0.1), (float("nan"), None), (float("inf"), 0.1), (1.0, 2.0),
     (1.0, 0.0), (1.0, -0.1), (1.0, float("nan"))],
)
def test_bad_horizon_or_step_is_config_error(so3, rigid3, T, dt):
    with pytest.raises(ConfigError):
        integrate_euler_arnold(rigid3, so3.element_by_label("e12"), T=T, dt=dt)


def test_polar_retract_flags_singular_maps():
    from liegeo.dynamics import _polar_retract

    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    ratio = np.diag([1.0, 1.0, 1e-17])  # sigma_min / sigma_max below 3 eps
    maps = np.stack([rot, rot @ ratio, -rot, rot @ np.diag([1.0, 1.0, 1e-14])])
    q, left = _polar_retract(maps)
    assert left.tolist() == [False, True, True, False]
    _, left_c = _polar_retract(maps.astype(complex))
    assert left_c.tolist() == [False, True, False, False]
    assert np.abs(q[0] - rot).max() < 1e-15


def test_csv_export(tmp_path, su2):
    m = MetricOperator.cheeger(su2, -0.5)
    traj = integrate_euler_arnold(m, su2.element([1.0, 0.5, 0.0]), T=0.1, dt=1e-2)
    path = tmp_path / "traj.csv"
    traj.export_csv(path, config_hash="abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash: abc123"
    header = lines[1].split(",")
    assert header[0] == "t" and header[-2:] == ["k", "l"]
    assert len(lines) == 2 + len(traj.times)
    # 17 significant digits round-trip
    row = lines[3].split(",")
    assert float(row[0]) == traj.times[1]
    assert float(row[1]) == traj.velocities[1][0]


def test_index_of_time_off_grid_is_typed(so3, rigid3):
    traj = integrate_euler_arnold(rigid3, so3.element_by_label("e12"), T=0.1, dt=1e-2)
    assert traj.index_of_time(0.05) == 5
    with pytest.raises(ValueError) as excinfo:
        traj.index_of_time(0.055)
    assert isinstance(excinfo.value, LieGeoError)
