import numpy as np
import pytest

from liegeo import (
    LieGeoError,
    berger_det,
    berger_first_conjugate_time,
    emit_locus,
    generate_locus_slice,
)
from liegeo.locus import emit_locus_csv, emit_locus_svg
from liegeo.roots import bisect


def test_det_delta_zero_unit_sphere():
    # S sin^2(Rt) with R = S = 1: zeros at multiples of pi
    p, q = np.sqrt(0.5), np.sqrt(0.5)
    ts = np.linspace(0.01, 10, 500)
    vals = berger_det(ts, 0.0, p, q)
    assert np.all(vals >= -1e-14)
    for k in (1, 2, 3):
        assert abs(berger_det(k * np.pi, 0.0, p, q)) < 1e-12


def test_det_trivial_zero_at_origin():
    assert berger_det(0.0, -0.5, 1.0, 1.0) == 0.0


def test_first_time_delta_positive():
    res = berger_first_conjugate_time(1.0, 1.0, 1.0)
    assert res.branch == "sin-root"
    assert res.time == pytest.approx(np.pi / np.sqrt(5.0), abs=1e-12)


def test_first_time_round_sphere():
    for theta in (0.3, 0.9, 1.4):
        res = berger_first_conjugate_time(0.0, np.cos(theta), np.sin(theta))
        assert res.time == pytest.approx(np.pi, abs=1e-12)


def test_first_time_delta_negative_tan_root():
    delta = -0.5
    res = berger_first_conjugate_time(delta, 1.0, 1.0)
    r = np.sqrt((1 + delta) ** 2 + 1.0)
    assert res.branch == "tan-root"
    assert np.pi / (2 * r) < res.time < np.pi / r
    # root of tan(Rt)/(Rt) = delta|q|^2/((1+delta) S) with S = 1.5
    assert np.tan(r * res.time) / (r * res.time) == pytest.approx(
        -0.5 / (0.5 * 1.5), abs=1e-9
    )
    # and it is a genuine sign change of the determinant
    assert berger_det(res.time - 1e-6, delta, 1.0, 1.0) * berger_det(
        res.time + 1e-6, delta, 1.0, 1.0
    ) < 0


def test_reported_times_are_det_zeros():
    for delta in (-0.75, -0.25, 0.0, 0.5, 2.0):
        for theta in (0.2, 0.7, 1.2):
            p, q = np.cos(theta), np.sin(theta)
            t = berger_first_conjugate_time(delta, p, q).time
            assert abs(berger_det(t, delta, p, q)) < 1e-10


def test_steady_axis_label():
    res = berger_first_conjugate_time(-0.5, 1.0, 0.0)
    assert res.branch == "steady-axis"
    assert res.time == pytest.approx(np.pi / 0.5, abs=1e-12)


def test_slice_delta_zero_is_circle():
    sl = generate_locus_slice(0.0, n_angles=64)
    assert np.allclose(sl.t_star, np.pi, atol=1e-12)


def test_slice_symmetry():
    n = 360
    sl = generate_locus_slice(-0.6, n_angles=n)
    t = sl.t_star
    for i in range(n):
        # theta -> -theta and theta -> pi - theta leave t* unchanged
        assert abs(t[i] - t[(n - i) % n]) < 1e-12
        assert abs(t[i] - t[(n // 2 - i) % n]) < 1e-12


def test_slices_nested_in_momentum_convention():
    # unit-momentum directions: all slices meet the axis at radius pi and
    # deeper deformations nest strictly inside shallower ones off the axis
    deltas = [-0.001, -0.25, -0.5, -0.75, -0.95]
    slices = [generate_locus_slice(d, n_angles=180) for d in deltas]
    off_axis = np.abs(np.sin(slices[0].theta)) > 1e-12
    for outer, inner in zip(slices, slices[1:]):
        assert np.all(inner.t_star[off_axis] <= outer.t_star[off_axis] + 1e-12)
        assert np.all(inner.t_star[off_axis] < outer.t_star[off_axis] + 1e-3)


def test_biinvariant_slices_nested_only_off_axis():
    # unit bi-invariant velocities: nesting holds on the equatorial band but
    # genuinely reverses near the fiber axis, where first conjugate times
    # grow like pi/(1+delta) as the fiber collapses
    deltas = [-0.001, -0.25, -0.5, -0.75, -0.95]
    slices = [generate_locus_slice(d, n_angles=180, unit="biinvariant") for d in deltas]
    band = np.abs(np.sin(slices[0].theta)) >= np.sin(np.radians(41.0))
    for outer, inner in zip(slices, slices[1:]):
        assert np.all(inner.t_star[band] <= outer.t_star[band] + 1e-12)
    th = np.radians(30.0)
    t_deep = berger_first_conjugate_time(-0.95, np.cos(th), np.sin(th)).time
    t_flat = berger_first_conjugate_time(-0.001, np.cos(th), np.sin(th)).time
    assert t_deep > t_flat


def test_slice_positive_delta_extents():
    delta = 0.5
    sl = generate_locus_slice(delta, n_angles=360, unit="biinvariant")
    # pure-h axis: pi/(1+delta); pure-perp axis: pi
    assert sl.t_star[0] == pytest.approx(np.pi / 1.5, abs=1e-12)
    assert sl.t_star[90] == pytest.approx(np.pi, abs=1e-12)
    # in the momentum convention a delta >= 0 slice is the round circle
    sm = generate_locus_slice(delta, n_angles=360)
    assert np.allclose(sm.t_star, np.pi, atol=1e-12)


def test_metric_unit_option():
    sl = generate_locus_slice(-0.5, n_angles=64, unit="metric")
    assert sl.unit == "metric"
    # pure h-perp directions agree between conventions (Lambda is identity there)
    sb = generate_locus_slice(-0.5, n_angles=64, unit="biinvariant")
    assert sl.t_star[16] == pytest.approx(sb.t_star[16], abs=1e-12)


def test_emit_files(tmp_path):
    slices = [generate_locus_slice(d, n_angles=32) for d in (-0.25, 0.0)]
    csv_path = tmp_path / "locus.csv"
    svg_path = tmp_path / "locus.svg"
    emit_locus_csv(slices, csv_path, config_hash="cafe")
    emit_locus_svg(slices, svg_path, config_hash="cafe")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# config_hash: cafe"
    assert lines[1] == "theta,t_star,x,y,delta"
    assert len(lines) == 2 + 2 * 32
    th, ts, x, y, d = map(float, lines[2].split(","))
    assert x == pytest.approx(ts * np.cos(th)) and y == pytest.approx(ts * np.sin(th))
    svg = svg_path.read_text()
    assert svg.count("<path") == 2 and "config_hash: cafe" in svg
    with pytest.raises(ValueError) as excinfo:
        emit_locus(slices, tmp_path / "locus.bogus", "bogus")
    assert isinstance(excinfo.value, LieGeoError)


def test_minimum_angles():
    with pytest.raises(ValueError) as excinfo:
        generate_locus_slice(0.0, n_angles=4)
    assert isinstance(excinfo.value, LieGeoError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: berger_det(1.0, -1.0, 1.0, 0.0),
        lambda: berger_first_conjugate_time(-1.5, 1.0, 0.0),
        lambda: berger_first_conjugate_time(0.0, 0.0, 0.0),
        lambda: generate_locus_slice(-1.0),
        lambda: generate_locus_slice(0.0, unit="furlong"),
    ],
    ids=["det-delta", "first-time-delta", "first-time-zero-direction", "slice-delta", "slice-unit"],
)
def test_bad_locus_input_is_typed(call):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert isinstance(excinfo.value, LieGeoError)


def _scalar_first_time(delta, p, q):
    # the per-direction formula with scalar arithmetic and the scalar bisect;
    # every square is x * x, never libm pow
    a = 1.0 + delta
    r = float(np.sqrt(a * a * (p * p) + q * q))
    if q == 0.0:
        return np.pi / (a * p), "steady-axis"
    if delta >= 0.0:
        return np.pi / r, "sin-root"
    target = delta * (q * q) / (a * float(a * (p * p) + q * q))

    def fn(t):
        return np.tan(r * t) / (r * t) - target

    lo = np.pi / (2.0 * r) * (1.0 + 1e-13)
    hi = np.pi / r * (1.0 - 1e-13)
    return bisect(fn, lo, hi, fn(lo), 1e-12), "tan-root"


def _per_angle_loop(delta, n_angles, unit, stride):
    # every angle against the scalar formula; every stride-th one also against
    # berger_first_conjugate_time (a one-element call of the slice kernel)
    times, branches = [], []
    for i, th in enumerate(np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)):
        p, q = abs(np.cos(th)), abs(np.sin(th))
        p, q = (0.0 if p < 1e-12 else p), (0.0 if q < 1e-12 else q)
        if unit == "metric":
            speed = np.sqrt((1.0 + delta) * (p * p) + q * q)
            p, q = p / speed, q / speed
        elif unit == "momentum":
            p = p / (1.0 + delta)
        time, branch = _scalar_first_time(delta, p, q)
        if i % stride == 0:
            res = berger_first_conjugate_time(delta, p, q)
            assert (res.time, res.branch) == (time, branch)
        times.append(time)
        branches.append(branch)
    return np.array(times), branches


@pytest.mark.parametrize("unit", ["momentum", "biinvariant", "metric"])
@pytest.mark.parametrize("n_angles", [8, 720])
def test_slice_matches_per_angle_loop(unit, n_angles):
    for delta in (-0.95, -0.5, -1e-9, 0.0, 0.7):
        sl = generate_locus_slice(delta, n_angles=n_angles, unit=unit)
        times, branches = _per_angle_loop(delta, n_angles, unit, stride=max(1, n_angles // 80))
        assert sl.t_star.tobytes() == times.tobytes()
        assert sl.branch == branches
        # theta = 0 has q = 0 (steady axis); theta = pi/2 has p = 0
        assert sl.branch[0] == "steady-axis"
        assert sl.branch[n_angles // 4] == ("tan-root" if delta < 0 else "sin-root")
