import numpy as np
import pytest

from liegeo.roots import MAX_ITER, bisect, golden_min, sign_changes


def test_bisect_finds_known_root():
    root = bisect(np.cos, 1.0, 2.0, np.cos(1.0), 1e-13)
    assert root == pytest.approx(np.pi / 2, abs=1e-13)


def test_bisect_returns_exact_zero_midpoint():
    calls = []

    def f(t):
        calls.append(t)
        return t - 0.5

    assert bisect(f, 0.0, 1.0, -0.5, 1e-12) == 0.5
    assert calls == [0.5]


def test_bisect_terminates_with_zero_tolerance():
    calls = []

    def f(t):
        calls.append(t)
        return t * t - 2.0

    root = bisect(f, 1.0, 2.0, -1.0, 0.0)
    assert root == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert len(calls) == MAX_ITER


def test_golden_min_finds_known_minimum():
    t = golden_min(lambda x: np.cosh(x - 0.3), 0.0, 1.0, 1e-10)
    assert t == pytest.approx(0.3, abs=1e-7)
    t = golden_min(lambda x: abs(x - 0.3), 0.0, 1.0, 1e-10)
    assert t == pytest.approx(0.3, abs=1e-10)


def test_golden_min_respects_rtol():
    calls = []

    def f(x):
        calls.append(x)
        return abs(x - 1000.25)

    loose = golden_min(f, 1000.0, 1001.0, 0.0, rtol=1e-6)
    n_loose = len(calls)
    assert loose == pytest.approx(1000.25, abs=1001.0 * 1e-6)
    calls.clear()
    tight = golden_min(f, 1000.0, 1001.0, 0.0, rtol=1e-14)
    assert tight == pytest.approx(1000.25, abs=1001.0 * 1e-14)
    assert len(calls) > n_loose


def test_sign_changes_is_lazy_and_ordered():
    ts = np.linspace(0.1, 10.0, 100)
    calls = []

    def f(t):
        calls.append(t)
        return np.sin(t)

    walk = sign_changes(f, ts, np.sin(ts), 1e-12)
    assert next(walk) == pytest.approx(np.pi, abs=1e-12)
    n_first = len(calls)
    assert list(walk) == pytest.approx([2 * np.pi, 3 * np.pi], abs=1e-12)
    assert len(calls) > n_first
    assert list(sign_changes(f, [0.0, 1.0], [0.0, 1.0], 1e-12)) == [0.0]
