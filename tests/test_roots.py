import numpy as np
import pytest

from liegeo.roots import MAX_ITER, bisect, bisect_many, brent_min, brent_root, sign_changes


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


def _bisect_loop(f_at, a, b, fa, xtol):
    return np.array(
        [bisect(lambda t, i=i: f_at(i, t), a[i], b[i], fa[i], xtol) for i in range(len(a))]
    )


def test_bisect_many_matches_bisect_loop():
    rng = np.random.default_rng(7)
    n = 300
    shift = rng.uniform(-2.0, 2.0, n)
    a = shift - rng.uniform(0.1, 3.0, n)
    b = shift + rng.uniform(0.1, 3.0, n)
    scale = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 4.0, n)

    # only correctly rounded operations, so array and scalar f agree bit for bit
    def f_at(s, c, t):
        g = t - c
        return s * g * (g * g + 0.5)

    fa = f_at(scale, shift, a)
    for xtol in (1e-12, 1e-3, 0.0):
        got = bisect_many(lambda t: f_at(scale, shift, t), a, b, fa, xtol)
        want = _bisect_loop(lambda i, t: f_at(scale[i], shift[i], t), a, b, fa, xtol)
        assert got.tobytes() == want.tobytes()


def test_bisect_many_exact_zero_midpoint_and_mixed_lengths():
    # element 0 hits its root exactly at the first midpoint; element 1 is
    # already shorter than xtol; element 2 needs the full bisection
    a = np.array([0.0, 1.0, 1.0])
    b = np.array([1.0, 1.0 + 1e-14, 2.0])
    roots = np.array([0.5, 1.0, np.sqrt(2.0)])

    def f(t):
        return t - roots

    got = bisect_many(f, a, b, f(a), 1e-12)
    assert got[0] == 0.5
    assert got[1] == 0.5 * (a[1] + b[1])
    assert got[2] == bisect(lambda t: t - roots[2], 1.0, 2.0, 1.0 - roots[2], 1e-12)


def test_bisect_many_zero_tolerance_stops_at_iteration_cap():
    calls = []

    def f(t):
        calls.append(t.copy())
        return t * t - np.array([2.0, 3.0])

    a, b = np.array([1.0, 1.0]), np.array([2.0, 2.0])
    got = bisect_many(f, a, b, f(a), 0.0)
    assert len(calls) == MAX_ITER + 1
    for i, c in enumerate((2.0, 3.0)):
        assert got[i] == bisect(lambda t: t * t - c, 1.0, 2.0, 1.0 - c, 0.0)


def _counting(fn):
    calls = []

    def f(t):
        calls.append(t)
        return fn(t)

    return f, calls


def test_brent_root_finds_known_root():
    f, calls = _counting(np.cos)
    root = brent_root(f, 1.0, 2.0, np.cos(1.0), np.cos(2.0), 1e-13)
    assert root == pytest.approx(np.pi / 2, abs=1e-13)
    assert len(calls) < 10


def test_brent_root_returns_a_zero_end_at_once():
    f, calls = _counting(lambda t: t - 1.0)
    assert brent_root(f, 0.0, 1.0, -1.0, 0.0, 1e-12) == 1.0
    assert brent_root(f, 0.0, 1.0, 0.0, 1.0, 1e-12) == 0.0
    assert calls == []


def test_brent_root_never_evaluates_the_ends():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        c = rng.uniform(a, b)

        def g(t, c=c):
            return np.tanh(t - c) + 0.1 * (t - c) ** 3

        f, calls = _counting(g)
        root = brent_root(f, a, b, g(a), g(b), 1e-12)
        assert abs(root - c) <= 1e-12
        assert a not in calls and b not in calls
        assert all(a < t < b for t in calls)


def test_brent_root_agrees_with_bisect_in_fewer_calls():
    rng = np.random.default_rng(7)
    n, xtol = 300, 1e-12
    shift = rng.uniform(-2.0, 2.0, n)
    a = shift - rng.uniform(0.1, 3.0, n)
    b = shift + rng.uniform(0.1, 3.0, n)
    scale = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 4.0, n)
    for i in range(n):
        def g(t, i=i):
            x = t - shift[i]
            return scale[i] * x * (x * x + 0.5)

        f_bisect, calls_bisect = _counting(g)
        f_brent, calls_brent = _counting(g)
        want = bisect(f_bisect, a[i], b[i], g(a[i]), xtol)
        got = brent_root(f_brent, a[i], b[i], g(a[i]), g(b[i]), xtol)
        assert abs(got - want) <= xtol
        assert len(calls_brent) < len(calls_bisect)


def test_brent_root_zero_tolerance_stops_at_iteration_cap():
    # a sign jump at 0: the relative part of the tolerance vanishes there, so
    # with xtol = 0 the bracket never becomes short enough
    f, calls = _counting(lambda t: -1.0 if t < 0.0 else 1.0)
    root = brent_root(f, -1.0, 2.0, -1.0, 1.0, 0.0)
    assert len(calls) == MAX_ITER
    assert abs(root) < 1e-50


def test_brent_min_finds_known_minimum():
    t, ft = brent_min(lambda x: np.cosh(x - 0.3), 0.0, 1.0, 1e-10)
    assert t == pytest.approx(0.3, abs=1e-7)
    assert ft == np.cosh(t - 0.3)
    t, ft = brent_min(lambda x: abs(x - 0.3), 0.0, 1.0, 1e-10)
    assert t == pytest.approx(0.3, abs=1e-10)
    assert ft == abs(t - 0.3)


def test_brent_min_tolerance_is_absolute():
    # far from the origin a tolerance relative to |x| would stop near 1e-13
    f, calls = _counting(lambda x: abs(x - 1000.25))
    t, _ = brent_min(f, 1000.0, 1001.0, 1e-14 * 1001.0)
    assert t == pytest.approx(1000.25, abs=1001.0 * 1e-14)
    n_tight = len(calls)
    calls.clear()
    loose, _ = brent_min(f, 1000.0, 1001.0, 1e-6)
    assert loose == pytest.approx(1000.25, abs=1e-6)
    assert len(calls) < n_tight


def test_brent_min_resolves_two_close_zeros():
    a, b = 0.5, 0.5 + 3e-5
    t, ft = brent_min(lambda x: abs((x - a) * (x - b)), 0.0, 1.0, 1e-12)
    assert min(abs(t - a), abs(t - b)) <= 1e-12
    assert ft < 1e-16


def test_brent_min_zero_tolerance_stops_at_iteration_cap():
    # minimum at 0, where the tolerance 2*eps*|x| vanishes with xtol = 0
    f, calls = _counting(abs)
    t, ft = brent_min(f, -1.0, 2.0, 0.0)
    assert len(calls) == MAX_ITER + 1
    assert abs(t) < 1e-50 and ft == abs(t)


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
