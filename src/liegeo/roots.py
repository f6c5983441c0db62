"""Bracketed root and minimum refinement shared by every conjugate-time route.

Brent's zero and localmin (Brent, *Algorithms for Minimization without
Derivatives*, 1973) refine scalar roots and minima superlinearly; the sampled
sign-change walk feeds the root finder.  Textbook bisection stays for the
Berger locus: ``bisect_many`` runs ``bisect``'s rule on an array of brackets
at once.  Every loop stops after MAX_ITER iterations, so a zero tolerance
still terminates.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ITER = 200
EPS = float(np.finfo(float).eps)
GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def bisect(f, a, b, fa, xtol):
    """Root of f in [a, b], where f(a) = fa and f(b) differ in sign.

    Halves the bracket until it is no longer than xtol and returns its
    midpoint; a midpoint where f is exactly zero is returned at once.
    """
    for _ in range(MAX_ITER):
        if b - a <= xtol:
            break
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa < 0) != (fm < 0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def bisect_many(f, a, b, fa, xtol):
    """``bisect`` applied to each bracket of the arrays a, b, fa at once.

    f maps an array of points to an array of values, elementwise.  Each
    element follows ``bisect``'s steps: same midpoint, same sign test, an
    exactly zero midpoint returned at once, a stop once b - a <= xtol or
    after MAX_ITER halvings.  f is evaluated on the whole array every
    iteration; a finished element's result is recorded when it finishes,
    and its bracket goes on shrinking unread.
    """
    a, b, fa = (np.array(x, dtype=float) for x in np.broadcast_arrays(a, b, fa))
    out = np.empty_like(a)
    live = np.ones(a.shape, dtype=bool)
    for _ in range(MAX_ITER):
        done = live & (b - a <= xtol)
        if done.any():
            out[done] = 0.5 * (a[done] + b[done])
            live &= ~done
        if not live.any():
            return out
        mid = 0.5 * (a + b)
        fm = f(mid)
        hit = live & (fm == 0.0)
        if hit.any():
            out[hit] = mid[hit]
            live &= ~hit
        left = (fa < 0) != (fm < 0)
        b = np.where(left, mid, b)
        a = np.where(left, a, mid)
        fa = np.where(left, fa, fm)
    out[live] = 0.5 * (a[live] + b[live])
    return out


def brent_root(f, a, b, fa, fb, xtol):
    """Root of f in [a, b] by Brent's zeroin, where fa = f(a) and fb = f(b) differ in sign.

    The end values are taken as given and f is never evaluated at a or b.
    Each step is inverse quadratic or linear interpolation when it stays
    inside the bracket and shrinks it fast enough, bisection otherwise.  The
    returned point lies in a final sign-change bracket no longer than
    xtol + 4*eps*|root|; an exact zero is returned at once.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(MAX_ITER):
        if (fb > 0) == (fc > 0):
            # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b


def brent_min(f, a, b, xtol):
    """Minimum of f on [a, b] by Brent's localmin; returns (x, f(x)).

    Golden-section steps, replaced by parabolic ones through the three best
    points when those stay inside the bracket and shrink fast enough.  The
    tolerance is absolute, tol = 2*eps*|x| + xtol/3: the search stops once
    every point of the remaining bracket lies within 2*tol of x.
    """
    x = w = v = a + GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(MAX_ITER):
        xm = 0.5 * (a + b)
        tol = 2.0 * EPS * abs(x) + xtol / 3.0
        if abs(x - xm) <= 2.0 * tol - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                # f is not evaluated within 2*tol of the bracket ends
                if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, xm - x)
        if not parabolic:
            e = (a if x >= xm else b) - x
            d = GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            continue
        if u < x:
            a = u
        else:
            b = u
        if fu <= fw or w == x:
            v, fv, w, fw = w, fw, u, fu
        elif fu <= fv or v == x or v == w:
            v, fv = u, fu
    return x, fx


def sign_changes(f, ts, vals, xtol):
    """Roots of f along the samples vals = f(ts), in order, found lazily.

    A sample that is exactly zero is a root; a sign flip on [t_i, t_{i+1}]
    is refined to xtol by ``brent_root`` from the sampled end values.  Each
    root is refined only when it is asked for, so a caller that needs the
    first root does no further work.
    """
    vals = np.asarray(vals, dtype=float)
    head, tail = vals[:-1], vals[1:]
    for i in np.flatnonzero((head == 0.0) | ((head < 0) != (tail < 0))):
        if vals[i] == 0.0:
            yield float(ts[i])
        else:
            yield brent_root(
                f, float(ts[i]), float(ts[i + 1]), float(vals[i]), float(vals[i + 1]), xtol
            )
