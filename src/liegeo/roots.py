"""Bracketed root and minimum refinement shared by every conjugate-time route.

Textbook bisection and golden-section search (Brent, *Algorithms for
Minimization without Derivatives*, 1973), plus the sampled sign-change walk
that feeds bisection.  Both loops stop after MAX_ITER iterations, so a zero
tolerance still terminates.  ``bisect_many`` runs ``bisect``'s rule on an
array of brackets at once; scalar callers keep ``bisect``, which is cheaper
per call.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 200
INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


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


def golden_min(f, a, b, xtol, rtol=0.0):
    """Minimizer of a unimodal f on [a, b] by golden-section search.

    Stops once the bracket is no longer than max(xtol, rtol * max(1, b)).
    """
    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
        if b - a <= max(xtol, rtol * max(1.0, b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def sign_changes(f, ts, vals, xtol):
    """Roots of f along the samples vals = f(ts), in order, found lazily.

    A sample that is exactly zero is a root; a sign flip on [t_i, t_{i+1}]
    is bisected to xtol.  Bisection runs only when the next root is asked
    for, so a caller that needs the first root does no further work.
    """
    vals = np.asarray(vals, dtype=float)
    head, tail = vals[:-1], vals[1:]
    for i in np.flatnonzero((head == 0.0) | ((head < 0) != (tail < 0))):
        if vals[i] == 0.0:
            yield float(ts[i])
        else:
            yield bisect(f, float(ts[i]), float(ts[i + 1]), vals[i], xtol)
