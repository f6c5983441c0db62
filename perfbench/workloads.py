"""The benchmark's three workloads: inputs from a seed, one query, its check.

Each workload runs in rounds.  A round is a fixed list of query kinds whose
parameters are drawn from ``numpy.random.default_rng((seed, round))``, so a
round's inputs do not depend on how many rounds a run reaches.  ``run``
returns only what ``check`` needs, so nothing large outlives a query, and
``check`` compares it with ``oracles``, never with stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import oracles
from liegeo import cli, criteria, curvature, dynamics, jacobi
from liegeo import algebra
from liegeo.metric import MetricOperator

TIME_TOL = 1e-7       # conjugate times: the program refines to 1e-9, the oracles to 1e-13
RICCI_REL_TOL = 1e-10
SYLVESTER_TOL = 1e-9


def _match_events(label, got, want, tol=TIME_TOL):
    """Compare sorted (time, multiplicity) lists; return problem strings."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} events {[round(t, 9) for t, _ in got]}, "
                f"oracle has {len(want)} {[round(t, 9) for t, _ in want]}"]
    problems = []
    for (tg, mg), (tw, mw) in zip(got, want):
        if abs(tg - tw) > tol:
            problems.append(f"{label}: time {float(tg)!r} vs oracle {float(tw)!r}")
        if mg != mw:
            problems.append(f"{label}: multiplicity {mg} at {float(tg)!r} vs oracle {mw}")
    return problems


# -- cheeger-numeric -----------------------------------------------------------------


class Workload:
    """A workload writes any files under ``outdir``; a traced run does TRACE_ROUNDS rounds."""

    def __init__(self, outdir):
        self.outdir = outdir

    def check_reproducible(self, results):
        """Problems found by repeating queries after the checks; none by default."""
        return []


class CheegerNumeric(Workload):
    """Nonsteady Cheeger geodesics: RK4, then numeric conjugate detection.

    A round is Zeitlin, Berger, Zeitlin, Berger at delta = 0, Zeitlin.
    Zeitlin: su(3) along so(3), delta = -2/3, u0 uniform on the unit sphere.
    Berger: su(2) along so(2), delta uniform on [-0.5, -0.2] or [0.2, 0.6]
    (one zero near no other), u0 = (cos a, sin a cos b, sin a sin b) with
    a in [pi/4, pi/2], so that R >= 0.79 and the first conjugate time
    (at most pi/R) lies inside the horizon.  The delta = 0 query is the
    bi-invariant case, whose conjugate points are double (a sigma_min touch).
    """

    HORIZON = 4.0
    KINDS = ("zeitlin", "berger", "zeitlin", "berger0", "zeitlin")
    TRACE_ROUNDS = 2

    def setup(self):
        self.bases = {
            "zeitlin": algebra.build_su_basis(3, embed_so_subalgebra=True),
            "berger": algebra.build_su_basis(2, embed_so_subalgebra=True),
        }
        self.mats = {k: oracles.su_matrices(b.matrix_size) for k, b in self.bases.items()}
        warm = MetricOperator.cheeger(self.bases["zeitlin"], -2.0 / 3.0)
        traj = dynamics.integrate_euler_arnold(
            warm, self.bases["zeitlin"].element(np.full(8, 8**-0.5)), 0.05
        )
        jacobi.find_conjugate_times(traj)

    def round_inputs(self, seed, rnd):
        rng = np.random.default_rng((seed, rnd))
        out = []
        for kind in self.KINDS:
            if kind == "zeitlin":
                u = rng.standard_normal(8)
                out.append({"group": "zeitlin", "delta": -2.0 / 3.0, "u": u / np.linalg.norm(u)})
                continue
            a, b = rng.uniform(np.pi / 4, np.pi / 2), rng.uniform(0.0, 2 * np.pi)
            if kind == "berger0":
                delta = 0.0
            elif rng.uniform() < 0.5:
                delta = rng.uniform(0.2, 0.6)
            else:
                delta = -rng.uniform(0.2, 0.5)
            u = np.array([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)])
            out.append({"group": "berger", "delta": float(delta), "u": u})
        return out

    def run(self, q):
        basis = self.bases[q["group"]]
        metric = MetricOperator.cheeger(basis, q["delta"])
        traj = dynamics.integrate_euler_arnold(metric, basis.element(q["u"]), self.HORIZON)
        report = jacobi.find_conjugate_times(traj)
        return {
            "final_time": float(traj.times[-1]),
            "final_frame": np.array(traj.frames[-1]),
            "events": [(e.time, e.multiplicity, e.method) for e in report.events],
        }

    def check(self, q, ans):
        mats = self.mats[q["group"]]
        m = self.bases[q["group"]].subalgebra_dim
        u, delta, horizon = q["u"], q["delta"], self.HORIZON
        problems = []
        exact = oracles.cheeger_frame_exact(u, delta, m, mats, ans["final_time"])
        err = float(np.abs(ans["final_frame"] - exact).max())
        if abs(ans["final_time"] - horizon) > 1e-12 or err > 1e-8:
            problems.append(f"final frame off the exact geodesic by {err:.3e}")
        events = ans["events"]
        want = oracles.cheeger_conjugate_times(u, delta, m, mats, horizon)
        problems += _match_events(
            "finite-difference det", [(t, k) for t, k, _ in events], [(t, k) for t, k, _ in want]
        )
        kinds = {"sign": "det-sign-change", "touch": "sigma-min-dip"}
        if len(events) == len(want):
            for (t, _, method), (_, _, kind) in zip(events, want):
                if method != kinds[kind]:
                    problems.append(f"event at {t!r} found as {method}, oracle says {kind}")
        if q["group"] == "berger":
            p, qn = abs(u[0]), float(np.hypot(u[1], u[2]))
            problems += _match_events(
                "closed-form Berger det",
                [(t, k) for t, k, _ in events],
                oracles.berger_roots(delta, p, qn, horizon),
            )
        return problems


# -- rigid-steady --------------------------------------------------------------------


def _none_last(z):
    return np.inf if z is None else z


class RigidSteady(Workload):
    """Steady rotations about a principal axis e_ij of a rigid body on so(n).

    A round is one query on each of so(3), so(4), so(5), so(6).  The moments
    mu are uniform on [1, 4] with every pair at least 0.1 apart, and the axis
    (i, j) is a uniform pair.  The determinant scan runs on tau in (0, 4],
    i.e. conjugate times up to 8.  Moments whose block-function zeros on
    that window lie closer than 0.01 in tau (ten scan steps) to each other
    or to its end are drawn again: the determinant scan reports one time for
    two zeros within a scan step (a known fault), which would make a query
    fail on some seeds only.
    """

    HORIZON = 4.0
    SIZES = (3, 4, 5, 6)
    TRACE_ROUNDS = 6
    MIN_ZERO_GAP = 0.01

    def setup(self):
        self.bases = {n: algebra.build_so_basis(n) for n in self.SIZES}
        warm = MetricOperator.rigid_body(self.bases[3], [3.0, 2.0, 1.0])
        u0 = self.bases[3].element_by_label("e13")
        criteria.steady_determinant_scan(criteria.steady_operators(warm, u0), 0.05, samples=50)
        criteria.commuting_block_scan(warm, u0)
        curvature.misiolek_scan(warm, u0, n_random=4)

    def _resolvable(self, mu, i, j):
        _, zeros = oracles.rigid_steady_zeros(mu, i, j, self.HORIZON)
        taus = [z for z, _ in zeros] + [self.HORIZON]
        return all(b - a >= self.MIN_ZERO_GAP for a, b in zip(taus, taus[1:]))

    def round_inputs(self, seed, rnd):
        rng = np.random.default_rng((seed, rnd))
        out = []
        for n in self.SIZES:
            while True:
                mu = rng.uniform(1.0, 4.0, n)
                i, j = sorted(int(k) for k in rng.choice(n, 2, replace=False))
                gaps = np.diff(np.sort(mu))
                if gaps.min() >= 0.1 and self._resolvable(mu, i, j):
                    break
            out.append({"n": n, "mu": mu, "i": i, "j": j, "seed": int(rng.integers(2**31))})
        return out

    def run(self, q):
        basis = self.bases[q["n"]]
        metric = MetricOperator.rigid_body(basis, q["mu"])
        u0 = basis.element_by_label(f"e{q['i'] + 1}{q['j'] + 1}")
        crit = criteria.steady_operators(metric, u0)
        scan = criteria.steady_determinant_scan(crit, self.HORIZON)
        data, blocks = criteria.commuting_block_scan(metric, u0)
        mis = curvature.misiolek_scan(metric, u0, seed=q["seed"])
        return {
            "status": crit.status,
            "L": crit.L, "F": crit.F, "R": crit.R, "residual": crit.residual,
            "det": [(e.time, e.multiplicity) for e in scan.events],
            "blocks": [(b.first_zero_f, b.first_zero_g) for b in data.blocks],
            "block_events": [(e.time, e.multiplicity) for e in blocks.events],
            "misiolek": (mis.minimum, np.array(mis.argmin), mis.detected),
        }

    def check(self, q, ans):
        mu, i, j, horizon = q["mu"], q["i"], q["j"], self.HORIZON
        if ans["status"] != "applicable":
            return [f"steady criterion status {ans['status']}"]
        problems = []
        lmat, fmat, rmat = ans["L"], ans["F"], ans["R"]
        res = float(np.linalg.norm(rmat @ fmat + lmat @ rmat - np.eye(len(lmat))))
        if res > SYLVESTER_TOL or abs(ans["residual"]) > SYLVESTER_TOL:
            problems.append(f"Sylvester residual {res:.3e} (reported {ans['residual']:.3e})")
        blocks, zeros = oracles.rigid_steady_zeros(mu, i, j, horizon)
        problems += _match_events("det route", ans["det"], [(2 * z, k) for z, k in zeros])
        got = sorted((tuple(sorted(pair, key=_none_last)) for pair in ans["blocks"]),
                     key=lambda pair: [_none_last(z) for z in pair])
        want = sorted(blocks, key=lambda pair: [_none_last(z) for z in pair])
        if len(got) != len(want):
            problems.append(f"block route: {len(got)} blocks, oracle {len(want)}")
        else:
            for g, w in zip(got, want):
                for zg, zw in zip(g, w):
                    if (zg is None) != (zw is None) or (zg is not None and abs(zg - zw) > TIME_TOL):
                        problems.append(f"block first zeros {g} vs oracle {w}")
        det_events = ans["det"]
        for t, k in ans["block_events"]:
            if t <= 2 * horizon and not any(
                abs(t - td) <= TIME_TOL and k == kd for td, kd in det_events
            ):
                problems.append(f"block-route time {t!r} (x{k}) missing from the det route")
        minimum, argmin, detected = ans["misiolek"]
        value = oracles.rigid_misiolek_value(mu, i, j, argmin)
        if abs(value - minimum) > 1e-10 * max(1.0, abs(value)):
            problems.append(f"Misiolek minimum {minimum!r}, recomputed {value!r}")
        if detected != (minimum < 0):
            problems.append("Misiolek verdict disagrees with its minimum")
        if detected and not ans["block_events"]:
            problems.append("Misiolek detects a conjugate point, the block route has none")
        return problems


# -- cli-closed-forms ----------------------------------------------------------------


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], lines[1], np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])


class CliClosedForms(Workload):
    """One in-process `liegeo` command per query, writing real output files.

    A round is `curvature` on rigid bodies so(5)..so(8) (mu uniform on
    [1, 4]), `curvature` on Cheeger su(3) and su(4) along so(n) (delta
    uniform on [-0.8, 0.8]) and one `locus` of five deltas in [-0.95, -0.05]
    at least 0.05 apart, 720 angles, momentum unit.
    """

    KINDS = ("so5", "so6", "so7", "so8", "su3", "su4", "locus")
    REPEATED = ("so5", "su3", "locus")      # the cheap commands run a second time
    TRACE_ROUNDS = 3

    def setup(self):
        self.invoke(["curvature", "--group", "so3", "--metric", "rigid-body", "1,2,3",
                     "--out", os.path.join(self.outdir, "warmup")])
        self.invoke(["locus", "--deltas", "-0.5", "--angles", "8",
                     "--out", os.path.join(self.outdir, "warmup")])

    @staticmethod
    def invoke(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def round_inputs(self, seed, rnd):
        rng = np.random.default_rng((seed, rnd))
        out = []
        for idx, kind in enumerate(self.KINDS):
            q = {"kind": kind, "out": os.path.join(self.outdir, f"r{rnd:03d}q{idx}")}
            if kind.startswith("so"):
                q["mu"] = [float(x) for x in rng.uniform(1.0, 4.0, int(kind[2:]))]
                q["argv"] = ["curvature", "--group", kind, "--metric", "rigid-body",
                             ",".join(repr(x) for x in q["mu"])]
            elif kind.startswith("su"):
                q["delta"] = float(rng.uniform(-0.8, 0.8))
                q["argv"] = ["curvature", "--group", f"{kind}-with-so{kind[2:]}",
                             "--metric", "cheeger", repr(q["delta"])]
            else:
                while True:
                    deltas = np.sort(rng.uniform(-0.95, -0.05, 5))
                    if np.diff(deltas).min() >= 0.05:
                        break
                q["deltas"] = [float(d) for d in deltas]
                q["argv"] = ["locus", "--deltas", ",".join(repr(d) for d in q["deltas"]),
                             "--angles", "720"]
            q["argv"] += ["--out", q["out"]]
            out.append(q)
        return out

    def run(self, q):
        return {"rc": self.invoke(q["argv"])}

    def check_reproducible(self, results):
        """Run the first round's REPEATED commands again; every file must repeat byte for byte."""
        problems = []
        for q, _, _ in results[: len(self.KINDS)]:
            if q["kind"] not in self.REPEATED:
                continue
            before = {}
            for name in sorted(os.listdir(q["out"])):
                with open(os.path.join(q["out"], name), "rb") as fh:
                    before[name] = fh.read()
            self.invoke(q["argv"])
            for name, data in before.items():
                with open(os.path.join(q["out"], name), "rb") as fh:
                    if fh.read() != data:
                        problems.append(f"{q['kind']}: {name} differs on a second invocation")
        return problems

    def check(self, q, ans):
        if ans["rc"] != 0:
            return [f"exit code {ans['rc']}"]
        out = q["out"]
        try:
            with open(os.path.join(out, "manifest.json")) as fh:
                manifest = json.load(fh)
            return self._check_files(q, manifest)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_files(self, q, manifest):
        out, kind = q["out"], q["kind"]
        cfg = manifest["config"]
        chash = oracles.config_hash(cfg)
        problems = []
        if manifest["config_hash"] != chash:
            problems.append(f"manifest hash {manifest['config_hash']} != {chash}")
        if kind == "locus":
            names = ["locus.csv", "locus.svg"]
        else:
            names = ["ricci.csv"] if kind.startswith("so") else ["block_einstein.json", "ricci.csv"]
        listed = sorted(os.path.basename(p) for p in manifest["outputs"])
        if listed != sorted(names):
            problems.append(f"manifest lists {listed}, expected {names}")
        for name in names:
            path = os.path.join(out, name)
            with open(path) as fh:
                text = fh.read()
            if name.endswith(".json"):
                embedded = json.loads(text).get("config_hash")
            else:
                tag = "<!-- config_hash: " if name.endswith(".svg") else "# config_hash: "
                start = text.find(tag)
                embedded = text[start + len(tag):start + len(tag) + 16] if start >= 0 else None
            if embedded != chash:
                problems.append(f"{name} carries hash {embedded}, config hashes to {chash}")
        if kind == "locus":
            if cfg["deltas"] != q["deltas"] or cfg["angles"] != 720 or cfg["unit"] != "momentum":
                problems.append("manifest config differs from the request")
            problems += self._check_locus(q, os.path.join(out, "locus.csv"))
            return problems
        _, header, ric = _read_csv(os.path.join(out, "ricci.csv"))
        dim = len(header.split(","))
        if ric.shape != (dim, dim):
            return problems + [f"ricci.csv has shape {ric.shape}, header {dim} labels"]
        if kind.startswith("so"):
            if cfg["metric"] != {"kind": "rigid-body", "mu": q["mu"]} or cfg["group"] != kind:
                problems.append("manifest config differs from the request")
            want = np.diag(oracles.rigid_ricci(q["mu"]))
            if np.any(np.diag(ric) <= 0):
                problems.append("rigid-body Ricci is not positive")
        else:
            n = int(kind[2:])
            if cfg["metric"] != {"kind": "cheeger", "delta": q["delta"]}:
                problems.append("manifest config differs from the request")
            beta_g, beta_h, c1, c2 = oracles.block_einstein(n, q["delta"])
            m = n * (n - 1) // 2
            want = np.diag([c1] * m + [c2] * (dim - m))
            with open(os.path.join(out, "block_einstein.json")) as fh:
                be = json.load(fh)
            for key, val in (("C1", c1), ("C2", c2), ("beta_G", beta_g), ("beta_H", beta_h)):
                if abs(be[key] - val) > RICCI_REL_TOL * max(1.0, abs(val)):
                    problems.append(f"block_einstein {key} {be[key]!r} vs oracle {val!r}")
            if be["delta"] != q["delta"] or not be["residual"] <= 1e-9:
                problems.append(f"block_einstein delta/residual {be['delta']}, {be['residual']}")
        err = np.abs(ric - want) / np.maximum(1.0, np.abs(want))
        if err.max() > RICCI_REL_TOL:
            r, c = np.unravel_index(np.argmax(err), err.shape)
            problems.append(f"ricci[{r},{c}] = {ric[r, c]!r}, closed form {want[r, c]!r}")
        return problems

    @staticmethod
    def _check_locus(q, path):
        _, header, rows = _read_csv(path)
        if header != "theta,t_star,x,y,delta" or rows.shape != (5 * 720, 5):
            return [f"locus.csv header {header!r}, shape {rows.shape}"]
        problems = []
        slices = rows.reshape(5, 720, 5)
        theta_want = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        for sl, delta in zip(slices, q["deltas"]):
            theta, t_star, x, y, d = sl.T
            if np.any(d != delta) or np.abs(theta - theta_want).max() > 1e-15:
                problems.append(f"slice delta {d[0]!r}: wrong delta or angles")
                continue
            want = oracles.berger_first_times(delta, theta)
            err = np.abs(t_star - want).max()
            if err > 1e-9:
                problems.append(f"slice delta {delta!r}: t_star off the first zero by {err:.3e}")
            xy = np.abs(np.column_stack([x - t_star * np.cos(theta), y - t_star * np.sin(theta)]))
            if xy.max() > 1e-12 * t_star.max():
                problems.append(f"slice delta {delta!r}: points off (t cos, t sin)")
        inner = slices[:-1, :, 1] - slices[1:, :, 1]
        if inner.max() > 1e-12:
            problems.append(f"momentum-unit slices not nested (overlap {inner.max():.3e})")
        return problems


WORKLOADS = {
    "cheeger-numeric": CheegerNumeric,
    "rigid-steady": RigidSteady,
    "cli-closed-forms": CliClosedForms,
}
