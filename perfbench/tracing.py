"""Spans and counters around liegeo's layers, installed from outside the program.

``Tracer.install`` replaces module attributes with wrappers and
``Tracer.uninstall`` puts the originals back; liegeo's files are not
touched.  A span records (name, start, end, parent, query) and stays in
memory until ``write``.  A counter is attributed to the layer of the
innermost open span, so ``numpy.linalg.det`` called inside
``find_conjugate_times`` counts as a jacobi det call.
"""

from __future__ import annotations

import collections
import json
import time

import numpy as np
import scipy.linalg

from liegeo import algebra, cli, criteria, curvature, dynamics, jacobi, locus
from liegeo.metric import MetricOperator

# (module, attribute, span name).  A name's layer is the part before the dot.
SPANS = [
    (algebra, "build_so_basis", "algebra.basis_build"),
    (algebra, "build_su_basis", "algebra.basis_build"),
    (algebra, "build_torus_basis", "algebra.basis_build"),
    (dynamics, "integrate_euler_arnold", "dynamics.integrate"),
    (dynamics, "cheeger_geodesic_exact", "dynamics.cheeger_exact"),
    (dynamics, "closed_biinvariant_time", "dynamics.closed_time"),
    (jacobi, "find_conjugate_times", "jacobi.detect"),
    (jacobi, "integrate_jacobi", "jacobi.integrate"),
    (jacobi, "solution_operator", "jacobi.solution_operator"),
    (jacobi, "closed_geodesic_conjugacy", "jacobi.closed_conjugacy"),
    (criteria, "steady_operators", "criteria.steady_operators"),
    (criteria, "steady_determinant_scan", "criteria.det_scan"),
    (criteria, "commuting_block_scan", "criteria.block_scan"),
    (criteria, "nonsteady_frame", "criteria.nonsteady_frame"),
    (criteria, "nonsteady_quadratic_criterion", "criteria.nonsteady_criterion"),
    (curvature, "ricci_matrix", "curvature.ricci"),
    (curvature, "block_einstein_report", "curvature.block_einstein"),
    (curvature, "beta_constants", "curvature.beta_constants"),
    (curvature, "misiolek_scan", "curvature.misiolek"),
    (locus, "generate_locus_slice", "locus.slice"),
    (locus, "emit_locus_csv", "cli.emit"),
    (locus, "emit_locus_svg", "cli.emit"),
    (cli, "_write_matrix_csv", "cli.emit"),
    (cli, "main", "cli.command"),
]

# (owner, attribute, counter name): hot kernels, counted but given no span.
COUNTERS = [
    (MetricOperator, "ad_star_raw", "ad_star"),
    (MetricOperator, "ad_star_matrix_of", "ad_matrix"),
    (MetricOperator, "coad_force_matrix", "ad_matrix"),
    (np.linalg, "det", "det"),
    (np.linalg, "svd", "svd"),
    (scipy.linalg, "expm", "expm"),
    (curvature, "sectional_numerator_raw", "sectional"),
    (locus, "berger_first_conjugate_time", "first_time"),
]


class Tracer:
    """Spans and counts of one run; ``query`` is the index of the query under way."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []                     # [name, start, end, parent, query]
        self.stack = []
        self.counts = collections.Counter()  # (counter, layer, in_query) -> calls
        self.query = None
        self.steps = 0
        self.trajectory_bytes = 0
        self._saved = []

    # -- wrappers --------------------------------------------------------------------

    def _span(self, fn, name):
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self.stack[-1] if self.stack else None, self.query]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if name == "dynamics.integrate" and self.query is not None:
                self.steps += len(out.times) - 1
                self.trajectory_bytes += sum(
                    a.nbytes for a in (out.times, out.velocities, out.frames,
                                       out.conserved, out._slopes)
                )
            return out

        return wrapper

    def _count(self, fn, name):
        def wrapper(*args, **kwargs):
            layer = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "-"
            self.counts[name, layer, self.query is not None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function, plus the copies ``liegeo.cli`` imported."""
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            wrapped = self._span(fn, name)
            self._patch(module, attr, wrapped)
            if module is not cli and getattr(cli, attr, None) is fn:
                self._patch(cli, attr, wrapped)
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._count(getattr(owner, attr), name))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------------------

    def write(self, path):
        doc = {
            "spans": [
                {"name": n, "start": s - self.t0, "end": e - self.t0, "parent": p, "query": q}
                for n, s, e, p, q in self.spans
            ],
            "counts": [
                {"counter": c, "layer": layer, "in_query": iq, "calls": k}
                for (c, layer, iq), k in sorted(self.counts.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def metrics(self, queries):
        """Per-layer metrics of the traced queries, by name: (value, unit)."""
        dur = collections.defaultdict(float)     # name -> seconds, query spans only
        calls = collections.Counter()
        child = collections.defaultdict(float)   # span index -> time in direct children
        for n, s, e, p, q in self.spans:
            if p is not None:
                child[p] += e - s
            if q is not None:
                dur[n] += e - s
                calls[n] += 1
        builds = [(s, e) for n, s, e, _, _ in self.spans if n == "algebra.basis_build"]
        cli_self = sum(
            e - s - child[k] for k, (n, s, e, _, q) in enumerate(self.spans)
            if n == "cli.command" and q is not None
        )

        def count(counter, layer=None):
            return sum(
                k for (c, lay, iq), k in self.counts.items()
                if c == counter and iq and (layer is None or lay == layer)
            ) / queries

        def ms(name):
            return 1e3 * dur[name] / queries

        steps = self.steps
        return {
            "algebra.basis_build_ms": (
                1e3 * sum(e - s for s, e in builds) / max(len(builds), 1), "ms"),
            "algebra.basis_builds": (len(builds), "count"),
            "metric.ad_star_calls": (count("ad_star"), "count/query"),
            "metric.ad_matrix_calls": (count("ad_matrix"), "count/query"),
            "dynamics.integrate_ms": (ms("dynamics.integrate"), "ms/query"),
            "dynamics.steps": (steps / queries, "count/query"),
            "dynamics.us_per_step": (
                1e6 * dur["dynamics.integrate"] / steps if steps else 0.0, "us"),
            "dynamics.trajectory_mb": (self.trajectory_bytes / 2**20 / queries, "MB/query"),
            "jacobi.detect_ms": (ms("jacobi.detect"), "ms/query"),
            "jacobi.det_calls": (count("det", "jacobi"), "count/query"),
            "jacobi.svd_calls": (count("svd", "jacobi"), "count/query"),
            "criteria.steady_operators_ms": (ms("criteria.steady_operators"), "ms/query"),
            "criteria.det_scan_ms": (ms("criteria.det_scan"), "ms/query"),
            "criteria.block_scan_ms": (ms("criteria.block_scan"), "ms/query"),
            "criteria.expm_calls": (count("expm", "criteria"), "count/query"),
            "criteria.det_calls": (count("det", "criteria"), "count/query"),
            "curvature.misiolek_ms": (ms("curvature.misiolek"), "ms/query"),
            "curvature.ricci_ms": (ms("curvature.ricci"), "ms/query"),
            "curvature.ricci_calls": (calls["curvature.ricci"] / queries, "count/query"),
            "curvature.sectional_calls": (count("sectional"), "count/query"),
            "locus.slice_ms": (ms("locus.slice"), "ms/query"),
            "locus.first_time_calls": (count("first_time"), "count/query"),
            "cli.command_ms": (ms("cli.command"), "ms/query"),
            "cli.self_ms": (1e3 * cli_self / queries, "ms/query"),
            "cli.emit_ms": (ms("cli.emit"), "ms/query"),
        }
