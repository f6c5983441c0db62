"""Command-line interface: curvature | geodesic | conjugate | steady | locus | verify.

Runs are driven by a single JSON config document; command-line flags override
config fields.  Every output file embeds the sha256 hash of the normalized
config, and a run manifest (config echo, tool version, seed, tolerances) is
written next to the outputs.  Exit codes: 0 success, 2 config error,
3 numeric failure, 4 criterion inapplicable when a verdict was demanded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import __version__
import scipy.linalg

from .algebra import (
    ALGEBRA_TOL,
    Ad_matrix,
    ad_matrix_raw,
    bracket,
    build_so_basis,
    build_su_basis,
    build_torus_basis,
    group_exp,
    project_h,
    project_h_perp,
)
from .curvature import (
    beta_constants,
    block_einstein_report,
    misiolek_scan,
    ricci_matrix,
    ricci_numeric,
    ricci_rigid_closed_form,
    sectional_numerator,
    sectional_numerator_arnold,
)
from .criteria import (
    cheeger_nonsteady_condition,
    commuting_block_scan,
    criterion_report,
    index_form_tau,
    nonsteady_frame,
    nonsteady_quadratic_criterion,
    steady_determinant_scan,
    steady_operators,
)
from .dynamics import (
    cheeger_geodesic_exact,
    closed_biinvariant_time,
    integrate_euler_arnold,
)
from .errors import (
    ConfigError,
    CriterionInapplicableError,
    InvalidDimensionError,
    LieGeoError,
    UnsupportedSplitError,
)
from .jacobi import (
    closed_geodesic_conjugacy,
    find_conjugate_times,
    integrate_jacobi,
    solution_operator,
)
from .locus import UNITS, berger_det, emit_locus_csv, emit_locus_svg, generate_locus_slice
from .metric import MetricOperator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INAPPLICABLE = 4

CRITERIA = ("closed", "steady-det", "steady-blocks", "misiolek", "nonsteady-phi", "cheeger")

DEFAULTS = {
    "group": "so3",
    "metric": {"kind": "rigid-body", "mu": [1.0, 2.0, 3.0]},
    "u0": "e12",
    "T": 10.0,
    "dt": None,
    "criterion": None,
    "deltas": [-0.001, -0.25, -0.5, -0.75, -0.95],
    "angles": 720,
    "unit": "momentum",
    "seed": 0,
    "out": "out",
    "tolerances": {
        "sigma_rel_threshold": 1e-6,
        "time_tol": 1e-9,
    },
}

# metric kind -> its one parameter field (None: the kind takes no parameter);
# build_metric calls the MetricOperator constructor named after the kind
METRIC_FIELDS = {
    "rigid-body": "mu",
    "diagonal": "lam",
    "cheeger": "delta",
    "generic": "matrix_file",
    "biinvariant": None,
}


# -- config handling -----------------------------------------------------------------


def _numbers(items):
    """Floats of a sequence of strings or numbers; ConfigError on a bad one."""
    try:
        return [float(x) for x in items]
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _metric_spec(spec):
    """The metric object with its kind checked and its numbers as floats."""
    if not isinstance(spec, dict):
        raise ConfigError("metric must be an object with a kind")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in METRIC_FIELDS:
        raise ConfigError(f"unknown metric kind {kind!r}")
    field = METRIC_FIELDS[kind]
    for key in spec:
        if key not in ("kind", field):
            raise ConfigError(f"unknown metric field {key!r}")
    if field is None:
        return {"kind": kind}
    if field not in spec:
        raise ConfigError(f"metric {kind!r} is missing field {field!r}")
    val = spec[field]
    if field == "delta":
        val = _numbers([val])[0]
    elif field in ("mu", "lam") and isinstance(val, list):
        val = _numbers(val)
    elif not (field == "matrix_file" and isinstance(val, str)):
        raise ConfigError(f"metric {field} has the wrong type")
    return {"kind": kind, field: val}


def normalize_config(raw, command=None):
    """Fill defaults and canonicalize; raises ConfigError on bad fields.

    ``command`` names the subcommand the config is for, when known, so that
    limits of a single route can be checked here too.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = json.loads(json.dumps(DEFAULTS))
    for key, val in raw.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config field {key!r}")
        if key == "tolerances" and isinstance(val, dict):
            for name in val:
                if name not in cfg[key]:
                    raise ConfigError(f"unknown tolerance {name!r}")
            val = {**cfg[key], **val}
        cfg[key] = val
    cfg["metric"] = _metric_spec(cfg["metric"])
    for field in ("group", "out"):
        if not isinstance(cfg[field], str):
            raise ConfigError(f"{field} must be a string")
    tol = cfg["tolerances"]
    try:
        for field in ("T", "dt"):
            if cfg[field] is not None:
                cfg[field] = float(cfg[field])
        cfg["angles"] = int(cfg["angles"])
        cfg["seed"] = int(cfg["seed"])
        cfg["deltas"] = [float(d) for d in cfg["deltas"]]
        time_tol, sigma = float(tol["time_tol"]), float(tol["sigma_rel_threshold"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config values must be numbers: {exc}")
    tol["time_tol"], tol["sigma_rel_threshold"] = time_tol, sigma
    for field in ("T", "dt"):
        if cfg[field] is not None and not (np.isfinite(cfg[field]) and cfg[field] > 0):
            raise ConfigError(f"{field} must be a positive finite number")
    if cfg["criterion"] is not None and cfg["criterion"] not in CRITERIA:
        raise ConfigError(f"criterion must be one of {CRITERIA}")
    if cfg["dt"] is not None and cfg["T"] is not None:
        if cfg["dt"] > cfg["T"]:
            raise ConfigError("dt must not exceed T")
        # the numeric conjugate route scans Omega on at least three grid points
        numeric_route = command == "conjugate" and cfg["criterion"] is None
        if numeric_route and round(cfg["T"] / cfg["dt"]) < 2:
            raise ConfigError("numeric conjugate route: T/dt must round to at least 2")
    if not (np.isfinite(time_tol) and time_tol > 0):
        raise ConfigError("tolerances.time_tol must be a positive finite number")
    if not 0 < sigma < 1:
        raise ConfigError("tolerances.sigma_rel_threshold must lie in (0, 1)")
    if cfg["angles"] < 8:
        raise ConfigError("angles must be at least 8")
    if cfg["unit"] not in UNITS:
        raise ConfigError(f"unit must be one of {UNITS}")
    if any(not np.isfinite(d) or d <= -1 for d in cfg["deltas"]):
        raise ConfigError("locus deltas must be finite and > -1")
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def build_group(name):
    name = name.replace("(", "").replace(")", "").replace("_", "-").lower()
    try:
        if name == "berger-sphere":
            return build_su_basis(2, embed_so_subalgebra=True)
        m = re.fullmatch(r"so(\d+)", name)
        if m:
            return build_so_basis(int(m.group(1)))
        m = re.fullmatch(r"su(\d+)-with-so\d*", name)
        if m:
            return build_su_basis(int(m.group(1)), embed_so_subalgebra=True)
        m = re.fullmatch(r"su(\d+)", name)
        if m:
            return build_su_basis(int(m.group(1)))
        m = re.fullmatch(r"torus(\d+)", name)
        if m:
            return build_torus_basis(int(m.group(1)))
    except InvalidDimensionError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown group {name!r}")


def build_metric(basis, spec):
    """The metric of a normalized spec (see ``normalize_config``)."""
    kind = spec["kind"]
    try:
        if METRIC_FIELDS[kind] is None:
            return MetricOperator.biinvariant(basis)
        param = spec[METRIC_FIELDS[kind]]
        if kind == "generic":
            with open(param) as fh:
                param = np.array(json.load(fh)["matrix"])
        return getattr(MetricOperator, kind.replace("-", "_"))(basis, param)
    except KeyError as exc:
        raise ConfigError(f"metric {kind!r} is missing field {exc}")
    except (LieGeoError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _metric(cfg):
    return build_metric(build_group(cfg["group"]), cfg["metric"])


def _coords(spec):
    try:
        return np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"u0 coordinates must be numbers: {exc}")


def build_initial(basis, spec):
    if isinstance(spec, str):
        try:
            return basis.element_by_label(spec)
        except KeyError as exc:
            raise ConfigError(str(exc))
    if isinstance(spec, dict):
        m = basis.subalgebra_dim
        if not m:
            raise ConfigError("p0/q0 split needs a group with a subalgebra")
        p0, q0 = _coords(spec.get("p0", [])), _coords(spec.get("q0", []))
        if p0.shape != (m,) or q0.shape != (basis.dim - m,):
            raise ConfigError(
                f"p0 must have length {m} and q0 length {basis.dim - m}"
            )
        return basis.element(np.concatenate([p0, q0]))
    coords = _coords(spec)
    if coords.shape != (basis.dim,):
        raise ConfigError(f"u0 must have {basis.dim} coordinates")
    return basis.element(coords)


def _output_dir(outdir):
    """Create the output directory, once the results to write are in hand."""
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _write_json(path, doc, indent=2):
    """Write doc with sorted keys and a final newline; returns the JSON text."""
    text = json.dumps(doc, sort_keys=True, indent=indent)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def write_manifest(cfg, outdir, outputs):
    manifest = {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "version": __version__,
        "seed": cfg["seed"],
        "outputs": sorted(outputs),
        "tolerances": cfg["tolerances"],
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _write_matrix_csv(path, matrix, header, chash):
    with open(path, "w") as fh:
        fh.write(f"# config_hash: {chash}\n")
        fh.write(header + "\n")
        for row in np.atleast_2d(matrix):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# -- commands: each returns the paths it wrote; main adds the manifest ---------------


def cmd_curvature(cfg):
    metric = _metric(cfg)
    basis = metric.basis
    ric = ricci_matrix(metric)
    cheeger = metric.variant == "cheeger" and basis.subalgebra_dim
    report = block_einstein_report(metric, ric) if cheeger else None
    chash = config_hash(cfg)
    outdir = _output_dir(cfg["out"])
    path = os.path.join(outdir, "ricci.csv")
    _write_matrix_csv(path, ric.matrix, ",".join(basis.labels), chash)
    print(f"ricci matrix -> {path} (off-diagonal residual {ric.diagonality_residual:.3e})")
    if report is None:
        return [path]
    be_path = os.path.join(outdir, "block_einstein.json")
    _write_json(be_path, {"config_hash": chash, **report})
    print(
        f"block-Einstein -> {be_path} (C1={report['C1']:.6g}, C2={report['C2']:.6g}, "
        f"residual {report['residual']:.3e})"
    )
    return [path, be_path]


def cmd_geodesic(cfg):
    metric = _metric(cfg)
    u0 = build_initial(metric.basis, cfg["u0"])
    traj = integrate_euler_arnold(metric, u0, cfg["T"], cfg["dt"])
    path = os.path.join(_output_dir(cfg["out"]), "trajectory.csv")
    traj.export_csv(path, config_hash=config_hash(cfg))
    print(f"geodesic -> {path} (conservation drift {traj.conservation_drift():.3e})")
    return [path]


def _criterion_document(cfg, metric, u0):
    """Run the selected criterion; returns its report dict."""
    name = cfg["criterion"]
    if name == "steady-det":
        crit = steady_operators(metric, u0)
        if crit.status != "applicable":
            raise CriterionInapplicableError(f"steady criterion: {crit.status}")
        report = steady_determinant_scan(crit, horizon=cfg["T"] / 2.0)
        return criterion_report(crit, report)
    if name == "steady-blocks":
        data, report = commuting_block_scan(metric, u0)
        return criterion_report(data, report)
    if name == "misiolek":
        scan = misiolek_scan(metric, u0, seed=cfg["seed"])
        return criterion_report({
            "criterion": "misiolek",
            "status": scan.verdict(),
            "minimum": scan.minimum,
            "n_evaluated": scan.n_evaluated,
        })
    if name == "cheeger":
        if metric.variant != "cheeger":
            raise CriterionInapplicableError("the Cheeger criterion needs a Cheeger metric")
        try:
            p0, q0 = project_h(u0), project_h_perp(u0)
        except UnsupportedSplitError as exc:
            raise CriterionInapplicableError(str(exc))
        ok = cheeger_nonsteady_condition(metric.delta, p0, q0)
        return criterion_report({
            "criterion": "cheeger",
            "status": "conjugate-point-guaranteed" if ok else "condition-violated",
            "delta": metric.delta,
        })
    if name == "nonsteady-phi":
        traj = integrate_euler_arnold(metric, u0, cfg["T"], cfg["dt"])
        verdict, _ = nonsteady_quadratic_criterion(traj)
        extra = {}
        if verdict.verdict == "satisfied-on-horizon":
            extra["index_form_tau"] = index_form_tau(verdict.psi_min, verdict.phi_min)
        return criterion_report(verdict, **extra)
    if name == "closed":
        traj = integrate_euler_arnold(metric, u0, cfg["T"], cfg["dt"])
        tau = closed_biinvariant_time(metric, u0, horizon=cfg["T"])
        if tau is None:
            return criterion_report({"criterion": "closed", "status": "no-closed-time-on-horizon"})
        verdict = closed_geodesic_conjugacy(traj, tau)
        certified = verdict.conjugate_at_or_before_tau
        return criterion_report({
            "criterion": "closed",
            "status": "conjugate-at-or-before-tau" if certified else "not-certified",
            "tau": verdict.tau,
            "isometry_ok": verdict.isometry_ok,
            "field_norm_at_tau": verdict.field_norm_at_tau,
        })
    raise ConfigError(f"unknown criterion {name!r}")


def cmd_conjugate(cfg):
    metric = _metric(cfg)
    u0 = build_initial(metric.basis, cfg["u0"])
    if cfg["criterion"] is None:
        traj = integrate_euler_arnold(metric, u0, cfg["T"], cfg["dt"])
        doc = find_conjugate_times(traj, **cfg["tolerances"]).to_json_dict()
    else:
        doc = _criterion_document(cfg, metric, u0)
    path = os.path.join(_output_dir(cfg["out"]), "conjugate.json")
    text = _write_json(path, {"config_hash": config_hash(cfg), **doc}, indent=None)
    print(f"conjugate report -> {path}")
    print(text)
    return [path]


def cmd_steady(cfg):
    metric = _metric(cfg)
    u0 = build_initial(metric.basis, cfg["u0"])
    crit = steady_operators(metric, u0)
    doc = {"config_hash": config_hash(cfg), "operators": crit.to_json_dict()}
    if crit.status == "applicable":
        scan = steady_determinant_scan(crit, horizon=cfg["T"] / 2.0)
        doc["determinant_scan"] = scan.to_json_dict()
    try:
        data, report = commuting_block_scan(metric, u0)
        doc["blocks"] = data.to_json_dict()
        doc["block_scan_times"] = report.times
    except CriterionInapplicableError as exc:
        doc["blocks"] = {"status": "inapplicable", "reason": str(exc)}
    scan = misiolek_scan(metric, u0, seed=cfg["seed"])
    doc["misiolek"] = {"minimum": scan.minimum, "status": scan.verdict()}
    path = os.path.join(_output_dir(cfg["out"]), "steady.json")
    _write_json(path, doc)
    print(f"steady analysis -> {path}")
    return [path]


def cmd_locus(cfg):
    slices = [generate_locus_slice(d, cfg["angles"], unit=cfg["unit"]) for d in cfg["deltas"]]
    out = cfg["out"]
    if out.endswith(".svg"):
        _output_dir(os.path.dirname(out) or ".")
        svg_path, csv_path = out, out[:-4] + ".csv"
    else:
        svg_path = os.path.join(_output_dir(out), "locus.svg")
        csv_path = os.path.join(out, "locus.csv")
    chash = config_hash(cfg)
    emit_locus_csv(slices, csv_path, config_hash=chash)
    emit_locus_svg(slices, svg_path, config_hash=chash)
    print(f"locus -> {svg_path}, {csv_path} (unit: {cfg['unit']})")
    return [svg_path, csv_path]


# -- verify: the oracle/invariant gate ------------------------------------------------


def _verify_checks(seed=0):
    """Yield (name, residual, bound) triples for the full oracle suite."""
    rng = np.random.default_rng(seed)

    so3 = build_so_basis(3)
    so4 = build_so_basis(4)
    su2 = build_su_basis(2, embed_so_subalgebra=True)
    su3 = build_su_basis(3, embed_so_subalgebra=True)

    # algebraic identities on every builder output
    for basis in (so3, so4, su2, su3):
        res = basis.identity_residuals()
        yield f"jacobi-identity {basis.name}", res["jacobi-identity"], ALGEBRA_TOL
        yield f"ad-invariance {basis.name}", res["ad-invariance"], ALGEBRA_TOL
        yield f"orthonormality {basis.name}", res["orthonormality"], ALGEBRA_TOL
        worst = 0.0
        for _ in range(100):
            x = basis.element(rng.standard_normal(basis.dim))
            y = basis.element(rng.standard_normal(basis.dim))
            comm = x.matrix() @ y.matrix() - y.matrix() @ x.matrix()
            worst = max(
                worst,
                float(np.abs(bracket(x, y).matrix() - comm).max()),
            )
        yield f"bracket-vs-commutator {basis.name}", worst, 1e-10
    # su(4): a Gram that misses I by rounding, one entry 1.1e-16 off
    yield "orthonormality su(4)", build_su_basis(4).identity_residuals()["orthonormality"], ALGEBRA_TOL

    # subalgebra split closure
    res = su3.identity_residuals()
    for name in ("split [h,h] in h", "split [h,hp] in hp"):
        yield name, res[name], ALGEBRA_TOL

    # ad* duality for every metric variant
    metrics = [
        MetricOperator.rigid_body(so3, [1.0, 2.0, 3.0]),
        MetricOperator.diagonal(so4, rng.uniform(0.5, 3.0, so4.dim)),
        MetricOperator.cheeger(su3, -2.0 / 3.0),
    ]
    w = rng.standard_normal((so3.dim, so3.dim))
    metrics.append(MetricOperator.generic(so3, np.eye(so3.dim) + 0.1 * (w + w.T)))
    for metric in metrics:
        basis = metric.basis
        worst = 0.0
        for _ in range(100):
            u = basis.element(rng.standard_normal(basis.dim))
            v = basis.element(rng.standard_normal(basis.dim))
            z = basis.element(rng.standard_normal(basis.dim))
            lhs = metric.metric_inner(metric.ad_star(u, v), z)
            rhs = metric.metric_inner(v, bracket(u, z))
            worst = max(worst, abs(lhs - rhs))
        yield f"ad*-duality {metric.variant} {basis.name}", worst, 1e-11

    # exponential identities
    worst_ad, worst_mul = 0.0, 0.0
    for _ in range(10):
        x = so4.element(rng.standard_normal(so4.dim))
        t = float(rng.uniform(0, 5))
        lhs = Ad_matrix(group_exp(x, t))
        rhs = scipy.linalg.expm(t * ad_matrix_raw(so4, x.coords))
        worst_ad = max(worst_ad, float(np.abs(lhs - rhs).max()))
        s = float(rng.uniform(0, 3))
        prod = group_exp(x, s).matrix @ group_exp(x, t).matrix
        worst_mul = max(
            worst_mul, float(np.abs(group_exp(x, s + t).matrix - prod).max())
        )
    yield "Ad(exp) = exp(ad)", worst_ad, 1e-10
    yield "one-parameter subgroup", worst_mul, 1e-10

    # solution operator linearity
    metric = MetricOperator.rigid_body(so3, [1.0, 2.0, 3.0])
    u0 = so3.element([0.4, 0.3, 0.8])
    traj = integrate_euler_arnold(metric, u0, T=3.0, dt=2e-3)
    z1 = so3.element(rng.standard_normal(3))
    z2 = so3.element(rng.standard_normal(3))
    a, b = 0.7, -1.3
    y1 = integrate_jacobi(traj, so3.zero(), z1)
    y2 = integrate_jacobi(traj, so3.zero(), z2)
    y12 = integrate_jacobi(traj, so3.zero(), a * z1 + b * z2)
    lin = np.abs(a * y1.y_samples + b * y2.y_samples - y12.y_samples).max()
    yield "Omega linearity", float(lin), 1e-10

    # fourth-order convergence of the integrator
    ref = integrate_euler_arnold(metric, u0, T=2.0, dt=5e-4 / 4)
    e1 = integrate_euler_arnold(metric, u0, T=2.0, dt=2e-2)
    e2 = integrate_euler_arnold(metric, u0, T=2.0, dt=1e-2)
    err1 = np.linalg.norm(e1.velocities[-1] - ref.velocities[-1])
    err2 = np.linalg.norm(e2.velocities[-1] - ref.velocities[-1])
    order = np.log2(err1 / err2)
    yield "RK4 order (expect ~4)", float(abs(order - 4.0)), 0.5

    # conservation and momentum law
    yield "conservation drift", traj.conservation_drift(), 1e-9
    worst = 0.0
    for idx in range(0, len(traj.times), 300):
        g = traj.frame_at_index(idx)
        adj = metric.Ad_star_matrix(g.inverse())
        worst = max(
            worst,
            float(np.linalg.norm(adj @ traj.velocities[idx] - traj.velocities[0])),
        )
    yield "momentum conservation law", worst, 1e-8

    # frame orthogonality of (v1, v2, v3) on a nonsteady Zeitlin geodesic
    zmetric = MetricOperator.cheeger(su3, -2.0 / 3.0)
    coords = rng.standard_normal(su3.dim)
    coords /= np.linalg.norm(coords)
    ztraj = integrate_euler_arnold(zmetric, su3.element(coords), T=1.0, dt=1e-3)
    frame = nonsteady_frame(ztraj)
    yield "nonsteady frame orthogonality", frame.orthogonality_residual, 1e-8

    # exact Cheeger geodesic vs RK4
    bmetric = MetricOperator.cheeger(su2, -0.5)
    bu0 = su2.element([1.0, 0.8, -0.3])
    btraj = integrate_euler_arnold(bmetric, bu0, T=2.0, dt=5e-4)
    gref, uref = cheeger_geodesic_exact(bmetric, bu0, 2.0)
    yield (
        "Cheeger exact vs RK4",
        float(np.abs(btraj.frames[-1] - gref.matrix).max()),
        1e-8,
    )

    # closed-form vs numeric Ricci on so(3) and so(4)
    for basis, mu in ((so3, [1.0, 2.0, 3.0]), (so4, [1.0, 2.0, 3.0, 4.0])):
        metric = MetricOperator.rigid_body(basis, mu)
        ric = ricci_matrix(metric)
        closed = ricci_rigid_closed_form(basis.matrix_size, mu=mu)
        yield (
            f"ricci closed-vs-numeric {basis.name}",
            float(np.abs(np.diag(ric.matrix) - closed).max()),
            1e-10,
        )
        yield f"ricci diagonality {basis.name}", ric.diagonality_residual, 1e-10

    # Arnold formula vs the squared-form sectional formula
    metric = MetricOperator.diagonal(so4, rng.uniform(0.5, 3.0, so4.dim))
    worst = 0.0
    for _ in range(50):
        u = so4.element(rng.standard_normal(so4.dim))
        v = so4.element(rng.standard_normal(so4.dim))
        worst = max(
            worst,
            abs(sectional_numerator(metric, u, v) - sectional_numerator_arnold(metric, u, v)),
        )
    yield "sectional formula cross-check", worst, 1e-10

    # analytic vs numeric Berger determinant
    bmetric = MetricOperator.cheeger(su2, 1.0)
    bu0 = su2.element([1.0, 1.0, 0.0])
    btraj = integrate_euler_arnold(bmetric, bu0, T=2.0, dt=1e-3)
    samples = solution_operator(btraj)
    r4 = float(np.sqrt(5.0) ** 4)
    worst = 0.0
    for s in samples[:: len(samples) // 50]:
        worst = max(
            worst, abs(s.det - s.t / r4 * berger_det(s.t, 1.0, 1.0, 1.0))
        )
    yield "Berger determinant analytic-vs-numeric", worst, 1e-7

    # criterion cross-agreement on the unstable middle axis
    metric = MetricOperator.rigid_body(so3, [1.0, 2.0, 3.0])
    u0 = so3.element_by_label("e13")
    crit = steady_operators(metric, u0)
    scan = steady_determinant_scan(crit, horizon=4.0)
    data, block_rep = commuting_block_scan(metric, u0)
    t_first = block_rep.first_time()
    straj = integrate_euler_arnold(metric, u0, T=1.2 * t_first, dt=2e-3)
    num = find_conjugate_times(straj)
    yield (
        "criterion cross-agreement (middle axis)",
        float(
            max(
                abs(scan.first_time() - t_first),
                abs((num.first_time() or np.inf) - t_first),
            )
        ),
        1e-4,
    )

    # beta constants of the Zeitlin pair
    bg, bh = beta_constants(su3)
    yield "beta_G su(3) = 12", abs(bg - 12.0), 1e-9

    # closed-form Ricci matrix vs the sectional sum over a g-orthonormal frame
    w = rng.standard_normal((so4.dim, so4.dim))
    worst = 0.0
    for metric in (
        MetricOperator.generic(so4, np.eye(so4.dim) + 0.2 * w @ w.T),
        MetricOperator.cheeger(su3, -2.0 / 3.0),
    ):
        basis = metric.basis
        ric = ricci_matrix(metric).matrix
        for _ in range(20):
            coords = rng.standard_normal(basis.dim)
            coords /= np.linalg.norm(coords)
            worst = max(
                worst, abs(coords @ ric @ coords - ricci_numeric(metric, basis.element(coords)))
            )
    yield "ricci formula vs sectional sum", worst, 1e-10


def cmd_verify(cfg):
    failures = 0
    for name, residual, bound in _verify_checks(seed=cfg["seed"]):
        ok = residual < bound
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {residual:.3e} (bound {bound:g})")
        if not ok:
            failures += 1
    print(f"verify: {'all checks passed' if not failures else f'{failures} failures'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# -- argument parsing ------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--group", help="so<n> | su<n> | su<n>-with-so<n> | berger-sphere | torus<k>")
    parser.add_argument(
        "--metric",
        nargs="+",
        help="rigid-body MU1,MU2,... | diagonal L1,L2,... | cheeger DELTA | biinvariant | generic FILE",
    )
    parser.add_argument("--u0", help="basis label (e12), coordinate list, or p0;q0")
    parser.add_argument("--T", type=float, help="time horizon")
    parser.add_argument("--dt", type=float, help="integrator step")
    parser.add_argument("--seed", type=int, help="PRNG seed for scans")
    parser.add_argument("--out", help="output directory (or .svg path for locus)")


def _parse_metric_tokens(tokens):
    kind = tokens[0]
    field = METRIC_FIELDS.get(kind, "")
    if field is None:
        return {"kind": kind}
    if len(tokens) < 2:
        raise ConfigError(f"metric {kind!r} needs a parameter")
    if not field:
        raise ConfigError(f"unknown metric kind {kind!r}")
    # numbers stay text here; normalize_config converts them
    return {"kind": kind, field: tokens[1].split(",") if field in ("mu", "lam") else tokens[1]}


def _parse_u0(text):
    if ";" in text:
        p0, q0 = text.split(";", 1)
        return {
            "p0": _numbers(x for x in p0.split(",") if x),
            "q0": _numbers(x for x in q0.split(",") if x),
        }
    if re.fullmatch(r"[a-z][a-z0-9]*", text):
        return text
    return _numbers(text.split(","))


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _fold_dashed_values(argv):
    """Pass flag values that start with a minus sign to argparse as values.

    argparse takes a dashed token for a value only in the forms -N and -N.N.
    So '--flag -0.5,...' is joined into '--flag=-0.5,...' for list-valued
    flags, and a number after '--metric KIND' in any other float form
    (-4.96e-05, -1e-9) is written out positionally, which is the same double.
    """
    out = []
    for tok in argv:
        if out and out[-1] in ("--deltas", "--u0") and tok.startswith("-"):
            out[-1] += "=" + tok
        elif out[-2:-1] == ["--metric"] and tok.startswith("-") and _is_number(tok):
            out.append(np.format_float_positional(float(tok), trim="-"))
        else:
            out.append(tok)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="liegeo",
        description="geodesics, curvature and conjugate points on matrix Lie groups",
    )
    argv = _fold_dashed_values(list(argv))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("curvature", "geodesic", "conjugate", "steady", "locus", "verify"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "conjugate":
            p.add_argument("--criterion", choices=CRITERIA)
        if name == "locus":
            p.add_argument("--deltas", help="comma list of deformation parameters")
            p.add_argument("--angles", type=int, help="number of direction samples")
            p.add_argument("--unit", choices=UNITS)
    return parser.parse_args(argv)


# config fields whose flag text needs parsing; every other flag is copied as given
FLAG_PARSERS = {
    "metric": _parse_metric_tokens,
    "u0": _parse_u0,
    "deltas": lambda text: _numbers(text.split(",")),
}


def config_from_args(args):
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config!r} must hold a JSON object")
    for field in DEFAULTS:
        val = getattr(args, field, None)
        if val is not None:
            raw[field] = FLAG_PARSERS[field](val) if field in FLAG_PARSERS else val
    return normalize_config(raw, args.command)


WRITERS = {
    "curvature": cmd_curvature,
    "geodesic": cmd_geodesic,
    "conjugate": cmd_conjugate,
    "steady": cmd_steady,
    "locus": cmd_locus,
}


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse has printed its usage message (or the help, with code 0)
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = config_from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        outputs = WRITERS[args.command](cfg)
        write_manifest(cfg, os.path.dirname(outputs[0]), outputs)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CriterionInapplicableError as exc:
        print(f"criterion inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except LieGeoError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
