"""The benchmark's checks accept the program's answers and reject perturbed ones.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# -- oracles on their own ------------------------------------------------------------


def test_bases_are_orthonormal_and_su3_has_zeitlin_constants():
    for mats in (oracles.so_matrices(4), oracles.su_matrices(3)):
        gram = oracles.coords(mats, mats)
        assert np.abs(gram - np.eye(len(mats))).max() < 1e-15
    beta_g, beta_h, c1, c2 = oracles.block_einstein(3, 0.0)
    assert (beta_g, beta_h) == pytest.approx((12.0, 2.0), abs=1e-12)
    assert c1 == pytest.approx(c2)          # delta = 0 is bi-invariant: Einstein


def test_finite_difference_oracle_agrees_with_berger_closed_form():
    mats = oracles.su_matrices(2)
    for delta in (-0.4, 0.0, 0.5):
        u = np.array([0.6, 0.48, 0.64])
        numeric = oracles.cheeger_conjugate_times(u, delta, 1, mats, 4.0)
        closed = oracles.berger_roots(delta, 0.6, 0.8, 4.0)
        assert [k for _, k, _ in numeric] == [k for _, k in closed]
        assert np.allclose([t for t, _, _ in numeric], [t for t, _ in closed], atol=1e-9)
    assert [kind for _, _, kind in numeric] == ["sign", "sign"]
    assert oracles.cheeger_conjugate_times(u, 0.0, 1, mats, 4.0)[0][1:] == (2, "touch")


def test_locus_first_times_are_zeros_of_the_closed_form_and_nested():
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    slices = [oracles.berger_first_times(d, theta) for d in (-0.9, -0.5, -0.1)]
    for delta, ts in zip((-0.9, -0.5, -0.1), slices):
        p, q = np.abs(np.cos(theta)) / (1 + delta), np.abs(np.sin(theta))
        assert np.abs(oracles.berger_det(ts, delta, p, q)).max() < 1e-12
    assert np.all(np.diff(np.array(slices), axis=0) >= 0)


# -- checks against the program ------------------------------------------------------


@pytest.fixture(scope="module")
def cheeger():
    wl = workloads.CheegerNumeric(None)
    wl.setup()
    q = {"group": "berger", "delta": -0.35, "u": np.array([0.6, 0.48, 0.64])}
    return wl, q, wl.run(q)


def _shift_time(ans, dt, index=0):
    events = list(ans["events"])
    t, k, method = events[index]
    events[index] = (t + dt, k, method)
    return {**ans, "events": events}


def test_cheeger_check_accepts_the_program(cheeger):
    wl, q, ans = cheeger
    assert len(ans["events"]) >= 2
    assert wl.check(q, ans) == []


@pytest.mark.parametrize("perturb", [
    lambda a: _shift_time(a, 1e-4),
    lambda a: _shift_time(a, -1e-4, index=-1),
    lambda a: {**a, "events": a["events"][1:]},
    lambda a: {**a, "events": [(t, k + 1, m) for t, k, m in a["events"]]},
    lambda a: {**a, "events": [(t, k, "sigma-min-dip") for t, k, m in a["events"]]},
    lambda a: {**a, "final_frame": a["final_frame"] + 1e-6},
])
def test_cheeger_check_rejects_perturbed_answers(cheeger, perturb):
    wl, q, ans = cheeger
    assert wl.check(q, perturb(ans))


@pytest.fixture(scope="module")
def rigid():
    wl = workloads.RigidSteady(None)
    wl.setup()
    q = wl.round_inputs(7, 0)[1]           # so(4)
    return wl, q, wl.run(q)


def test_rigid_check_accepts_the_program(rigid):
    wl, q, ans = rigid
    assert len(ans["det"]) >= 2
    assert wl.check(q, ans) == []


def _shift_first(pairs, dt):
    return [(pairs[0][0] + dt, pairs[0][1])] + list(pairs[1:])


@pytest.mark.parametrize("perturb", [
    lambda a: {**a, "det": _shift_first(a["det"], 1e-4)},
    lambda a: {**a, "det": [(t, k + 1) for t, k in a["det"]]},
    lambda a: {**a, "det": a["det"][:-1]},
    lambda a: {**a, "blocks": [(f + 1e-4, g) for f, g in a["blocks"]]},
    lambda a: {**a, "block_events": _shift_first(a["block_events"], 1e-4)},
    lambda a: {**a, "R": a["R"] + 1e-6},
    lambda a: {**a, "misiolek": (a["misiolek"][0] + 1e-6, *a["misiolek"][1:])},
    lambda a: {**a, "misiolek": (*a["misiolek"][:2], not a["misiolek"][2])},
])
def test_rigid_check_rejects_perturbed_answers(rigid, perturb):
    wl, q, ans = rigid
    assert wl.check(q, perturb(ans))


@pytest.fixture
def cli_runs(tmp_path):
    wl = workloads.CliClosedForms(str(tmp_path))
    queries = {q["kind"]: q for q in wl.round_inputs(3, 0)}
    runs = {k: (queries[k], wl.run(queries[k])) for k in ("so5", "su3", "locus")}
    return wl, runs


def _edit_csv(path, row, col, delta):
    """Add ``delta`` to one value of a CSV whose first two lines are headers."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 2].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 2] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_json(path, keys, change):
    with open(path) as fh:
        doc = json.load(fh)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = change(node[keys[-1]])
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_text(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def test_cli_checks_accept_the_program(cli_runs):
    wl, runs = cli_runs
    for q, ans in runs.values():
        assert wl.check(q, ans) == []
    results = [(q, ans, None) for q, ans in runs.values()]
    assert wl.check_reproducible(results) == []


@pytest.mark.parametrize("kind,name,edit", [
    ("so5", "ricci.csv", lambda p: _edit_csv(p, 2, 2, 1e-8)),
    ("so5", "ricci.csv", lambda p: _edit_csv(p, 0, 3, 1e-8)),
    ("su3", "ricci.csv", lambda p: _edit_csv(p, 6, 6, 1e-8)),
    ("su3", "block_einstein.json", lambda p: _edit_json(p, ["C1"], lambda v: v + 1e-8)),
    ("su3", "block_einstein.json", lambda p: _edit_json(p, ["beta_H"], lambda v: v + 1e-8)),
    ("locus", "locus.csv", lambda p: _edit_csv(p, 100, 1, 1e-4)),
    ("locus", "locus.csv", lambda p: _edit_csv(p, 3000, 1, -1e-4)),
    ("locus", "locus.svg", lambda p: _edit_text(p, "config_hash: ", "config_hash: 0")),
    ("so5", "manifest.json", lambda p: _edit_json(p, ["config", "seed"], lambda v: v + 1)),
])
def test_cli_checks_reject_perturbed_outputs(cli_runs, kind, name, edit):
    wl, runs = cli_runs
    q, ans = runs[kind]
    edit(os.path.join(q["out"], name))
    assert wl.check(q, ans)


def test_reproducibility_check_rejects_changed_bytes(cli_runs):
    wl, runs = cli_runs
    q, ans = runs["so5"]
    with open(os.path.join(q["out"], "ricci.csv"), "a") as fh:
        fh.write("\n")
    assert wl.check_reproducible([(q, ans, None)])


# -- tracing -------------------------------------------------------------------------


def test_traced_counts_repeat_and_wrappers_come_off(rigid):
    wl, q, _ = rigid
    original = workloads.criteria.steady_determinant_scan
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.query = 0
            wl.run(q)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
        assert [s[0] for s in tracer.spans] == [
            "criteria.steady_operators", "criteria.det_scan", "criteria.block_scan",
            "curvature.misiolek",
        ]
    assert counts[0] == counts[1]
    assert counts[0]["expm", "criteria", True] >= 4 * 4000
    assert workloads.criteria.steady_determinant_scan is original
