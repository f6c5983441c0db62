import json
import os
import subprocess
import sys

import numpy as np
import pytest

from liegeo.cli import (
    EXIT_CONFIG,
    EXIT_INAPPLICABLE,
    EXIT_NUMERIC,
    EXIT_OK,
    METRIC_FIELDS,
    _parse_metric_tokens,
    build_group,
    build_metric,
    config_hash,
    main,
    normalize_config,
)
from liegeo.errors import ConfigError


def run_cli(args, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "liegeo.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_normalize_round_trip():
    raw = {"group": "so4", "T": 5, "metric": {"kind": "cheeger", "delta": -0.5}}
    cfg = normalize_config(raw)
    assert normalize_config(cfg) == cfg
    assert cfg["T"] == 5.0 and cfg["seed"] == 0


def test_normalize_rejects_bad_fields():
    with pytest.raises(ConfigError):
        normalize_config({"bogus": 1})
    with pytest.raises(ConfigError):
        normalize_config({"T": -1})
    with pytest.raises(ConfigError):
        normalize_config({"criterion": "nope"})
    with pytest.raises(ConfigError):
        normalize_config({"deltas": [-2.0]})
    bad = [
        {"tolerances": {"time_tol": 0}},
        {"tolerances": {"time_tol": -1}},
        {"tolerances": {"time_tol": float("inf")}},
        {"tolerances": {"time_tol": "fine"}},
        {"tolerances": {"sigma_rel_threshold": -1}},
        {"tolerances": {"sigma_rel_threshold": 0}},
        {"tolerances": {"sigma_rel_threshold": 1}},
        {"tolerances": {"sigma_rel_threshold": float("nan")}},
        {"angles": 4},
        {"T": 1, "dt": 2},
        {"unit": "bogus"},
        {"seed": "abc"},
        {"seed": float("inf")},
        {"angles": "x"},
        {"T": "abc"},
        {"deltas": 0.5},
        {"metric": "x"},
        [1, 2],
        {"group": 5},
        {"out": 1},
        {"tolerances": {"bogus": 1}},
        {"tolerances": {"steady_tol": 1e-10}},
        {"metric": {"kind": "rigid-body", "mu": [1, 2, 3], "extra": 5}},
        {"metric": {"kind": "biinvariant", "mu": [1, 2, 3]}},
        {"metric": {"kind": "nope"}},
        {"metric": {}},
        {"metric": {"kind": "cheeger"}},
        {"metric": {"kind": "cheeger", "delta": "x"}},
        {"metric": {"kind": "rigid-body", "mu": "123"}},
        {"metric": {"kind": "diagonal", "lam": [1, None, 3]}},
        {"metric": {"kind": "generic", "matrix_file": 5}},
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            normalize_config(raw)


def test_normalize_converts_tolerances():
    # a string tolerance used to reach the refinement as a str and end in a TypeError
    cfg = normalize_config({"tolerances": {"time_tol": "1e-9", "sigma_rel_threshold": "1e-6"}})
    assert cfg == normalize_config({})


def test_config_hash_stable():
    cfg = normalize_config({"group": "so3"})
    assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))
    assert config_hash(cfg) != config_hash(normalize_config({"group": "so4"}))
    # metric numbers are normalized to floats, so equal runs hash equal
    ints = normalize_config({"metric": {"kind": "rigid-body", "mu": [1, 2, 3]}})
    assert ints == normalize_config({"metric": {"kind": "rigid-body", "mu": [1.0, 2.0, 3.0]}})
    assert config_hash(ints) == config_hash(normalize_config({}))
    delta = {"kind": "cheeger", "delta": -1}
    assert normalize_config({"metric": delta})["metric"]["delta"] == -1.0


METRIC_CASES = {
    # kind: (flag tokens, group, variant of the built metric)
    "rigid-body": (["rigid-body", "1,2,3"], "so3", "rigid-body"),
    "diagonal": (["diagonal", "1,2,3"], "so3", "diagonal"),
    "cheeger": (["cheeger", "-0.5"], "berger-sphere", "cheeger"),
    "generic": (["generic", "{dir}/lam.json"], "so3", "generic"),
    "biinvariant": (["biinvariant"], "so3", "diagonal"),
}


@pytest.mark.parametrize("kind", sorted(METRIC_FIELDS))
def test_metric_table_kinds(tmp_path, kind):
    (tmp_path / "lam.json").write_text(json.dumps({"matrix": np.diag([1.0, 2.0, 3.0]).tolist()}))
    tokens, group, variant = METRIC_CASES[kind]
    spec = _parse_metric_tokens([t.format(dir=tmp_path) for t in tokens])
    cfg = normalize_config({"group": group, "metric": spec})
    assert cfg["metric"]["kind"] == kind and normalize_config(cfg) == cfg
    assert build_metric(build_group(group), cfg["metric"]).variant == variant


def test_build_group_names():
    assert build_group("so3").name == "so(3)"
    assert build_group("so(4)").name == "so(4)"
    assert build_group("su3-with-so3").name == "su(3)/so(3)"
    assert build_group("berger-sphere").subalgebra_dim == 1
    assert build_group("torus2").dim == 2
    with pytest.raises(ConfigError):
        build_group("e8")


def test_cmd_conjugate_blocks(tmp_path):
    code = main(
        [
            "conjugate",
            "--group", "so3",
            "--metric", "rigid-body", "1,2,3",
            "--u0", "e12",
            "--criterion", "steady-blocks",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "run" / "conjugate.json").read_text())
    assert doc["criterion"] == "steady-blocks"
    assert doc["conjugate_times"][0] == pytest.approx(9.0869145, abs=1e-5)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config_hash"] == doc["config_hash"]


def test_cmd_curvature_zeitlin(tmp_path):
    code = main(
        [
            "curvature",
            "--group", "su3-with-so3",
            "--metric", "cheeger", "-0.66666666666666667",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "run" / "block_einstein.json").read_text())
    assert doc["C2"] == pytest.approx(5.0, abs=1e-9)
    assert doc["residual"] < 1e-9
    ricci_lines = (tmp_path / "run" / "ricci.csv").read_text().splitlines()
    assert ricci_lines[0].startswith("# config_hash: ")
    assert len(ricci_lines) == 2 + 8


def test_exit_codes(tmp_path):
    assert main(["curvature", "--group", "e9", "--out", str(tmp_path)]) == EXIT_CONFIG
    code = main(
        [
            "conjugate",
            "--group", "torus2",
            "--metric", "diagonal", "1,2",
            "--u0", "1,0.7",
            "--criterion", "steady-det",
            "--out", str(tmp_path / "t"),
        ]
    )
    assert code == EXIT_INAPPLICABLE


def test_cheeger_criterion_off_its_hypotheses_is_inapplicable(tmp_path):
    # the default so(3) has no subalgebra split to project u0 onto
    code = main(["conjugate", "--criterion", "cheeger", "--out", str(tmp_path / "c")])
    assert code == EXIT_INAPPLICABLE
    # a split group, but a metric that is not a Cheeger deformation
    code = main(
        [
            "conjugate",
            "--group", "su3-with-so3",
            "--metric", "biinvariant",
            "--u0", "0.4,0.1,0.3;0.2,0.5,0.1,0.2,0.3",
            "--criterion", "cheeger",
            "--out", str(tmp_path / "b"),
        ]
    )
    assert code == EXIT_INAPPLICABLE


def test_one_step_grid_only_rejected_on_numeric_conjugate_route(tmp_path):
    # T/dt rounds to one step: a geodesic is fine, the numeric conjugate route is not
    argv = ["--T", "1", "--dt", "0.7", "--out", str(tmp_path / "g")]
    assert main(["geodesic", *argv]) == EXIT_OK
    cfg = {"T": 1, "dt": 0.7}
    assert normalize_config(cfg) == normalize_config(cfg, "geodesic")
    with pytest.raises(ConfigError):
        normalize_config(cfg, "conjugate")


CONFIG_FILES = {
    "unit": {"unit": "bogus"},
    "tol": {"tolerances": {"time_tol": 0}},
    "seed": {"seed": "abc"},
    "angles": {"angles": "x"},
    "T": {"T": "abc"},
    "deltas": {"deltas": 0.5},
    "metric": {"metric": "x"},
    "list": [1, 2],
    "u0": {"u0": ["a", 1, 2]},
    "steady_tol": {"tolerances": {"steady_tol": 1e-10}},
    "metric_field": {"metric": {"kind": "rigid-body", "mu": [1, 2, 3], "extra": 5}},
}


@pytest.mark.parametrize(
    "args",
    [
        ["locus", "--angles", "4"],
        ["locus", "--angles", "0"],
        ["geodesic", "--T", "1", "--dt", "2"],
        ["curvature", "--metric", "generic", "nofile.json"],
        ["curvature", "--metric", "generic", "{dir}/list.json"],
        ["locus", "--config", "{dir}/unit.json"],
        ["conjugate", "--config", "{dir}/tol.json"],
        ["conjugate", "--T", "1", "--dt", "0.7"],
        ["curvature", "--group", "so1"],
        ["curvature", "--group", "su1"],
        ["curvature", "--group", "torus0"],
        ["curvature", "--group", "so40", "--metric", "biinvariant"],
        ["curvature", "--metric", "rigid-body", "1,2,x"],
        ["curvature", "--metric", "cheeger", "x"],
        ["geodesic", "--u0", "1,x,3"],
        ["conjugate", "--group", "berger-sphere", "--u0", "1;x,0"],
        ["locus", "--deltas", "a,b"],
        ["geodesic", "--config", "{dir}/seed.json"],
        ["locus", "--config", "{dir}/angles.json"],
        ["geodesic", "--config", "{dir}/T.json"],
        ["locus", "--config", "{dir}/deltas.json"],
        ["curvature", "--config", "{dir}/metric.json"],
        ["curvature", "--config", "{dir}/list.json"],
        ["curvature", "--config", "{dir}/list.json", "--group", "so3"],
        ["geodesic", "--config", "{dir}/u0.json"],
        ["conjugate", "--config", "{dir}/steady_tol.json"],
        ["curvature", "--config", "{dir}/metric_field.json"],
    ],
    ids=[
        "angles",
        "angles-zero",
        "dt-over-T",
        "missing-matrix-file",
        "matrix-file-not-object",
        "unit",
        "time-tol",
        "one-step-grid",
        "group-so1",
        "group-su1",
        "group-torus0",
        "group-so40-past-size-bound",
        "mu-not-a-number",
        "delta-not-a-number",
        "u0-not-a-number",
        "q0-not-a-number",
        "deltas-not-numbers",
        "config-seed",
        "config-angles",
        "config-T",
        "config-deltas",
        "config-metric",
        "config-list",
        "config-list-with-group",
        "config-u0",
        "config-steady-tol",
        "config-metric-field",
    ],
)
def test_bad_input_exits_with_config_error(tmp_path, args):
    for name, doc in CONFIG_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [a.format(dir=tmp_path) for a in args] + ["--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_CONFIG


def test_locus_cli_and_determinism(tmp_path):
    # identical config (including out path) -> byte-identical outputs
    args = [
        "locus",
        "--deltas", "-0.25,-0.5",
        "--angles", "64",
        "--out", str(tmp_path / "a" / "locus.svg"),
    ]
    assert main(args) == EXIT_OK
    first_csv = (tmp_path / "a" / "locus.csv").read_bytes()
    first_svg = (tmp_path / "a" / "locus.svg").read_bytes()
    assert main(args) == EXIT_OK
    assert (tmp_path / "a" / "locus.csv").read_bytes() == first_csv
    assert (tmp_path / "a" / "locus.svg").read_bytes() == first_svg


def test_conjugate_determinism(tmp_path):
    args = [
        "conjugate",
        "--group", "berger-sphere",
        "--metric", "cheeger", "-0.5",
        "--u0", "1;1,0",
        "--T", "3",
        "--seed", "7",
        "--out", str(tmp_path / "x"),
    ]
    main(args)
    first = (tmp_path / "x" / "conjugate.json").read_bytes()
    main(args)
    assert (tmp_path / "x" / "conjugate.json").read_bytes() == first


WRITING_RUNS = {
    "curvature-cheeger": ["curvature", "--group", "su3-with-so3", "--metric", "cheeger", "-0.5"],
    "geodesic": ["geodesic", "--u0", "0.4,0.3,0.8", "--T", "0.5"],
    "conjugate-numeric": [
        "conjugate", "--group", "berger-sphere", "--metric", "cheeger", "-0.5",
        "--u0", "1;1,0", "--T", "2",
    ],
    "conjugate-steady-det": ["conjugate", "--u0", "e13", "--criterion", "steady-det"],
    "steady": ["steady", "--u0", "e13", "--T", "8"],
    "locus": ["locus", "--deltas", "-0.25,-0.5", "--angles", "16"],
}


@pytest.mark.parametrize("name", sorted(WRITING_RUNS))
def test_writing_commands_are_deterministic(tmp_path, name):
    out = tmp_path / "run"
    argv = WRITING_RUNS[name] + ["--out", str(out)]

    def files():
        return {p.name: p.read_bytes() for p in out.iterdir()}

    assert main(argv) == EXIT_OK
    first = files()
    assert main(argv) == EXIT_OK
    assert files() == first
    manifest = json.loads(first["manifest.json"])
    assert sorted(os.path.basename(p) for p in manifest["outputs"]) == sorted(
        set(first) - {"manifest.json"}
    )
    assert all(os.path.dirname(p) == str(out) for p in manifest["outputs"])
    assert manifest["config_hash"] == config_hash(manifest["config"])


def test_failed_command_leaves_no_output_dir(tmp_path):
    argv = ["conjugate", "--u0", "5,4,3", "--T", "30", "--dt", "3", "--out", str(tmp_path / "d")]
    assert main(argv) == EXIT_NUMERIC
    assert not (tmp_path / "d").exists()


def test_cmd_conjugate_closed_route(tmp_path):
    code = main(
        [
            "conjugate",
            "--group", "berger-sphere",
            "--metric", "cheeger", "-0.5",
            "--u0", "1;1,0",
            "--T", "7",
            "--criterion", "closed",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "run" / "conjugate.json").read_text())
    assert doc["status"] == "conjugate-at-or-before-tau"
    assert doc["diagnostics"]["isometry_ok"] is True
    assert doc["diagnostics"]["tau"] == pytest.approx(5.6198518, abs=1e-5)


def test_cmd_conjugate_nonsteady_phi_route(tmp_path):
    code = main(
        [
            "conjugate",
            "--group", "su3-with-so3",
            "--metric", "cheeger", "-0.6666666666666666",
            "--u0", "0.4,0.1,0.3;0.2,0.5,0.1,0.2,0.3",
            "--T", "1.5",
            "--criterion", "nonsteady-phi",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "run" / "conjugate.json").read_text())
    assert doc["status"] == "satisfied-on-horizon"
    assert doc["diagnostics"]["phi_min"] > 0
    assert doc["diagnostics"]["index_form_tau"] > 0


def test_cli_subprocess_entry(tmp_path, child_env):
    res = run_cli(
        ["geodesic", "--group", "so3", "--metric", "rigid-body", "1,2,3",
         "--u0", "e12", "--T", "0.5", "--out", "g"],
        cwd=tmp_path,
        env=child_env,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "g" / "trajectory.csv").exists()
    assert (tmp_path / "g" / "manifest.json").exists()


@pytest.mark.parametrize(
    "flags, config",
    [
        (
            ["curvature", "--group", "su3-with-so3", "--metric", "cheeger", "-4.96e-05"],
            {"group": "su3-with-so3", "metric": {"kind": "cheeger", "delta": -4.96e-05}},
        ),
        (
            ["curvature", "--group", "su3-with-so3", "--metric", "cheeger", "-1e-9"],
            {"group": "su3-with-so3", "metric": {"kind": "cheeger", "delta": -1e-9}},
        ),
        (
            ["locus", "--deltas", "-1e-5,-0.5", "--angles", "16"],
            {"deltas": [-1e-5, -0.5], "angles": 16},
        ),
    ],
    ids=["delta-exponent", "delta-tiny", "deltas-exponent"],
)
def test_dashed_exponent_numbers_match_config_file(tmp_path, flags, config):
    out = tmp_path / "run"

    def files():
        return {p.name: p.read_bytes() for p in out.iterdir()}

    assert main(flags + ["--out", str(out)]) == EXIT_OK
    from_flags = files()
    for p in out.iterdir():
        p.unlink()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main([flags[0], "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert files() == from_flags


def test_usage_error_returns_config_exit_code(capsys):
    assert main(["curvature", "--bogus"]) == EXIT_CONFIG
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
