import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from fraclab.barriers import capped_distance_data, data_from_config
from fraclab.cli import _FIELDS, build_parser, run
from fraclab.errors import ParameterError, ToleranceWarning, build_record
from fraclab.geometry import Ball, StarShaped, domain_from_config
from fraclab.fields import HalfSpacePower, PsiPower
from fraclab.kernels import make_fractional_laplacian
from fraclab.nonlocal_op import QuadratureSpec, apply_L_many
from fraclab.wos import WoSConfig, solve


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def test_validate_kernel_pass(tmp_path):
    out = tmp_path / "vk.json"
    code = run(["validate-kernel", "--s", "0.5", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["report"]["ok"] is True
    assert "config_hash" in body


def test_validate_kernel_violations_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "s": 0.5,
        "kernel": {"type": "custom", "s": 0.5, "dim": 2, "lambda": 1.2,
                   "Lambda": 1.3, "angular": {"cos_even": [1.0, 0.5]}},
    }))
    out = tmp_path / "vk.json"
    code = run(["validate-kernel", "--config", str(cfg), "--out", str(out)])
    assert code == 2


# the README's apply-op example: it must reach its tolerance without warning
@pytest.mark.filterwarnings("error::fraclab.errors.ToleranceWarning")
def test_apply_op_csv(tmp_path):
    out = tmp_path / "op.csv"
    code = run(["apply-op", "--s", "0.5",
                "--field", '{"name": "halfspace_power", "alpha": 0.25}',
                "--points", "0.0,1.0;0.0,2.0", "--rel-tol", "1e-5",
                "--out", str(out)])
    assert code == 0
    lines = read_lines(str(out))
    assert lines[0].startswith("# fraclab config_hash=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "x1,x2,value,err_estimate,near_part,far_part"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 2
    v1, v2 = float(rows[0][2]), float(rows[1][2])
    assert v1 > 0 and v2 > 0
    assert v2 / v1 == pytest.approx(2.0 ** (0.25 - 1.0), rel=1e-3)
    # value = near + far
    assert float(rows[0][2]) == pytest.approx(
        float(rows[0][4]) + float(rows[0][5]), rel=1e-12)
    assert os.path.exists(str(out) + ".meta.json")


def test_verify_barrier_halfspace(tmp_path):
    out = tmp_path / "vb.json"
    code = run(["verify-barrier", "--kind", "halfspace", "--s", "0.5",
                "--alpha", "0.25", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["report"]["pass"] is True


def _operator_entry(x, ov):
    return {"x": list(x), "n_evals": ov.n_evals,
            "refinements": ov.refinements, "err_estimate": ov.err_estimate,
            "tol_ok": ov.tol_ok}


@pytest.mark.filterwarnings("error::fraclab.errors.ToleranceWarning")
def test_apply_op_sidecar_reports_the_quadrature(tmp_path):
    out = tmp_path / "op.csv"
    assert run(["apply-op", "--s", "0.5",
                "--field", '{"name": "halfspace_power", "alpha": 0.25}',
                "--points", "0.0,1.0;0.0,2.0", "--rel-tol", "1e-5",
                "--out", str(out)]) == 0
    diag = json.loads(open(str(out) + ".meta.json").read())["report"][
        "diagnostics"]
    pts = [[0.0, 1.0], [0.0, 2.0]]
    ovs = apply_L_many(make_fractional_laplacian(0.5, 2),
                       HalfSpacePower([0.0, 1.0], 0.25), pts,
                       q=QuadratureSpec(target_rel_tol=1e-5))
    assert diag["points"] == [_operator_entry(x, ov) for x, ov in zip(pts, ovs)]
    assert diag["totals"] == {
        "n_evals": sum(ov.n_evals for ov in ovs),
        "refinements": sum(ov.refinements for ov in ovs),
        "err_estimate": max(ov.err_estimate for ov in ovs),
        "tol_misses": 0, "tol_warnings": 0}
    assert diag["totals"]["n_evals"] > 0


def test_apply_op_sidecar_counts_tolerance_warnings(tmp_path):
    out = tmp_path / "op.csv"
    with pytest.warns(ToleranceWarning) as caught:
        assert run(["apply-op", "--s", "0.5", "--field",
                    '{"name": "halfspace_power", "alpha": 0.25}',
                    "--points", "0.0,1.0;0.3,2.0;0.0,1.0",
                    "--rel-tol", "1e-14", "--out", str(out)]) == 0
    # the warnings still reach the caller, one per missing point
    assert sum(w.category is ToleranceWarning for w in caught) == 3
    totals = json.loads(open(str(out) + ".meta.json").read())["report"][
        "diagnostics"]["totals"]
    assert totals["tol_misses"] == totals["tol_warnings"] == 3


def test_verify_barrier_sidecar_reports_every_operator_point(tmp_path):
    out = tmp_path / "vb.json"
    assert run(["verify-barrier", "--kind", "halfspace", "--s", "0.5",
                "--alpha", "0.25", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    side = json.loads(open(str(out) + ".meta.json").read())["report"]
    assert side["pass"] is True
    diag = side["diagnostics"]
    # the ten report points, then the homogeneity diagnostic at 2 x the first
    assert [p["x"] for p in diag["points"]] == report["points"] + [
        [2.0 * v for v in report["points"][0]]]
    assert [p["err_estimate"] for p in diag["points"][:10]] == report["errors"]
    assert all(p["tol_ok"] and p["n_evals"] > 0 for p in diag["points"])
    assert diag["totals"]["n_evals"] == sum(p["n_evals"]
                                            for p in diag["points"])
    assert diag["totals"]["tol_misses"] == diag["totals"]["tol_warnings"] == 0

    out = tmp_path / "psi.json"
    assert run(["verify-barrier", "--kind", "psi", "--s", "0.5",
                "--alpha", "0.25", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    diag = json.loads(open(str(out) + ".meta.json").read())["report"][
        "diagnostics"]
    pts = [tuple(p) for p in report["points"]]
    ovs = apply_L_many(make_fractional_laplacian(0.5, 2),
                       PsiPower(Ball([0.0, 0.0], 1.0), 0.25), pts,
                       q=QuadratureSpec(target_rel_tol=1e-5))
    assert diag["points"] == [_operator_entry(x, ov) for x, ov in zip(pts, ovs)]


def test_solve_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["solve", "--domain", "ball",
            "--data", '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}',
            "--points", "0.3,0.0;0.0,0.5", "--paths", "5000", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    side = json.loads((str(a) + ".meta.json",)[0] and open(str(a) + ".meta.json").read())
    assert side["seed"] == 7
    assert "wall_time" in side


def test_solve_sidecar_describes_the_run(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["--threads", "1", "solve", "--domain", "ball", "--data",
                '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}',
                "--points", "0.3,0.0;0.0,0.5", "--paths", "2000",
                "--seed", "7", "--out", str(out)]) == 0
    side = json.loads(open(str(out) + ".meta.json").read())
    assert set(side["versions"]) == {"fraclab", "numpy", "scipy", "python",
                                     "platform", "threads"}
    assert side["versions"]["threads"] == 1
    g = capped_distance_data([2.0, 0.0], 3.0)
    kernel = make_fractional_laplacian(0.5, 2)
    walks = [solve(Ball([0.0, 0.0], 1.0), g, x, kernel,
                   WoSConfig(paths=2000, seed=7), point_index=i)
             for i, x in enumerate(([0.3, 0.0], [0.0, 0.5]))]
    diag = side["report"]["diagnostics"]
    assert diag["points"] == [
        {"x": list(w.x), "paths_used": w.paths_used, "n_maxed": w.n_maxed,
         "steps_max": w.steps_max, "bias_bound": w.bias_bound,
         "control_err": None}
        for w in walks]
    assert diag["totals"] == {
        "paths_used": 4000, "n_maxed": 0,
        "steps_max": max(w.steps_max for w in walks),
        "bias_bound": max(w.bias_bound for w in walks)}


def _walk_totals(points):
    return {"paths_used": sum(p["paths_used"] for p in points),
            "n_maxed": sum(p["n_maxed"] for p in points),
            "steps_max": max(p["steps_max"] for p in points),
            "bias_bound": max(p["bias_bound"] for p in points)}


def test_profile_and_experiment_sidecars_report_the_walks(tmp_path):
    # one entry per walked depth, in the shape of solve's diagnostics; the
    # square's walkers snap, so each bias bound is positive
    out = tmp_path / "p.csv"
    assert run(["--threads", "1", "profile", "--domain", "square", "--data",
                '{"name": "holder_point_singularity", "alpha": 0.1, '
                '"z0": [0, 0]}', "--n", "4", "--paths", "2000", "--seed", "2",
                "--out", str(out)]) == 0
    diag = json.loads(open(str(out) + ".meta.json").read())["report"][
        "diagnostics"]
    rows = [l.split(",") for l in read_lines(str(out))[3:]]
    t_dir = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert [p["x"] for p in diag["points"]] == [
        pytest.approx(float(r[0]) * t_dir, rel=1e-11) for r in rows]
    assert all(p["paths_used"] == 2000 and p["bias_bound"] > 0.0
               for p in diag["points"])
    assert diag["totals"] == _walk_totals(diag["points"])

    out = tmp_path / "e.csv"
    run(["experiment", "--domain", "ball", "--alpha", "0.3", "--s", "0.5",
         "--seed", "7", "--paths", "1000", "--out", str(out)])
    side = json.loads(open(str(out) + ".meta.json").read())["report"]
    diag = side["diagnostics"]
    assert len(diag["points"]) == len(read_lines(str(out))) - 3 == 12
    assert diag["totals"] == _walk_totals(diag["points"])
    assert diag["totals"]["paths_used"] == 12 * 1000
    assert side["verdict"]


@pytest.mark.parametrize("z0, error", [
    ("1,0,0", "z0 must be a finite point of dimension 2, got [1.0, 0.0, 0.0]"),
    ("1", "z0 must be a finite point of dimension 2, got [1.0]"),
    ("nan,0", "z0 must be a finite point of dimension 2, got [nan, 0.0]"),
    ("3,0", "z0 = [3.0, 0.0] lies 2 off the boundary"),
    ("5,5", "z0 = [5.0, 5.0] lies 6.07 off the boundary"),
    ("0.5,0", "z0 = [0.5, 0.0] lies 0.5 off the boundary"),
    ("0,0", "z0 = [0.0, 0.0] lies 1 off the boundary"),
], ids=["3-D", "1-D", "nan", "outside", "far-outside", "inside", "centre"])
def test_profile_refuses_a_bad_z0_by_name(tmp_path, capsys, z0, error):
    # a 3-D z0 died in a bare broadcast ValueError; the outside ones
    # trimmed every depth with a warning each and wrote an empty CSV with
    # exit 0 (later they were refused as having no interior depth); the
    # inside ones profiled from z0 as if it were a boundary point, and the
    # centre met a 0/0 in the inward normal before its refusal
    out = tmp_path / "bad.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["profile", "--domain", "ball", "--data",
                    '{"name": "constant"}', "--z0", z0, "--paths", "100",
                    "--out", str(out)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.3,0.0\n0.0,0.5\n")
    out = tmp_path / "s.csv"
    code = run(["solve", "--domain", "ball",
                "--data", '{"name": "constant", "value": 2.0}',
                "--points-file", str(pts), "--paths", "1000", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    lines = read_lines(str(out))
    assert len(lines) == 5
    assert float(lines[3].split(",")[2]) == 2.0


def test_profile_then_fit_round_trip(tmp_path):
    prof = tmp_path / "prof.csv"
    code = run(["profile", "--domain", "ball",
                "--data",
                '{"name": "holder_point_singularity", "alpha": 0.3, "z0": [1.0, 0.0]}',
                "--s", "0.5", "--tmin", "2e-3", "--tmax", "5e-2", "--n", "8",
                "--paths", "20000", "--seed", "3", "--out", str(prof)])
    assert code == 0
    fit = tmp_path / "fit.json"
    code = run(["fit", "--input", str(prof), "--s", "0.5", "--out", str(fit)])
    assert code == 0
    body = json.loads(fit.read_text())
    assert 0.0 < body["report"]["alpha_hat"] < 1.0


def test_experiment_deterministic_csv(tmp_path):
    a = tmp_path / "e1.csv"
    b = tmp_path / "e2.csv"
    argv = ["experiment", "--domain", "ball", "--alpha", "0.3", "--s", "0.5",
            "--seed", "7", "--paths", "3000"]
    run(argv + ["--out", str(a)])
    run(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_counterexample_csv(tmp_path):
    out = tmp_path / "ce.csv"
    code = run(["counterexample", "--s", "0.5", "--tmin", "1e-3",
                "--tmax", "1e-2", "--n", "5", "--out", str(out)])
    assert code == 0
    lines = read_lines(str(out))
    assert lines[2] == "t,u,t_pow_s,t_pow_s_log,ratio"
    assert len(lines) == 8
    ratios = [float(l.split(",")[4]) for l in lines[3:]]
    assert all(r > 0 for r in ratios)
    side = json.loads(open(str(out) + ".meta.json").read())
    assert side["report"]["kappa_s"] > 0
    # each depth's quadrature error estimate, in the shape of the solve and
    # operator reports' diagnostics
    diag = side["report"]["diagnostics"]
    ts = [float(l.split(",")[0]) for l in lines[3:]]
    assert [p["t"] for p in diag["points"]] == pytest.approx(ts, rel=1e-11)
    errs = [p["err_estimate"] for p in diag["points"]]
    assert all(0.0 <= e < 1e-6 for e in errs)
    assert diag["totals"] == {"points": 5, "err_max": max(errs)}


@pytest.mark.parametrize("flag, value", [
    ("tmin", "0"), ("tmin", "-1e-3"), ("tmin", "nan"), ("tmax", "1"),
    ("tmax", "2"), ("n", "0"), ("tmax", "inf")])
def test_counterexample_refuses_bad_flags(tmp_path, monkeypatch, capsys,
                                          flag, value):
    # tmin 0 reached numpy's "Geometric sequence cannot include zero", a
    # tmax >= 1 wrote inf or negative ratios (log(1/t) <= 0) and n 0 reached
    # "min() arg is an empty sequence".  profile shares the check, with
    # depths in diameters, so only a finite tmax >= 1 passes it there; it
    # wrote a row of NaN and negative depths at tmin -1e-3 and an empty CSV
    # at n 0
    monkeypatch.setattr("fraclab.cli.halfplane_poisson",
                        lambda *a: pytest.fail("a depth was computed"))
    monkeypatch.setattr("fraclab.cli.boundary_profile",
                        lambda *a: pytest.fail("a depth was computed"))
    commands = [["counterexample"]]
    if not (flag == "tmax" and float(value) < float("inf")):
        commands.append(["profile", "--domain", "ball", "--data",
                         '{"name": "constant"}', "--z0", "1,0"])
    for command in commands:
        out = tmp_path / "depths.csv"
        assert run([*command, f"--{flag}={value}", "--out", str(out)]) == 1
        assert f"--{flag}" in capsys.readouterr().err
        assert not out.exists()


def test_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    out = tmp_path / "multi.csv"
    code = run(["solve", "--domain", "ball",
                "--data", '{"name": "constant", "value": 1.0}',
                "--points", "0.1,0.0;0.2,0.0;0.3,0.0", "--paths", "1000",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    assert len(read_lines(str(out))) == 6


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected(tmp_path, monkeypatch, capsys, threads):
    argv = ["apply-op", "--s", "0.5",
            "--field", '{"name": "halfspace_power", "alpha": 0.25}',
            "--points", "0.0,1.0", "--out", str(tmp_path / "op.csv")]
    assert run(["--threads", threads, *argv]) == 1
    assert "threads" in capsys.readouterr().err
    monkeypatch.setenv("FRACLAB_THREADS", threads)
    assert run(argv) == 1
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "op.csv").exists()


def test_threads_env_not_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACLAB_THREADS", "two")
    argv = ["counterexample", "--n", "2", "--out", str(tmp_path / "ce.csv")]
    args = build_parser().parse_args(argv)
    with pytest.raises(ParameterError, match="threads"):
        args.fn(args)
    assert run(argv) == 1
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "ce.csv").exists()


def test_experiment_requires_alpha(tmp_path):
    args = build_parser().parse_args(
        ["experiment", "--paths", "200", "--out", str(tmp_path / "exp.csv")])
    with pytest.raises(ParameterError, match="alpha"):
        args.fn(args)
    assert not (tmp_path / "exp.csv").exists()


def test_experiment_on_a_1d_ball(tmp_path):
    out = tmp_path / "exp.csv"
    code = run(["experiment", "--domain", '{"ball": {"center": [0], "radius": 1}}',
                "--alpha", "0.3", "--paths", "2000", "--out", str(out)])
    assert code in (0, 2)
    lines = read_lines(str(out))
    assert lines[2] == "z0_x,t,value,stderr,alpha_hat,model"
    assert {float(l.split(",")[0]) for l in lines[3:]} == {1.0}
    side = json.loads(open(str(out) + ".meta.json").read())
    assert side["config"]["data"]["z0"] == [1.0]


def test_experiment_rejects_3d_ball(tmp_path, capsys):
    code = run(["experiment", "--domain",
                '{"ball": {"center": [0, 0, 0], "radius": 1}}',
                "--alpha", "0.3", "--paths", "200",
                "--out", str(tmp_path / "exp.csv")])
    assert code == 1
    assert "domain" in capsys.readouterr().err


def test_experiment_anchors_on_the_star_boundary(tmp_path):
    from fraclab.geometry import StarShaped
    out = tmp_path / "exp.csv"
    run(["experiment", "--domain", '{"star": {"coeff_cos": [1, 0, 0.1]}}',
         "--alpha", "0.3", "--paths", "2000", "--out", str(out)])
    rows = [l.split(",") for l in read_lines(str(out))[3:]]
    assert rows
    star = StarShaped([1.0, 0.0, 0.1])
    for z0 in {(float(r[0]), float(r[1])) for r in rows}:
        assert abs(star.signed_dist(list(z0))) <= 1e-12


def test_experiment_rejects_unbounded_domain(tmp_path, capsys):
    code = run(["experiment", "--domain", '{"halfplane": {"normal": [0, 1]}}',
                "--alpha", "0.3", "--paths", "200",
                "--out", str(tmp_path / "exp.csv")])
    assert code == 1
    assert "domain" in capsys.readouterr().err


@pytest.mark.parametrize("domain, name", [
    ('{"star": {"coeff_cos": [NaN]}}', "coeff_cos"),
    ('{"star": {"coeff_cos": [1, 0], "coeff_sin": [Infinity]}}', "coeff_sin"),
    ('{"ball": {"center": [0, 0], "radius": NaN}}', "radius")])
def test_solve_refuses_a_non_finite_domain_by_its_key(tmp_path, capsys,
                                                      domain, name):
    # a NaN star held no point, so the walk reported that it "needs an
    # interior starting point"
    code = run(["solve", "--domain", domain, "--data",
                '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}',
                "--points", "0,0", "--paths", "100",
                "--out", str(tmp_path / "s.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert name in err and "interior" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("data, name", [
    ('{"name": "capped_distance", "p": [2, 0], "cap": "abc"}', "cap"),
    ('{"name": "capped_distance", "p": ["a", 0], "cap": 3}', "p"),
    ('{"name": "holder_point_singularity", "alpha": "0.3", "z0": [1, 0]}',
     "alpha")], ids=["cap", "p", "alpha"])
def test_solve_refuses_a_datum_number_that_is_not_one_by_its_key(
        tmp_path, capsys, data, name):
    # these exited with Python's own TypeError and ValueError texts, and
    # the string alpha died with a traceback inside the walk
    code = run(["solve", "--domain", "ball", "--data", data,
                "--points", "0.5,0", "--paths", "100",
                "--out", str(tmp_path / "s.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f" {name} must be " in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("domain, name", [
    ('{"ball": {"center": [0, 0], "radius": "1"}}', "radius"),
    ('{"ball": {"center": [0, 0], "radius": true}}', "radius"),
    ('{"ball": {"center": [0, true], "radius": 1}}', "center"),
    ('{"star": {"coeff_cos": [1, "0", 0.1]}}', "coeff_cos")],
    ids=["string-radius", "bool-radius", "bool-center", "string-coeff"])
def test_solve_refuses_a_domain_number_that_is_not_one_by_its_key(
        tmp_path, capsys, domain, name):
    # numpy parsed the string and cast the bool: each walked with exit 0
    code = run(["solve", "--domain", domain, "--data", '{"name": "constant"}',
                "--points", "0.5,0", "--paths", "100",
                "--out", str(tmp_path / "s.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{name} must hold finite numbers only" in err
    assert "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("field, name", [
    ({"name": "halfspace_power", "alpha": "0.25"}, "alpha"),
    ({"name": "halfspace_power", "alpha": True}, "alpha"),
    ({"name": "halfspace_power", "alpha": 0.25, "nu": [0, "1"]}, "nu"),
    ({"name": "psi_power_ball", "alpha": 0.25, "radius": "2"}, "radius"),
    ({"name": "cone_barrier", "beta": 0.05, "e": [0, True]}, "e"),
    ({"name": "cone_barrier", "beta": 0.05, "eta": "1"}, "eta")],
    ids=["string-alpha", "bool-alpha", "string-nu", "string-radius",
         "bool-e", "string-eta"])
def test_apply_op_refuses_a_field_number_that_is_not_one_by_its_key(
        tmp_path, capsys, field, name):
    # the string alpha ran as 0.25 with exit 0, and alpha true died as
    # "declared growth 1.0 is not below 2s"
    code = run(["apply-op", "--s", "0.5", "--field", json.dumps(field),
                "--points", "0,0.5", "--out", str(tmp_path / "a.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{field['name']} {name} must be " in err
    assert "Traceback" not in err and "growth" not in err
    assert not (tmp_path / "a.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "s": 0.5, "tmin": 1e-3, "tmax": 1e-2, "n": 3}))
    out = tmp_path / "ce.csv"
    code = run(["counterexample", "--config", str(cfg), "--n", "4",
                "--out", str(out)])
    assert code == 0
    assert len(read_lines(str(out))) == 7  # flag n=4 wins over file n=3


def test_config_round_trip_through_sidecar(tmp_path):
    out = tmp_path / "ce.csv"
    run(["counterexample", "--s", "0.5", "--tmin", "1e-3", "--tmax", "1e-2",
         "--n", "3", "--out", str(out)])
    side = json.loads(open(str(out) + ".meta.json").read())
    cfg2 = tmp_path / "replay.json"
    replay = {k: v for k, v in side["config"].items()
              if k not in ("command", "out")}
    cfg2.write_text(json.dumps(replay))
    out2 = tmp_path / "ce2.csv"
    assert run(["counterexample", "--config", str(cfg2),
                "--out", str(out2)]) == 0
    assert out.read_bytes().splitlines()[3:] == out2.read_bytes().splitlines()[3:]
    # identical config hash: the replay resolves to the same computation
    s1 = json.loads(open(str(out) + ".meta.json").read())["config_hash"]
    s2 = json.loads(open(str(out2) + ".meta.json").read())["config_hash"]
    assert s1 == s2


@pytest.mark.parametrize("argv, record, flag", [
    (["counterexample", "--n", "3"], {"tmin": "0.001"}, ["--tmin", "0.001"]),
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}',
      "--points", "0.1,0.0", "--seed", "1"], {"paths": "100"},
     ["--paths", "100"]),
    # an integral float for an int flag is that int
    (["counterexample", "--tmin", "1e-3"], {"n": 3.0}, ["--n", "3"]),
])
def test_config_file_strings_take_the_flag_type(tmp_path, argv, record, flag):
    # a string for an int or float flag ended in a TypeError traceback
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(record))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["--threads", "1", *argv, "--config", str(cfg),
                "--out", str(a)]) == 0
    assert run(["--threads", "1", *argv, *flag, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command, record, key", [
    (["counterexample"], {"tmin": "abc"}, "tmin"),
    (["counterexample"], {"tmin": True}, "tmin"),
    (["counterexample"], {"tmax": [0.1]}, "tmax"),
    (["counterexample"], {"n": 2.5}, "n"),
    (["counterexample"], {"n": "3.0"}, "n"),
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}',
      "--points", "0.1,0.0"], {"paths": "1e2"}, "paths"),
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}',
      "--points", "0.1,0.0"], {"seed": None}, "seed"),
    # a flag with a string form takes that string or its parsed form; a
    # number for points ended in a TypeError traceback
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}'],
     {"points": 5}, "points"),
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}'],
     {"points": [[0.1, "0"]]}, "points"),
    (["solve", "--domain", "ball", "--points", "0.1,0.0"], {"data": [1]},
     "data"),
    (["profile", "--domain", "ball", "--data", '{"name": "constant"}',
      "--n", "2", "--paths", "10"], {"z0": 5}, "z0"),
    (["profile", "--domain", "ball", "--data", '{"name": "constant"}',
      "--n", "2", "--paths", "10"], {"z0": None}, "z0"),
    (["apply-op", "--s", "0.5", "--points", "0.3,0.5"], {"field": 5},
     "field"),
])
def test_config_file_value_of_the_wrong_type_is_named(tmp_path, capsys,
                                                      command, record, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(record))
    out = tmp_path / "x.csv"
    assert run([*command, "--config", str(cfg), "--out", str(out)]) == 1
    assert f"bad {key} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["counterexample", "--tmin", "abc"], "tmin"),
    (["counterexample", "--n", "2.5"], "n"),
    (["counterexample", "--n", "3.0"], "n"),
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}',
      "--points", "0.1,0.0", "--paths", "1e2"], "paths"),
    (["--threads", "abc", "counterexample", "--n", "2"], "threads"),
])
def test_flag_value_of_the_wrong_type_is_named_as_in_the_file(
        tmp_path, capsys, argv, key):
    # a flag's string takes the path of a config-file value: it exited 2,
    # argparse's usage error and the code of a verification FAIL
    out = tmp_path / "x.csv"
    assert run([*argv, "--out", str(out)]) == 1
    assert f"bad {key} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, record, key", [
    # a number reached open() as a file descriptor: {"out": 7} ended in
    # "OSError: Bad file descriptor", and {"input": 0} read stdin
    (["counterexample", "--n", "3"], {"out": 7}, "out"),
    (["fit", "--s", "0.5"], {"input": 0}, "input"),
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}'],
     {"points-file": 3}, "points-file"),
])
def test_config_file_path_that_is_not_a_string_is_named(
        tmp_path, monkeypatch, capsys, command, record, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(record))
    assert run([*command, "--config", "run.json"]) == 1
    assert f"bad {key} {record[key]!r}: not a string" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_fit_of_a_csv_without_rows_is_named(tmp_path, capsys):
    # a header and no rows ended in an IndexError traceback
    empty = tmp_path / "empty.csv"
    empty.write_text("# fraclab config_hash=0\nt,value,stderr\n")
    out = tmp_path / "fit.json"
    assert run(["fit", "--input", str(empty), "--s", "0.5",
                "--out", str(out)]) == 1
    assert f"input {str(empty)!r} has no rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, line", [
    # a row that does not parse was taken as a header and skipped
    ("t,value\n1e-4,0.01\n2e-4,abc,0.001\n4e-4,0.02\n", 3),
    # a second header
    ("t,value\nt,value\n1e-4,0.01\n", 2),
    # a ragged row ended in numpy's "inhomogeneous shape" ValueError
    ("# comment\n1e-4,0.01,0.001\n\n2e-4,0.02\n", 4),
], ids=["bad_row", "second_header", "ragged_row"])
def test_fit_refuses_a_row_that_is_not_numeric_by_line(tmp_path, capsys,
                                                        body, line):
    path = tmp_path / "prof.csv"
    path.write_text(body)
    out = tmp_path / "fit.json"
    assert run(["fit", "--input", str(path), "--s", "0.5",
                "--out", str(out)]) == 1
    assert f"input {str(path)!r} line {line} " in capsys.readouterr().err
    assert not out.exists()


def test_fit_reads_a_csv_with_or_without_its_header(tmp_path):
    rows = "".join(f"{t:.17g},{t ** 0.5:.17g}\n"
                   for t in np.geomspace(1e-4, 1e-2, 8))
    reports = []
    for name, body in [("bare.csv", rows), ("head.csv", "t,value\n" + rows)]:
        (tmp_path / name).write_text(body)
        out = tmp_path / (name + ".json")
        assert run(["fit", "--input", str(tmp_path / name),
                    "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]
    assert reports[0]["n_used"] == 8


@pytest.mark.parametrize("command, record, key", [
    # a misspelt tmin ran at the default tmin and was recorded in the CSV
    (["counterexample", "--n", "3"], {"tmni": 0.001}, "tmni"),
    (["solve", "--domain", "ball", "--data", '{"name": "constant"}',
      "--points", "0.1,0.0"], {"paths": 10, "threads": 1}, "threads"),
    # rel-tol is read in place of an absent key by verify-barrier only
    (["apply-op", "--s", "0.5", "--field",
      '{"name": "halfspace_power", "alpha": 0.25}', "--points", "0.3,0.5"],
     {"eta": 1.0}, "eta"),
])
def test_config_file_key_the_command_does_not_take_is_named(
        tmp_path, capsys, command, record, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(record))
    out = tmp_path / "x.csv"
    assert run([*command, "--config", str(cfg), "--out", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


# each command with few points or paths; ``fit`` reads the profile
_REPLAYED = [
    ["validate-kernel", "--s", "0.5", "--samples", "50"],
    ["apply-op", "--s", "0.5", "--field",
     '{"name": "halfspace_power", "alpha": 0.25}', "--points", "0.3,0.5",
     "--rel-tol", "1e-4"],
    ["verify-barrier", "--kind", "halfspace", "--s", "0.5", "--alpha", "0.25"],
    ["solve", "--domain", "ball", "--data", '{"name": "constant"}',
     "--points", "0.1,0.0;0.5,0.2", "--paths", "100", "--seed", "1"],
    ["profile", "--domain", "ball", "--data",
     '{"name": "holder_point_singularity", "alpha": 0.3, "z0": [1, 0]}',
     "--n", "6", "--paths", "4000", "--seed", "7"],
    ["fit", "--input", "profile.csv", "--s", "0.5"],
    ["experiment", "--alpha", "0.3", "--paths", "200", "--seed", "7"],
    ["counterexample", "--tmin", "1e-3", "--tmax", "1e-2", "--n", "3"],
]


def test_every_command_replays_its_sidecar_config(tmp_path, monkeypatch):
    # every key a command records is one a config file may give it
    monkeypatch.chdir(tmp_path)
    for argv in _REPLAYED:
        name = argv[0]
        first = ["--threads", "1", *argv, "--out", f"{name}.csv"]
        code = run(first)
        side = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        (tmp_path / "replay.json").write_text(json.dumps(side["config"]))
        assert run(["--threads", "1", name, "--config", "replay.json",
                    "--out", "replay.csv"]) == code, name
        again = json.loads((tmp_path / "replay.csv.meta.json").read_text())
        assert again["config_hash"] == side["config_hash"], name
        assert again["report"] == side["report"], name
    # verify-barrier also reads rel-tol, which it does not record
    (tmp_path / "replay.json").write_text(json.dumps(
        {"kind": "halfspace", "s": 0.5, "alpha": 0.25, "rel-tol": 1e-4}))
    assert run(["--threads", "1", "verify-barrier", "--config", "replay.json",
                "--out", "rel_tol.json"]) == 0


def test_config_file_value_a_flag_replaces_is_not_checked(tmp_path):
    # the present flag wins, so the file's bad value never reaches the run
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tmin": "abc"}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["--threads", "1", "counterexample", "--n", "3", "--tmin", "0.001"]
    assert run([*argv, "--config", str(cfg), "--out", str(a)]) == 0
    assert run([*argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_config_exits_1(tmp_path):
    out = tmp_path / "x.csv"
    code = run(["solve", "--domain", "nonsense{", "--data", "{}",
                "--points", "0,0", "--out", str(out)])
    assert code == 1


def test_solve_with_a_diverging_datum_exits_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["solve", "--domain", "ball", "--s", "0.1", "--data",
                '{"name": "holder_point_singularity", "alpha": 0.3, '
                '"z0": [1, 0]}', "--points", "0,0", "--paths", "100",
                "--out", str(out)])
    assert code == 1
    assert "growth 0.3" in capsys.readouterr().err
    assert not out.exists()


def test_csv_embeds_full_config(tmp_path):
    out = tmp_path / "ce.csv"
    run(["counterexample", "--s", "0.5", "--tmin", "1e-3", "--tmax", "1e-2",
         "--n", "3", "--out", str(out)])
    lines = read_lines(str(out))
    embedded = json.loads(lines[1].split("# config=", 1)[1])
    assert embedded["s"] == 0.5 and embedded["n"] == 3
    assert embedded["command"] == "counterexample"


def test_solve_1d_has_one_coordinate_column(tmp_path):
    out = tmp_path / "s1.csv"
    code = run(["solve", "--domain", '{"ball": {"center": [0], "radius": 1}}',
                "--data", '{"name": "constant", "value": 1.0}',
                "--points", "0.1;-0.4", "--paths", "200", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    lines = read_lines(str(out))
    assert lines[2] == "x1,estimate,stderr,mean_steps,snapped_fraction"
    assert [len(l.split(",")) for l in lines[3:]] == [5, 5]


CONSTANT = '{"name": "constant", "value": 1.0}'


@pytest.mark.parametrize("argv, name", [
    (["solve", "--domain", "ball", "--data", CONSTANT], "points"),
    (["solve", "--data", CONSTANT, "--points", "0.1,0.0"], "domain"),
    (["verify-barrier", "--s", "0.5", "--alpha", "0.25"], "kind"),
    (["solve", "--domain", "ball", "--data", CONSTANT,
      "--points", "0.1,abc"], "points"),
    (["solve", "--domain", "nonsense{", "--data", CONSTANT,
      "--points", "0.1,0.0"], "domain"),
    # a datum with no singular point leaves no default for z0
    (["profile", "--domain", "ball", "--data", '{"name": "constant"}'], "z0"),
    # a key the record does not take, a stale or misspelt one
    (["solve", "--domain", '{"star": {"coeff_cos": [1, 0, 0.1], "gamma": 0.9}}',
      "--data", CONSTANT, "--points", "0.1,0.0"], "gamma"),
    (["solve", "--domain", "ball", "--data",
      '{"name": "capped_distance", "p": [2, 0], "cap": 3, "alhpa": 0.5}',
      "--points", "0.1,0.0"], "alhpa"),
])
def test_missing_or_unparsable_parameter_is_named(tmp_path, capsys, argv,
                                                  name):
    argv = [*argv, "--out", str(tmp_path / "out")]
    args = build_parser().parse_args(argv)
    with pytest.raises(ParameterError, match=name):
        args.fn(args)
    assert run(argv) == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("load, record, variant, missing", [
    (data_from_config, {"name": "capped_distance", "p": [2, 0]},
     "capped_distance", "['cap']"),
    (data_from_config, {"name": "holder_point_singularity"},
     "holder_point_singularity", "['alpha', 'z0']"),
    (domain_from_config, {"ball": {"center": [0, 0]}}, "ball", "['radius']"),
    (domain_from_config, {"star": {"coeff_sin": [0.1]}}, "star",
     "['coeff_cos']"),
])
def test_a_record_missing_a_required_key_is_refused(load, record, variant,
                                                    missing):
    # called directly, not only through the CLI: the loaders name the
    # variant and every missing key, as they do an unknown key
    with pytest.raises(ParameterError) as info:
        load(record)
    assert variant in str(info.value) and missing in str(info.value)


@pytest.mark.parametrize("field, name", [
    # the half-space normal is nu: a misspelt key fell back to (0, 1)
    ({"name": "halfspace_power", "alpha": 0.25, "normal": [1, 0]},
     "unknown halfspace_power key(s) ['normal']"),
    ({"name": "halfspace_power", "nu": [1, 0]},
     "halfspace_power record lacks required key(s) ['alpha']"),
    ({"name": "cone_barrier", "beta": 0.05, "axis": [0, 1]},
     "unknown cone_barrier key(s) ['axis']"),
    ({"name": "psi_power", "alpha": 0.25}, "unknown field 'psi_power'"),
])
def test_a_bad_field_record_is_refused_by_its_key(tmp_path, capsys, field,
                                                 name):
    with pytest.raises(ParameterError) as info:
        build_record("field", _FIELDS, field, tag="name")
    assert name in str(info.value)
    argv = ["apply-op", "--s", "0.5", "--field", json.dumps(field),
            "--points", "0,1", "--out", str(tmp_path / "out")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kernel, name", [
    ({"type": "frac_lap", "s": 0.5, "dimm": 3},
     "unknown frac_lap key(s) ['dimm']"),
    ({"type": "frac_lap"}, "frac_lap record lacks required key(s) ['s']"),
    ({"type": "frac_lap", "s": 0.5, "dim": 2.7},
     "kernel dim must be an integer, got 2.7"),
])
def test_validate_kernel_refuses_a_bad_kernel_record(tmp_path, capsys, kernel,
                                                     name):
    config = tmp_path / "k.json"
    config.write_text(json.dumps({"kernel": kernel}))
    out = tmp_path / "k_out.json"
    assert run(["validate-kernel", "--config", str(config),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_validate_kernel_records_the_kernel_it_built(tmp_path):
    out = tmp_path / "k.json"
    assert run(["validate-kernel", "--s", "0.3", "--dim", "1", "--samples",
                "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["kernel"] == {
        "type": "frac_lap", "s": 0.3, "dim": 1}


@pytest.mark.parametrize("flags, named", [
    (["--s", "0.9", "--dim", "1"], "--s 0.9 and --dim 1"),
    (["--dim", "3"], "--dim 3"),
])
def test_validate_kernel_refuses_flags_the_kernel_record_contradicts(
        tmp_path, capsys, flags, named):
    # they were recorded in the config but not used: s 0.5 in dim 2 was
    # validated
    config = tmp_path / "k.json"
    config.write_text(json.dumps({"kernel": {"type": "frac_lap", "s": 0.5}}))
    out = tmp_path / "k_out.json"
    assert run(["validate-kernel", "--config", str(config), *flags,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()
    # values the record holds are no contradiction
    assert run(["validate-kernel", "--config", str(config), "--s", "0.5",
                "--dim", "2", "--samples", "10", "--out", str(out)]) == 0


# SHA-256 of the outputs of small seeded runs with their default or relative
# output names: any change to the bytes the CLI writes fails here (the solve
# and profile digests also depend on numpy's rounding, like the seeded pins
# in test_wos.py)
GOLDEN = {
    "solve.csv": (
        ["solve", "--domain", "ball", "--data",
         '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}',
         "--points", "0.3,0.0;0.0,0.5", "--paths", "2000", "--seed", "7"],
        "9f3813ac7a04029385c8d92548bd73d5cdce17af12e35c7198f6eb357a35f109"),
    "star.csv": (
        ["solve", "--domain", '{"star": {"coeff_cos": [1, 0, 0.1]}}', "--data",
         '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}',
         "--points", "0.1,0.2;-0.3,0.1", "--paths", "2000", "--seed", "3",
         "--out", "star.csv"],
        "08d60c25c050ed7e65c505a53bc0a2393471f2ae48160c3d22c04c7fb6d140b0"),
    "profile.csv": (
        ["profile", "--domain", "square", "--data",
         '{"name": "holder_point_singularity", "alpha": 0.1, "z0": [0, 0]}',
         "--n", "4", "--paths", "2000", "--seed", "2"],
        "857f9e1512939892899045bcd51ef713e82976e2bcb2ffc392ca9f04daab0a57"),
    "apply_op.csv": (
        ["apply-op", "--s", "0.5",
         "--field", '{"name": "halfspace_power", "alpha": 0.25}',
         "--points", "0.0,1.0;0.3,2.0", "--rel-tol", "1e-5"],
        "55c57d8eee1b46640f1c7c73d702193cbe7ac0d406ed5f5ee5258c37bc835257"),
    "counterexample.csv": (
        ["counterexample", "--n", "3"],
        "31f9ef8fc6ba9ebf9c1cf62895cac38b271f25e7479bfa0fac88215c9a1bdd10"),
    "verify_halfspace.json": (
        ["verify-barrier", "--kind", "halfspace", "--s", "0.5",
         "--alpha", "0.25"],
        "9aea76acac1f86767edf934b353fc68209e945c573d156940e06b8a2e89767be"),
    "verify_psi.json": (
        ["verify-barrier", "--kind", "psi", "--s", "0.5", "--alpha", "0.25"],
        "67fd8e6822bb78687ca89d898fa6cbc6e227bfc6e3e153ad09c557bb92f773d0"),
    "verify_cone.json": (
        ["verify-barrier", "--kind", "cone", "--s", "0.5", "--beta", "0.05"],
        "992d5cf9664e447bb4e5dfe1cfe897bf52980f70c8e4eed1c6b21bda718d8c93"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    argv, digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *argv]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def _star_points_arg():
    """The benchmark's three star points, at radial gaps 0.5, 0.05 and
    1e-3, as a --points value."""
    star = StarShaped([1.0, 0.0, 0.1])
    pts = [(float(star.radial(th)) - gap) * np.array([np.cos(th), np.sin(th)])
           for th, gap in ((0.3, 0.5), (1.2, 0.05), (2.0, 1e-3))]
    return ";".join(f"{float(x)!r},{float(y)!r}" for x, y in pts)


CAPPED = '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}'
CORNER = '{"name": "holder_point_singularity", "alpha": 0.1, "z0": [0, 0]}'


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", '{"star": {"coeff_cos": [1, 0, 0.1]}}', "--data",
     CAPPED, "--points=" + _star_points_arg(), "--paths", "40001"],
    ["profile", "--domain", "square", "--data", CORNER, "--n", "8",
     "--paths", "10000"]], ids=["star-solve", "square-profile"])
def test_thread_count_leaves_the_csv_bytes(tmp_path, argv):
    # --threads only changes the wall time: two threads walk the points in
    # two contiguous runs, one walks them in one
    outs = [tmp_path / f"threads{n}.csv" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        assert run(["--threads", str(n), *argv, "--seed", "3",
                    "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_one_parser_serves_every_run_of_a_process(tmp_path):
    # the parser is built once per process; a run reads the dicts it
    # declares and never writes them, so a solve after a profile writes
    # the first solve's bytes
    assert build_parser() is build_parser()
    solve_argv = ["--threads", "1", "solve", "--domain", "ball", "--data",
                  CAPPED, "--points", "0.3,0.0;0.0,0.5", "--paths", "2000",
                  "--seed", "7", "--out"]
    assert run([*solve_argv, str(tmp_path / "first.csv")]) == 0
    assert run(["--threads", "1", "profile", "--domain", "square", "--data",
                CORNER, "--n", "4", "--paths", "2000", "--seed", "2",
                "--out", str(tmp_path / "p.csv")]) == 0
    assert run([*solve_argv, str(tmp_path / "again.csv")]) == 0
    assert ((tmp_path / "first.csv").read_bytes()
            == (tmp_path / "again.csv").read_bytes())


def test_solve_names_the_point_that_is_not_interior(tmp_path, capsys):
    # the message named no point, and the points before it had walked
    code = run(["--threads", "1", "solve", "--domain", "ball", "--data",
                CAPPED, "--points", "0.3,0.0;0.0,0.5;2.0,0.5", "--paths",
                "100", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "point 2 at [2.0, 0.5] is not interior" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def wos_rows(name):
    """(estimate, stderr) of each row of a walk-on-spheres CSV."""
    lines = [ln for ln in read_lines(name) if not ln.startswith("#")]
    cols = lines[0].split(",")
    i_est = cols.index("value" if "value" in cols else "estimate")
    i_se = cols.index("stderr")
    return [(float(row[i_est]), float(row[i_se]))
            for row in (ln.split(",") for ln in lines[1:])]


# (estimate, stderr) of each row the seeded walk-on-spheres runs of GOLDEN
# wrote when each step jumped from half the ball of radius dist_bound
HALF_BALL_STEPS = {
    "solve.csv": [(2.14409887842, 0.0151720440523),
                  (2.35288210718, 0.0131068231383)],
    "star.csv": [(2.29038143883, 0.0138167011577),
                 (2.51267379899, 0.0120964000052)],
    "profile.csv": [(0.450306471384, 0.00155922993547),
                    (0.524777230624, 0.00189210016438),
                    (0.614381646796, 0.00226742231986),
                    (0.7122598694, 0.00249967949245)],
}


@pytest.mark.parametrize("name", sorted(HALF_BALL_STEPS))
def test_wos_outputs_agree_with_half_ball_runs(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *GOLDEN[name][0]]) == 0
    rows = wos_rows(name)
    assert len(rows) == len(HALF_BALL_STEPS[name])
    for (new_est, new_se), (est, se) in zip(rows, HALF_BALL_STEPS[name]):
        assert new_est != est
        assert abs(new_est - est) <= 4.0 * (new_se ** 2 + se ** 2) ** 0.5


# (estimate, stderr) of each row the seeded ball walks of GOLDEN wrote when
# a ball walker stepped on inscribed balls until it left, instead of taking
# one exact jump from the off-centre exit law
STEP_LOOP = {
    "solve.csv": [(2.14103101781, 0.0149521308268),
                  (2.35620459895, 0.0130011453379)],
}


@pytest.mark.parametrize("name", sorted(STEP_LOOP))
def test_wos_outputs_agree_with_step_loop_runs(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *GOLDEN[name][0]]) == 0
    rows = wos_rows(name)
    assert len(rows) == len(STEP_LOOP[name])
    for (new_est, new_se), (est, se) in zip(rows, STEP_LOOP[name]):
        assert new_est != est
        assert abs(new_est - est) <= 4.0 * (new_se ** 2 + se ** 2) ** 0.5


# (estimate, stderr) of each row the seeded star walks of GOLDEN wrote when
# StarShaped.dist_bound took the best of four fixed splits of its cone bound
# at every point, instead of one split per point
FOUR_SPLIT = {
    "star.csv": [(2.31098717424, 0.0138609255645),
                 (2.51229627798, 0.0113859650712)],
}


@pytest.mark.parametrize("name", sorted(FOUR_SPLIT))
def test_wos_outputs_agree_with_four_split_runs(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *GOLDEN[name][0]]) == 0
    rows = wos_rows(name)
    assert len(rows) == len(FOUR_SPLIT[name])
    for (new_est, new_se), (est, se) in zip(rows, FOUR_SPLIT[name]):
        assert new_est != est
        assert abs(new_est - est) <= 4.0 * (new_se ** 2 + se ** 2) ** 0.5


# (estimate, stderr) of each row the seeded star walks of GOLDEN wrote when
# every walker walked plainly, before points deep in the star's core disc
# took the core control variate (both points of star.csv do)
PLAIN_WALK = {
    "star.csv": [(2.29859159041, 0.0139970116047),
                 (2.51442447612, 0.0116083643722)],
}


# (estimate, stderr) of each row the seeded star walks of GOLDEN wrote when
# the core quadrature's radial panels were geometric in rho
CORE_GEOMETRIC_IN_RHO = {
    "star.csv": [(2.27909696099, 0.00616446922997),
                 (2.51112082044, 0.0052289682792)],
}


@pytest.mark.parametrize("name", sorted(CORE_GEOMETRIC_IN_RHO))
def test_wos_outputs_agree_with_walks_on_the_core_rule_geometric_in_rho(
        tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *GOLDEN[name][0]]) == 0
    rows = wos_rows(name)
    assert len(rows) == len(CORE_GEOMETRIC_IN_RHO[name])
    for (new_est, new_se), (est, se) in zip(rows, CORE_GEOMETRIC_IN_RHO[name]):
        assert abs(new_est - est) <= 4.0 * (new_se ** 2 + se ** 2) ** 0.5


@pytest.mark.parametrize("name", sorted(PLAIN_WALK))
def test_wos_outputs_agree_with_plain_walks(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *GOLDEN[name][0]]) == 0
    rows = wos_rows(name)
    assert len(rows) == len(PLAIN_WALK[name])
    for (new_est, new_se), (est, se) in zip(rows, PLAIN_WALK[name]):
        assert new_se < se
        assert abs(new_est - est) <= 4.0 * (new_se ** 2 + se ** 2) ** 0.5
    diag = json.loads(open(name + ".meta.json").read())["report"][
        "diagnostics"]
    assert all(0.0 < p["control_err"] < 1e-5 for p in diag["points"])


# (value, err_estimate) of each point, and the n_evals of each operator value
# in the sidecar, that the quadrature runs of GOLDEN wrote when their
# Gauss-Jacobi rules came from scipy.special.roots_jacobi and their mid
# panels were bisected into each kink; the rule of the parent of the graded
# kink panels gave the same values within 5e-14 relative
ROOTS_JACOBI = {
    "apply_op.csv": (
        [(1.57079585046, 4.12506888e-06),
         (0.934000716361, 3.10636391e-06)],
        [11028, 11208]),
    "verify_cone.json": (
        [(0.7681638888381, 4.51020707e-06),
         (0.8786749965054, 4.70087245e-06),
         (1.094344919701, 5.65124519e-06),
         (1.444075107529, 7.51786554e-06),
         (1.814488199484, 4.86716076e-06),
         (2.077470274444, 5.4030568e-06),
         (2.242543727789, 5.53105729e-06),
         (2.348289986856, 5.8631447e-06),
         (0.7681638888381, 4.51020707e-06),
         (0.8786749965057, 4.70087246e-06),
         (1.094344919701, 5.65124522e-06),
         (1.444075107529, 7.51786557e-06),
         (1.814488199484, 4.86716074e-06),
         (2.077470274444, 5.40305681e-06),
         (2.242543727789, 5.53105729e-06),
         (2.348289986852, 5.86314425e-06)],
        [17976, 18066, 18006, 36423, 30300, 38040, 35850, 34890,
         17976, 18066, 18006, 36423, 30300, 38040, 35850, 34890, 17826]),
    "verify_halfspace.json": (
        [(4.442881733024, 1.1953064e-05),
         (3.526317589911, 8.86698132e-06),
         (2.798840057435, 7.50072828e-06),
         (2.221440793704, 6.11653227e-06),
         (1.763158743268, 4.94678278e-06),
         (1.399419942137, 4.19520891e-06),
         (1.110720343163, 3.17735077e-06),
         (0.8815792232967, 3.33270001e-06),
         (0.6997098549402, 2.73613655e-06),
         (0.555360008596, 2.59001227e-06)],
        [13788, 10968, 10968, 16038, 10968, 11208, 11208, 9768, 10488,
         10818, 16578]),
    "verify_psi.json": (
        [(286.3094578703, 0.00164137554),
         (239.8345715163, 0.000841009625),
         (201.0744698384, 0.00047844403),
         (168.7462580953, 0.00058728257),
         (141.7802501662, 0.000578326808),
         (119.2845404072, 0.00050244317),
         (100.515456331, 0.00082966239),
         (84.85293039927, 0.000478275999),
         (71.77995782296, 0.000315718111),
         (60.86546675633, 0.000463715091),
         (51.7500532496, 0.000457427366),
         (44.13407589397, 0.000384511663),
         (37.76774220533, 0.000278998866),
         (32.44283730122, 0.000188079437),
         (27.98584122271, 0.000125132848),
         (24.25219207792, 7.7591341e-05),
         (21.12150977954, 5.35526677e-05),
         (18.49362843509, 4.09228112e-05),
         (16.28529954103, 3.17419779e-05),
         (14.42746423447, 3.01450898e-05)],
        [46644, 46674, 46734, 46674, 46854, 46044, 30801, 15198, 15318,
         16158, 16218, 15918, 16338, 16158, 15618, 15858, 15918, 15498,
         15498, 15378]),
}


def quadrature_rows(name):
    """(value, err_estimate) of each point of an apply-op CSV or a
    verify-barrier report."""
    if name.endswith(".csv"):
        lines = [ln for ln in read_lines(name) if not ln.startswith("#")]
        cols = lines[0].split(",")
        i_val, i_err = cols.index("value"), cols.index("err_estimate")
        return [(float(row[i_val]), float(row[i_err]))
                for row in (ln.split(",") for ln in lines[1:])]
    report = json.loads(open(name).read())["report"]
    return list(zip(report["values"], report["errors"]))


@pytest.mark.parametrize("name", sorted(ROOTS_JACOBI))
def test_quadrature_outputs_agree_with_roots_jacobi_runs(tmp_path,
                                                         monkeypatch, name):
    # the graded kink panels move each value by at most 0.11 of the two
    # error estimates together, and take about half the nodes
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *GOLDEN[name][0]]) == 0
    old_rows, old_evals = ROOTS_JACOBI[name]
    rows = quadrature_rows(name)
    assert len(rows) == len(old_rows)
    for (value, err), (old_value, old_err) in zip(rows, old_rows):
        assert abs(value - old_value) <= err + old_err
    diag = json.loads(open(name + ".meta.json").read())["report"][
        "diagnostics"]
    n_evals = [p["n_evals"] for p in diag["points"]]
    assert len(n_evals) == len(old_evals)
    assert sum(n_evals) <= 0.6 * sum(old_evals)


# (estimate, stderr) of each row the seeded walk-on-spheres runs of GOLDEN
# wrote with the spline-fitted exit law and its stream layout
SPLINE_LAW = {
    "solve.csv": [(2.11925411122, 0.014727517703),
                  (2.33032752662, 0.0130666551097)],
    "star.csv": [(2.26600080261, 0.0139399160933),
                 (2.51048113008, 0.0121977600703)],
    "profile.csv": [(0.449713611912, 0.00163055661745),
                    (0.528225141222, 0.0018715851319),
                    (0.610897662811, 0.0021514265142),
                    (0.718981741188, 0.00265692394819)],
}


@pytest.mark.parametrize("name", sorted(SPLINE_LAW))
def test_wos_outputs_agree_with_spline_law_runs(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *GOLDEN[name][0]]) == 0
    rows = wos_rows(name)
    assert len(rows) == len(SPLINE_LAW[name])
    for (new_est, new_se), (est, se) in zip(rows, SPLINE_LAW[name]):
        assert abs(new_est - est) <= 4.0 * (new_se ** 2 + se ** 2) ** 0.5
