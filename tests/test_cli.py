import hashlib
import json
import os

import pytest

from fraclab.barriers import capped_distance_data, data_from_config
from fraclab.cli import build_parser, run
from fraclab.errors import ParameterError, ToleranceWarning
from fraclab.geometry import Ball, domain_from_config
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
         "steps_max": w.steps_max, "bias_bound": w.bias_bound}
        for w in walks]
    assert diag["totals"] == {
        "paths_used": 4000, "n_maxed": 0,
        "steps_max": max(w.steps_max for w in walks),
        "bias_bound": max(w.bias_bound for w in walks)}


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


# SHA-256 of the outputs of small seeded runs with their default or relative
# output names: any change to the bytes the CLI writes fails here (the solve
# and profile digests also depend on numpy's rounding, like the seeded pins
# in test_wos.py)
GOLDEN = {
    "solve.csv": (
        ["solve", "--domain", "ball", "--data",
         '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}',
         "--points", "0.3,0.0;0.0,0.5", "--paths", "2000", "--seed", "7"],
        "0985453fc9003e1c6235b242d955bf293c24149feb45b9ea8784a3344792a1ce"),
    "star.csv": (
        ["solve", "--domain", '{"star": {"coeff_cos": [1, 0, 0.1]}}', "--data",
         '{"name": "capped_distance", "p": [2.0, 0.0], "cap": 3.0}',
         "--points", "0.1,0.2;-0.3,0.1", "--paths", "2000", "--seed", "3",
         "--out", "star.csv"],
        "8cab2e677be2478d1b7467f6878286a8ef6762538a55b8eafe27972935a30b78"),
    "profile.csv": (
        ["profile", "--domain", "square", "--data",
         '{"name": "holder_point_singularity", "alpha": 0.1, "z0": [0, 0]}',
         "--n", "4", "--paths", "2000", "--seed", "2"],
        "857f9e1512939892899045bcd51ef713e82976e2bcb2ffc392ca9f04daab0a57"),
    "apply_op.csv": (
        ["apply-op", "--s", "0.5",
         "--field", '{"name": "halfspace_power", "alpha": 0.25}',
         "--points", "0.0,1.0;0.3,2.0", "--rel-tol", "1e-5"],
        "b3ca569ae83c5a94bb25ce888cee7c01e50114e2f295be5e6bfb1b9e87dc7959"),
    "counterexample.csv": (
        ["counterexample", "--n", "3"],
        "31f9ef8fc6ba9ebf9c1cf62895cac38b271f25e7479bfa0fac88215c9a1bdd10"),
    "verify_halfspace.json": (
        ["verify-barrier", "--kind", "halfspace", "--s", "0.5",
         "--alpha", "0.25"],
        "42693f262f88e021e1dad5b5d3c4dc62839409000e5658c0f94b079324938c54"),
    "verify_psi.json": (
        ["verify-barrier", "--kind", "psi", "--s", "0.5", "--alpha", "0.25"],
        "f4027b948e6d0f227edbb8816d4c122933fefca81dffa427357c80e4a5ba7adc"),
    "verify_cone.json": (
        ["verify-barrier", "--kind", "cone", "--s", "0.5", "--beta", "0.05"],
        "d3c9713e6fbee64d1b0f391bd2647c5ab2d1acffd1018f675637e68f5a830da3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    argv, digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert run(["--threads", "1", *argv]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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
