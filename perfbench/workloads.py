"""The three benchmark workloads.

Each workload derives its inputs from the seed, builds the domains, data and
kernels it needs, makes one warm-up call that fills the package's lazy
caches, and then runs passes.  A pass issues its commands one after the
other (a closed loop with one client) and checks every result it gets.

Seeds only pick among inputs that are equivalent by an exact symmetry of
the problem (a rotation or reflection of the ball problem, a shift along a
half-plane boundary, a symmetry of the star), together with the Monte Carlo
stream seed.  So the hard-coded references in ``refs.json`` hold for every
seed, and the cost of a pass does not depend on it.
"""

import io
import json
import math
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

S = 0.5
EPS_TARGET = 1e-3            # target standard error behind time_to_tol_s
# Monte Carlo estimates are checked at MC_K (stderr + ref err).  A run checks
# five ball estimates and comparing two commits takes dozens of runs on fresh
# seeds, so 3 sigma would fail about one run in seventy by chance; 5 sigma
# still rejects an estimate shifted by 10 stderr (selftest.py).
MC_K = 5.0

# wos_solve sizes: about 4 s per pass on one 2.x GHz Xeon core
BALL_DEPTHS = (1.0, 0.5, 0.1, 1e-2, 1e-3)   # distance to the unit circle
PSI = tuple(k * math.pi / 4.0 for k in range(5))  # angle from the datum's pole
# (depth, psi index) of the ball starts, centre to depth 1e-3.  The angles
# are fixed because the path variance, hence time_to_tol_s, depends on them.
WOS_BALL = ((1.0, 0), (0.5, 1), (0.1, 2), (1e-2, 3), (1e-3, 0))
BALL_PATHS = 20000
SQUARE_N, SQUARE_PATHS = 8, 10000
STAR_COEFF = (1.0, 0.0, 0.1)                 # r(theta) = 1 + 0.1 cos(2 theta)
STAR_POINTS = ((0.3, 0.5), (1.2, 0.05), (2.0, 1e-3))  # (theta, radial gap)
STAR_PATHS = 10000
CAP_P, CAP = 2.0, 3.0                        # capped_distance(p, cap)

# poisson_extension sizes
CE_N, CE_TMIN, CE_TMAX = 25, 1e-4, 1e-2
PE_BALL = ((0.5, 2), (0.1, 1), (1e-2, 3), (1e-3, 4))   # (depth, psi index)
HESS_DEPTHS = tuple(np.geomspace(1e-3, 1e-1, 10).tolist())
EXT_ALPHA = 0.3
EXT_D = 1e-2


def use_checkout_src():
    """Import fraclab from the checkout's ``src``, never from elsewhere."""
    init = SRC / "fraclab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from the root of a fraclab checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fraclab
    if Path(fraclab.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported fraclab from {fraclab.__file__}, "
                         f"not from {init}")


def load_refs():
    with open(HERE / "refs.json") as f:
        return json.load(f)


def ball_ref(refs, depth, k):
    for e in refs["ball"]:
        if math.isclose(e["depth"], depth) and e["psi_index"] == k:
            return e
    raise KeyError(f"no ball reference at depth {depth}, psi index {k}")


def unit(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def read_csv(path):
    """Header and float rows of a fraclab CSV (comment lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def column(header, rows, name):
    i = header.index(name)
    return [r[i] for r in rows]


class PassLog:
    """What one pass did: per-command times, checked operations, the CSV
    bytes to compare across passes and the stderrs behind time_to_tol_s."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.cmd_s = {}
        self.cmd_stderr = {}
        self.ops = []          # (name, ok, detail)
        self.csv = {}

    @contextmanager
    def command(self, label):
        if self.tracer is not None:
            self.tracer.op = label
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.cmd_s[label] = self.cmd_s.get(label, 0.0) + time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.op = None

    def check(self, name, result):
        ok, detail = result
        self.ops.append((name, bool(ok), detail))

    def fail(self, name, detail):
        self.ops.append((name, False, detail))

    def keep_csv(self, path):
        data = Path(path).read_bytes()
        self.csv[Path(path).name] = data
        if self.tracer is not None:
            self.tracer.counters["cli.csv_bytes"] += len(data)


def cli_call(argv):
    """Run one fraclab CLI command in this process with one worker thread."""
    from fraclab import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["--threads", "1", *argv])
    if code != 0:
        raise RuntimeError(f"fraclab {argv[0]} exited {code}: {err.getvalue().strip()}")


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.refs = load_refs()

    def build(self):
        """Construct the domains, data and kernels of the workload."""

    def warm_up(self):
        """One call that fills the lazy caches a pass relies on."""

    def run_pass(self, log, out_dir):
        raise NotImplementedError


# ---------------------------------------------------------------------------

class WosSolve(Workload):
    """Stable walk-on-spheres through the CLI: ball, square corner, star."""

    name = "wos_solve"

    def __init__(self, seed):
        super().__init__(seed)
        beta = float(self.rng.uniform(0.0, 2.0 * math.pi))
        sign = 1.0 if self.rng.random() < 0.5 else -1.0
        self.ball_pts = []    # (x, ref entry)
        for depth, k in WOS_BALL:
            x = (1.0 - depth) * unit(beta + sign * PSI[k])
            self.ball_pts.append((x, ball_ref(self.refs, depth, k)))
        self.ball_data = json.dumps({"name": "capped_distance",
                                     "p": (CAP_P * unit(beta)).tolist(),
                                     "cap": CAP})
        # the star r = 1 + 0.1 cos(2 theta) is symmetric under theta -> -theta
        # and theta -> theta + pi; the datum's pole turns with the points
        flip = 1.0 if self.rng.random() < 0.5 else -1.0
        turn = math.pi * int(self.rng.integers(2))
        self.star_pts = []
        for theta, gap in STAR_POINTS:
            th = flip * theta + turn
            r = sum(c * math.cos(k * th) for k, c in enumerate(STAR_COEFF))
            self.star_pts.append((r - gap) * unit(th))
        self.star_data = json.dumps({"name": "capped_distance",
                                     "p": (CAP_P * unit(turn)).tolist(),
                                     "cap": CAP})

    @staticmethod
    def _points_arg(pts):
        return ";".join(f"{float(p[0])!r},{float(p[1])!r}" for p in pts)

    def warm_up(self):
        from fraclab import barriers, geometry, kernels, wos
        wos.solve(geometry.Ball([0.0, 0.0], 1.0),
                  barriers.capped_distance_data([CAP_P, 0.0], CAP), [0.0, 0.0],
                  kernels.make_fractional_laplacian(S, 2),
                  wos.WoSConfig(paths=2, seed=0))

    def run_pass(self, log, out):
        seed = str(self.seed)
        try:
            with log.command("ball_solve"):
                cli_call(["solve", "--domain", "ball", "--data", self.ball_data,
                          "--points=" + self._points_arg([p for p, _ in self.ball_pts]),
                          "--paths", str(BALL_PATHS), "--seed", seed,
                          "--out", str(out / "ball.csv")])
            log.keep_csv(out / "ball.csv")
            header, rows = read_csv(out / "ball.csv")
            est = column(header, rows, "estimate")
            se = column(header, rows, "stderr")
            log.cmd_stderr["ball_solve"] = se
            for (x, ref), e, s in zip(self.ball_pts, est, se):
                log.check(f"ball_depth_{ref['depth']:g}", checks.within_ref(
                    e, s, ref["value"], ref["err"], k=MC_K))
        except Exception as e:  # a failed command is a failed operation
            log.fail("ball_solve", repr(e))

        try:
            data = json.dumps({"name": "holder_point_singularity", "alpha": 0.1,
                               "z0": [0.0, 0.0]})
            with log.command("square_profile"):
                cli_call(["profile", "--domain", "square", "--data", data,
                          "--s", str(S), "--tmin", str(1e-4), "--tmax", str(1e-2),
                          "--n", str(SQUARE_N), "--paths", str(SQUARE_PATHS),
                          "--seed", seed, "--out", str(out / "square.csv")])
            log.keep_csv(out / "square.csv")
            header, rows = read_csv(out / "square.csv")
            log.cmd_stderr["square_profile"] = column(header, rows, "stderr")
            with log.command("square_fit"):
                cli_call(["fit", "--input", str(out / "square.csv"),
                          "--s", str(S), "--out", str(out / "square_fit.json")])
            with open(out / "square_fit.json") as f:
                alpha_hat = json.load(f)["report"]["alpha_hat"]
            log.check("square_alpha_hat", checks.in_bracket(alpha_hat, 0.05, 0.15))
        except Exception as e:
            log.fail("square_profile_fit", repr(e))

        try:
            domain = json.dumps({"star": {"coeff_cos": list(STAR_COEFF)}})
            with log.command("star_solve"):
                cli_call(["solve", "--domain", domain, "--data", self.star_data,
                          "--points=" + self._points_arg(self.star_pts),
                          "--paths", str(STAR_PATHS), "--seed", seed,
                          "--out", str(out / "star.csv")])
            log.keep_csv(out / "star.csv")
            header, rows = read_csv(out / "star.csv")
            se = column(header, rows, "stderr")
            log.cmd_stderr["star_solve"] = se
            # the datum min(|y - p|, cap) ranges over [0, cap] outside the star
            for i, (e, s) in enumerate(zip(column(header, rows, "estimate"), se)):
                log.check(f"star_point_{i}", checks.max_principle(e, s, 0.0, CAP))
        except Exception as e:
            log.fail("star_solve", repr(e))


# ---------------------------------------------------------------------------

class OperatorBarriers(Workload):
    """Operator quadrature on the barrier fields: criteria 1-4 and the
    operator half of criterion 11, through the library."""

    name = "operator_barriers"

    def __init__(self, seed):
        super().__init__(seed)
        # (x . nu)_+^alpha depends on x2 only: any tangential shift is exact
        self.shift = float(self.rng.uniform(-1.0, 1.0))
        # quarter turns of the ball map the angular panel layout to itself
        self.psi_direction = 0.5 * math.pi * int(self.rng.integers(4))
        self.translation = self.rng.uniform(-0.5, 0.5, size=2)

    def build(self):
        from fraclab import geometry, kernels, nonlocal_op
        self.K = kernels.make_fractional_laplacian(S, 2)
        self.ball = geometry.Ball([0.0, 0.0], 1.0)
        self.q = nonlocal_op.QuadratureSpec(target_rel_tol=1e-5)

    def warm_up(self):
        from fraclab import fields, nonlocal_op
        nonlocal_op.apply_L(self.K, fields.HalfSpacePower([0.0, 1.0], 0.25),
                            np.array([0.0, 1.0]), q=self.q)

    def run_pass(self, log, out):
        steps = [
            ("c1_s_harmonic", self._c1),
            ("c2_halfspace", self._c2),
            ("c3_psi", self._c3),
            ("c4_cone", self._c4),
            ("c4_bracket", self._c4_bracket),
            ("c11_homogeneity", self._c11_homogeneity),
            ("c11_translation", self._c11_translation),
        ]
        for label, fn in steps:
            try:
                with log.command(label):
                    results = fn()
                for name, res in results:
                    log.check(name, res)
            except Exception as e:
                log.fail(label, repr(e))

    def _c1(self):
        from fraclab import fields, nonlocal_op
        out = []
        for s in (0.3, 0.5, 0.7):
            for t in (0.25, 0.5, 1.0, 2.0):
                ov = nonlocal_op.apply_L_1d(s, fields.PowerPlus1D(alpha=s), t)
                out.append((f"c1_s{s}_t{t}", checks.abs_at_most(ov.value, 5e-6)))
        return out

    def _c2(self):
        from fraclab import barriers
        heights = np.geomspace(0.3, 3.0, 10)
        pts = [np.array([0.2 * h + self.shift, h]) for h in heights]
        out = []
        for alpha in (0.1, 0.25, 0.4):
            rep = barriers.verify_halfspace_supersolution(self.K, alpha, pts,
                                                          q=self.q)
            out.append((f"c2_alpha{alpha}", checks.all_of(
                checks.equals(rep.passed, True),
                checks.greater(rep.min_margin, 10.0),
                checks.abs_at_most(rep.extra["homogeneity_rel_dev"], 1e-3))))
        return out

    def _c3(self):
        from fraclab import barriers
        rep = barriers.verify_psi_barrier(self.K, self.ball, 0.25,
                                          band=(1e-3, 1e-1), n_points=20,
                                          direction=self.psi_direction, q=self.q)
        return [("c3_psi", checks.all_of(
            checks.equals(rep.passed, True),
            checks.greater(rep.extra["c0_hat"], 0.0),
            checks.abs_at_most(rep.extra["loglog_slope"], 0.1)))]

    def _c4(self):
        from fraclab import barriers
        pts = barriers.cone_boundary_points((0.0, 1.0), 1.0, 16)
        rep = barriers.verify_cone_barrier(self.K, (0.0, 1.0), 1.0, 0.05,
                                           points=pts, q=self.q)
        return [("c4_cone", checks.all_of(
            checks.equals(rep.passed, True),
            checks.greater(rep.min_margin, 5.0),
            checks.abs_at_most(rep.extra["scaling_rel_dev"], 1e-3)))]

    def _c4_bracket(self):
        from fraclab import barriers, nonlocal_op
        bracket = barriers.bracket_cone_beta0(
            self.K, (0.0, 1.0), 1.0,
            points=barriers.cone_boundary_points((0.0, 1.0), 1.0, 6), iters=5,
            q=nonlocal_op.QuadratureSpec(target_rel_tol=1e-4,
                                         max_angular_panels=16))
        return [("c4_bracket", checks.all_of(
            checks.greater(bracket["beta_hi"], 0.0),
            checks.in_bracket(bracket["beta_hi"], 0.0, 1.0)))]

    def _c11_homogeneity(self):
        from fraclab import fields, nonlocal_op
        rep = nonlocal_op.homogeneity_check(
            self.K, fields.ConeBarrier([0.0, 1.0], 1.0, 0.05),
            np.array([0.0, 1.5]), scales=(2.0,), q=self.q)
        return [("c11_homogeneity",
                 checks.abs_at_most(rep.max_rel_deviation, 1e-3))]

    def _c11_translation(self):
        from fraclab import fields, nonlocal_op
        u = fields.HalfSpacePower([0.0, 1.0], 0.25)
        x = np.array([0.3, 0.8])
        h = self.translation
        ov0 = nonlocal_op.apply_L(self.K, u, x, q=self.q)
        ov1 = nonlocal_op.apply_L(self.K, fields.TranslatedField(u, h), x + h,
                                  q=self.q)
        return [("c11_translation", checks.within_ref(
            ov1.value, ov1.err_estimate, ov0.value, ov0.err_estimate))]


# ---------------------------------------------------------------------------

class PoissonExtension(Workload):
    """Deterministic quadratures: half-plane Poisson (the log counterexample),
    ball Poisson, the disk harmonic extension and the operator on it."""

    name = "poisson_extension"

    def __init__(self, seed):
        super().__init__(seed)
        # quarter turns keep the operator's angular panel layout; reflection
        # across the datum's axis is exact as well
        self.beta = 0.5 * math.pi * int(self.rng.integers(4))
        self.sign = 1.0 if self.rng.random() < 0.5 else -1.0

    def build(self):
        from fraclab import barriers, extension, geometry, kernels, nonlocal_op
        self.K = kernels.make_fractional_laplacian(S, 2)
        self.ball = geometry.Ball([0.0, 0.0], 1.0)
        self.cap_data = barriers.capped_distance_data(
            (CAP_P * unit(self.beta)).tolist(), CAP)
        z0 = unit(self.beta)
        self.ext_data = barriers.holder_point_singularity(EXT_ALPHA, z0.tolist())
        self.disk = extension.DiskExtension(self.ball, self.ext_data)
        self.ext_field = extension.extended_field(self.ball, self.ext_data)
        # criterion 10's operator quadrature
        self.q_ext = nonlocal_op.QuadratureSpec(
            target_rel_tol=2e-3, angular_nodes=34, max_angular_panels=24,
            max_radial_panels=160, n_jacobi=16)

    def warm_up(self):
        from fraclab import barriers, wos
        wos.halfplane_poisson(barriers.counterexample_min_rs_1(S), [0.0, 1e-2], S)

    def run_pass(self, log, out):
        from fraclab import extension, nonlocal_op, wos
        refs = self.refs

        try:
            with log.command("counterexample"):
                cli_call(["counterexample", "--s", str(S), "--tmin", str(CE_TMIN),
                          "--tmax", str(CE_TMAX), "--n", str(CE_N),
                          "--out", str(out / "counterexample.csv")])
            log.keep_csv(out / "counterexample.csv")
            header, rows = read_csv(out / "counterexample.csv")
            us = column(header, rows, "u")
            for i, (u, ref) in enumerate(zip(us, refs["counterexample"])):
                # the CSV keeps 12 significant digits
                log.check(f"ce_u_{i}", checks.within_ref(
                    u, 1e-11 * abs(u), ref["value"], ref["err"]))
            log.check("ce_ratio", checks.ratio_flat(
                column(header, rows, "ratio"), 0.2))
            ts = column(header, rows, "t")
            with open(out / "ce_profile.csv", "w") as f:
                f.write("t,value\n")
                f.writelines(f"{t!r},{u!r}\n" for t, u in zip(ts, us))
            with log.command("counterexample_fit"):
                cli_call(["fit", "--input", str(out / "ce_profile.csv"),
                          "--s", str(S), "--out", str(out / "ce_fit.json")])
            with open(out / "ce_fit.json") as f:
                fit = json.load(f)["report"]
            log.check("ce_fit", checks.all_of(
                checks.equals(fit["model"], "log_corrected"),
                checks.in_bracket(fit["alpha_hat"], 0.0, 0.45)))
        except Exception as e:
            log.fail("counterexample", repr(e))

        try:
            with log.command("ball_poisson"):
                vals = []
                for depth, k in PE_BALL:
                    x = (1.0 - depth) * unit(self.beta + self.sign * PSI[k])
                    vals.append(wos.ball_poisson(self.ball, self.cap_data, x, S))
            for (depth, k), (v, e) in zip(PE_BALL, vals):
                ref = ball_ref(refs, depth, k)
                log.check(f"ball_poisson_depth_{depth:g}",
                          checks.within_ref(v, e, ref["value"], ref["err"]))
        except Exception as e:
            log.fail("ball_poisson", repr(e))

        try:
            towards = unit(self.beta)
            with log.command("extension_hessian"):
                norms = [float(np.linalg.norm(extension.hessian_fd(
                    self.disk, (1.0 - d) * towards, d / 8.0), 2))
                    for d in HESS_DEPTHS]
            for i, (hn, ref) in enumerate(zip(norms, refs["hessian"])):
                log.check(f"hessian_{i}", checks.within_ref(
                    hn, 0.0, ref["value"], ref["err"]))
            ds = np.asarray(HESS_DEPTHS)
            scaled = np.asarray(norms) * ds ** (2.0 - EXT_ALPHA)
            slope = float(np.polyfit(np.log(ds), np.log(scaled), 1)[0])
            log.check("hessian_slope", checks.abs_at_most(slope, 0.15))
        except Exception as e:
            log.fail("extension_hessian", repr(e))

        try:
            x = (1.0 - EXT_D) * unit(self.beta)
            with log.command("extension_apply_L"):
                ov = nonlocal_op.apply_L(self.K, self.ext_field, x, q=self.q_ext)
            ref = refs["extension_apply_L"]
            log.check("extension_apply_L", checks.within_ref(
                ov.value, ov.err_estimate, ref["value"], ref["err"]))
        except Exception as e:
            log.fail("extension_apply_L", repr(e))


WORKLOADS = {w.name: w for w in (WosSolve, OperatorBarriers, PoissonExtension)}


def setup(name, seed):
    """Import fraclab, build the workload and warm its caches."""
    use_checkout_src()
    wl = WORKLOADS[name](seed)
    wl.build()
    wl.warm_up()
    return wl
