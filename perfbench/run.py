"""fraclab benchmark.

    python3 perfbench/run.py --workload wos_solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One process drives the workload as a closed loop (each command is issued
after the previous one returns) with one worker thread everywhere.

``--trace 0`` measures the end-to-end metrics: the median wall time of a
pass over the workload, repeated until ``--seconds`` have passed (at least
three passes); the median set-up time of several fresh processes; the peak
resident memory; and the time to a stated accuracy.  ``--trace 1`` runs
untraced and traced passes in turn and reports the per-layer metrics from
the spans of the traced ones, with the tracing overhead.

The speed of a shared host drifts by tens of percent over minutes, which
would swamp the differences the benchmark exists to show.  So the times of
``--trace 0`` are reported in reference seconds: they are multiplied by
``CALIB_REF_S / c``, where ``c`` is the median time of a fixed calibration
kernel (numpy and Python work that does not use fraclab) sampled around the
set-up probes and between all passes of the run.  On a host where the kernel
takes ``CALIB_REF_S`` they are plain seconds; the raw times and the
calibration samples are in the record.

Every result is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's record (machine, versions, source hash, seed and
the sample count behind every median), which is also written with the
spans under ``.perfbench_out/``.
"""

import os

# one thread everywhere: the numbers measure the program, not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "FRACLAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import selftest  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 5
CALIB_SAMPLES = 5            # calibration samples between passes
CALIB_REF_S = 0.04           # kernel time that defines one reference second
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((W.SRC / "fraclab").rglob("*.py")):
        h.update(str(path.relative_to(W.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance():
    import numpy
    import scipy
    import fraclab
    return {
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "cpu_model": _cpu_model(),
                    "platform": platform.platform()},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "fraclab": fraclab.__version__},
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "threads": 1,
    }


# ---------------------------------------------------------------------------
# measurement

_CALIB_Z = np.linspace(0.1, 1.0, 24)


def _calibration_kernel():
    """Fixed work that does not use fraclab: walker-like updates of 32768
    points, then a quadrature-like loop of small-array operations."""
    rng = np.random.Generator(np.random.Philox(key=[1, 2]))
    pos = np.zeros((32768, 2))
    for _ in range(6):
        r = 1.0 / np.sqrt(rng.random(32768))
        phi = 2.0 * np.pi * rng.random(32768)
        new = pos + 0.01 * r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        inside = np.linalg.norm(new, axis=-1) < 1.0
        pos[inside] = new[inside]
    acc = 0.0
    for i in range(600):
        acc += float(np.exp(-_CALIB_Z * (1.0 + 1e-3 * i)) @ _CALIB_Z)
    return acc


def calibrate():
    out = []
    for _ in range(CALIB_SAMPLES):
        t0 = time.perf_counter()
        _calibration_kernel()
        out.append(time.perf_counter() - t0)
    return out


def probe_setup(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(W.HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=150, cwd=W.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Runner:
    def __init__(self, wl, run_dir):
        self.wl = wl
        self.run_dir = run_dir
        self.logs = []
        self.ops = []                 # (pass, name, ok, detail)
        self.first_csv = None
        self.tol_warnings = 0
        self.other_warnings = 0

    def run_pass(self, tracer=None):
        from fraclab.errors import ToleranceWarning
        index = len(self.logs)
        out = self.run_dir / f"pass{index}"
        out.mkdir()
        log = W.PassLog(tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.enter("bench.pass")
            try:
                self.wl.run_pass(log, out)
            finally:
                if tracer is not None:
                    tracer.exit()
            wall = time.perf_counter() - t0
        shutil.rmtree(out)
        n_tol = sum(issubclass(w.category, ToleranceWarning) for w in caught)
        self.tol_warnings += n_tol
        self.other_warnings += len(caught) - n_tol
        if tracer is not None:
            tracer.counters["nonlocal_op.tol_warnings"] += n_tol

        # repeated passes with one seed must write byte-identical CSVs
        if self.first_csv is None:
            self.first_csv = log.csv
        else:
            for name, data in log.csv.items():
                if name in self.first_csv:
                    log.check(f"csv_identical_{name}",
                              W.checks.bytes_identical(self.first_csv[name], data))
        self.logs.append(log)
        self.ops.extend((index, *op) for op in log.ops)
        return wall

    def command_times(self):
        cmds = {}
        for log in self.logs:
            for cmd, s in log.cmd_s.items():
                cmds.setdefault(cmd, []).append(s)
        return cmds

    def time_to_tol(self, wall_s):
        """sum over commands of T_cmd * mean_i(stderr_i^2) / eps^2, with
        T_cmd the command's share of all passes times the pass time
        ``wall_s``; workloads whose results carry no stderr meet their
        tolerance in one pass."""
        stderrs = self.logs[0].cmd_stderr
        if not stderrs:
            return wall_s
        cmds = self.command_times()
        all_s = sum(sum(ts) for ts in cmds.values())
        total = 0.0
        for cmd, se in stderrs.items():
            mean_var = sum(v * v for v in se) / len(se)
            t_cmd = wall_s * sum(cmds[cmd]) / all_s
            total += t_cmd * mean_var / W.EPS_TARGET ** 2
        return total


def measure(runner, seconds, calib):
    """Pass walls; calibration samples follow every pass into ``calib``."""
    walls = []
    t_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        walls.append(runner.run_pass())
        calib.extend(calibrate())
    return walls


def measure_traced(runner, seconds):
    tracer = spans.Tracer()
    untraced, traced = [], []
    t_start = time.perf_counter()
    while (not untraced or not traced
           or time.perf_counter() - t_start < seconds):
        if len(untraced) <= len(traced):
            untraced.append(runner.run_pass())
            continue
        tracer.spans.clear()         # keep the spans of the last traced pass
        tracer.install()
        try:
            runner.wl.build()        # kernels pick up the traced density
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
            runner.wl.build()
    return tracer, untraced, traced


def main(argv=None):
    args = parse_args(argv)
    W.use_checkout_src()
    problems = selftest.run()
    if problems:
        print("perfbench: check self-test failed:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 3

    run_dir = W.ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if not args.trace:
        calib = calibrate()
        setup_samples = probe_setup(args.workload, args.seed)
        calib.extend(calibrate())
    runner = Runner(W.setup(args.workload, args.seed), run_dir)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **provenance()}
    if args.trace:
        tracer, untraced, traced = measure_traced(runner, args.seconds)
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - metrics["trace.untraced_wall_s"])
        # time inside the traced passes that no span accounts for
        metrics["trace.unaccounted_s"] = (
            sum(traced) - sum(tracer.module_self.values())) / len(traced)
        tracer.write_spans(run_dir / "spans.jsonl.gz")
        record["samples"] = {"traced_passes": len(traced),
                             "untraced_passes": len(untraced),
                             "spans": int(tracer.counters["trace.spans"])}
        record["traced_walls"] = traced
        record["untraced_walls"] = untraced
        record["unmeasured"] = spans.UNMEASURED
    else:
        walls = measure(runner, args.seconds, calib)
        scale = CALIB_REF_S / statistics.median(calib)
        wall_s = statistics.median(walls) * scale
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_samples) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "time_to_tol_s": runner.time_to_tol(wall_s),
        }
        record["samples"] = {"wall_s": len(walls), "setup_s": len(setup_samples),
                             "time_to_tol_s": len(walls), "calibration": len(calib)}
        record["pass_walls"] = walls
        record["setup_samples"] = setup_samples
        record["calibration_s"] = calib
        record["scale_to_reference"] = scale

    record["command_s"] = runner.command_times()
    record["warnings"] = {"tolerance": runner.tol_warnings,
                          "other": runner.other_warnings}
    failed = [op for op in runner.ops if not op[2]]
    record["failed_ops"] = [{"pass": p, "op": n, "detail": d}
                            for p, n, _, d in failed[:50]]
    record["ops_attempted"] = len(runner.ops)
    with open(run_dir / "record.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    with open(W.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
