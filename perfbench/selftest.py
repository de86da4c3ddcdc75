"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Every check the workloads apply must pass on a nominal output and fail on
a deliberately perturbed one: an estimate shifted by 10 stderr, a CSV with
one changed byte, a fit outside its bracket, and so on.  ``run.py`` runs
this before every benchmark run and refuses to measure if it fails.
"""

import math
import sys

import checks
import workloads as W

CSV = (b"# fraclab config_hash=0123456789abcdef\n"
       b"# config={\"command\":\"solve\"}\n"
       b"x1,x2,estimate,stderr,mean_steps,snapped_fraction\n"
       b"0.5,0,2.08025943,0.00171,5.4,0\n")


def _cases():
    """(description, result, expected ok) triples."""
    refs = W.load_refs()
    out = []

    def pair(name, good, bad):
        out.append((name + " nominal", good, True))
        out.append((name + " perturbed", bad, False))

    for e in refs["ball"]:
        # Monte Carlo checks: a stderr no smaller than the reference error
        se = max(2e-3, e["err"])
        pair(f"ball d={e['depth']:g} psi={e['psi_index']} shifted 10 stderr",
             checks.within_ref(e["value"] + se, se, e["value"], e["err"], k=W.MC_K),
             checks.within_ref(e["value"] + 10 * se, se, e["value"], e["err"], k=W.MC_K))
    for depth, k in W.PE_BALL:
        e = W.ball_ref(refs, depth, k)
        v, err = e["ball_poisson"], e["ball_poisson_err"]
        pair(f"ball_poisson d={depth:g} psi={k} shifted 10 err",
             checks.within_ref(v, err, e["value"], e["err"]),
             checks.within_ref(v + 10 * err, err, e["value"], e["err"]))
    for group in ("counterexample", "hessian"):
        for i, e in enumerate(refs[group]):
            err = max(e["err"], 1e-11 * abs(e["value"]))
            pair(f"{group}[{i}] shifted 10 err",
                 checks.within_ref(e["value"], 0.0, e["value"], err),
                 checks.within_ref(e["value"] + 10 * err, 0.0, e["value"], err))
    e = refs["extension_apply_L"]
    pair("extension apply_L shifted 10 err",
         checks.within_ref(e["value"], e["err"], e["value"], e["err"]),
         checks.within_ref(e["value"] + 10 * e["err"], e["err"], e["value"], e["err"]))

    pair("square alpha_hat above bracket", checks.in_bracket(0.0996, 0.05, 0.15),
         checks.in_bracket(0.16, 0.05, 0.15))
    pair("square alpha_hat below bracket", checks.in_bracket(0.0996, 0.05, 0.15),
         checks.in_bracket(0.04, 0.05, 0.15))
    pair("square alpha_hat not a number", checks.in_bracket(0.1, 0.05, 0.15),
         checks.in_bracket(math.nan, 0.05, 0.15))
    pair("star above sup g", checks.max_principle(2.2, 3e-3, 0.0, W.CAP),
         checks.max_principle(W.CAP + 10 * 3e-3, 3e-3, 0.0, W.CAP))
    pair("star below inf g", checks.max_principle(0.01, 3e-3, 0.0, W.CAP),
         checks.max_principle(-10 * 3e-3, 3e-3, 0.0, W.CAP))
    changed = bytearray(CSV)
    changed[-3] ^= 1
    pair("CSV with one changed byte", checks.bytes_identical(CSV, bytes(CSV)),
         checks.bytes_identical(CSV, bytes(changed)))
    pair("CSV truncated", checks.bytes_identical(CSV, bytes(CSV)),
         checks.bytes_identical(CSV, CSV[:-1]))

    ratios = [e["value"] / (e["t"] ** W.S * math.log(1.0 / e["t"]))
              for e in refs["counterexample"]]
    pair("counterexample ratio varies 25%", checks.ratio_flat(ratios, 0.2),
         checks.ratio_flat(ratios[:-1] + [1.25 * max(ratios)], 0.2))
    pair("counterexample ratio negative", checks.ratio_flat(ratios, 0.2),
         checks.ratio_flat([-ratios[0]] + ratios[1:], 0.2))
    pair("fit model not log-corrected", checks.equals("log_corrected", "log_corrected"),
         checks.equals("plain", "log_corrected"))
    pair("s-harmonic value above 5e-6", checks.abs_at_most(1e-7, 5e-6),
         checks.abs_at_most(-6e-6, 5e-6))
    pair("barrier margin at most 10", checks.greater(11.0, 10.0),
         checks.greater(9.0, 10.0))
    pair("report with one failing part",
         checks.all_of((True, "a"), (True, "b")),
         checks.all_of((True, "a"), (False, "b")))
    return out


def run():
    """Descriptions of the cases whose outcome is not the expected one."""
    return [f"{name}: expected {'pass' if want else 'fail'}, got {detail}"
            for name, (ok, detail), want in _cases() if bool(ok) != want]


if __name__ == "__main__":
    problems = run()
    n = len(_cases())
    for p in problems:
        print("FAIL", p)
    print(f"{n - len(problems)}/{n} check cases behave as expected")
    sys.exit(1 if problems else 0)
