"""Correctness checks applied to every benchmark output.

Each check is a pure function of the output values and returns
``(ok, detail)``; the workloads call them and ``selftest.py`` feeds them
deliberately perturbed outputs to show each one can fail.
"""

import math


def within_ref(estimate, stderr, ref, ref_err, k=3.0):
    """|estimate - ref| <= k (stderr + ref_err): a Monte Carlo or quadrature
    value against a hard-coded reference with its own error estimate."""
    allowance = k * (stderr + ref_err)
    dev = abs(estimate - ref)
    ok = math.isfinite(estimate) and dev <= allowance
    return ok, f"|{estimate:.10g} - ref {ref:.10g}| = {dev:.3g} vs {allowance:.3g}"


def in_bracket(value, lo, hi):
    ok = math.isfinite(value) and lo <= value <= hi
    return ok, f"{value:.6g} in [{lo:g}, {hi:g}]"


def max_principle(estimate, stderr, lo, hi, k=3.0):
    """inf g - k stderr <= estimate <= sup g + k stderr."""
    ok = (math.isfinite(estimate)
          and lo - k * stderr <= estimate <= hi + k * stderr)
    return ok, f"{estimate:.6g} +- {k:g} x {stderr:.3g} within [{lo:g}, {hi:g}]"


def bytes_identical(first, again):
    if first == again:
        return True, f"{len(first)} bytes identical"
    n = min(len(first), len(again))
    at = next((i for i in range(n) if first[i] != again[i]), n)
    return False, f"differs at byte {at} ({len(first)} vs {len(again)} bytes)"


def abs_at_most(value, bound):
    ok = math.isfinite(value) and abs(value) <= bound
    return ok, f"|{value:.3g}| <= {bound:g}"


def ratio_flat(ratios, max_variation):
    """All ratios positive and (max - min) / min below ``max_variation``."""
    lo, hi = min(ratios), max(ratios)
    if not lo > 0.0:
        return False, f"min ratio {lo:.6g} is not positive"
    var = (hi - lo) / lo
    return var < max_variation, f"ratios in [{lo:.4f}, {hi:.4f}], variation {var:.1%} < {max_variation:.0%}"


def all_of(*results):
    """Combine several (ok, detail) pairs into one."""
    ok = all(r[0] for r in results)
    return ok, "; ".join(("" if r[0] else "FAIL ") + r[1] for r in results)


def equals(value, expected):
    return value == expected, f"{value!r} == {expected!r}"


def greater(value, bound):
    ok = math.isfinite(value) and value > bound
    return ok, f"{value:.6g} > {bound:g}"
