"""Self-check of the benchmark's checking and tracing, at reduced size (a few seconds).

    python3 perfbench/selfcheck.py

It shows that a corrupted golden entry fails its op and raises fail_ratio,
that a refusal op succeeds by refusing or by completing with the golden
value and fails otherwise, that the peak-state probe finds the exact
smallest budget, and that traced counts repeat exactly and the tracer puts
every original back.  Exits 1 on the first check that does not hold.
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
import probes  # noqa: E402
from hopfinv import hennings, kuperberg, scalars, uqsl2  # noqa: E402
from layertrace import Tracer  # noqa: E402
from run import count  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def fail_ratio(todo: list, ctx: dict, golden: dict) -> float:
    attempted, failed = count([ops.run_op(op, ctx, golden) for op in todo])
    return failed / attempted


def main() -> None:
    golden = ops.load_golden()
    ctx = {3: uqsl2.build_uqsl2(3)}
    small = [ops.grid_op(3, p, q) for p, q in ((2, 1), (3, 1), (3, 2), (4, 1))]

    expect(fail_ratio(small, ctx, golden) == 0, "reduced grid matches golden.json")
    bad = copy.deepcopy(golden)
    bad["grid/l3/L(3,2)"]["z_kup"]["coeffs"][0] = "10/1"
    rec = ops.run_op(small[2], ctx, bad)
    expect(not rec["ok"], "a corrupted golden entry fails its op")
    expect(fail_ratio(small, ctx, bad) == 0.25, "and raises fail_ratio from 0 to 1/4")

    # chain_mail(3,1) equals the closed form (3,1), so the closed form stands in
    # for a refusal op that completes quickly
    name = "refusal/z_henn(chain_mail(3,1))@l3"

    def closed31(H, budget):
        return hennings.z_henn_lens_closed(3, 1, H, budget=budget)

    rec = ops.run_op(ops.refusal_op(name, 3, closed31, budget=10**7), ctx, golden)
    expect(rec["ok"] and rec["refused_terms"] is None,
           "a refusal op that completes with the golden value succeeds")
    rec = ops.run_op(ops.refusal_op(name, 3, closed31, budget=10), ctx, golden)
    expect(rec["ok"] and rec["refused_terms"] > 10, "a refusal op that refuses succeeds")
    wrong = ops.refusal_op(name, 3, lambda H, b: hennings.z_henn_lens_closed(2, 1, H, budget=b))
    expect(not ops.run_op(wrong, ctx, golden)["ok"],
           "a refusal op that completes with another value fails")
    refused = ops.Op("grid/l3/L(3,1)", lambda c: kuperberg.z_kup_lens(3, 1, c[3], budget=1))
    expect(not ops.run_op(refused, ctx, golden)["ok"], "a refusal of an ordinary op fails")

    def call(b):
        return kuperberg.z_kup_lens(4, 1, ctx[3], budget=b)

    peak, value = probes.peak_terms(call)
    try:
        call(peak - 1)
        below_refuses = False
    except kuperberg.BudgetExceededError:
        below_refuses = True
    expect(value.to_json() == golden["grid/l3/L(4,1)"]["z_kup"] and below_refuses,
           f"peak-state probe: budget {peak} completes, {peak - 1} refuses")

    originals = (scalars.Cyc.__mul__, kuperberg.z_kup_lens, hennings.analyze)
    runs = [subprocess.run([sys.executable, __file__, "--traced-counts"], check=True,
                           capture_output=True, text=True).stdout for _ in range(2)]
    counts = [json.loads(out.splitlines()[-1]) for out in runs]
    expect(counts[0] == counts[1] and counts[0]["scalars.mul_calls"] > 0
           and counts[0]["morse.analyze_calls"] > 0,
           "traced counts repeat exactly in two fresh processes")
    traced_counts()
    expect(originals == (scalars.Cyc.__mul__, kuperberg.z_kup_lens, hennings.analyze),
           "uninstall restores the original functions")


def traced_counts() -> dict:
    """Counters of a traced reduced grid plus one framed unknot."""
    golden = ops.load_golden()
    tracer = Tracer()
    tracer.install()
    ctx = {3: uqsl2.build_uqsl2(3)}
    for op in [ops.grid_op(3, 4, 1), ops.grid_op(3, 5, 2), ops.unknot_op(-2)]:
        ops.run_op(op, ctx, golden)
    tracer.uninstall()
    return {k: v for k, v in tracer.counters().items() if not k.endswith("_s")}


if __name__ == "__main__":
    if sys.argv[1:] == ["--traced-counts"]:
        print(json.dumps(traced_counts()))
    else:
        main()
