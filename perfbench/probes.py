"""Probes of the traced run, identical on every workload and never timed end to end.

* Kernel probe: `Cyc` mul/add at l = 3, 5, 7 and inverse at l = 5 on seeded
  dense operands, in microseconds per op (loop overhead included).
* Fresh `build_uqsl2` at l = 3, 5, 7, median of three.
* Peak-state probe: the smallest `budget` with which a call completes.  A
  refusal reports the state size N that broke the budget, so the search
  retries with budget N until the call completes; the last budget is the
  peak state size exactly (one less refuses at the step that reached it).
* Refusal overshoot: state size at refusal divided by the budget, for the
  `budget-refusal` cases at their explicit budget.
"""

from __future__ import annotations

import random
import statistics
import time

import ops
from hopfinv import hennings, kuperberg, uqsl2
from hopfinv.kuperberg import BudgetExceededError
from hopfinv.scalars import Cyc

KERNEL_OPERANDS = 4000
INVERSE_OPERANDS = 200
REPEATS = 7
# the probe never lets a state grow past this many terms
PEAK_BUDGET_CAP = 2 * 10**6


def _random_cyc(rng: random.Random, l: int) -> Cyc:
    return Cyc(l, tuple(rng.randrange(-50, 51) for _ in range(l - 1)), rng.randrange(1, 13))


def _us_per_op(run, n: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        samples.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(samples)


def kernel_probe(rng: random.Random) -> dict:
    out = {}
    for l in (3, 5, 7):
        pairs = [(_random_cyc(rng, l), _random_cyc(rng, l)) for _ in range(KERNEL_OPERANDS)]

        def mul(pairs=pairs):
            for a, b in pairs:
                a * b

        def add(pairs=pairs):
            for a, b in pairs:
                a + b

        out[f"scalars.mul_us.l{l}"] = _us_per_op(mul, len(pairs), REPEATS)
        out[f"scalars.add_us.l{l}"] = _us_per_op(add, len(pairs), REPEATS)
    units = [_random_cyc(rng, 5) for _ in range(INVERSE_OPERANDS)]
    units = [u for u in units if u]

    def inverse():
        for u in units:
            u.inverse()

    out["scalars.inverse_us.l5"] = _us_per_op(inverse, len(units), 3)
    return out


def build_probe() -> dict:
    out = {}
    for l in (3, 5, 7):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            uqsl2.build_uqsl2(l)
            samples.append(time.perf_counter() - t0)
        out[f"uqsl2.build_s.l{l}"] = statistics.median(samples)
    return out


def peak_terms(call) -> tuple[int, object]:
    """(smallest budget with which call(budget) completes, its result)."""
    budget = 1
    while True:
        try:
            return budget, call(budget)
        except BudgetExceededError as exc:
            reached = ops.refused_terms(exc)
            if reached <= budget or reached > PEAK_BUDGET_CAP:
                raise
            budget = reached


def run(seed: int) -> dict:
    golden = ops.load_golden()
    metrics = kernel_probe(random.Random(seed))
    metrics.update(build_probe())
    H = {3: uqsl2.build_uqsl2(3), 5: uqsl2.build_uqsl2(5)}
    records = []
    l6_5 = golden["grid/l5/L(6,5)"]
    cases = [
        ("kuperberg.peak_terms.L6-5.l5", l6_5["z_kup"],
         lambda b: kuperberg.z_kup_lens(6, 5, H[5], budget=b)),
        ("hennings.closed_peak_terms.L6-5.l5", l6_5["z_henn_sq"],
         lambda b: hennings.z_henn_lens_closed(6, 5, H[5], budget=b)),
        ("hennings.kr_peak_terms.chain_mail-2-1.l3",
         golden["probe/kr_evaluate(chain_mail(2,1))@l3"],
         lambda b: hennings.kr_evaluate(hennings.chain_mail(2, 1), H[3], budget=b)),
    ]
    for name, want, call in cases:
        metrics[name], value = peak_terms(call)
        records.append({"name": name, "ok": value.to_json() == want})

    overshoot = {"kuperberg": 0.0, "hennings": 0.0}
    for name, l, call in ops.refusal_cases():
        rec = ops.run_op(ops.refusal_op(name, l, call), H, golden)
        records.append(rec)
        if rec["refused_terms"] is not None:
            layer = "kuperberg" if "z_kup" in name else "hennings"
            overshoot[layer] = max(overshoot[layer], rec["refused_terms"] / ops.REFUSAL_BUDGET)
    metrics["kuperberg.refusal_overshoot"] = overshoot["kuperberg"]
    metrics["hennings.refusal_overshoot"] = overshoot["hennings"]
    return {"metrics": metrics, "records": records}
