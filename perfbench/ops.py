"""The operations of each workload, built from a seed.

An operation is one named call (or short chain of calls) into the public
hopfinv API.  It returns a JSON value that `run_op` compares with the value
recorded in `golden.json`; any difference, and any exception other than an
expected budget refusal, fails the operation.  Everything is fixed except
what the seed draws: the order of grid points, of links and of pairs, the
side of each Reidemeister pair evaluated first, and the Lemma-3 functionals.

Calls go through module attributes (`kuperberg.z_kup_lens`, ...) so that the
tracing wrappers of `layertrace.py` see them.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Callable

from hopfinv import double, hennings, hopf, kuperberg, morse, scalars, structio, uqsl2
from hopfinv.kuperberg import BudgetExceededError
from hopfinv.morse import MorseLink, Slice

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Every operation of `budget-refusal` passes this budget explicitly: at the
# library default of 10**7, chain_mail(2,1) at l = 5 exhausts an 8 GB machine.
REFUSAL_BUDGET = 10**5

LEMMA3_FUNCTIONALS = 20


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    # a refusal op succeeds by raising BudgetExceededError or by returning the golden value
    may_refuse: bool = False


@dataclass
class Workload:
    orders: tuple[int, ...]  # u_q sl(2) orders built during set-up
    ops: Callable[[random.Random], list[Op]]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def refused_terms(exc: BudgetExceededError) -> int:
    """State size reported by a budget refusal ("state reached N terms ...")."""
    m = re.search(r"(\d+) terms", str(exc))
    if m is None:
        raise ValueError(f"budget refusal without a state size: {exc}")
    return int(m.group(1))


def run_op(op: Op, ctx: dict, golden: dict) -> dict:
    """Run one op and check it; the record holds name, ok, seconds and refusal size."""
    t0 = time.perf_counter()
    rec: dict = {"name": op.name, "ok": False, "refused_terms": None}
    try:
        out = op.run(ctx)
    except BudgetExceededError as exc:
        rec["refused_terms"] = refused_terms(exc)
        rec["ok"] = op.may_refuse
        rec["error"] = str(exc)
    except Exception as exc:  # any other exception is a failed op, never a crash
        rec["error"] = f"{type(exc).__name__}: {exc}"
    else:
        rec["ok"] = op.name in golden and out == golden[op.name]
        if not rec["ok"]:
            rec["error"] = "output differs from golden"
    rec["seconds"] = time.perf_counter() - t0
    return rec


def coprime_points(p_max: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(2, p_max + 1) for q in range(1, p) if math.gcd(p, q) == 1]


# -- theorem grid ---------------------------------------------------------------


def _grid_point(l: int, p: int, q: int, ctx: dict) -> dict:
    H = ctx[l]
    zk = kuperberg.z_kup_lens(p, q, H)
    zh = hennings.z_henn_lens_closed(p, q, H)
    return {
        "z_kup": zk.to_json(),
        "z_henn_sq": zh.to_json(),
        "equal": zk == zh,
        "conj_invariant": scalars.conjugate(zk) == zk,
    }


def grid_op(l: int, p: int, q: int) -> Op:
    return Op(f"grid/l{l}/L({p},{q})", lambda ctx: _grid_point(l, p, q, ctx))


def grid_ops(l: int, p_max: int, rng: random.Random) -> list[Op]:
    points = coprime_points(p_max)
    rng.shuffle(points)
    return [grid_op(l, p, q) for p, q in points]


# -- link diagrams ----------------------------------------------------------------


def framed_unknot(framing: int) -> MorseLink:
    kind = "x+" if framing > 0 else "x-"
    sl = [Slice("cup", 0)]
    for _ in range(abs(framing)):
        sl += [Slice("cup", 2), Slice(kind, 1), Slice("cap", 2)]
    sl.append(Slice("cap", 0))
    return MorseLink(tuple(sl), (1,))


def _closure(braid: list[tuple[str, int]], n: int) -> MorseLink:
    sl = [Slice("cup", k) for k in range(n)]
    sl += [Slice(kind, pos) for kind, pos in braid]
    sl += [Slice("cap", k) for k in range(n - 1, -1, -1)]
    return MorseLink(tuple(sl), (1,) * n)


def reidemeister_pairs() -> list[tuple[MorseLink, MorseLink]]:
    """The six Reidemeister II/III pairs of acceptance criterion 8."""
    return [
        (MorseLink((Slice("cup", 0), Slice("x+", 0), Slice("x-", 0), Slice("cap", 0)), (1,)),
         morse.unknot_diagram(clockwise=True)),
        (MorseLink((Slice("cup", 0), Slice("x-", 0), Slice("x+", 0), Slice("cap", 0)), (1,)),
         morse.unknot_diagram(clockwise=True)),
        (_closure([("x+", 0), ("x-", 0)], 2), _closure([], 2)),
        (_closure([("x+", 0), ("x+", 1), ("x+", 0)], 3),
         _closure([("x+", 1), ("x+", 0), ("x+", 1)], 3)),
        (_closure([("x-", 0), ("x-", 1), ("x-", 0)], 3),
         _closure([("x-", 1), ("x-", 0), ("x-", 1)], 3)),
        (_closure([("x+", 1), ("x+", 0), ("x+", 1), ("x-", 0)], 3),
         _closure([("x+", 0), ("x+", 1), ("x+", 0), ("x-", 0)], 3)),
    ]


def _pair(k: int, left_first: bool, ctx: dict) -> dict:
    """Evaluate both sides of pair k.

    When both sides have crossings, the slower/faster time ratio goes to
    ctx["pair_ratios"]; a side without crossings has no contraction order,
    and its sub-millisecond time would make the ratio noise.
    """
    H = ctx[3]
    sides = dict(zip(("left", "right"), reidemeister_pairs()[k]))
    order = ("left", "right") if left_first else ("right", "left")
    out, secs = {}, []
    for side in order:
        t0 = time.perf_counter()
        out[side] = hennings.kr_evaluate(sides[side], H).to_json()
        secs.append(time.perf_counter() - t0)
    if all(any(s.kind in ("x+", "x-") for s in link.slices) for link in sides.values()):
        ctx.setdefault("pair_ratios", []).append(max(secs) / min(secs))
    return out


def pair_op(k: int, left_first: bool) -> Op:
    return Op(f"link/reidemeister-pair-{k}", lambda ctx: _pair(k, left_first, ctx))


def unknot_op(framing: int) -> Op:
    return Op(
        f"link/z_henn(U{framing})",
        lambda ctx: hennings.z_henn(framed_unknot(framing), ctx[3]).to_json(),
    )


def link_ops(rng: random.Random) -> list[Op]:
    # Links are shuffled among themselves and pairs among themselves, links
    # first.  Mixing the blocks would let the order of the two heaviest ops
    # (chain_mail(2,1) and pair 5) move the peak resident set by about 8%.
    links = [
        Op("link/z_henn(chain_mail(2,1))",
           lambda ctx: hennings.z_henn(hennings.chain_mail(2, 1), ctx[3]).to_json()),
        unknot_op(-2),
        unknot_op(-3),
    ]
    pairs = [pair_op(k, rng.random() < 0.5) for k in range(len(reidemeister_pairs()))]
    rng.shuffle(links)
    rng.shuffle(pairs)
    return links + pairs


# -- structures ---------------------------------------------------------------------


def _report(rep: hopf.AxiomReport) -> list:
    return [[name, ok] for name, ok, _ in rep.checks]


def _build(l: int, ctx: dict) -> dict:
    data = uqsl2.build_uqsl2(l)
    ctx[("uqsl2", l)] = data
    return {
        "dim": data.structure.dim,
        "lam(Lam)": data.lam(data.Lam).to_json(),
        "lam(theta)": data.lam_theta().to_json(),
        "norm_scale": data.norm_scale.to_json(),
    }


def _axioms(l: int, ctx: dict) -> list:
    data = ctx[("uqsl2", l)]
    return _report(hopf.verify_axioms(data.structure, R=data.R, theta=data.theta, data=data))


def uqsl2_ops(l: int, axioms: bool) -> list[Op]:
    ops = [Op(f"structures/build_uqsl2({l})", lambda ctx: _build(l, ctx))]
    if axioms:
        ops.append(Op(f"structures/verify_axioms(uqsl2 l={l})", lambda ctx: _axioms(l, ctx)))
    return ops


def _double_build(n: int, ctx: dict) -> int:
    T = double.taft_algebra(n, 3)
    D, R = double.drinfeld_double(T)
    ctx[("taft", n)], ctx[("double", n)] = T, (D, R)
    return D.dim


def _double_axioms(n: int, ctx: dict) -> list:
    D, R = ctx[("double", n)]
    return _report(hopf.verify_axioms(D, R=R))


def _double_ribbon(n: int, ctx: dict) -> dict:
    T = ctx[("taft", n)]
    _, _, g, alpha = hopf.unnormalized_integral_data(T)
    crit = double.double_ribbon_criterion(T, g, alpha)
    return {"has_ribbon": crit.has_ribbon, "candidates_checked": crit.candidates_checked}


def _round_trip(n: int, ctx: dict) -> bool:
    """Dump D(T_n), load it back (the loader runs the axiom verifier), compare."""
    D, R = ctx[("double", n)]
    path = os.path.join(ctx["workdir"], f"double_taft{n}.json")
    structio.dump_algebra(path, D, R=R)
    ctx["file_bytes"] = ctx.get("file_bytes", 0) + os.path.getsize(path)
    A2, R2, _ = structio.load_algebra(path)
    os.remove(path)
    return structio.algebra_to_dict(A2, R2) == structio.algebra_to_dict(D, R)


def double_ops(n: int, round_trip: bool) -> list[Op]:
    tag = f"structures/D(T_{n})"
    ops = [
        Op(f"{tag}/build", lambda ctx: _double_build(n, ctx)),
        Op(f"{tag}/verify_axioms", lambda ctx: _double_axioms(n, ctx)),
        Op(f"{tag}/factorizability_rank",
           lambda ctx: hopf.factorizability_rank(ctx[("double", n)][1])),
        Op(f"{tag}/ribbon_criterion", lambda ctx: _double_ribbon(n, ctx)),
    ]
    if round_trip:
        ops.append(Op(f"{tag}/structio_round_trip", lambda ctx: _round_trip(n, ctx)))
    return ops


def lemma3_functionals(rng: random.Random, dim: int, count: int) -> list[list[int]]:
    # Large nonzero entries: no entry is zero and no sum cancels by accident,
    # so the traced counts do not depend on the seed.
    return [[rng.choice((-1, 1)) * rng.randrange(1, 10**12) for _ in range(dim)] for _ in range(count)]


def _lemma3(n: int, values: list[list[int]], ctx: dict) -> list[bool]:
    data = ctx.get(("lemma3", 3))
    if data is None:
        data = ctx[("lemma3", 3)] = uqsl2.build_uqsl2(3)
    A, R = data.structure, data.R
    ladder = hopf.drinfeld_ladder_tensor(A, R, n)
    return [
        hopf.lemma3_factorization_holds(
            A, R, hopf.Functional(A, tuple(scalars.Cyc.from_int(3, v) for v in vals)), n, ladder=ladder
        )
        for vals in values
    ]


def lemma3_op(n: int, values: list[list[int]]) -> Op:
    return Op(f"structures/lemma3(n={n},{len(values)} functionals)",
              lambda ctx: _lemma3(n, values, ctx))


def structure_ops(rng: random.Random) -> list[Op]:
    # a fixed order: the peak resident set depends on it
    return (
        uqsl2_ops(3, axioms=True)
        + uqsl2_ops(5, axioms=True)
        + uqsl2_ops(7, axioms=False)
        + double_ops(2, round_trip=False)
        + double_ops(3, round_trip=True)
        + [lemma3_op(n, lemma3_functionals(rng, 27, LEMMA3_FUNCTIONALS)) for n in (2, 3, 4)]
    )


# -- budget refusal -------------------------------------------------------------------


def refusal_cases() -> list[tuple[str, int, Callable]]:
    """(op name, order, call taking (H, budget)) for the four refusal cases."""
    return [
        ("refusal/z_henn(chain_mail(2,1))@l5", 5,
         lambda H, b: hennings.z_henn(hennings.chain_mail(2, 1), H, budget=b)),
        ("refusal/z_henn(chain_mail(3,1))@l3", 3,
         lambda H, b: hennings.z_henn(hennings.chain_mail(3, 1), H, budget=b)),
        ("refusal/z_henn_lens_closed(8,3)@l5", 5,
         lambda H, b: hennings.z_henn_lens_closed(8, 3, H, budget=b)),
        ("refusal/z_kup_lens(8,3)@l5", 5,
         lambda H, b: kuperberg.z_kup_lens(8, 3, H, budget=b)),
    ]


def refusal_op(name: str, l: int, call: Callable, budget: int = REFUSAL_BUDGET) -> Op:
    return Op(name, lambda ctx: call(ctx[l], budget).to_json(), may_refuse=True)


def refusal_ops(rng: random.Random) -> list[Op]:
    # a fixed order: the peak resident set depends on it
    return [refusal_op(name, l, call) for name, l, call in refusal_cases()]


# -- the layer probe ---------------------------------------------------------------------


def layer_probe_ops() -> list[Op]:
    """A small fixed op set that reaches every traced layer.

    It runs after the workload's own ops in every traced pass, so that each
    per-layer time is measured, never a constant zero, on every workload.
    """
    return [
        grid_op(3, 3, 1),
        unknot_op(-2),
        pair_op(3, True),
        *double_ops(2, round_trip=True),
        lemma3_op(2, lemma3_functionals(random.Random(0), 27, 2)),
    ]


WORKLOADS = {
    "theorem-grid-l3": Workload((3,), lambda rng: grid_ops(3, 10, rng)),
    "theorem-grid-l5": Workload((5,), lambda rng: grid_ops(5, 6, rng)),
    "link-diagrams": Workload((3,), link_ops),
    "structures": Workload((), structure_ops),
    "budget-refusal": Workload((3, 5), refusal_ops),
}
