"""Regenerate golden.json from the current hopfinv code (about a minute, 300 MB).

    python3 perfbench/make_golden.py

Every recorded value is cross-checked before it is written: both sides of
the main theorem agree and are conjugation-invariant, each Reidemeister pair
agrees, the chain-mail diagram matches the closed form, axiom reports pass,
the double ranks are 16 and 81, Lemma 3 holds for every functional and the
structio round trip is exact.  The completion value of a refusal op is the
value the same quantity has by an independent route (closed form or the
Kuperberg side), since some of them cannot be computed directly in 8 GB.
"""

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
from hopfinv import hennings, kuperberg, uqsl2  # noqa: E402


def record(golden: dict, op: ops.Op, ctx: dict) -> object:
    out = op.run(ctx)
    golden[op.name] = out
    return out


def main() -> None:
    golden: dict = {}
    H = {3: uqsl2.build_uqsl2(3), 5: uqsl2.build_uqsl2(5)}
    rng = random.Random(0)
    with tempfile.TemporaryDirectory() as workdir:
        ctx = {**H, "workdir": workdir}
        for l, p_max in ((3, 10), (5, 6)):
            for op in ops.grid_ops(l, p_max, rng):
                out = record(golden, op, ctx)
                assert out["equal"] and out["conj_invariant"] and out["z_kup"] == out["z_henn_sq"], op.name
        for op in ops.link_ops(rng):
            out = record(golden, op, ctx)
            if "pair" in op.name:
                assert out["left"] == out["right"], op.name
        closed21 = hennings.z_henn_lens_closed(2, 1, H[3]).to_json()
        assert golden["link/z_henn(chain_mail(2,1))"] == closed21
        for op in ops.structure_ops(rng) + ops.layer_probe_ops():
            out = record(golden, op, ctx)
            if "verify_axioms" in op.name:
                assert all(ok for _, ok in out), op.name
            if "lemma3" in op.name:
                assert all(out), op.name
            if "round_trip" in op.name:
                assert out is True, op.name
        assert golden["structures/D(T_2)/factorizability_rank"] == 16
        assert golden["structures/D(T_3)/factorizability_rank"] == 81

    completion = {
        "refusal/z_henn(chain_mail(2,1))@l5": hennings.z_henn_lens_closed(2, 1, H[5]),
        "refusal/z_henn(chain_mail(3,1))@l3": hennings.z_henn_lens_closed(3, 1, H[3]),
    }
    kup83 = kuperberg.z_kup_lens(8, 3, H[5])  # about 20 s and 270 MB
    completion["refusal/z_henn_lens_closed(8,3)@l5"] = kup83
    completion["refusal/z_kup_lens(8,3)@l5"] = kup83
    assert completion["refusal/z_henn(chain_mail(2,1))@l5"] == kuperberg.z_kup_lens(2, 1, H[5])
    for name, value in completion.items():
        golden[name] = value.to_json()
    golden["probe/kr_evaluate(chain_mail(2,1))@l3"] = hennings.kr_evaluate(
        hennings.chain_mail(2, 1), H[3]
    ).to_json()

    with open(ops.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} golden entries to {ops.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
