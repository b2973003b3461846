"""Kauffman-Radford evaluation, surgery normalization, chain-mail links."""

import re

import pytest

from hopfinv.hennings import (
    chain_mail,
    hennings_closed_exponent,
    kr_evaluate,
    z_henn,
    z_henn_lens_closed,
)
from hopfinv.kuperberg import BudgetExceededError, lens_indices, z_kup_lens
from hopfinv.morse import MorseLink, Slice, analyze, kinked_unknot, unknot_diagram
from hopfinv.scalars import Cyc, conjugate, norm_squared
from hopfinv.hopf import antipode_power

import tests.shared as shared


def closure(braid, n, orientations=None):
    sl = [Slice("cup", k) for k in range(n)]
    sl += [Slice(kind, pos) for kind, pos in braid]
    sl += [Slice("cap", k) for k in range(n - 1, -1, -1)]
    return MorseLink(tuple(sl), orientations or (1,) * n)


def test_empty_link():
    H = shared.data3()
    assert kr_evaluate(MorseLink((), ()), H) == Cyc.one(3)
    assert z_henn(MorseLink((), ()), H) == Cyc.one(3)


def test_unknot_trace():
    H = shared.data3()
    # tr(G) = lambda(K^2) = 0 for u_q sl(2)
    assert kr_evaluate(unknot_diagram(), H).is_zero()
    assert kr_evaluate(unknot_diagram(clockwise=True), H).is_zero()


def test_framed_unknots_give_s3():
    H = shared.data3()
    for kind in ("x+", "x-"):
        for east in (True, False):
            assert z_henn(kinked_unknot(kind, east), H) == Cyc.one(3)


def test_reidemeister_two_three_pairs():
    H = shared.data3()
    pairs = [
        # antiparallel R2 on a single cup, both orders
        (
            MorseLink((Slice("cup", 0), Slice("x+", 0), Slice("x-", 0), Slice("cap", 0)), (1,)),
            unknot_diagram(clockwise=True),
        ),
        (
            MorseLink((Slice("cup", 0), Slice("x-", 0), Slice("x+", 0), Slice("cap", 0)), (1,)),
            unknot_diagram(clockwise=True),
        ),
        # parallel R2 inside a 2-braid closure
        (closure([("x+", 0), ("x-", 0)], 2), closure([], 2)),
        (closure([("x-", 0), ("x+", 0)], 2), closure([], 2)),
        # R3 on 3-braid closures
        (
            closure([("x+", 0), ("x+", 1), ("x+", 0)], 3),
            closure([("x+", 1), ("x+", 0), ("x+", 1)], 3),
        ),
        (
            closure([("x-", 0), ("x-", 1), ("x-", 0)], 3),
            closure([("x-", 1), ("x-", 0), ("x-", 1)], 3),
        ),
        # R3 under a nontrivial braid prefix
        (
            closure([("x+", 1), ("x+", 0), ("x+", 1), ("x-", 0)], 3),
            closure([("x+", 0), ("x+", 1), ("x+", 0), ("x-", 0)], 3),
        ),
    ]
    for left, right in pairs:
        assert kr_evaluate(left, H) == kr_evaluate(right, H)


def test_orientation_independence_of_tr():
    H = shared.data3()
    L = closure([("x+", 0), ("x+", 0)], 2)
    v = kr_evaluate(L, H)
    for orients in ((1, -1), (-1, 1), (-1, -1)):
        assert kr_evaluate(MorseLink(L.slices, orients), H) == v


def test_disjoint_union_multiplicative():
    H = shared.data3()
    A = kinked_unknot("x+", True)
    # A second copy shifted to the right of the first
    sl = list(A.slices) + [Slice(s.kind, s.pos) for s in A.slices]
    both = MorseLink(tuple(sl), (1, 1))
    assert z_henn(both, H) == z_henn(A, H) * z_henn(A, H)
    tr_both = kr_evaluate(both, H)
    assert tr_both == kr_evaluate(A, H) * kr_evaluate(A, H)


def test_chain_mail_census():
    for (p, q) in ((2, 1), (3, 1), (3, 2), (5, 2), (5, 3), (7, 4)):
        link = chain_mail(p, q)
        an = analyze(link)
        assert an.component_count == 2
        assert an.linking.matrix == [[p * q, p], [p, 0]]
        assert an.linking.signature == 0
        assert an.walks[0].whitney_degree() == p - q
        assert an.walks[1].whitney_degree() == 1


def test_chain_mail_s3_is_empty():
    assert chain_mail(1, 0) == MorseLink((), ())


def test_cross_path_21():
    H = shared.data3()
    assert z_henn(chain_mail(2, 1), H) == z_henn_lens_closed(2, 1, H)


def test_budget_error():
    """All three engines refuse a tiny budget and report the state size they
    reached, in the form `perfbench/ops.refused_terms` parses."""
    H = shared.data3()
    engines = (
        lambda b: kr_evaluate(chain_mail(2, 1), H, budget=b),
        lambda b: z_henn_lens_closed(5, 2, H, budget=b),
        lambda b: z_kup_lens(5, 2, H, budget=b),
    )
    for call in engines:
        with pytest.raises(BudgetExceededError) as info:
            call(10)
        m = re.fullmatch(r"state reached (\d+) terms \(budget 10\)", str(info.value))
        assert m is not None and int(m.group(1)) > 10, str(info.value)


def test_closed_form_21_value():
    """(2,1): the closed form equals lambda(Lambda_(2) Lambda_(1))."""
    H = shared.data3()
    A = H.structure
    from hopfinv.hopf import iterated_coproduct

    expanded = iterated_coproduct(H.Lam, 2)
    acc = A.zero
    for (b1, b2), c in expanded.terms.items():
        prod = A.basis_element(b2) * A.basis_element(b1)
        acc = acc + c * H.lam(prod)
    assert z_henn_lens_closed(2, 1, H) == acc


def test_closed_form_52_display():
    """(5,2): equals lambda(S^-4(L_(2)) S^-4(L_(5)) S^-2(L_(3)) L_(1) L_(4) G^4)."""
    H = shared.data3()
    A = H.structure
    from hopfinv.hopf import iterated_coproduct

    expanded = iterated_coproduct(H.Lam, 5)
    tail = H.G_power(4)
    powers = {2: -4, 5: -4, 3: -2, 1: 0, 4: 0}
    order = [2, 5, 3, 1, 4]
    acc = A.zero
    for key, c in expanded.terms.items():
        w = A.unit_element()
        for pos in order:
            w = w * antipode_power(A.basis_element(key[pos - 1]), powers[pos])
        acc = acc + c * H.lam(w * tail)
    assert z_henn_lens_closed(5, 2, H) == acc


def test_hennings_exponent_rules():
    idx = lens_indices(5, 2)
    assert [hennings_closed_exponent(idx, n) for n in range(1, 6)] == [0, 0, -2, -4, -4]
    idx = lens_indices(2, 1)
    assert [hennings_closed_exponent(idx, n) for n in (1, 2)] == [0, -2]


def test_closed_form_real_and_s3():
    H = shared.data3()
    assert z_henn_lens_closed(1, 0, H) == Cyc.one(3)
    for (p, q) in ((4, 3), (6, 5), (7, 2)):
        v = z_henn_lens_closed(p, q, H)
        assert conjugate(v) == v


def test_norm_squared_of_unknot_surgery():
    """|Z_Henn(L(p,1))|^2 from the -p-framed unknot equals z_kup(p,1)."""
    from hopfinv.kuperberg import z_kup_lens

    H = shared.data3()
    for p in (2, 3):
        sl = [Slice("cup", 0)]
        for _ in range(p):
            sl += [Slice("cup", 2), Slice("x-", 1), Slice("cap", 2)]
        sl.append(Slice("cap", 0))
        U = MorseLink(tuple(sl), (1,))
        an = analyze(U)
        assert an.linking.matrix == [[-p]]
        zh = z_henn(U, H)
        assert norm_squared(zh) == z_kup_lens(p, 1, H)
