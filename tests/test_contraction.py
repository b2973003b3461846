"""The shared sparse-contraction state against dense reference computations."""

import random

import pytest

from hopfinv.contraction import SparseState
from hopfinv.hopf import antipode_power, iterated_coproduct
from hopfinv.kuperberg import KuperbergExponentData, kuperberg_eval
from hopfinv.scalars import Cyc

import tests.shared as shared


def dense_kuperberg(data: KuperbergExponentData, H) -> Cyc:
    """lambda( prod_t S^(e_t)(Lambda_(legs[t])) g^m ) over the fully expanded
    Delta^(p-1)(Lambda), with Element products only."""
    A = H.structure
    tail = H.g_power(data.g_power)
    total = A.zero
    for legs, c in iterated_coproduct(H.Lam, len(data.legs)).terms.items():
        prod = A.unit_element()
        for pos, e in zip(data.legs, data.exponents):
            prod = prod * antipode_power(A.basis_element(legs[pos - 1]), e)
        total = total + c * H.lam(prod * tail)
    return total


def random_exponent_data(rng: random.Random, p: int) -> KuperbergExponentData:
    legs = list(range(1, p + 1))
    rng.shuffle(legs)
    return KuperbergExponentData(
        legs=tuple(legs),
        exponents=tuple(rng.randint(-3, 3) for _ in range(p)),
        g_power=rng.randint(-2, 2),
    )


@pytest.mark.parametrize("l, p_max, cases", [(3, 5, 4), (5, 3, 2)])
def test_kuperberg_eval_matches_dense_reference(l, p_max, cases):
    H = shared.data3() if l == 3 else shared.data5()
    rng = random.Random(l)
    for p in range(1, p_max + 1):
        for _ in range(cases):
            data = random_exponent_data(rng, p)
            assert kuperberg_eval(data, H) == dense_kuperberg(data, H), data


def test_multiply_branch_contract_match_element_products():
    H = shared.data3()
    A = H.structure
    rng = random.Random(11)
    x = sum((A.basis_element(rng.randrange(A.dim)).scale(Cyc.from_int(3, rng.randint(1, 4)))
             for _ in range(3)), A.zero_element())
    y = sum((A.basis_element(rng.randrange(A.dim)) for _ in range(2)), A.zero_element())
    legs = [(rng.randrange(A.dim), Cyc.from_int(3, rng.randint(-3, 3) or 1)) for _ in range(4)]

    state = SparseState(A)
    state.add_column("x", x.terms)
    state.multiply("x", y.terms)
    assert state.terms == {(b,): c for b, c in (x * y).terms.items()}

    state.branch("x", "t", legs)
    for t, (leg, c) in enumerate(legs):
        branch_t = {(b,): v for (b, s), v in state.terms.items() if s == t}
        want = (x * y * A.basis_element(leg)).scale(c)
        assert branch_t == {(b,): v for b, v in want.terms.items()}

    state.contract("t", [A.one] * len(legs))
    state.contract("x", H.lam.values)
    assert state.value() == sum(
        (H.lam(x * y * A.basis_element(leg)) * c for leg, c in legs), A.zero
    )

