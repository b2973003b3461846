"""u_q sl(2) construction tests at l = 3 (heavier l in test_acceptance)."""

import random

import pytest

from hopfinv.hopf import (
    antipode_power,
    counit_of,
    drinfeld_map_pairwise,
    factorizability_rank,
    iterated_coproduct,
    solve_integral_data,
    tensor_of,
    verify_axioms,
)
from hopfinv.scalars import Cyc, InvalidOrderError, q_power
from hopfinv.uqsl2 import (
    build_uqsl2,
    closed_form_cointegral,
    closed_form_integral,
    pbw_index,
    q_factorial,
    r_matrix,
    uqsl2_structure,
)


@pytest.fixture(scope="module")
def data3():
    return build_uqsl2(3)


def gens(A):
    l = A.l
    F = A.basis_element(pbw_index(l, 1, 0, 0))
    E = A.basis_element(pbw_index(l, 0, 1, 0))
    K = A.basis_element(pbw_index(l, 0, 0, 1))
    return F, E, K


def test_q_factorial_values():
    assert q_factorial(3, 0) == Cyc.one(3)
    assert q_factorial(3, 1) == Cyc.one(3)
    # [2] = q + q^-1 = -1 at l = 3
    assert q_factorial(3, 2) == -Cyc.one(3)
    with pytest.raises(ValueError):
        q_factorial(3, 3)
    with pytest.raises(InvalidOrderError):
        q_factorial(4, 1)


def test_defining_relations(data3):
    A = data3.structure
    l = A.l
    q = q_power(l, 1)
    F, E, K = gens(A)
    assert K * E == (E * K).scale(q * q)
    assert K * F == (F * K).scale(q_power(l, -2))
    commutator = E * F - F * E
    kinv = A.basis_element(pbw_index(l, 0, 0, l - 1))
    assert commutator == (K - kinv).scale((q - q_power(l, -1)).inverse())
    assert A.unit_element() * E == E
    # nilpotency and K-order
    assert (E * E * E).is_zero()
    assert (F * F * F).is_zero()
    assert K * K * K == A.unit_element()


def test_antipode_on_generators(data3):
    A = data3.structure
    l = A.l
    F, E, K = gens(A)
    kinv = A.basis_element(pbw_index(l, 0, 0, l - 1))
    assert antipode_power(K, 1) == kinv
    assert antipode_power(E, 1) == -(E * kinv)
    assert antipode_power(F, 1) == -(K * F)
    assert antipode_power(E, 0) == E
    assert antipode_power(E, 2) == E.scale(q_power(l, 2))


def test_coproducts(data3):
    A = data3.structure
    l = A.l
    F, E, K = gens(A)
    one = A.unit_element()
    kinv = A.basis_element(pbw_index(l, 0, 0, l - 1))
    assert iterated_coproduct(K, 2) == tensor_of(K, K)
    assert iterated_coproduct(E, 2) == tensor_of(one, E) + tensor_of(E, K)
    assert iterated_coproduct(F, 2) == tensor_of(kinv, F) + tensor_of(F, one)
    assert iterated_coproduct(E, 1).terms == {(pbw_index(l, 0, 1, 0),): A.one}


def test_coassociativity_both_orders_random(data3):
    A = data3.structure
    rng = random.Random(7)
    for _ in range(10):
        x = A.basis_element(rng.randrange(A.dim)) + A.basis_element(rng.randrange(A.dim))
        t3 = iterated_coproduct(x, 3)
        # (Delta x id) Delta and (id x Delta) Delta computed separately
        lhs = {}
        rhs = {}
        for (a, b), c in iterated_coproduct(x, 2).terms.items():
            for (a1, a2), cc in A.coprod_basis(a).items():
                key = (a1, a2, b)
                lhs[key] = lhs.get(key, A.zero) + c * cc
            for (b1, b2), cc in A.coprod_basis(b).items():
                key = (a, b1, b2)
                rhs[key] = rhs.get(key, A.zero) + c * cc
        lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        assert lhs == t3.terms
        assert rhs == t3.terms


def test_normal_ordering_confluent_random(data3):
    A = data3.structure
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = (A.basis_element(rng.randrange(A.dim)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_axiom_suite_l3(data3):
    rep = verify_axioms(data3.structure, R=data3.R, theta=data3.theta, data=data3)
    assert rep.ok, rep.summary()


def test_integral_formulas(data3):
    A = data3.structure
    l = A.l
    lam = data3.lam
    # lambda annihilates every monomial except F^(l-1) E^(l-1) K
    for i in range(A.dim):
        expect_nonzero = i == pbw_index(l, l - 1, l - 1, 1)
        assert (not lam.values[i].is_zero()) == expect_nonzero
    assert data3.lam(data3.Lam) == A.one
    assert data3.g == A.basis_element(pbw_index(l, 0, 0, 2))  # g = K^2
    assert data3.alpha.values == A.counit
    assert data3.omega == A.one


def test_solver_agrees_with_formulas_l3(data3):
    A = data3.structure
    lam, Lam, g, alpha, omega, scale = solve_integral_data(A, data3.R)
    # solver output is proportional to the closed formulas and identically normalized
    assert lam(Lam) == A.one
    assert g == data3.g
    assert alpha.values == data3.alpha.values
    assert omega == A.one
    assert scale == data3.norm_scale
    img = drinfeld_map_pairwise(A, data3.R.flip(), data3.R, lam)
    assert img == Lam.scale(scale)


def test_G_is_K_and_theta_traces(data3):
    A = data3.structure
    l = A.l
    assert data3.G == A.basis_element(pbw_index(l, 0, 0, 1))
    assert data3.G_inv == A.basis_element(pbw_index(l, 0, 0, l - 1))
    assert data3.theta * data3.theta_inv == A.unit_element()
    # lambda(theta) lambda(theta^-1) equals the normalization scale exactly
    assert data3.lam_theta() * data3.lam_theta_inv() == data3.norm_scale
    assert not data3.lam_theta().is_zero()


def test_factorizability_rank_l3(data3):
    assert factorizability_rank(data3.R) == 27


def test_ribbon_axiom_l3(data3):
    A = data3.structure
    Rt = data3.R.flip()
    RtR = Rt * data3.R
    lhs = iterated_coproduct(data3.theta, 2) * RtR
    assert lhs == tensor_of(data3.theta, data3.theta)


def test_even_l_rejected():
    with pytest.raises(InvalidOrderError):
        build_uqsl2(4)
    with pytest.raises(InvalidOrderError):
        uqsl2_structure(2)


def test_closed_form_integral_shapes():
    A = uqsl2_structure(3)
    lam0 = closed_form_integral(A)
    Lam0 = closed_form_cointegral(A)
    assert lam0.values[pbw_index(3, 2, 2, 1)] == A.one
    assert sorted(Lam0.terms) == [pbw_index(3, 2, 2, j) for j in range(3)]
    R = r_matrix(A)
    assert len(R.terms) == 27
