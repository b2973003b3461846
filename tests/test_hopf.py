"""Core Hopf engine tests on group algebras and Drinfeld doubles."""

import pytest

from hopfinv.double import (
    algebra_characters,
    double_ribbon_criterion,
    drinfeld_double,
    group_algebra,
    grouplike_elements,
    taft_algebra,
)
from hopfinv.hopf import (
    HopfAlgebra,
    NotFactorizableError,
    antipode_power,
    counit_of,
    drinfeld_map,
    factorizability_rank,
    iterated_coproduct,
    solve_integral_data,
    tensor_of,
    verify_axioms,
    invert_element,
)
from hopfinv.scalars import Cyc


def test_group_algebra_axioms():
    A = group_algebra(3, 3)
    rep = verify_axioms(A)
    assert rep.ok, rep.summary()


def test_broken_antipode_fails():
    A = group_algebra(3, 3)
    one = Cyc.one(3)
    broken = HopfAlgebra(
        l=3,
        dim=3,
        labels=A.labels,
        mult={(i, j): {(i + j) % 3: one} for i in range(3) for j in range(3)},
        coproduct={i: {(i, i): one} for i in range(3)},
        antipode={i: {i: one} for i in range(3)},  # identity instead of inversion
        unit={0: one},
        counit=A.counit,
    )
    rep = verify_axioms(broken)
    assert not rep.ok
    assert "antipode axiom" in rep.failures()


def test_element_arithmetic_and_coproduct():
    A = group_algebra(5, 3)
    g = A.basis_element(1)
    assert A.unit_element() * g == g
    t = iterated_coproduct(g, 3)
    assert t.terms == {(1, 1, 1): A.one}
    assert iterated_coproduct(g, 1).terms == {(1,): A.one}
    assert antipode_power(g, 1) == A.basis_element(4)
    assert antipode_power(g, 0) == g
    assert antipode_power(g, -1) == A.basis_element(4)
    assert counit_of(g) == A.one


def test_trivial_R_not_factorizable():
    A = group_algebra(2, 3)
    R = tensor_of(A.unit_element(), A.unit_element())
    assert factorizability_rank(R) == 1
    with pytest.raises(NotFactorizableError):
        solve_integral_data(A, R)


def test_double_group_algebra_dim_square_and_rank():
    D, R = drinfeld_double(group_algebra(2, 3))
    assert D.dim == 4  # dim D(H) = dim(H)^2
    rep = verify_axioms(D, R=R)
    assert rep.ok, rep.summary()
    assert factorizability_rank(R) == 4


def test_taft_algebra_axioms():
    for n, l in ((2, 3), (3, 3), (2, 5)):
        T = taft_algebra(n, l)
        assert T.dim == n * n
        rep = verify_axioms(T)
        assert rep.ok, rep.summary()


def test_double_sweedler_axioms_and_rank():
    D, R = drinfeld_double(taft_algebra(2, 3))
    assert D.dim == 16
    rep = verify_axioms(D, R=R)
    assert rep.ok, rep.summary()
    assert factorizability_rank(R) == 16


def test_double_z2_integral_data():
    H = group_algebra(2, 3)
    D, R = drinfeld_double(H)
    lam, Lam, g, alpha, omega, scale = solve_integral_data(D, R)
    assert lam(Lam) == D.one
    assert scale == D.one
    assert drinfeld_map(R.flip() * R, lam) == Lam
    assert antipode_power(Lam, 1) == Lam
    assert alpha.values == D.counit
    assert omega == D.one
    assert g == D.unit_element()


def test_drinfeld_map_counit_gives_unit():
    D, R = drinfeld_double(group_algebra(2, 3))
    eps = D.counit_functional()
    assert drinfeld_map(R, eps) == D.unit_element()


def test_grouplikes_and_characters_group_algebra():
    A = group_algebra(3, 3)
    gls = grouplike_elements(A)
    assert len(gls) == 3
    chars = algebra_characters(A)
    assert len(chars) == 3
    for chi in chars:
        assert chi.apply_terms(A.unit) == A.one


def test_ribbon_criterion_for_doubles_of_cyclic_groups():
    for n in (2, 3):
        H = group_algebra(n, 3)
        # g and alpha of H: C[Z/n] is unimodular with trivial modulus data
        res = double_ribbon_criterion(H, H.unit_element(), H.counit_functional())
        assert res.has_ribbon


def test_taft_characters_kill_nilpotents():
    T = taft_algebra(2, 3)
    chars = algebra_characters(T)
    assert len(chars) == 2
    for chi in chars:
        # chi(E K^j) = 0
        assert chi.values[2].is_zero() and chi.values[3].is_zero()


def test_invert_element():
    A = group_algebra(5, 3)
    x = A.basis_element(2)
    assert invert_element(x) == A.basis_element(3)
    y = A.basis_element(0) + A.basis_element(1)  # 1 + g: invertible in C[Z/5]
    assert y * invert_element(y) == A.unit_element()
