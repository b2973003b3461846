"""Cross-cutting algebraic property tests at l = 3 (spec invariants)."""

import random

from hopfinv.hopf import (
    Functional,
    antipode_power,
    drinfeld_ladder_tensor,
    drinfeld_map,
    iterated_coproduct,
)
from hopfinv.scalars import Cyc

import tests.shared as shared


def rand_functional(A, rng):
    return Functional(A, tuple(Cyc.from_int(A.l, rng.randrange(-4, 5)) for _ in range(A.dim)))


def rand_element(A, rng, nterms=3):
    out = A.zero_element()
    for _ in range(nterms):
        out = out + A.basis_element(rng.randrange(A.dim)).scale(
            Cyc.from_int(A.l, rng.randrange(-3, 4))
        )
    return out


def dual_coproduct(A, p):
    """Delta(p)[a, b] = p(e_a e_b), the coproduct of H^* as a dense matrix."""
    rows = []
    for a in range(A.dim):
        row = []
        for b in range(A.dim):
            acc = A.zero
            for k, c in A.mult_basis(a, b).items():
                v = p.values[k]
                if not v.is_zero():
                    acc = acc + c * v
            row.append(acc)
        rows.append(row)
    return rows


def test_drinfeld_map_coalgebra_homomorphisms():
    """Delta f_R(p) = f_R(p_(2)) x f_R(p_(1)); Delta f_Rt(p) = f_Rt(p_(1)) x f_Rt(p_(2))."""
    H = shared.data3()
    A = H.structure
    R, Rt = H.R, H.R.flip()
    rng = random.Random(5)
    for _ in range(4):
        p = rand_functional(A, rng)
        dp = dual_coproduct(A, p)
        for Q, swap in ((R, True), (Rt, False)):
            img = {a: drinfeld_map(Q, A.dual_basis(a)) for a in range(A.dim)}
            rhs = {}
            for a in range(A.dim):
                for b in range(A.dim):
                    c = dp[a][b]
                    if c.is_zero():
                        continue
                    first, second = (img[b], img[a]) if swap else (img[a], img[b])
                    for i, ci in first.terms.items():
                        for j, cj in second.terms.items():
                            key = (i, j)
                            cur = rhs.get(key, A.zero) + c * ci * cj
                            if cur.is_zero():
                                rhs.pop(key, None)
                            else:
                                rhs[key] = cur
            lhs = iterated_coproduct(drinfeld_map(Q, p), 2)
            assert lhs.terms == rhs


def test_drinfeld_map_algebra_homomorphism():
    """f_R(p * p') = f_R(p) f_R(p') with * the convolution product on H^*."""
    H = shared.data3()
    A = H.structure
    rng = random.Random(6)
    for _ in range(5):
        p, p2 = rand_functional(A, rng), rand_functional(A, rng)
        lhs = drinfeld_map(H.R, p.convolve(p2))
        rhs = drinfeld_map(H.R, p) * drinfeld_map(H.R, p2)
        assert lhs == rhs


def test_integral_exchange_identities_all_pairs():
    """lambda(xy) = lambda(S^2(y) x) on all basis pairs; lambda(gx) = lambda(Sx)."""
    H = shared.data3()
    A = H.structure
    lam = H.lam
    for a in range(A.dim):
        xa = A.basis_element(a)
        assert lam(H.g * xa) == lam(antipode_power(xa, 1))
        for b in range(A.dim):
            xb = A.basis_element(b)
            assert lam(xa * xb) == lam(antipode_power(xb, 2) * xa)


def test_trace_cyclic_and_antipode_invariant():
    """tr(x) = lambda(x G) is cyclic and S-invariant: kr_evaluate's cut
    rotation and traversal reversal rest on these two properties."""
    H = shared.data3()
    A = H.structure
    rng = random.Random(7)
    G = H.G_power(1)
    # tr(1 G) = lambda(G^2) = lambda(K^2) = 0
    assert H.lam(A.unit_element() * H.G_power(2)) == H.lam(H.g_power(1))
    assert H.lam(A.unit_element() * H.G_power(2)).is_zero()
    for _ in range(6):
        x, y = rand_element(A, rng), rand_element(A, rng)
        assert H.lam(x * y * G) == H.lam(y * x * G)
        assert H.lam(antipode_power(x, 1) * G) == H.lam(x * G)


def test_cointegral_legs_factorization():
    """Lambda_(k) = f_Rt(lam_(k)) f_R(lam_(2n-k)), as the ladder contraction
    of lambda, for n in {2, 3} (up to the recorded normalization scale)."""
    H = shared.data3()
    A = H.structure
    for n in (2, 3):
        ladder = drinfeld_ladder_tensor(A, H.R, n)
        rhs = ladder.contract_functional(0, H.lam)
        lhs = iterated_coproduct(H.Lam, n).scale(H.norm_scale)
        assert rhs == lhs


def test_half_turn_convention_squared():
    from hopfinv.scalars import q_half_power, q_power

    for l in (3, 5, 7):
        assert q_half_power(l, 1) * q_half_power(l, 1) == q_power(l, 1)
