"""The restricted quantum group u_q sl(2) at an odd root of unity.

Generators E, F, K with E^l = F^l = 0, K^l = 1, KE = q^2 EK, KF = q^-2 FK,
[E, F] = (K - K^-1)/(q - q^-1), on the PBW basis F^m E^n K^j (index
m*l^2 + n*l + j).  Multiplication is normal-ordering rewriting: the E-F
reordering generates the (K - K^-1)/(q - q^-1) correction recursively.
Coproducts of monomials are computed by multiplying generator coproducts in
H (x) H rather than by closed q-binomial formulas.

`build_uqsl2` assembles the full ribbon data: the R-matrix and ribbon element
as literal sums (with q^(1/2) := q^((l+1)/2)), the integral
lambda(F^m E^n K^j) = delta(m,l-1) delta(n,l-1) delta(j,1) and cointegral
F^(l-1) E^(l-1) sum_j K^j, normalized so that f_{R^t R}(lambda) = Lambda and
lambda(Lambda) = 1, and the derived elements u, theta^-1, G (= K).
"""

from __future__ import annotations

from functools import lru_cache

from hopfinv.hopf import (
    Element,
    Functional,
    HopfAlgebra,
    NotFactorizableError,
    RibbonHopfData,
    TensorElement,
    _acc,
    _prune,
    antipode_power,
    drinfeld_map_pairwise,
    normalize_integral_pair_via,
    ribbon_derived_data,
)
from hopfinv.scalars import Cyc, InvalidOrderError, q_half_power, q_power


def _check_l(l: int) -> None:
    if l < 3 or l % 2 == 0:
        raise InvalidOrderError(f"u_q sl(2) needs odd l >= 3, got {l}")


def pbw_index(l: int, m: int, n: int, j: int) -> int:
    """Index of F^m E^n K^j; bijective with (m, n, j) in [0, l)^3."""
    return (m * l + n) * l + j


def pbw_split(l: int, idx: int) -> tuple[int, int, int]:
    mn, j = divmod(idx, l)
    m, n = divmod(mn, l)
    return m, n, j


@lru_cache(maxsize=None)
def q_int(l: int, k: int) -> Cyc:
    """[k] = (q^k - q^-k)/(q - q^-1) = q^(k-1) + q^(k-3) + ... + q^(1-k)."""
    acc = Cyc.zero(l)
    for i in range(k):
        acc = acc + q_power(l, k - 1 - 2 * i)
    return acc


@lru_cache(maxsize=None)
def q_factorial(l: int, m: int) -> Cyc:
    """[m]! for 0 <= m < l; nonzero throughout this range since q is primitive."""
    _check_l(l)
    if not 0 <= m < l:
        raise ValueError(f"q-factorial defined for 0 <= m < {l}, got {m}")
    if m == 0:
        return Cyc.one(l)
    return q_factorial(l, m - 1) * q_int(l, m)


@lru_cache(maxsize=None)
def _nf_EF(l: int, b: int, d: int) -> tuple[tuple[tuple[int, int, int], Cyc], ...]:
    """E^b F^d in PBW normal order, as ((m, n, j), coeff) terms."""
    if b == 0:
        return (((d, 0, 0), Cyc.one(l)),)
    if d == 0:
        return (((0, b, 0), Cyc.one(l)),)
    if b == 1:
        # E F^d = F (E F^(d-1)) + F^(d-1) (q^(-2(d-1)) K - q^(2(d-1)) K^-1)/(q - q^-1)
        out: dict[tuple[int, int, int], Cyc] = {}
        for (m, n, j), c in _nf_EF(l, 1, d - 1):
            if m + 1 < l:
                _acc(out, (m + 1, n, j), c)
        denom = (q_power(l, 1) - q_power(l, -1)).inverse()
        _acc(out, (d - 1, 0, 1), q_power(l, -2 * (d - 1)) * denom)
        _acc(out, (d - 1, 0, l - 1), -(q_power(l, 2 * (d - 1)) * denom))
        return tuple(sorted(_prune(out).items()))
    # E^b F^d = E * (E^(b-1) F^d)
    out = {}
    for (m, n, j), c in _nf_EF(l, b - 1, d):
        # E * F^m E^n K^j = (E F^m) E^n K^j
        for (m2, n2, j2), c2 in _nf_EF(l, 1, m):
            if n2 + n >= l:
                continue
            coeff = c * c2 * q_power(l, 2 * j2 * n)
            _acc(out, (m2, n2 + n, (j2 + j) % l), coeff)
    return tuple(sorted(_prune(out).items()))


@lru_cache(maxsize=None)
def _mono_mul(l: int, i1: int, i2: int) -> tuple[tuple[int, Cyc], ...]:
    """(F^a E^b K^c)(F^d E^e K^f) in PBW order, as (index, coeff) terms."""
    a, b, c = pbw_split(l, i1)
    d, e, f = pbw_split(l, i2)
    # (F^a E^b K^c)(F^d E^e K^f) = q^(-2cd+2ce) F^a (E^b F^d) E^e K^(c+f)
    phase = q_power(l, -2 * c * d + 2 * c * e)
    out: dict[int, Cyc] = {}
    for (m, n, j), s in _nf_EF(l, b, d):
        if a + m >= l or n + e >= l:
            continue
        coeff = phase * s * q_power(l, 2 * j * e)
        _acc(out, pbw_index(l, a + m, n + e, (j + c + f) % l), coeff)
    return tuple(out.items())


def _mult_provider(l: int):
    def mult(i1: int, i2: int) -> dict[int, Cyc]:
        return dict(_mono_mul(l, i1, i2))

    return mult


@lru_cache(maxsize=None)
def _delta_F_pow(l: int, m: int) -> tuple[tuple[tuple[int, int], Cyc], ...]:
    """Delta(F)^m in H (x) H with Delta(F) = K^-1 (x) F + F (x) 1."""
    if m == 0:
        return (((pbw_index(l, 0, 0, 0), pbw_index(l, 0, 0, 0)), Cyc.one(l)),)
    prev = _delta_F_pow(l, m - 1)
    gen = [
        ((pbw_index(l, 0, 0, l - 1), pbw_index(l, 1, 0, 0)), Cyc.one(l)),
        ((pbw_index(l, 1, 0, 0), pbw_index(l, 0, 0, 0)), Cyc.one(l)),
    ]
    return _tensor_mul_raw(l, prev, tuple(gen))


@lru_cache(maxsize=None)
def _delta_E_pow(l: int, n: int) -> tuple[tuple[tuple[int, int], Cyc], ...]:
    """Delta(E)^n in H (x) H with Delta(E) = 1 (x) E + E (x) K."""
    if n == 0:
        return (((pbw_index(l, 0, 0, 0), pbw_index(l, 0, 0, 0)), Cyc.one(l)),)
    prev = _delta_E_pow(l, n - 1)
    gen = [
        ((pbw_index(l, 0, 0, 0), pbw_index(l, 0, 1, 0)), Cyc.one(l)),
        ((pbw_index(l, 0, 1, 0), pbw_index(l, 0, 0, 1)), Cyc.one(l)),
    ]
    return _tensor_mul_raw(l, prev, tuple(gen))


def _tensor_mul_raw(l, T1, T2):
    out: dict[tuple[int, int], Cyc] = {}
    for (x1, x2), c1 in T1:
        for (y1, y2), c2 in T2:
            c = c1 * c2
            for k1, ck1 in _mono_mul(l, x1, y1):
                cc = c * ck1
                for k2, ck2 in _mono_mul(l, x2, y2):
                    _acc(out, (k1, k2), cc * ck2)
    return tuple(_prune(out).items())


@lru_cache(maxsize=None)
def _delta_FE(l: int, m: int, n: int) -> tuple[tuple[tuple[int, int], Cyc], ...]:
    return _tensor_mul_raw(l, _delta_F_pow(l, m), _delta_E_pow(l, n))


def _coprod_provider(l: int):
    def coprod(idx: int) -> dict[tuple[int, int], Cyc]:
        m, n, j = pbw_split(l, idx)
        out: dict[tuple[int, int], Cyc] = {}
        for (x1, x2), c in _delta_FE(l, m, n):
            # append K^j (x) K^j: right-multiply both legs by K^j (no reordering)
            a1, b1, c1 = pbw_split(l, x1)
            a2, b2, c2 = pbw_split(l, x2)
            key = (pbw_index(l, a1, b1, (c1 + j) % l), pbw_index(l, a2, b2, (c2 + j) % l))
            _acc(out, key, c)
        return _prune(out)

    return coprod


def _antipode_provider(l: int, inverse: bool = False):
    # S(F^m E^n K^j) = S(K)^j S(E)^n S(F)^m; the three factors are monomials:
    #   S(E)^n = (-E K^-1)^n = (-1)^n q^(-n(n-1)) E^n K^-n
    #   S(F)^m = (-K F)^m   = (-1)^m q^(-m(m+1)) F^m K^m
    # S^-1 uses S^-1(E) = -K^-1 E, S^-1(F) = -F K:
    #   S^-1(E)^n = (-1)^n q^(-n(n+1)) E^n K^-n
    #   S^-1(F)^m = (-1)^m q^(-m(m-1)) F^m K^m
    def antipode(idx: int) -> dict[int, Cyc]:
        m, n, j = pbw_split(l, idx)
        sign = Cyc.one(l) if (m + n) % 2 == 0 else -Cyc.one(l)
        k_part = pbw_index(l, 0, 0, (-j) % l)
        if not inverse:
            e_part = (pbw_index(l, 0, n, (-n) % l), q_power(l, -n * (n - 1)))
            f_part = (pbw_index(l, m, 0, m % l), q_power(l, -m * (m + 1)))
        else:
            e_part = (pbw_index(l, 0, n, (-n) % l), q_power(l, -n * (n + 1)))
            f_part = (pbw_index(l, m, 0, m % l), q_power(l, -m * (m - 1)))
        out: dict[int, Cyc] = {}
        for k1, c1 in _mono_mul(l, k_part, e_part[0]):
            base = sign * e_part[1] * c1 * f_part[1]
            for k2, c2 in _mono_mul(l, k1, f_part[0]):
                _acc(out, k2, base * c2)
        return _prune(out)

    return antipode


def _labels(l: int) -> list[str]:
    out = []
    for m in range(l):
        for n in range(l):
            for j in range(l):
                parts = []
                if m:
                    parts.append("F" if m == 1 else f"F^{m}")
                if n:
                    parts.append("E" if n == 1 else f"E^{n}")
                if j:
                    parts.append("K" if j == 1 else f"K^{j}")
                out.append(" ".join(parts) or "1")
    return out


def uqsl2_structure(l: int) -> HopfAlgebra:
    """The bare Hopf structure on the PBW basis, with lazy structure tensors."""
    _check_l(l)
    dim = l**3
    one = Cyc.one(l)
    zero = Cyc.zero(l)
    counit = tuple(
        one if (m == 0 and n == 0) else zero
        for m in range(l)
        for n in range(l)
        for j in range(l)
    )
    return HopfAlgebra(
        l=l,
        dim=dim,
        labels=_labels(l),
        mult=_mult_provider(l),
        coproduct=_coprod_provider(l),
        antipode=_antipode_provider(l, inverse=False),
        unit={0: one},
        counit=counit,
        antipode_inv=_antipode_provider(l, inverse=True),
        name=f"u_q sl2 (l={l})",
    )


def r_matrix(A: HopfAlgebra) -> TensorElement:
    """R = (1/l) sum ((q-q^-1)^m/[m]!) q^(m(m-1)/2 + 2m(i-j) - 2ij) E^m K^i (x) F^m K^j."""
    l = A.l
    inv_l = Cyc.from_int(l, l).inverse()
    qm1 = q_power(l, 1) - q_power(l, -1)
    terms: dict[tuple[int, int], Cyc] = {}
    for m in range(l):
        cm = inv_l * (qm1**m) * q_factorial(l, m).inverse()
        for i in range(l):
            for j in range(l):
                e = (m * (m - 1)) // 2 + 2 * m * (i - j) - 2 * i * j
                terms[(pbw_index(A.l, 0, m, i), pbw_index(A.l, m, 0, j))] = cm * q_power(l, e)
    return TensorElement(A, 2, terms)


def ribbon_element(A: HopfAlgebra) -> Element:
    """theta = (1/l)(sum_s q^(s^2)) sum ((q^-1-q)^m/[m]!) q^(-m/2+mj+(j+1)^2/2) F^m E^m K^j.

    The literal sum is evaluated with q^(1/2) := q^((l+1)/2).  The Gauss
    prefactor is branch sensitive: with this branch the literal value comes
    out as -theta whenever (l-1)/2 is a quadratic nonresidue mod l, a global
    sign with no other effect.  It is fixed by dividing by epsilon(theta)
    (= +-1), after which all three ribbon axioms hold; `verify_axioms`
    rechecks them from scratch.
    """
    l = A.l
    gauss = Cyc.zero(l)
    for s in range(l):
        gauss = gauss + q_power(l, s * s)
    pref = Cyc.from_int(l, l).inverse() * gauss
    q1m = q_power(l, -1) - q_power(l, 1)
    terms: dict[int, Cyc] = {}
    for m in range(l):
        cm = pref * (q1m**m) * q_factorial(l, m).inverse()
        for j in range(l):
            c = cm * q_half_power(l, -m + (j + 1) ** 2) * q_power(l, m * j)
            terms[pbw_index(l, m, m, j)] = c
    theta = Element(A, _prune(terms))
    from hopfinv.hopf import counit_of

    eps = counit_of(theta)
    if eps != Cyc.one(l):
        theta = theta.scale(eps.inverse())
    return theta


def closed_form_integral(A: HopfAlgebra) -> Functional:
    """lambda0(F^m E^n K^j) = delta(m, l-1) delta(n, l-1) delta(j, 1)."""
    l = A.l
    vals = [A.zero] * A.dim
    vals[pbw_index(l, l - 1, l - 1, 1)] = A.one
    return Functional(A, tuple(vals))


def closed_form_cointegral(A: HopfAlgebra) -> Element:
    """Lambda0 = F^(l-1) E^(l-1) sum_j K^j."""
    l = A.l
    return Element(A, {pbw_index(l, l - 1, l - 1, j): A.one for j in range(l)})


def build_uqsl2(l: int) -> RibbonHopfData:
    """Fully populated ribbon data for u_q sl(2) at an odd l-th root of unity.

    The integral and cointegral are taken from their closed formulas, checked
    against the defining equations on every basis element, and then passed
    through the generic joint normalization.
    """
    A = uqsl2_structure(l)
    R = r_matrix(A)
    theta = ribbon_element(A)
    lam0 = closed_form_integral(A)
    Lam0 = closed_form_cointegral(A)
    _verify_integral_equations(A, lam0, Lam0)
    g = Element(A, {pbw_index(l, 0, 0, 2): A.one})
    alpha = A.counit_functional()
    _verify_comodulus(A, lam0, g)
    _verify_modulus(A, Lam0, alpha)
    lam, Lam, scale = normalize_integral_pair_via(A, R, lam0)
    u, theta_inv, G = ribbon_derived_data(A, R, theta)
    data = RibbonHopfData(
        structure=A,
        R=R,
        theta=theta,
        theta_inv=theta_inv,
        lam=lam,
        Lam=Lam,
        g=g,
        alpha=alpha,
        u=u,
        G=G,
        G_inv=antipode_power(G, 1),
        omega=alpha(g),
        norm_scale=scale,
    )
    if data.G_power(2) != g:
        raise NotFactorizableError("G^2 != g for the constructed ribbon data")
    return data


def _verify_integral_equations(A: HopfAlgebra, lam: Functional, Lam: Element) -> None:
    from hopfinv.hopf import StructureError

    unit = A.unit_element()
    for a in range(A.dim):
        out: dict[int, Cyc] = {}
        for (b, c), v in A.coprod_basis(a).items():
            w = lam.values[b]
            if not w.is_zero():
                _acc(out, c, v * w)
        expect = unit.scale(lam.values[a])
        if Element(A, _prune(out)) != expect:
            raise StructureError(f"(lambda x id)Delta failed on basis {A.labels[a]}")
    for a in range(A.dim):
        if A.basis_element(a) * Lam != Lam.scale(A.counit[a]):
            raise StructureError(f"h*Lambda = eps(h)Lambda failed on {A.labels[a]}")


def _verify_comodulus(A: HopfAlgebra, lam: Functional, g: Element) -> None:
    from hopfinv.hopf import StructureError

    for a in range(A.dim):
        out: dict[int, Cyc] = {}
        for (b, c), v in A.coprod_basis(a).items():
            w = lam.values[c]
            if not w.is_zero():
                _acc(out, b, v * w)
        if Element(A, _prune(out)) != g.scale(lam.values[a]):
            raise StructureError(f"comodulus equation failed on {A.labels[a]}")


def _verify_modulus(A: HopfAlgebra, Lam: Element, alpha: Functional) -> None:
    from hopfinv.hopf import StructureError

    for a in range(A.dim):
        if Lam * A.basis_element(a) != Lam.scale(alpha.values[a]):
            raise StructureError(f"modulus equation failed on {A.labels[a]}")
