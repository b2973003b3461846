"""Finite-dimensional Hopf algebra engine over Q(zeta_l).

A `HopfAlgebra` carries structure tensors (multiplication, coproduct,
antipode, unit, counit) on an indexed basis; elements, functionals and sparse
tensor powers live on top of it.  Everything is exact: coefficients are
`Cyc` scalars and all identities are checked by canonical-form equality.

The module also provides the integral/cointegral solver with the
factorizable normalization f_{R^t R}(lambda) = Lambda, lambda(Lambda) = 1,
Drinfeld maps, derived ribbon data (u, G), and the axiom verifier used as a
gate by every algebra constructor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from hopfinv.scalars import Cyc, NotASquareError, sqrt_in_field


class AlgebraMismatchError(ValueError):
    """Raised when combining elements of different algebras."""


class StructureError(ArithmeticError):
    """Raised when a structural assumption fails (e.g. integral space not 1-dim)."""


class NotFactorizableError(StructureError):
    """Raised when the joint integral normalization does not exist."""


class RibbonDataError(StructureError):
    """Raised when derived ribbon data fails one of its defining validations."""


TermDict = dict[int, Cyc]
PairDict = dict[tuple[int, int], Cyc]


def _acc(d: dict, k, c: Cyc) -> None:
    prev = d.get(k)
    if prev is None:
        d[k] = c
    else:
        s = prev + c
        if s.is_zero():
            del d[k]
        else:
            d[k] = s


def _prune(d: dict) -> dict:
    dead = [k for k, c in d.items() if c.is_zero()]
    for k in dead:
        del d[k]
    return d


class HopfAlgebra:
    """A finite-dimensional Hopf algebra given by structure tensors.

    `mult`, `coproduct`, `antipode` (and optionally `antipode_inv`) may be
    plain dicts keyed by basis index, or callables computing the entry on
    demand; results are memoized either way.
    """

    def __init__(
        self,
        l: int,
        dim: int,
        labels: list[str],
        mult: Mapping | Callable[[int, int], TermDict],
        coproduct: Mapping | Callable[[int], PairDict],
        antipode: Mapping | Callable[[int], TermDict],
        unit: TermDict,
        counit: tuple[Cyc, ...],
        antipode_inv: Mapping | Callable[[int], TermDict] | None = None,
        name: str = "H",
    ):
        if len(labels) != dim or len(counit) != dim:
            raise ValueError("labels/counit length must equal dim")
        self.l = l
        self.dim = dim
        self.labels = list(labels)
        self.name = name
        self.unit = dict(unit)
        self.counit = tuple(counit)
        self.zero = Cyc.zero(l)
        self.one = Cyc.one(l)
        self._mult_src = mult
        self._coprod_src = coproduct
        self._antipode_src = antipode
        self._antipode_inv_src = antipode_inv
        self._mult_cache: dict[tuple[int, int], TermDict] = {}
        self._coprod_cache: dict[int, PairDict] = {}
        self._antipode_cache: dict[int, TermDict] = {}
        self._antipode_inv_cache: dict[int, TermDict] = {}
        self._antipode_inv_matrix: list[TermDict] | None = None

    # -- structure tensor access ------------------------------------------

    def mult_basis(self, i: int, j: int) -> TermDict:
        key = (i, j)
        hit = self._mult_cache.get(key)
        if hit is None:
            src = self._mult_src
            hit = src(i, j) if callable(src) else src.get(key, {})
            self._mult_cache[key] = hit
        return hit

    def coprod_basis(self, i: int) -> PairDict:
        hit = self._coprod_cache.get(i)
        if hit is None:
            src = self._coprod_src
            hit = src(i) if callable(src) else src.get(i, {})
            self._coprod_cache[i] = hit
        return hit

    def antipode_basis(self, i: int) -> TermDict:
        hit = self._antipode_cache.get(i)
        if hit is None:
            src = self._antipode_src
            hit = src(i) if callable(src) else src.get(i, {})
            self._antipode_cache[i] = hit
        return hit

    def antipode_inv_basis(self, i: int) -> TermDict:
        hit = self._antipode_inv_cache.get(i)
        if hit is None:
            src = self._antipode_inv_src
            if src is not None:
                hit = src(i) if callable(src) else src.get(i, {})
            else:
                if self._antipode_inv_matrix is None:
                    self._antipode_inv_matrix = self._invert_antipode()
                hit = self._antipode_inv_matrix[i]
            self._antipode_inv_cache[i] = hit
        return hit

    def _invert_antipode(self) -> list[TermDict]:
        cols = [self.antipode_basis(i) for i in range(self.dim)]
        inv = invert_sparse_matrix(cols, self.dim)
        if inv is None:
            raise StructureError("antipode matrix is singular")
        return inv

    # -- element constructors ------------------------------------------------

    def element(self, terms: Mapping[int, Cyc]) -> "Element":
        return Element(self, _prune(dict(terms)))

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range [0, {self.dim})")
        return Element(self, {i: self.one})

    def unit_element(self) -> "Element":
        return Element(self, dict(self.unit))

    def zero_element(self) -> "Element":
        return Element(self, {})

    def functional(self, values: Iterable[Cyc]) -> "Functional":
        return Functional(self, tuple(values))

    def dual_basis(self, i: int) -> "Functional":
        vals = [self.zero] * self.dim
        vals[i] = self.one
        return Functional(self, tuple(vals))

    def counit_functional(self) -> "Functional":
        return Functional(self, self.counit)

    def tensor(self, arity: int, terms: Mapping[tuple, Cyc]) -> "TensorElement":
        return TensorElement(self, arity, _prune(dict(terms)))

    def __repr__(self) -> str:
        return f"HopfAlgebra({self.name}, dim={self.dim}, l={self.l})"


@dataclass
class Element:
    """Sparse element of H: a dict basis-index -> scalar with no stored zeros."""

    algebra: HopfAlgebra
    terms: TermDict

    def _chk(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._chk(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return Element(self.algebra, out)

    def __sub__(self, other: "Element") -> "Element":
        self._chk(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, -c)
        return Element(self.algebra, out)

    def __neg__(self) -> "Element":
        return Element(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, c: Cyc) -> "Element":
        if c.is_zero():
            return Element(self.algebra, {})
        return Element(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "Element") -> "Element":
        self._chk(other)
        A = self.algebra
        out: TermDict = {}
        for i, ci in self.terms.items():
            for j, cj in other.terms.items():
                c = ci * cj
                for k, ck in A.mult_basis(i, j).items():
                    _acc(out, k, c * ck)
        return Element(A, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def coeff(self, i: int) -> Cyc:
        return self.terms.get(i, self.algebra.zero)

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for i in sorted(self.terms):
            c = self.terms[i]
            lbl = self.algebra.labels[i]
            bits.append(f"({c.pretty()})*{lbl}" if lbl != "1" else f"({c.pretty()})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"Element<{self.pretty()}>"


@dataclass
class Functional:
    """Element of H^*: the dense row vector h |-> f(h)."""

    algebra: HopfAlgebra
    values: tuple[Cyc, ...]

    def __post_init__(self):
        if len(self.values) != self.algebra.dim:
            raise ValueError("functional length must equal dim")

    def __call__(self, x: Element) -> Cyc:
        if x.algebra is not self.algebra:
            raise AlgebraMismatchError("functional applied to foreign element")
        acc = self.algebra.zero
        vals = self.values
        for i, c in x.terms.items():
            acc = acc + c * vals[i]
        return acc

    def apply_terms(self, terms: TermDict) -> Cyc:
        acc = self.algebra.zero
        vals = self.values
        for i, c in terms.items():
            acc = acc + c * vals[i]
        return acc

    def scale(self, c: Cyc) -> "Functional":
        return Functional(self.algebra, tuple(v * c for v in self.values))

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.algebra, tuple(a + b for a, b in zip(self.values, other.values)))

    def convolve(self, other: "Functional") -> "Functional":
        """Convolution product (f*g)(x) = f(x_(1)) g(x_(2)) in H^*."""
        A = self.algebra
        vals = []
        for i in range(A.dim):
            acc = A.zero
            for (a, b), c in A.coprod_basis(i).items():
                acc = acc + c * (self.values[a] * other.values[b])
            vals.append(acc)
        return Functional(A, tuple(vals))

    def convolve_power(self, n: int) -> "Functional":
        """n-th convolution power; negative n uses the inverse f o S."""
        A = self.algebra
        if n < 0:
            return self.compose_antipode().convolve_power(-n)
        out = A.counit_functional()
        for _ in range(n):
            out = out.convolve(self)
        return out

    def compose_antipode(self) -> "Functional":
        A = self.algebra
        vals = []
        for i in range(A.dim):
            acc = A.zero
            for j, c in A.antipode_basis(i).items():
                acc = acc + c * self.values[j]
            vals.append(acc)
        return Functional(A, tuple(vals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return self.algebra is other.algebra and self.values == other.values


@dataclass
class TensorElement:
    """Sparse element of H^(tensor n): dict of index tuples -> scalar."""

    algebra: HopfAlgebra
    arity: int
    terms: dict[tuple, Cyc]

    def _chk(self, other: "TensorElement") -> None:
        if self.algebra is not other.algebra or self.arity != other.arity:
            raise AlgebraMismatchError("tensor shapes/algebras differ")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._chk(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return TensorElement(self.algebra, self.arity, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._chk(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, -c)
        return TensorElement(self.algebra, self.arity, out)

    def scale(self, c: Cyc) -> "TensorElement":
        if c.is_zero():
            return TensorElement(self.algebra, self.arity, {})
        return TensorElement(self.algebra, self.arity, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise (legwise) algebra product in H^(tensor n)."""
        self._chk(other)
        A = self.algebra
        n = self.arity
        out: dict[tuple, Cyc] = {}
        mult = A.mult_basis
        if n == 2:
            # hot path: avoids per-pair list bookkeeping
            for (x0, x1), cx in self.terms.items():
                for (y0, y1), cy in other.terms.items():
                    t0 = mult(x0, y0)
                    if not t0:
                        continue
                    t1 = mult(x1, y1)
                    if not t1:
                        continue
                    c = cx * cy
                    for b0, c0 in t0.items():
                        cc = c * c0
                        for b1, c1 in t1.items():
                            key = (b0, b1)
                            prev = out.get(key)
                            if prev is None:
                                out[key] = cc * c1
                            else:
                                s = prev + cc * c1
                                if s.is_zero():
                                    del out[key]
                                else:
                                    out[key] = s
            return TensorElement(A, 2, out)
        for kx, cx in self.terms.items():
            for ky, cy in other.terms.items():
                partial: list[tuple[tuple, Cyc]] = [((), cx * cy)]
                for t in range(n):
                    table = mult(kx[t], ky[t])
                    if not table:
                        partial = []
                        break
                    nxt = []
                    for prefix, c in partial:
                        for b, cb in table.items():
                            nxt.append((prefix + (b,), c * cb))
                    partial = nxt
                for key, c in partial:
                    _acc(out, key, c)
        return TensorElement(A, n, out)

    def flip(self) -> "TensorElement":
        """Reverse the order of legs; for arity 2 this is R -> R^tau."""
        return TensorElement(
            self.algebra, self.arity, {tuple(reversed(k)): c for k, c in self.terms.items()}
        )

    def apply_map_leg(self, leg: int, basis_map: Callable[[int], TermDict]) -> "TensorElement":
        out: dict[tuple, Cyc] = {}
        for k, c in self.terms.items():
            for b, cb in basis_map(k[leg]).items():
                _acc(out, k[:leg] + (b,) + k[leg + 1 :], c * cb)
        return TensorElement(self.algebra, self.arity, out)

    def insert_unit_legs(self, arity: int, legs: tuple[int, ...]) -> "TensorElement":
        """Embed into H^(tensor arity) placing leg t at position legs[t], unit elsewhere."""
        A = self.algebra
        unit_items = list(A.unit.items())
        other_pos = [p for p in range(arity) if p not in legs]
        out: dict[tuple, Cyc] = {}
        for k, c in self.terms.items():
            stack: list[tuple[dict, Cyc]] = [({legs[t]: k[t] for t in range(self.arity)}, c)]
            for p in other_pos:
                nxt = []
                for pos_map, cc in stack:
                    for u, cu in unit_items:
                        m2 = dict(pos_map)
                        m2[p] = u
                        nxt.append((m2, cc * cu))
                stack = nxt
            for pos_map, cc in stack:
                _acc(out, tuple(pos_map[p] for p in range(arity)), cc)
        return TensorElement(A, arity, out)

    def contract_functional(self, leg: int, f: Functional) -> "TensorElement | Element | Cyc":
        """Apply f to one leg, returning a tensor of arity-1 (or Element / scalar)."""
        A = self.algebra
        vals = f.values
        if self.arity == 1:
            acc = A.zero
            for (i,), c in self.terms.items():
                acc = acc + c * vals[i]
            return acc
        out: dict[tuple, Cyc] = {}
        for k, c in self.terms.items():
            w = vals[k[leg]]
            if w.is_zero():
                continue
            _acc(out, k[:leg] + k[leg + 1 :], c * w)
        if self.arity == 2:
            return Element(A, {k[0]: c for k, c in out.items()})
        return TensorElement(A, self.arity - 1, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def nnz(self) -> int:
        return len(self.terms)


def tensor_of(x: Element, y: Element) -> TensorElement:
    if x.algebra is not y.algebra:
        raise AlgebraMismatchError("tensor factors in different algebras")
    out = {}
    for i, ci in x.terms.items():
        for j, cj in y.terms.items():
            out[(i, j)] = ci * cj
    return TensorElement(x.algebra, 2, out)


# -- core operations ---------------------------------------------------------


def iterated_coproduct(x: Element, n: int) -> TensorElement:
    """Delta^(n-1)(x) as a sparse arity-n tensor; Delta^(0) is the identity."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    A = x.algebra
    terms: dict[tuple, Cyc] = {(i,): c for i, c in x.terms.items()}
    for _ in range(n - 1):
        nxt: dict[tuple, Cyc] = {}
        for k, c in terms.items():
            for (a, b), cc in A.coprod_basis(k[-1]).items():
                _acc(nxt, k[:-1] + (a, b), c * cc)
        terms = nxt
    return TensorElement(A, n, terms)


def antipode_power(x: Element, k: int) -> Element:
    """S^k(x) for any integer k; S^0 is the identity."""
    A = x.algebra
    basis_map = A.antipode_basis if k >= 0 else A.antipode_inv_basis
    terms = x.terms
    for _ in range(abs(k)):
        nxt: TermDict = {}
        for i, c in terms.items():
            for j, cj in basis_map(i).items():
                _acc(nxt, j, c * cj)
        terms = nxt
    return Element(A, dict(terms))


def counit_of(x: Element) -> Cyc:
    A = x.algebra
    acc = A.zero
    for i, c in x.terms.items():
        acc = acc + c * A.counit[i]
    return acc


def drinfeld_map(Q: TensorElement, p: Functional) -> Element:
    """f_Q(p) = sum p(Q^(1)) Q^(2), contracting p against the first leg."""
    if Q.arity != 2:
        raise ValueError("Drinfeld map needs an arity-2 tensor")
    out = Q.contract_functional(0, p)
    assert isinstance(out, Element)
    return out


def factorizability_rank(R: TensorElement) -> int:
    """Rank over Q(zeta_l) of p |-> f_{R^tau R}(p); H is factorizable iff rank = dim."""
    A = R.algebra
    RtR = R.flip() * R
    rows: dict[int, TermDict] = {}
    for (a, b), c in RtR.terms.items():
        row = rows.setdefault(a, {})
        _acc(row, b, c)
    return sparse_rank(list(rows.values()))


# -- exact sparse linear algebra ----------------------------------------------


def _rref(rows: list[TermDict]) -> dict[int, TermDict]:
    """Reduced row echelon form; returns {pivot column: normalized row}."""
    pivots: dict[int, TermDict] = {}
    for row in rows:
        row = dict(row)
        while row:
            hit = None
            for col in row:
                if col in pivots:
                    hit = col
                    break
            if hit is None:
                break
            c = row.pop(hit)
            for col2, v in pivots[hit].items():
                if col2 != hit:
                    _acc(row, col2, -(c * v))
        if row:
            piv = min(row)
            inv = row[piv].inverse()
            norm = {c: v * inv for c, v in row.items()}
            for other_piv, other in list(pivots.items()):
                w = other.get(piv)
                if w is not None:
                    for col2, v in norm.items():
                        _acc(other, col2, -(w * v))
            pivots[piv] = norm
    return pivots


def sparse_rank(rows: list[TermDict]) -> int:
    return len(_rref(rows))


def sparse_nullspace(rows: list[TermDict], ncols: int, l: int) -> list[TermDict]:
    """Basis of the solution space of (rows) . x = 0, over columns 0..ncols-1."""
    pivots = _rref(rows)
    one = Cyc.one(l)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec: TermDict = {f: one}
        for piv, row in pivots.items():
            w = row.get(f)
            if w is not None:
                vec[piv] = -w
        basis.append(_prune(vec))
    return basis


def solve_sparse(rows: list[TermDict], rhs: list[Cyc], ncols: int) -> TermDict | None:
    """One solution of (rows) . x = rhs, or None if inconsistent.

    Column `ncols` is used internally for the right-hand side.
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if not b.is_zero():
            r[ncols] = -b
        aug.append(r)
    pivots = _rref(aug)
    if ncols in pivots:
        return None
    sol: TermDict = {}
    for piv, row in pivots.items():
        b = row.get(ncols)
        if b is not None:
            sol[piv] = -b
    return sol


def invert_sparse_matrix(cols: list[TermDict], dim: int) -> list[TermDict] | None:
    """Inverse of the matrix with the given columns; None when singular.

    Returned the same way: out[j] = column j of the inverse (the preimage of
    the j-th basis vector).
    """
    one = None
    for col in cols:
        for c in col.values():
            one = Cyc.one(c.l)
            break
        if one is not None:
            break
    if one is None:
        return None
    # Solve M x = e_j for all j at once via RREF of the augmented rows [M | I].
    rows: list[TermDict] = [{} for _ in range(dim)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows[i][j] = c
    aug = []
    for i in range(dim):
        r = dict(rows[i])
        r[dim + i] = one
        aug.append(r)
    pivots = _rref(aug)
    if sorted(p for p in pivots if p < dim) != list(range(dim)):
        return None
    # Rows encode M x + y = 0, i.e. x = -M^-1 y; the pivot row for x_piv is
    # x_piv + sum_j row[dim+j] y_j = 0, hence (M^-1)[piv][j] = +row[dim+j].
    out: list[TermDict] = [{} for _ in range(dim)]
    for piv, row in pivots.items():
        if piv >= dim:
            continue
        for col, v in row.items():
            if col >= dim and not v.is_zero():
                out[col - dim][piv] = v
    return out


# -- integral data -------------------------------------------------------------


@dataclass
class RibbonHopfData:
    """A Hopf algebra together with its quasitriangular/ribbon/integral data.

    Invariants established at construction: f_{R^t R}(lam) = Lam,
    lam(Lam) = 1, and the derived-data identities checked by
    `ribbon_derived_data`.
    """

    structure: HopfAlgebra
    R: TensorElement
    theta: Element
    theta_inv: Element
    lam: Functional
    Lam: Element
    g: Element
    alpha: Functional
    u: Element
    G: Element
    G_inv: Element
    omega: Cyc
    norm_scale: Cyc = None  # f_{R^t R}(lam) = norm_scale * Lam; 1 unless formal sqrt
    _g_pows: dict = field(default_factory=dict, repr=False)
    _G_pows: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.norm_scale is None:
            self.norm_scale = Cyc.one(self.structure.l)

    @property
    def algebra(self) -> HopfAlgebra:
        return self.structure

    def g_power(self, n: int) -> Element:
        hit = self._g_pows.get(n)
        if hit is None:
            hit = _group_power(self.g, _grouplike_inverse(self.g), n, self.structure)
            self._g_pows[n] = hit
        return hit

    def G_power(self, n: int) -> Element:
        hit = self._G_pows.get(n)
        if hit is None:
            hit = _group_power(self.G, self.G_inv, n, self.structure)
            self._G_pows[n] = hit
        return hit

    def lam_theta(self) -> Cyc:
        return self.lam(self.theta)

    def lam_theta_inv(self) -> Cyc:
        return self.lam(self.theta_inv)


def _group_power(g: Element, g_inv: Element, n: int, A: HopfAlgebra) -> Element:
    out = A.unit_element()
    base = g if n >= 0 else g_inv
    for _ in range(abs(n)):
        out = out * base
    return out


def _grouplike_inverse(g: Element) -> Element:
    return antipode_power(g, 1)


def solve_integral_data(
    structure: HopfAlgebra, R: TensorElement
) -> tuple[Functional, Element, Element, Functional, Cyc, Cyc]:
    """Right integral, cointegral, comodulus, modulus, omega, and norm scale.

    lambda and Lambda are 1-dimensional nullspaces of their defining
    equations, jointly rescaled so that lambda(Lambda) = 1 and
    f_{R^t R}(lambda) = scale * Lambda; scale is 1 whenever the normalization
    square root exists in the field (see `normalize_integral_pair_via`).
    """
    lam0 = _solve_right_integral(structure)
    Lam0 = _solve_left_cointegral(structure)
    g = _extract_comodulus(structure, lam0)
    alpha = _extract_modulus(structure, Lam0)
    lam, Lam, scale = normalize_integral_pair_via(structure, R, lam0)
    if not _proportional_elements(Lam, Lam0):
        raise NotFactorizableError(
            "f_{R^t R}(lambda) is not proportional to the cointegral; H is not factorizable"
        )
    omega = alpha(g)
    return lam, Lam, g, alpha, omega, scale


def unnormalized_integral_data(
    structure: HopfAlgebra,
) -> tuple[Functional, Element, Element, Functional]:
    """(lambda0, Lambda0, g, alpha) without any R-dependent normalization.

    Used where only the modulus data matters (e.g. the double's ribbon
    criterion); g and alpha do not depend on the integral scaling.
    """
    lam0 = _solve_right_integral(structure)
    Lam0 = _solve_left_cointegral(structure)
    g = _extract_comodulus(structure, lam0)
    alpha = _extract_modulus(structure, Lam0)
    return lam0, Lam0, g, alpha


def _solve_right_integral(structure: HopfAlgebra) -> Functional:
    A = structure
    # (lambda (x) id) Delta(h) = lambda(h) * 1 for all basis h: one equation
    # per (h = e_a, output component c), unknowns lambda_b.
    rows: dict[tuple, TermDict] = {}
    for a in range(A.dim):
        for (b, c), v in A.coprod_basis(a).items():
            _acc(rows.setdefault((a, c), {}), b, v)
        for c, uc in A.unit.items():
            _acc(rows.setdefault((a, c), {}), a, -uc)
    null = sparse_nullspace(list(rows.values()), A.dim, A.l)
    null = [v for v in null if v]
    if len(null) != 1:
        raise StructureError(f"right-integral space has dimension {len(null)}, expected 1")
    vec = null[0]
    vals = [vec.get(i, A.zero) for i in range(A.dim)]
    return Functional(A, tuple(vals))


def _solve_left_cointegral(structure: HopfAlgebra) -> Element:
    A = structure
    rows: dict[tuple, TermDict] = {}
    for a in range(A.dim):
        eps_a = A.counit[a]
        for b in range(A.dim):
            for c, v in A.mult_basis(a, b).items():
                _acc(rows.setdefault((a, c), {}), b, v)
        if not eps_a.is_zero():
            for c in range(A.dim):
                _acc(rows.setdefault((a, c), {}), c, -eps_a)
    null = sparse_nullspace(list(rows.values()), A.dim, A.l)
    null = [v for v in null if v]
    if len(null) != 1:
        raise StructureError(f"left-cointegral space has dimension {len(null)}, expected 1")
    return Element(A, null[0])


def _extract_comodulus(structure: HopfAlgebra, lam: Functional) -> Element:
    A = structure
    g: Element | None = None
    pivot = None
    for a in range(A.dim):
        if not lam.values[a].is_zero():
            pivot = a
            break
    if pivot is None:
        raise StructureError("integral is zero")
    img = _id_tensor_lam(A, pivot, lam)
    g = img.scale(lam.values[pivot].inverse())
    for a in range(A.dim):
        expect = g.scale(lam.values[a])
        if _id_tensor_lam(A, a, lam) != expect:
            raise StructureError("comodulus equation fails")
    return g


def _id_tensor_lam(A: HopfAlgebra, a: int, lam: Functional) -> Element:
    out: TermDict = {}
    for (b, c), v in A.coprod_basis(a).items():
        w = lam.values[c]
        if not w.is_zero():
            _acc(out, b, v * w)
    return Element(A, out)


def _extract_modulus(structure: HopfAlgebra, Lam: Element) -> Functional:
    A = structure
    pivot = next(iter(sorted(Lam.terms)))
    pivot_inv = Lam.terms[pivot].inverse()
    vals = []
    for a in range(A.dim):
        prod = Lam * A.basis_element(a)
        alpha_a = prod.coeff(pivot) * pivot_inv
        if prod != Lam.scale(alpha_a):
            raise StructureError("modulus equation fails: Lambda*h not proportional to Lambda")
        vals.append(alpha_a)
    return Functional(A, tuple(vals))


def drinfeld_map_pairwise(
    A: HopfAlgebra, R1: TensorElement, R2: TensorElement, p: Functional
) -> Element:
    """f_{R1 R2}(p) computed pairwise, without materializing the product R1 R2.

    Equals sum over term pairs of p(R1^(1) R2^(1)) R1^(2) R2^(2); the functional
    is applied to the first-leg product immediately, which keeps the cost at
    nnz(R1) * nnz(R2) scalar operations for sparse functionals like integrals.
    """
    out: TermDict = {}
    vals = p.values
    zero = A.zero
    for (a1, b1), c1 in R1.terms.items():
        for (a2, b2), c2 in R2.terms.items():
            w = zero
            for k, ck in A.mult_basis(a1, a2).items():
                v = vals[k]
                if not v.is_zero():
                    w = w + ck * v
            if w.is_zero():
                continue
            c = c1 * c2 * w
            for k2, ck2 in A.mult_basis(b1, b2).items():
                _acc(out, k2, c * ck2)
    return Element(A, _prune(out))


def normalize_integral_pair_via(
    structure: HopfAlgebra, R: TensorElement, lam0: Functional
) -> tuple[Functional, Element, Cyc]:
    """Joint normalization of the integral pair; returns (lambda, Lambda, scale).

    With c = lambda0(f_{R^t R}(lambda0)) != 0 (nonzero exactly when H is
    factorizable-compatible) the fully normalized integral is lambda* = lambda0/s
    with s^2 = c.  When c is a square in Q(zeta_l), the returned pair is fully
    normalized and scale = 1.  Otherwise s is a formal square root: the
    returned pair satisfies lambda(Lambda) = 1 and f_{R^t R}(lambda) =
    scale * Lambda, and the formally normalized pair is (lambda s/scale,
    Lambda s).  Everything that consumes lambda and Lambda jointly is
    insensitive to the formal factor; the surgery normalization accounts for
    it through `scale`.

    For u_q sl(2) the constant is c = l, a square in Q(zeta_l) exactly when
    l = 1 (mod 4) (the Gauss sum squares to +l there, to -l otherwise).
    """
    img = drinfeld_map_pairwise(structure, R.flip(), R, lam0)
    c = lam0(img)
    if c.is_zero():
        raise NotFactorizableError("lambda(f_{R^t R}(lambda)) = 0: no joint normalization")
    one = Cyc.one(structure.l)
    try:
        s_inv = sqrt_in_field(c).inverse()
        lam = lam0.scale(s_inv)
        Lam = img.scale(s_inv)
        scale = one
    except NotASquareError:
        lam = lam0
        Lam = img.scale(c.inverse())
        scale = c
    if lam(Lam) != one:
        raise StructureError("normalization failed: lambda(Lambda) != 1")
    return lam, Lam, scale


def _proportional_elements(x: Element, y: Element) -> bool:
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    if set(x.terms) != set(y.terms):
        return False
    k = next(iter(x.terms))
    ratio = x.terms[k] * y.terms[k].inverse()
    return all(cx == cy * ratio for (cx, cy) in ((x.terms[i], y.terms[i]) for i in x.terms))


def ribbon_derived_data(
    structure: HopfAlgebra, R: TensorElement, theta: Element
) -> tuple[Element, Element, Element]:
    """Compute u = sum S(t_k) s_k, theta^(-1), and G = u theta^(-1).

    Validates S^2 = Ad(u) = Ad(G) on every basis element, grouplikeness of G,
    and (when integral data is attached later) G^2 = g.
    """
    A = structure
    u_terms: TermDict = {}
    for (i, j), c in R.terms.items():
        for a, ca in A.antipode_basis(j).items():
            for k, ck in A.mult_basis(a, i).items():
                _acc(u_terms, k, c * ca * ck)
    u = Element(A, u_terms)
    theta_inv = invert_element(theta)
    G = u * theta_inv
    G_inv = invert_element(G)
    for b in range(A.dim):
        x = A.basis_element(b)
        s2 = antipode_power(x, 2)
        if s2 != G * x * G_inv:
            raise RibbonDataError(f"S^2 != Ad(G) on basis element {A.labels[b]}")
    if iterated_coproduct(G, 2) != tensor_of(G, G):
        raise RibbonDataError("G is not grouplike")
    # S^2 = Ad(u) on every basis element: given S^2 = Ad(G) above, this is
    # equivalent to G^-1 u = theta being central, which `verify_axioms`
    # establishes independently; a direct spot check guards the composition.
    if G_inv * u != theta:
        raise RibbonDataError("u != G theta")
    u_inv = invert_element(u)
    for b in (0, A.dim // 2, A.dim - 1):
        x = A.basis_element(b)
        if antipode_power(x, 2) != u * x * u_inv:
            raise RibbonDataError(f"S^2 != Ad(u) on basis element {A.labels[b]}")
    return u, theta_inv, G


def invert_element(x: Element) -> Element:
    """Inverse of x in H, solved within the smallest mult-closed subspace
    containing x and the unit."""
    A = x.algebra
    span: set[int] = set(A.unit) | set(x.terms)
    frontier = list(span)
    while frontier:
        nxt = []
        for b in frontier:
            for i in x.terms:
                for k in A.mult_basis(i, b):
                    if k not in span:
                        span.add(k)
                        nxt.append(k)
        frontier = nxt
    cols = sorted(span)
    col_of = {b: t for t, b in enumerate(cols)}
    rows: dict[int, TermDict] = {}
    for t, b in enumerate(cols):
        prod = x * A.basis_element(b)
        for k, c in prod.terms.items():
            rows.setdefault(k, {})[t] = c
    unit = dict(A.unit)
    all_rows, rhs = [], []
    for k in sorted(set(rows) | set(unit)):
        all_rows.append(rows.get(k, {}))
        rhs.append(unit.get(k, A.zero))
    sol = solve_sparse(all_rows, rhs, len(cols))
    if sol is None:
        raise StructureError("element is not invertible")
    inv = Element(A, {cols[t]: c for t, c in sol.items()})
    if x * inv != A.unit_element() or inv * x != A.unit_element():
        raise StructureError("inverse verification failed")
    return inv


# -- axiom verification -----------------------------------------------------------


@dataclass
class AxiomReport:
    """Outcome of `verify_axioms`: named checks with pass/fail and details."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]

    def summary(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            status = "PASS" if ok else "FAIL"
            lines.append(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        return "\n".join(lines)


ASSOC_EXHAUSTIVE_DIM = 30
ASSOC_SAMPLES = 4000
ASSOC_SAMPLES_LARGE = 1200  # dim > 200: quadratic-cost samples get this budget


def verify_axioms(
    structure: HopfAlgebra,
    R: TensorElement | None = None,
    theta: Element | None = None,
    data: RibbonHopfData | None = None,
) -> AxiomReport:
    """Exact verification of the Hopf/quasitriangular/ribbon axioms.

    Associativity is exhaustive up to dim 30 and deterministically sampled
    beyond that (the report says which); every individual check is an exact
    canonical-form equality.
    """
    A = structure
    rep = AxiomReport()
    unit_el = A.unit_element()

    # unit and counit laws
    ok = True
    for b in range(A.dim):
        x = A.basis_element(b)
        if unit_el * x != x or x * unit_el != x:
            ok = False
            break
    rep.record("unit law", ok)

    ok = True
    for b in range(A.dim):
        cop = A.coprod_basis(b)
        left: TermDict = {}
        right: TermDict = {}
        for (i, j), c in cop.items():
            _acc(left, j, c * A.counit[i])
            _acc(right, i, c * A.counit[j])
        if _prune(left) != {b: A.one} or _prune(right) != {b: A.one}:
            ok = False
            break
    rep.record("counit law", ok)

    # associativity
    if A.dim <= ASSOC_EXHAUSTIVE_DIM:
        triples = [
            (a, b, c) for a in range(A.dim) for b in range(A.dim) for c in range(A.dim)
        ]
        mode = "exhaustive"
    else:
        rng = random.Random(20240 + A.dim)
        triples = [
            (rng.randrange(A.dim), rng.randrange(A.dim), rng.randrange(A.dim))
            for _ in range(ASSOC_SAMPLES)
        ]
        mode = f"sampled n={ASSOC_SAMPLES}"
    ok = True
    for a, b, c in triples:
        xa, xb, xc = A.basis_element(a), A.basis_element(b), A.basis_element(c)
        if (xa * xb) * xc != xa * (xb * xc):
            ok = False
            break
    rep.record("associativity", ok, mode)

    # coassociativity (linear, exhaustive)
    ok = True
    for b in range(A.dim):
        x = A.basis_element(b)
        lhs: dict[tuple, Cyc] = {}
        for (i, j), c in A.coprod_basis(b).items():
            for (a1, a2), cc in A.coprod_basis(i).items():
                _acc(lhs, (a1, a2, j), c * cc)
        if _prune(lhs) != iterated_coproduct(x, 3).terms:
            ok = False
            break
    rep.record("coassociativity", ok)

    # Delta and epsilon are algebra maps (sampled pairs like associativity)
    if A.dim <= ASSOC_EXHAUSTIVE_DIM:
        pairs = [(a, b) for a in range(A.dim) for b in range(A.dim)]
        mode = "exhaustive"
    else:
        npairs = ASSOC_SAMPLES if A.dim <= 200 else ASSOC_SAMPLES_LARGE
        rng = random.Random(777 + A.dim)
        pairs = [(rng.randrange(A.dim), rng.randrange(A.dim)) for _ in range(npairs)]
        mode = f"sampled n={npairs}"
    ok = True
    ok_eps = True
    for a, b in pairs:
        xa, xb = A.basis_element(a), A.basis_element(b)
        prod = xa * xb
        if iterated_coproduct(prod, 2) != iterated_coproduct(xa, 2) * iterated_coproduct(xb, 2):
            ok = False
            break
        eps_prod = counit_of(prod)
        if eps_prod != A.counit[a] * A.counit[b]:
            ok_eps = False
            break
    rep.record("coproduct multiplicative", ok, mode)
    rep.record("counit multiplicative", ok_eps, mode)

    # antipode axiom m(S (x) id)Delta = unit*counit = m(id (x) S)Delta
    ok = True
    for b in range(A.dim):
        lhs: TermDict = {}
        rhs: TermDict = {}
        for (i, j), c in A.coprod_basis(b).items():
            for si, ci in A.antipode_basis(i).items():
                for k, ck in A.mult_basis(si, j).items():
                    _acc(lhs, k, c * ci * ck)
            for sj, cj in A.antipode_basis(j).items():
                for k, ck in A.mult_basis(i, sj).items():
                    _acc(rhs, k, c * cj * ck)
        target = {k: v * A.counit[b] for k, v in A.unit.items() if not (v * A.counit[b]).is_zero()}
        if _prune(lhs) != target or _prune(rhs) != target:
            ok = False
            break
    rep.record("antipode axiom", ok)

    # antipode bijectivity (inverse matrix exists)
    try:
        A.antipode_inv_basis(0)
        x = A.basis_element(0)
        ok = antipode_power(antipode_power(x, 1), -1) == x
    except StructureError:
        ok = False
    rep.record("antipode bijective", ok)

    # antipode is an antihomomorphism (sampled with the same pairs)
    ok = True
    for a, b in pairs:
        xa, xb = A.basis_element(a), A.basis_element(b)
        if antipode_power(xa * xb, 1) != antipode_power(xb, 1) * antipode_power(xa, 1):
            ok = False
            break
    rep.record("antipode antihomomorphism", ok, mode)

    if R is not None:
        _verify_quasitriangular(rep, A, R)
    if theta is not None:
        if R is None:
            raise ValueError("ribbon checks require R")
        _verify_ribbon(rep, A, R, theta)
    if data is not None:
        _verify_ribbon_data(rep, data)
    return rep


def _verify_quasitriangular(rep: AxiomReport, A: HopfAlgebra, R: TensorElement) -> None:
    R_inv_cand = R.apply_map_leg(0, A.antipode_basis)
    rep.record("R invertible: (S x id)R is inverse", (R * R_inv_cand) == _unit_tensor(A, 2))

    lhs: dict[tuple, Cyc] = {}
    for (i, j), c in R.terms.items():
        for (a, b), cc in A.coprod_basis(i).items():
            _acc(lhs, (a, b, j), c * cc)
    r13 = R.insert_unit_legs(3, (0, 2))
    r23 = R.insert_unit_legs(3, (1, 2))
    rep.record("(Delta x id)R = R13 R23", TensorElement(A, 3, _prune(lhs)) == r13 * r23)

    lhs = {}
    for (i, j), c in R.terms.items():
        for (a, b), cc in A.coprod_basis(j).items():
            _acc(lhs, (i, a, b), c * cc)
    r12 = R.insert_unit_legs(3, (0, 1))
    rep.record("(id x Delta)R = R13 R12", TensorElement(A, 3, _prune(lhs)) == r13 * r12)

    ok = True
    for b in range(A.dim):
        x = A.basis_element(b)
        dx = iterated_coproduct(x, 2)
        dop = TensorElement(A, 2, {(k[1], k[0]): c for k, c in dx.terms.items()})
        if R * dx != dop * R:
            ok = False
            break
    rep.record("R Delta = Delta^op R (all basis)", ok)


def _unit_tensor(A: HopfAlgebra, arity: int) -> TensorElement:
    terms: dict[tuple, Cyc] = {(): A.one}
    for _ in range(arity):
        nxt: dict[tuple, Cyc] = {}
        for k, c in terms.items():
            for u, cu in A.unit.items():
                nxt[k + (u,)] = c * cu
        terms = nxt
    return TensorElement(A, arity, terms)


def _verify_ribbon(rep: AxiomReport, A: HopfAlgebra, R: TensorElement, theta: Element) -> None:
    ok = True
    for b in range(A.dim):
        x = A.basis_element(b)
        if theta * x != x * theta:
            ok = False
            break
    rep.record("theta central", ok)
    rep.record("S(theta) = theta", antipode_power(theta, 1) == theta)
    rep.record("epsilon(theta) = 1", counit_of(theta) == A.one)

    # Delta(theta) = (R^t R)^(-1) (theta x theta), checked multiplied through:
    # (R^t)^(-1) (theta x theta) = R Delta(theta).
    Rt = R.flip()
    Rt_inv = Rt.apply_map_leg(1, A.antipode_basis)
    ok_inv = (Rt * Rt_inv) == _unit_tensor(A, 2)
    rep.record("R^t invertible: (id x S)R^t is inverse", ok_inv)
    lhs = Rt_inv * tensor_of(theta, theta)
    rhs = R * iterated_coproduct(theta, 2)
    rep.record("Delta(theta) = (R^t R)^(-1)(theta x theta)", lhs == rhs)


def _verify_ribbon_data(rep: AxiomReport, data: RibbonHopfData) -> None:
    A = data.structure
    lam, Lam, g, G = data.lam, data.Lam, data.g, data.G

    rep.record("S(Lambda) = Lambda (unimodular)", antipode_power(Lam, 1) == Lam)
    img = drinfeld_map_pairwise(A, data.R.flip(), data.R, lam)
    # With a formal square-root scale s (s^2 = norm_scale), the normalized pair
    # is (lam s/scale, Lam s); f(lam) = scale * Lam is exactly f(lam*) = Lam*.
    rep.record("f_{R^t R}(lambda) = Lambda (up to norm scale)", img == Lam.scale(data.norm_scale))
    rep.record("lambda(Lambda) = 1", lam(Lam) == A.one)
    rep.record("G^2 = g", data.G_power(2) == g)
    rep.record("Delta(G) = G x G", iterated_coproduct(G, 2) == tensor_of(G, G))

    ok = True
    for b in range(A.dim):
        x = A.basis_element(b)
        if antipode_power(x, 2) != G * x * data.G_inv:
            ok = False
            break
    rep.record("S^2 = Ad(G) (all basis)", ok)

    ok_traces = ok_gs = True
    for b in range(A.dim):
        x = A.basis_element(b)
        v_gx, v_sx = lam(g * x), lam(antipode_power(x, 1))
        ok_gs = ok_gs and v_gx == v_sx
        if ok_traces:
            v_sinv = lam(antipode_power(x, -1))
            ok_traces = v_sinv == lam(x * g) == v_gx == v_sx
    rep.record("lambda(S^-1 x) = lambda(xg) = lambda(gx) = lambda(Sx)", ok_traces)
    rep.record("lambda(gx) = lambda(S x)", ok_gs)

    lt, lti = data.lam_theta(), data.lam_theta_inv()
    rep.record(
        "lambda(theta) lambda(theta^-1) = 1 (up to norm scale)", lt * lti == data.norm_scale
    )
    rep.record("omega = alpha(g)", data.omega == data.alpha(g))
    eps_vals = A.counit
    if data.alpha.values == eps_vals:
        rep.record("alpha = counit => omega = 1", data.omega == A.one)


# -- the iterated-coproduct factorization tensor (Drinfeld map ladder) -----------


def drinfeld_ladder_tensor(A: HopfAlgebra, R: TensorElement, n: int) -> TensorElement:
    """The p-independent arity-(n+1) tensor behind the factorization

        Delta^(n-1)(f_{R^t R}(p)) =
            f_{R^t}(p_(1)) f_R(p_(2n-1)) (x) ... (x) f_{R^t R}(p_(n)),

    namely sum over R-term tuples of

        (t_{a_1}...t_{a_n} s_{b_n}...s_{b_1}) (x) s_{a_1}t_{b_1} (x) ... (x) s_{a_n}t_{b_n}.

    Contracting leg 0 with p yields the right-hand side above.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T = R.flip() * R  # word (x) output-leg for the innermost pair
    mult = A.mult_basis
    for _ in range(n - 1):
        # wrap word with t_a on the left, inserting the new output leg s_a at slot 1
        U: dict[tuple, Cyc] = {}
        for key, c in T.terms.items():
            w = key[0]
            for (i, j), cr in R.terms.items():
                cc = c * cr
                for m, cm in mult(j, w).items():
                    _acc(U, (m, i) + key[1:], cc * cm)
        # close with s_b on the right of the word and t_b on the new leg
        V: dict[tuple, Cyc] = {}
        for key, c in U.items():
            w, snew = key[0], key[1]
            for (i, j), cr in R.terms.items():
                cc = c * cr
                for m, cm in mult(w, i).items():
                    c2 = cc * cm
                    for m2, cm2 in mult(snew, j).items():
                        _acc(V, (m, m2) + key[2:], c2 * cm2)
        T = TensorElement(A, T.arity + 1, _prune(V))
    return T


def lemma3_factorization_holds(
    A: HopfAlgebra, R: TensorElement, p: Functional, n: int, ladder: TensorElement | None = None
) -> bool:
    """Exact check of the factorization identity for one functional p."""
    RtR = R.flip() * R
    lhs = iterated_coproduct(drinfeld_map(RtR, p), n)
    if ladder is None:
        ladder = drinfeld_ladder_tensor(A, R, n)
    rhs = ladder.contract_functional(0, p)
    if n == 1:
        assert isinstance(rhs, Element)
        return lhs == TensorElement(A, 1, {(k,): c for k, c in rhs.terms.items()})
    return lhs == rhs
