"""Kuperberg invariant of lens spaces for factorizable ribbon Hopf algebras.

Everything is driven by the genus-1 Heegaard diagram combinatorics: the
permutation N_j = N_1 + (j-1)q (mod p) of crossing labels along the upper
circle, the block boundaries k_1 < ... < k_q where the upper circle re-enters
the strand bundle, and the per-crossing antipode exponents they induce.  The
evaluator contracts

    Z = lambda( prod_t S^(e_t)(Lambda_(legs_t)) g^m )

over the Sweedler legs of Delta^(p-1)(Lambda) as a schedule on the shared
`SparseState`: the factors are multiplied in ascending t = 1..p, and a
coproduct leg is expanded only when that order reaches it (interleaved
expand-and-multiply), so that the state stays near the size of the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from hopfinv.contraction import (  # noqa: F401  (BudgetExceededError is re-exported)
    BudgetExceededError,
    DEFAULT_TERM_BUDGET,
    SparseState,
)
from hopfinv.hopf import RibbonHopfData, antipode_power
from hopfinv.scalars import Cyc


class LensInputError(ValueError):
    """Raised for (p, q) that do not describe a lens space in this setup."""


@dataclass(frozen=True)
class LensIndexData:
    """Crossing-index combinatorics of the genus-1 Heegaard diagram of L(p, q).

    N[j-1] is the crossing label N_j visited j-th along the upper circle;
    k[i] for i = 0..q+1 are the block boundaries (k_0 = 1, k_(q+1) = p+1).
    """

    p: int
    q: int
    r: int
    N1: int
    N: tuple[int, ...]
    k: tuple[int, ...]

    def block_of(self, n: int) -> int:
        """The m with k_m <= n < k_(m+1); m in 1..q for q odd, 0..q for q even."""
        lo = 1 if self.q % 2 == 1 else 0
        for m in range(lo, self.q + 1):
            if self.k[m] <= n < self.k[m + 1]:
                return m
        raise ValueError(f"n={n} outside 1..p")


def normalize_lens_params(p: int, q: int) -> tuple[int, int]:
    """Reduce to 0 < q < p via L(p, q) = L(p, q + kp); validates coprimality."""
    if p < 1:
        raise LensInputError(f"p must be positive, got {p}")
    if p == 1:
        return 1, 0  # L(1, 0) = S^3
    q %= p
    if q == 0:
        raise LensInputError(f"q = 0 (mod p) does not give a lens space for p={p}")
    if math.gcd(p, q) != 1:
        raise LensInputError(f"gcd(p, q) = {math.gcd(p, q)} != 1")
    return p, q


def lens_indices(p: int, q: int) -> LensIndexData:
    """The index data of L(p, q), all invariants checked at construction."""
    p, q = normalize_lens_params(p, q)
    if p == 1:
        raise LensInputError("L(1, 0) = S^3 has a degenerate diagram; handled by callers")
    r = p - (p // q) * q
    N1 = (q + 1) // 2 if q % 2 == 1 else (p + q + 1) // 2
    N = tuple((N1 - 1 + j * q) % p + 1 for j in range(p))
    # k_1 < ... < k_q are the times at which the upper circle visits the q
    # leftmost crossing points (labels 1..q), in visit order; this is the
    # characterization matched by the closed formulas below.
    k = [1] + sorted(j + 1 for j in range(p) if N[j] <= q) + [p + 1]

    # construction-time invariants: permutation symmetry and the closed k-formulas
    assert sorted(N) == list(range(1, p + 1)), "N must be a permutation of 1..p"
    for i in range(1, p + 1):
        assert N[i - 1] + N[p - i] == p + 1, "N_i + N_(p+1-i) = p+1"
    if q % 2 == 1:
        for i in range(1, q + 1):
            assert k[i] == 1 + (2 * p * (i - 1) + q - 1) // (2 * q)
        for i in range(2, q + 1):
            assert k[i] + k[q + 2 - i] == p + 2
        assert k[1] == 1
        assert all(k[i] < k[i + 1] for i in range(1, q + 1))
    else:
        for j in range(1, q + 1):
            assert k[j] == 1 + (p * (2 * j - 1) + q - 1) // (2 * q)
        for j in range(1, q + 1):
            assert k[j] + k[q + 1 - j] == p + 2
        assert all(k[i] < k[i + 1] for i in range(0, q + 1))
    return LensIndexData(p=p, q=q, r=r, N1=N1, N=N, k=tuple(k))


@dataclass(frozen=True)
class KuperbergExponentData:
    """Per-crossing contraction data: Lambda_(legs[t]) gets S^(exponents[t]),
    multiplied left to right, then g^g_power, then lambda."""

    legs: tuple[int, ...]
    exponents: tuple[int, ...]
    g_power: int

    def to_json(self) -> dict:
        return {"legs": list(self.legs), "exponents": list(self.exponents), "g_power": self.g_power}

    @staticmethod
    def from_json(obj: dict) -> "KuperbergExponentData":
        return KuperbergExponentData(
            legs=tuple(obj["legs"]), exponents=tuple(obj["exponents"]), g_power=int(obj["g_power"])
        )


def lens_exponent_data(idx: LensIndexData) -> KuperbergExponentData:
    """Antipode exponents along the upper circle per the block rules.

    q odd: block m carries S^(1-2m) and the g-power is (1-q)/2; q even:
    position n in block m carries S^(2n-2m-3) and the g-power is (p-q+1)/2.
    Both powers are integers by coprimality.
    """
    p, q = idx.p, idx.q
    exps = []
    for n in range(1, p + 1):
        m = idx.block_of(n)
        if q % 2 == 1:
            exps.append(1 - 2 * m)
        else:
            exps.append(2 * n - 2 * m - 3)
    if q % 2 == 1:
        assert (1 - q) % 2 == 0
        g_power = (1 - q) // 2
    else:
        assert (p - q + 1) % 2 == 0
        g_power = (p - q + 1) // 2
    return KuperbergExponentData(legs=idx.N, exponents=tuple(exps), g_power=g_power)


def kuperberg_eval(
    data: KuperbergExponentData,
    H: RibbonHopfData,
    budget: int = DEFAULT_TERM_BUDGET,
) -> Cyc:
    """Contract lambda( prod_t S^(e_t)(Lambda_(legs[t])) g^m ) exactly.

    The Sweedler legs of Delta^(p-1)(Lambda) are materialized lazily: the
    state holds columns labelled by contiguous unexpanded leg ranges (lo, hi)
    and splits one only when the multiplication order consumes a position
    inside it.
    """
    A = H.structure
    p = len(data.legs)
    if sorted(data.legs) != list(range(1, p + 1)):
        raise ValueError("legs must enumerate positions 1..p exactly once")
    tail = H.g_power(data.g_power)
    lam_tail = tuple(H.lam(A.basis_element(i) * tail) for i in range(A.dim))
    s_pow = lru_cache(maxsize=None)(lambda e, b: antipode_power(A.basis_element(b), e).terms)

    state = SparseState(A, budget)
    state.add_column("run", A.unit)
    state.add_column((1, p), H.Lam.terms)
    for pos, e in zip(data.legs, data.exponents):
        lo, hi = next(r for r in state.labels if r != "run" and r[0] <= pos <= r[1])
        if pos < hi:
            state.expand((lo, hi), ((lo, pos), (pos + 1, hi)))
        if lo < pos:
            state.expand((lo, pos), ((lo, pos - 1), (pos, pos)))
        state.absorb("run", (pos, pos), lambda b: s_pow(e, b))
    state.contract("run", lam_tail)
    return state.value()


def z_kup_lens(p: int, q: int, H: RibbonHopfData, budget: int = DEFAULT_TERM_BUDGET) -> Cyc:
    """Z_Kup(L(p,q), f, H) from the closed-form exponent data.

    Computed without touching any Hennings-module routine; the main theorem
    check compares this against the independent Hennings closed form.
    """
    p, q = normalize_lens_params(p, q)
    if p == 1:
        return H.structure.one  # L(1,0) = S^3
    data = lens_exponent_data(lens_indices(p, q))
    return kuperberg_eval(data, H, budget=budget)


def inverse_antipode_trace(H: RibbonHopfData) -> Cyc:
    """Matrix trace of S^(-1), the independent oracle for Z_Kup(L(2,1))."""
    A = H.structure
    acc = A.zero
    for i in range(A.dim):
        acc = acc + A.antipode_inv_basis(i).get(i, A.zero)
    return acc
