"""The labelled sparse-contraction state shared by the invariant engines.

A state is a sparse tensor: a dict from basis-index tuples to `Cyc`
coefficients, with one label per tuple position (column).  Every operation
is one pass over the state that builds the next dict, and the term budget is
checked once per completed pass.  The engines (`kuperberg_eval`,
`z_henn_lens_closed`, `kr_evaluate`) share this state but issue their own
schedules of operations: leg order, expansion strategy and exponent pattern
stay distinct, so agreement between them remains a cross-check.

Coefficients equal to the field's one are never multiplied in.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence

from hopfinv.hopf import HopfAlgebra, TermDict, _acc
from hopfinv.scalars import Cyc


class BudgetExceededError(RuntimeError):
    """Raised when a sparse contraction grows past the configured term cap."""


DEFAULT_TERM_BUDGET = 10**7


def _weights(terms: Mapping[int, Cyc], one: Cyc) -> list[tuple[int, Cyc | None, tuple]]:
    """(basis index, coefficient or None for one, key suffix) per term."""
    return [(b, None if c == one else c, ()) for b, c in terms.items()]


class SparseState:
    """Sparse tensor over basis-index tuples; column i is named `labels[i]`.

    Starts as the scalar 1 with no columns and ends, after the schedule has
    contracted every column, as a scalar again (`value`).
    """

    def __init__(self, A: HopfAlgebra, budget: int = DEFAULT_TERM_BUDGET):
        self.A = A
        self.budget = budget
        self.labels: list[Hashable] = []
        self.terms: dict[tuple[int, ...], Cyc] = {(): A.one}

    def _done(self, terms: dict[tuple[int, ...], Cyc]) -> None:
        self.terms = terms
        if len(terms) > self.budget:
            raise BudgetExceededError(f"state reached {len(terms)} terms (budget {self.budget})")

    def value(self) -> Cyc:
        assert not self.labels, f"columns left uncontracted: {self.labels}"
        return self.terms.get((), self.A.zero)

    def add_column(self, label: Hashable, terms: TermDict) -> None:
        """Tensor on a new last column holding the element with these terms."""
        w = _weights(terms, self.A.one)
        out = {}
        for key, v in self.terms.items():
            for b, c, _ in w:
                out[key + (b,)] = v if c is None else v * c
        self.labels.append(label)
        self._done(out)

    def expand(self, label: Hashable, into: tuple[Hashable, Hashable]) -> None:
        """Replace a column by the two legs of its coproduct, labelled `into`."""
        i = self.labels.index(label)
        coprod = self.A.coprod_basis
        out: dict[tuple[int, ...], Cyc] = {}
        for key, v in self.terms.items():
            head, tail = key[:i], key[i + 1 :]
            for ab, c in coprod(key[i]).items():
                _acc(out, head + ab + tail, v * c)
        self.labels[i : i + 1] = into
        self._done(out)

    def multiply(self, label: Hashable, terms: TermDict) -> None:
        """Right-multiply the column `label` by a fixed element."""
        w = _weights(terms, self.A.one)
        self._multiply(self.labels.index(label), None, lambda key: w)

    def absorb(self, label: Hashable, source: Hashable, image: Callable[[int], TermDict]) -> None:
        """Right-multiply the column `label` by image(value of column `source`)
        and drop the `source` column."""
        one = self.A.one
        i, s = self.labels.index(label), self.labels.index(source)
        seen: dict[int, list] = {}

        def weights(key: tuple[int, ...]) -> list:
            w = seen.get(key[s])
            if w is None:
                w = seen[key[s]] = _weights(image(key[s]), one)
            return w

        self._multiply(i, s, weights)
        del self.labels[s]

    def branch(self, label: Hashable, new: Hashable, legs: Sequence[tuple[int, Cyc]]) -> None:
        """Sum over the terms t of `legs` = [(leg_t, c_t), ...]: right-multiply
        the column `label` by c_t leg_t and record t in a new last column."""
        one = self.A.one
        w = [(leg, None if c == one else c, (t,)) for t, (leg, c) in enumerate(legs)]
        self._multiply(self.labels.index(label), None, lambda key: w)
        self.labels.append(new)

    def _multiply(self, i: int, s: int | None, weights: Callable[[tuple[int, ...]], list]) -> None:
        """Column i times the weights of each key, with column s (if any) dropped."""
        mult = self.A.mult_basis
        one = self.A.one
        j = i if s is None or i < s else i - 1  # column i after dropping s
        out: dict[tuple[int, ...], Cyc] = {}
        for key, v in self.terms.items():
            run = key[i]
            rest = key if s is None else key[:s] + key[s + 1 :]
            head, tail = rest[:j], rest[j + 1 :]
            for b2, c2, suffix in weights(key):
                vv = v if c2 is None else v * c2
                for b3, c3 in mult(run, b2).items():
                    _acc(out, head + (b3,) + tail + suffix, vv if c3 == one else vv * c3)
        self._done(out)

    def contract(self, label: Hashable, values: Sequence[Cyc]) -> None:
        """Apply the functional with these basis values to a column and drop it."""
        one = self.A.one
        i = self.labels.index(label)
        w = [None if f.is_zero() else (f, f == one) for f in values]
        out: dict[tuple[int, ...], Cyc] = {}
        for key, v in self.terms.items():
            fw = w[key[i]]
            if fw is not None:
                _acc(out, key[:i] + key[i + 1 :], v if fw[1] else v * fw[0])
        del self.labels[i]
        self._done(out)
