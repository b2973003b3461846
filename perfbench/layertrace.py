"""Layer tracing from outside the program.

`Tracer.install()` replaces public names of the hopfinv modules with
wrappers that count calls and accumulate wall time, and `uninstall()` puts
the originals back.  A wrapper is installed under every name a caller looks
up at call time: `hennings.analyze` as well as `morse.analyze`,
`kuperberg.antipode_power` and `hennings.antipode_power` (the contraction
engines' antipode powers), and the class attributes of `Cyc` and
`HopfAlgebra` that every sparse loop reaches.  Times are inclusive; a call
nested inside another call of the same layer (for instance the ladder
tensor built inside the Lemma-3 check) is not timed twice.

The scalar and structure-table wrappers only count: they run millions of
times, and per-call timing would dominate the traced run.
"""

from __future__ import annotations

import time

from hopfinv import double, hennings, hopf, kuperberg, morse, scalars, structio

# layer name (reported as <name>_s) -> the (module, attribute) pairs that callers look up
TIMED = {
    "hopf.antipode_power": [(kuperberg, "antipode_power"), (hennings, "antipode_power")],
    "hopf.verify_axioms": [(hopf, "verify_axioms"), (structio, "verify_axioms")],
    "hopf.integral_data": [(hopf, "unnormalized_integral_data")],
    "hopf.factorizability_rank": [(hopf, "factorizability_rank")],
    "hopf.lemma3": [(hopf, "lemma3_factorization_holds"), (hopf, "drinfeld_ladder_tensor")],
    "double.drinfeld_double": [(double, "drinfeld_double")],
    "double.ribbon_criterion": [(double, "double_ribbon_criterion")],
    "structio.dump": [(structio, "dump_algebra")],
    "structio.load": [(structio, "load_algebra")],
    "morse.analyze": [(morse, "analyze"), (hennings, "analyze")],
    "kuperberg.z_kup_lens": [(kuperberg, "z_kup_lens")],
    "hennings.z_henn_lens_closed": [(hennings, "z_henn_lens_closed")],
    "hennings.kr_evaluate": [(hennings, "kr_evaluate")],
}


class Tracer:
    def __init__(self) -> None:
        self.calls = {name: 0 for name in TIMED}
        self.seconds = {name: 0.0 for name in TIMED}
        self._depth = {name: 0 for name in TIMED}
        # scalars: mul, mul with a monomial operand, mul with a rational operand, add, inverse
        self.scalar = [0, 0, 0, 0, 0]
        self.mult_basis_calls = 0
        self.coprod_basis_calls = 0
        self.mult_basis_keys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        calls, seconds, depth = self.calls, self.seconds, self._depth

        def wrapper(*args, **kwargs):
            calls[name] += 1
            depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                if not depth[name]:
                    seconds[name] += time.perf_counter() - t0

        return wrapper

    def _scalar_wrappers(self, mul, add, inverse):
        n = self.scalar

        def kinds(num: tuple) -> tuple[bool, bool]:
            # (monomial r*zeta^k, rational r); zeta^(l-1) is stored as all coefficients -1
            L = len(num)
            zeros = num.count(0)
            rational = zeros == L or (zeros == L - 1 and num[0] != 0)
            monomial = zeros >= L - 1 or num.count(num[0]) == L
            return monomial, rational

        def traced_mul(a, b):
            n[0] += 1
            ma, ra = kinds(a.num)
            mb, rb = kinds(b.num)
            if ma or mb:
                n[1] += 1
            if ra or rb:
                n[2] += 1
            return mul(a, b)

        def traced_add(a, b):
            n[3] += 1
            return add(a, b)

        def traced_inverse(a):
            n[4] += 1
            return inverse(a)

        return traced_mul, traced_add, traced_inverse

    def _table_wrappers(self, mult_basis, coprod_basis):
        keys = self.mult_basis_keys
        tracer = self

        def traced_mult_basis(A, i, j):
            tracer.mult_basis_calls += 1
            keys.add((A, i, j))
            return mult_basis(A, i, j)

        def traced_coprod_basis(A, i):
            tracer.coprod_basis_calls += 1
            return coprod_basis(A, i)

        return traced_mult_basis, traced_coprod_basis

    # -- install / uninstall ---------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, sites in TIMED.items():
            for module, attr in sites:
                self._replace(module, attr, self._timed(name, getattr(module, attr)))
        Cyc = scalars.Cyc
        mul, add, inverse = self._scalar_wrappers(Cyc.__mul__, Cyc.__add__, Cyc.inverse)
        self._replace(Cyc, "__mul__", mul)
        self._replace(Cyc, "__add__", add)
        self._replace(Cyc, "inverse", inverse)
        A = hopf.HopfAlgebra
        mb, cb = self._table_wrappers(A.mult_basis, A.coprod_basis)
        self._replace(A, "mult_basis", mb)
        self._replace(A, "coprod_basis", cb)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- report ------------------------------------------------------------------

    def counters(self) -> dict:
        mul, mono, rat, add, inv = self.scalar
        mb = self.mult_basis_calls
        return {
            "scalars.mul_calls": mul,
            "scalars.add_calls": add,
            "scalars.inverse_calls": inv,
            "scalars.mul_monomial_share": mono / mul if mul else 0.0,
            "scalars.mul_rational_share": rat / mul if mul else 0.0,
            "hopf.mult_basis_calls": mb,
            "hopf.mult_basis_hit_ratio": 1 - len(self.mult_basis_keys) / mb if mb else 0.0,
            "hopf.coprod_basis_calls": self.coprod_basis_calls,
            "hopf.antipode_power_calls": self.calls["hopf.antipode_power"],
            "morse.analyze_calls": self.calls["morse.analyze"],
            **{f"{name}_s": secs for name, secs in self.seconds.items()},
        }
