"""Hennings invariant: Kauffman-Radford link evaluation and lens-space forms.

Two independent routes to Z_Henn(L(p,q) # conj L(p,q)) live here, each a
schedule of its own on the shared `SparseState` of `hopfinv.contraction`:

* `z_henn_lens_closed` evaluates the label-pushed closed form
  lambda( S^(e_p)(Lambda_(N_p)) ... S^(e_1)(Lambda_(N_1)) G^(p-q+1) ),
  by fully expanding Delta^(p-1)(Lambda) and folding the legs in descending
  order -- deliberately a different expansion strategy, multiplication
  order and exponent pattern than the Kuperberg evaluator, so the
  main-theorem equality is a nontrivial cross-check.

* `kr_evaluate` computes the regular-isotopy invariant TR(L, H) of a framed
  link in Morse form: each crossing is decorated with R-matrix legs, each
  component contributes the trace of its cyclic word of decorations
  interleaved with grouplike insertions at extrema, and the components are
  advanced greedily so that a crossing's two legs are consumed close
  together.  `z_henn` applies the surgery normalization of the trace, and
  `chain_mail` generates the two-component surgery presentation of
  L(p,q) # conj L(p,q) from the Heegaard diagram.
"""

from __future__ import annotations

from functools import lru_cache

from hopfinv.contraction import DEFAULT_TERM_BUDGET, SparseState
from hopfinv.hopf import RibbonHopfData, antipode_power
from hopfinv.kuperberg import LensIndexData, lens_indices, normalize_lens_params
from hopfinv.scalars import Cyc


def hennings_closed_exponent(idx: LensIndexData, n: int) -> int:
    """Antipode power on Lambda_n in the label-pushed Hennings product.

    q odd: -2n + 2m(n); q even: -2n + 2 + 2m(n), with m(n) the block index.
    """
    m = idx.block_of(n)
    if idx.q % 2 == 1:
        return -2 * n + 2 * m
    return -2 * n + 2 + 2 * m


def z_henn_lens_closed(
    p: int, q: int, H: RibbonHopfData, budget: int = DEFAULT_TERM_BUDGET
) -> Cyc:
    """Z_Henn(L(p,q) # conj L(p,q)) from the pre-simplification closed form.

    Expands Delta^(p-1)(Lambda) fully into columns labelled by leg position,
    multiplies S^(e_n)(Lambda_(N_n)) for n = p down to 1 into the running
    product, right-multiplies G^(p-q+1) and applies lambda.
    """
    p, q = normalize_lens_params(p, q)
    A = H.structure
    if p == 1:
        return A.one  # S^3
    idx = lens_indices(p, q)

    # column n holds legs n..p of the cointegral until it is split off
    state = SparseState(A, budget)
    state.add_column("run", A.unit)
    state.add_column(1, H.Lam.terms)
    for n in range(1, p):
        state.expand(n, (n, n + 1))

    tail = H.G_power(p - q + 1)
    lam_tail = tuple(H.lam(A.basis_element(i) * tail) for i in range(A.dim))
    s_pow = lru_cache(maxsize=None)(lambda e, b: antipode_power(A.basis_element(b), e).terms)
    for n in range(p, 0, -1):
        e = hennings_closed_exponent(idx, n)
        state.absorb("run", idx.N[n - 1], lambda b: s_pow(e, b))
    state.contract("run", lam_tail)
    return state.value()


# -- Kauffman-Radford evaluation of Morse links ----------------------------------

from hopfinv.morse import (  # noqa: E402  (grouped here with the link machinery)
    CrossingVisit,
    Extremum,
    LinkAnalysis,
    MorseLink,
    Slice,
    analyze,
)


def crossing_decorations(H: RibbonHopfData) -> dict[str, list[tuple[int, int, Cyc]]]:
    """Per crossing kind, the decoration terms (over leg, under leg, coeff).

    With R = sum s_k (x) t_k: an `x-` crossing (over strand entering from the
    right) puts t_k on the over strand and s_k on the under strand; `x+` is
    the inverse insertion (S (x) id)(R) = R^-1 distributed the same way, so
    a cancelling pair contracts to 1 (x) 1.  This convention was pinned
    behaviorally: it is the unique leg assignment passing Reidemeister II
    (parallel and antiparallel), Reidemeister III, the four curl
    normalizations Z(S^3) = 1, and the chain-mail cross-path identity.
    """
    A = H.structure
    R = H.R
    SR = R.apply_map_leg(0, A.antipode_basis)
    return {
        "x-": [(j, i, c) for (i, j), c in R.terms.items()],
        "x+": [(j, i, c) for (i, j), c in SR.terms.items()],
    }


def _component_tokens(an: LinkAnalysis) -> list[list[tuple]]:
    """Per component, the cyclic word of the trace evaluation, cut at the
    component's first crossing visit in slice order.

    Tokens are ("x", crossing, slot) for a crossing decoration and
    ("g", +-1) for the grouplike insertion at an extremum: traversing a
    minimum counterclockwise inserts G, a maximum clockwise inserts G^-1,
    and the other two senses contribute nothing.  The component's trace
    factor is lambda(word * G); rotating the cut is then exactly the trace
    cyclicity tr(xy) = tr(yx), and reversing the traversal is tr(S(x)) =
    tr(x), so the value is independent of those choices.  Components are
    traversed upward through their anchor visit.
    """
    tokens_by_comp: list[list[tuple]] = []
    for walk in an.walks:
        steps = walk.steps
        visit_positions = [
            (an.crossings[st.crossing].slice_index, st.slot == "u", i)
            for i, st in enumerate(steps)
            if isinstance(st, CrossingVisit)
        ]
        if visit_positions:
            anchor = min(visit_positions)[2]
            if not steps[anchor].upward:
                key = (steps[anchor].crossing, steps[anchor].slot)
                steps = [
                    (
                        st.reversed()
                        if isinstance(st, Extremum)
                        else CrossingVisit(st.crossing, st.slot, not st.upward)
                    )
                    for st in reversed(steps)
                ]
                anchor = next(
                    i
                    for i, st in enumerate(steps)
                    if isinstance(st, CrossingVisit) and (st.crossing, st.slot) == key
                )
            steps = steps[anchor:] + steps[:anchor]
        tokens: list[tuple] = []
        for st in steps:
            if isinstance(st, Extremum):
                if st.kind == "cup" and st.sense > 0:
                    tokens.append(("g", 1))
                elif st.kind == "cap" and st.sense < 0:
                    tokens.append(("g", -1))
            else:
                tokens.append(("x", st.crossing, st.slot))
        tokens_by_comp.append(tokens)
    return tokens_by_comp


def kr_evaluate(
    link: MorseLink, H: RibbonHopfData, budget: int = DEFAULT_TERM_BUDGET
) -> Cyc:
    """The regular-isotopy invariant TR(L, H) of a framed Morse link.

    Sum over R-matrix term choices (one per crossing) of the product over
    components of tr(w_i), where w_i interleaves crossing decorations with the
    grouplike insertions of the extremum rule.  Components are interleaved so
    a crossing's two legs are consumed as close together as possible; the
    sparse state is capped by `budget` nonzero terms.
    """
    A = H.structure
    an = analyze(link)
    decorations = crossing_decorations(H)
    xterms = [decorations[c.kind] for c in an.crossings]
    tokens_by_comp = _component_tokens(an)

    G1 = H.G_power(1)
    Gm1 = H.G_power(-1)
    lam_G = tuple(H.lam(A.basis_element(i) * G1) for i in range(A.dim))

    total = A.one
    active = []
    for c, toks in enumerate(tokens_by_comp):
        if any(t[0] == "x" for t in toks):
            active.append(c)
        else:
            net = sum(t[1] for t in toks)
            total = total * H.lam(H.G_power(net + 1))
            if total.is_zero():
                return total
    if not active:
        return total

    # columns: ("c", comp) holds a component's running product, ("x", crossing)
    # the R-matrix term chosen at a crossing whose other leg is still pending
    state = SparseState(A, budget)
    ptr = {c: 0 for c in active}

    def next_xtoken(c: int):
        toks = tokens_by_comp[c]
        i = ptr[c]
        while i < len(toks) and toks[i][0] != "x":
            i += 1
        return toks[i] if i < len(toks) else None

    def partner_distance(c: int) -> int:
        nxt = next_xtoken(c)
        cid, slot = nxt[1], nxt[2]
        other = "u" if slot == "o" else "o"
        c2 = an.component_of_visit[(cid, other)]
        toks2 = tokens_by_comp[c2]
        start = ptr[c2] + (1 if c2 == c else 0)
        d = 0
        for t in toks2[start:]:
            if t[0] != "x":
                continue
            if t[1] == cid and t[2] == other:
                return d
            d += 1
        return 1 << 30

    def drain_g(c: int) -> None:
        toks = tokens_by_comp[c]
        while ptr[c] < len(toks) and toks[ptr[c]][0] == "g":
            state.multiply(("c", c), (G1 if toks[ptr[c]][1] > 0 else Gm1).terms)
            ptr[c] += 1

    def consume_x(c: int) -> None:
        if ("c", c) not in state.labels:
            state.add_column(("c", c), A.unit)
        drain_g(c)
        _, cid, slot = tokens_by_comp[c][ptr[c]]
        ptr[c] += 1
        legs = [(bo if slot == "o" else bu, cc) for bo, bu, cc in xterms[cid]]
        if ("x", cid) in state.labels:
            state.absorb(("c", c), ("x", cid), lambda t: {legs[t][0]: A.one})
        else:
            state.branch(("c", c), ("x", cid), legs)

    remaining = set(active)
    while remaining:
        done = [c for c in remaining if ptr[c] >= len(tokens_by_comp[c])]
        for c in done:
            if ("c", c) in state.labels:
                state.contract(("c", c), lam_G)
            remaining.discard(c)
        if done:
            continue
        # drain free grouplike tokens on open components
        drained = False
        for c in sorted(remaining):
            if ("c", c) in state.labels and tokens_by_comp[c][ptr[c]][0] == "g":
                drain_g(c)
                drained = True
        if drained:
            continue
        closers = [c for c in sorted(remaining) if ("x", next_xtoken(c)[1]) in state.labels]
        if closers:
            consume_x(closers[0])
        else:
            consume_x(min(sorted(remaining), key=lambda c: (partner_distance(c), c)))

    return total * state.value()


class ValueOutsideFieldError(ArithmeticError):
    """The normalized invariant lies in Q(zeta_l)(sqrt(scale)) \\ Q(zeta_l)."""


def z_henn(link: MorseLink, H: RibbonHopfData, budget: int = DEFAULT_TERM_BUDGET) -> Cyc:
    """The surgery-normalized Hennings invariant of the manifold M(link).

    With the stored pair (lambda, Lambda) and its normalization scale c
    (lambda(theta) lambda(theta^-1) = c, and c = 1 when the pair is literally
    normalized), the invariant is

        Z = lambda(theta^-1)^sigma * TR(L) * c^(-(sigma + components)/2),

    which is the Kauffman-Radford normalization evaluated with the formally
    normalized integral; the half power of the theta-trace ratio is resolved
    canonically as sqrt(ratio) = lambda*(theta^-1).  Requires sigma +
    components to be even, otherwise the value lives outside the field.
    """
    A = H.structure
    an = analyze(link)
    c_count = an.component_count
    sigma = an.linking.signature
    lt, lti = H.lam_theta(), H.lam_theta_inv()
    if lt * lti != H.norm_scale:
        raise ValueError("integral data is inconsistent: lambda traces do not match scale")
    if lt.is_zero():
        raise ValueError("lambda(theta) = 0: Hennings normalization undefined")
    tr = kr_evaluate(link, H, budget=budget)
    e = sigma + c_count
    if e % 2 != 0:
        if tr.is_zero():
            return tr
        raise ValueOutsideFieldError(
            f"sigma + components = {e} is odd; value is sqrt({H.norm_scale.pretty()}) times "
            f"an element of Q(zeta_{A.l})"
        )
    # lambda*(theta^-1)^sigma in stored terms: lti^sigma, with negative powers
    # resolved through lti^-1 = lt / scale (since lt * lti = scale).
    value = tr
    if sigma >= 0:
        value = value * lti**sigma
    else:
        value = value * lt ** (-sigma) * H.norm_scale**sigma
    half = e // 2
    return value * H.norm_scale ** (-half)


# -- chain-mail links of lens spaces ---------------------------------------------


def chain_mail(p: int, q: int) -> MorseLink:
    """The two-component chain-mail link of the genus-1 Heegaard diagram.

    Realized as the (p, q) torus braid (closure permutation steps by q) with
    q writhe-correcting curls, threaded through the 0-framed lower circle.
    The construction is validated on the spot: component writhes (pq, 0),
    linking number p, Whitney degrees (p - q, 1), vanishing signature.
    """
    p, q = normalize_lens_params(p, q)
    if p == 1:
        return MorseLink(slices=(), orientations=())
    sl: list[Slice] = []
    for k in range(p):
        sl.append(Slice("cup", k))
    sl.append(Slice("cup", 0))
    for t in range(p):
        sl.append(Slice("x-", 1 + t))
    for _ in range(q):
        for t in range(1, p):
            sl.append(Slice("x+", t))
    for _ in range(q):
        sl += [Slice("cup", 1), Slice("x+", 2), Slice("cap", 1)]
    for t in range(p, 0, -1):
        sl.append(Slice("x-", t))
    sl.append(Slice("cap", 0))
    for k in range(p - 1, -1, -1):
        sl.append(Slice("cap", k))

    # orient: component 0 is the upper circle (first closure cup), component 1
    # the lower circle; fix flags from the Whitney degrees, then check census.
    base = MorseLink(slices=tuple(sl), orientations=(1, 1))
    an = analyze(base)
    if an.component_count != 2:
        raise AssertionError("chain-mail must have two components")
    d_u = an.walks[0].whitney_degree()
    d_l = an.walks[1].whitney_degree()
    flip_u = 1 if d_u == p - q else -1
    flip_l = 1 if d_l == 1 else -1
    link = MorseLink(slices=tuple(sl), orientations=(flip_u, flip_l))
    an = analyze(link)
    m = an.linking.matrix
    ok = (
        an.walks[0].whitney_degree() == p - q
        and an.walks[1].whitney_degree() == 1
        and m[0][0] == p * q
        and m[1][1] == 0
        and m[0][1] == p
        and an.linking.signature == 0
    )
    if not ok:
        raise AssertionError(
            f"chain-mail census failed for (p,q)=({p},{q}): matrix={m}, "
            f"d=({an.walks[0].whitney_degree()},{an.walks[1].whitney_degree()}), "
            f"sigma={an.linking.signature}"
        )
    return link
