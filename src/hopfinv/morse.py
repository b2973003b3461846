"""Framed oriented link diagrams as bottom-to-top words of Morse slices.

A diagram is a sequence of elementary events acting on a row of vertical
strands: `cup i` inserts a min at position i, `cap i` joins strands i, i+1 at
a max, `x+ i` / `x- i` cross strands i, i+1 (the strand entering from the
left passes over for `x+`, under for `x-`).  The blackboard framing is
implicit.

`analyze` walks every component, recording extremum traversal senses
(counterclockwise = +1 per half turn, so the Whitney degree is half the
total), crossing visits with slots, the per-component writhes, the linking
matrix, and its exact signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class MorseFormatError(ValueError):
    """Raised for malformed slice words (bad positions, open strands, parse errors)."""


KINDS = ("cup", "cap", "x+", "x-")


@dataclass(frozen=True)
class Slice:
    kind: str
    pos: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MorseFormatError(f"unknown slice kind {self.kind!r}")
        if self.pos < 0:
            raise MorseFormatError(f"negative position in {self}")


@dataclass(frozen=True)
class MorseLink:
    """A framed link diagram; orientations[c] = +-1 flips the walk of component c."""

    slices: tuple[Slice, ...]
    orientations: tuple[int, ...] = ()

    def to_text(self) -> str:
        lines = [f"{s.kind} {s.pos}" for s in self.slices]
        for c, o in enumerate(self.orientations):
            lines.append(f"orient {c} {'+' if o > 0 else '-'}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "MorseLink":
        slices: list[Slice] = []
        orients: dict[int, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "orient":
                if len(parts) != 3 or parts[2] not in ("+", "-"):
                    raise MorseFormatError(f"line {lineno}: bad orient line {raw!r}")
                orients[int(parts[1])] = 1 if parts[2] == "+" else -1
            elif parts[0] in KINDS:
                if len(parts) != 2:
                    raise MorseFormatError(f"line {lineno}: expected one position in {raw!r}")
                slices.append(Slice(parts[0], int(parts[1])))
            else:
                raise MorseFormatError(f"line {lineno}: unknown event {parts[0]!r}")
        n = 1 + max(orients) if orients else 0
        orientations = tuple(orients.get(c, 1) for c in range(n))
        return MorseLink(slices=tuple(slices), orientations=orientations)


@dataclass(frozen=True)
class CrossingVisit:
    crossing: int  # index into the crossing list
    slot: str  # "o" over / "u" under
    upward: bool  # walk direction through the slice


@dataclass(frozen=True)
class Extremum:
    """One cup or cap traversal; sense +1 is counterclockwise."""

    kind: str  # "cup" | "cap"
    sense: int

    def reversed(self) -> "Extremum":
        return Extremum(self.kind, -self.sense)


@dataclass
class ComponentWalk:
    """One closed traversal: interleaved extremum traversals and crossing visits."""

    steps: list  # Extremum or CrossingVisit, in walk order
    first_edge: int

    def whitney_degree(self) -> int:
        total = sum(s.sense for s in self.steps if isinstance(s, Extremum))
        if total % 2 != 0:
            raise MorseFormatError("half-integer total turning; walk is corrupt")
        return total // 2

    def visits(self) -> list[CrossingVisit]:
        return [s for s in self.steps if isinstance(s, CrossingVisit)]


@dataclass
class Crossing:
    kind: str  # "x+" or "x-"
    slice_index: int


@dataclass
class LinkingData:
    components: int
    matrix: list[list[int]]
    signature: int


@dataclass
class LinkAnalysis:
    walks: list[ComponentWalk]
    crossings: list[Crossing]
    linking: LinkingData
    component_of_visit: dict[tuple[int, str], int]  # (crossing, slot) -> component

    @property
    def component_count(self) -> int:
        return len(self.walks)


def analyze(link: MorseLink) -> LinkAnalysis:
    """Validate the slice word and extract walks, Whitney data and linking data."""
    slices = link.slices
    # simulation state: strands[i] = edge id at position i
    strands: list[int] = []
    n_edges = 0
    # attachment of edge ends: (event index, role); events are slices
    top: dict[int, tuple[int, str]] = {}
    bottom: dict[int, tuple[int, str]] = {}
    crossings: list[Crossing] = []
    crossing_at_event: dict[int, int] = {}
    edge_order: list[int] = []

    def new_edge(ev: int, role: str) -> int:
        nonlocal n_edges
        e = n_edges
        n_edges += 1
        bottom[e] = (ev, role)
        edge_order.append(e)
        return e

    for ev, s in enumerate(slices):
        width = len(strands)
        if s.kind == "cup":
            if s.pos > width:
                raise MorseFormatError(f"slice {ev}: cup at {s.pos} exceeds width {width}")
            eL = new_edge(ev, "L")
            eR = new_edge(ev, "R")
            strands[s.pos : s.pos] = [eL, eR]
        elif s.kind == "cap":
            if s.pos + 1 > width - 1:
                raise MorseFormatError(f"slice {ev}: cap at {s.pos} exceeds width {width}")
            a, b = strands[s.pos], strands[s.pos + 1]
            top[a] = (ev, "L")
            top[b] = (ev, "R")
            del strands[s.pos : s.pos + 2]
        else:
            if s.pos + 1 > width - 1:
                raise MorseFormatError(f"slice {ev}: crossing at {s.pos} exceeds width {width}")
            a, b = strands[s.pos], strands[s.pos + 1]
            top[a] = (ev, "bl")
            top[b] = (ev, "br")
            c = new_edge(ev, "al")
            d = new_edge(ev, "ar")
            strands[s.pos] = c
            strands[s.pos + 1] = d
            crossing_at_event[ev] = len(crossings)
            crossings.append(Crossing(kind=s.kind, slice_index=ev))
    if strands:
        raise MorseFormatError(f"{len(strands)} strands left open at the top")

    # partner of each (event, role) through the event
    partner_role = {"L": "R", "R": "L", "bl": "ar", "ar": "bl", "br": "al", "al": "br"}
    ends: dict[tuple[int, str], tuple[int, str]] = {}  # (event, role) -> (edge, which end)
    for e, (ev, role) in bottom.items():
        ends[(ev, role)] = (e, "bottom")
    for e, (ev, role) in top.items():
        ends[(ev, role)] = (e, "top")

    visited: set[tuple[int, str]] = set()  # (edge, direction at start of edge)
    walks: list[ComponentWalk] = []
    component_of_visit: dict[tuple[int, str], int] = {}
    visit_dir: dict[tuple[int, str], bool] = {}  # upward?

    for e0 in edge_order:
        if (e0, "up") in visited or (e0, "down") in visited:
            continue
        comp = len(walks)
        steps: list = []
        edge, direction = e0, "up"
        while (edge, direction) not in visited:
            visited.add((edge, direction))
            ev, role = top[edge] if direction == "up" else bottom[edge]
            kind = slices[ev].kind
            if kind in ("x+", "x-"):
                cid = crossing_at_event[ev]
                over_roles = ("bl", "ar") if kind == "x+" else ("br", "al")
                slot = "o" if role in over_roles else "u"
                # each passage owns two roles; register the visit once per passage
                upward = direction == "up"
                steps.append(CrossingVisit(crossing=cid, slot=slot, upward=upward))
                component_of_visit[(cid, slot)] = comp
                visit_dir[(cid, slot)] = upward
            else:
                # cup entered descending on L, or cap entered ascending on R,
                # turn counterclockwise
                if kind == "cup":
                    steps.append(Extremum("cup", 1 if role == "L" else -1))
                else:
                    steps.append(Extremum("cap", 1 if role == "R" else -1))
            edge2, endkind = ends[(ev, partner_role[role])]
            direction = "up" if endkind == "bottom" else "down"
            edge = edge2
        walks.append(ComponentWalk(steps=steps, first_edge=e0))

    # apply orientation flips
    orients = list(link.orientations) + [1] * (len(walks) - len(link.orientations))
    for c, w in enumerate(walks):
        if orients[c] < 0:
            w.steps = [
                (
                    s.reversed()
                    if isinstance(s, Extremum)
                    else CrossingVisit(s.crossing, s.slot, not s.upward)
                )
                for s in reversed(w.steps)
            ]
            for s in w.steps:
                if isinstance(s, CrossingVisit):
                    visit_dir[(s.crossing, s.slot)] = s.upward

    linking = _linking_data(walks, crossings, component_of_visit, visit_dir)
    return LinkAnalysis(
        walks=walks,
        crossings=crossings,
        linking=linking,
        component_of_visit=component_of_visit,
    )


def crossing_sign(kind: str, over_up: bool, under_up: bool) -> int:
    """Sign of an oriented crossing from the walk directions of its passages.

    Geometric directions: the lower-left to upper-right passage points (1,1),
    the other (-1,1); reversal negates.  Sign = sign det[over; under].
    """
    if kind == "x+":
        ov = (1, 1) if over_up else (-1, -1)
        un = (-1, 1) if under_up else (1, -1)
    else:
        ov = (-1, 1) if over_up else (1, -1)
        un = (1, 1) if under_up else (-1, -1)
    det = ov[0] * un[1] - ov[1] * un[0]
    return 1 if det > 0 else -1


def _linking_data(walks, crossings, component_of_visit, visit_dir) -> LinkingData:
    c = len(walks)
    raw = [[0] * c for _ in range(c)]
    for cid, cr in enumerate(crossings):
        co = component_of_visit[(cid, "o")]
        cu = component_of_visit[(cid, "u")]
        sign = crossing_sign(cr.kind, visit_dir[(cid, "o")], visit_dir[(cid, "u")])
        raw[co][cu] += sign
        if co != cu:
            raw[cu][co] += sign
    matrix = [[0] * c for _ in range(c)]
    for i in range(c):
        for j in range(c):
            if i == j:
                matrix[i][i] = raw[i][i]
            else:
                if raw[i][j] % 2 != 0:
                    raise MorseFormatError("odd inter-component crossing sum")
                matrix[i][j] = raw[i][j] // 2
    return LinkingData(components=c, matrix=matrix, signature=symmetric_signature(matrix))


def symmetric_signature(matrix: list[list[int]]) -> int:
    """Exact signature of a symmetric integer matrix by congruence reduction.

    Rational symmetric pivoting; a zero diagonal with a nonzero off-diagonal
    entry is handled as a hyperbolic 2x2 block contributing (+1, -1).
    """
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    sig = 0
    while active:
        piv = None
        for i in active:
            if m[i][i] != 0:
                piv = i
                break
        if piv is not None:
            d = m[piv][piv]
            sig += 1 if d > 0 else -1
            rest = [i for i in active if i != piv]
            for i in rest:
                f = m[i][piv] / d
                if f:
                    for j in rest:
                        m[i][j] -= f * m[piv][j]
            active = rest
            continue
        # all diagonal zero: find an off-diagonal pivot (hyperbolic block)
        pair = None
        for i in active:
            for j in active:
                if i < j and m[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break  # zero block: contributes nothing
        i0, j0 = pair
        a = m[i0][j0]
        rest = [i for i in active if i not in (i0, j0)]
        # block B = [[0, a], [a, 0]]: signature 0; eliminate via B^-1
        for i in rest:
            u, v = m[i][i0], m[i][j0]
            if u == 0 and v == 0:
                continue
            for j in rest:
                m[i][j] -= (u * m[j0][j] + v * m[i0][j]) / a
        active = rest
    return sig


# -- small diagram constructors (used by tests and calibration) ------------------


def unknot_diagram(clockwise: bool = False) -> MorseLink:
    """Round unknot: one cup, one cap; orientation flag picks the direction.

    The default walk (+1) ascends the west leg, which is the clockwise
    traversal (Whitney degree -1); counterclockwise is the flipped walk.
    """
    return MorseLink(
        slices=(Slice("cup", 0), Slice("cap", 0)),
        orientations=((1,) if clockwise else (-1,)),
    )


def kinked_unknot(kind: str, east: bool = True) -> MorseLink:
    """Unknot with one curl of the given crossing kind on its right leg."""
    if east:
        slices = (
            Slice("cup", 0),
            Slice("cup", 2),
            Slice(kind, 1),
            Slice("cap", 2),
            Slice("cap", 0),
        )
    else:
        slices = (
            Slice("cup", 0),
            Slice("cup", 1),
            Slice(kind, 2),
            Slice("cap", 1),
            Slice("cap", 0),
        )
    return MorseLink(slices=slices, orientations=(1,))
