"""Linking numbers and the second Conway coefficient, exactly.

Linking numbers of cycles in an embedding come from :class:`LinkTable`,
which sums arc-pair crossing counts.  :func:`linking_table` projects whole
loops at once; it is the independent route tests check the table against.

The knot coefficient a2 has three routes that share nothing beyond the
projection's Gauss code, the knot's signed over/under passes in walk
order (``LinkDiagram.gauss``): a signed count of interleaved crossing
pairs, the first Taylor coefficients of the Alexander matrix's
determinant at t = 1, and a skein recursion.  :func:`a2_routes` reads the
first two off one projection; they are polynomial in the crossing count
and every production path compares them.  The skein is exponential and is
kept as a test oracle for small diagrams.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Sequence

from .digraph import DiCycle, realize
from .errors import DegenerateProjection, DisjointnessViolated, Impossible, TooLarge
from .geom import (
    LinkDiagram,
    Point3,
    SpatialEmbedding,
    arc_pair_crossings,
    arc_strands,
    check_loops_disjoint,
    gauss_diagram,
    project_to_diagram,
    shear_points,
)

__all__ = [
    "LinkTable",
    "ProjectionResult",
    "project_with_retry",
    "linking_table",
    "linking_number",
    "a2",
    "a2_alexander",
    "a2_routes",
    "a2_skein",
    "conway_from_diagram",
]


class ProjectionResult(NamedTuple):
    diagram: LinkDiagram
    shear: tuple[int, int]


# entries of the shear schedule tried before a projection counts as degenerate
SHEAR_TRIES = 120


def shear_schedule(n: int) -> list[tuple[int, int]]:
    """First n slope pairs (kx, ky), sweeping diagonals of the integer
    quadrant so any finite set of bad directions is eventually escaped."""
    out: list[tuple[int, int]] = []
    s = 0
    while len(out) < n:
        for a in range(s, -1, -1):
            out.append((a, s - a))
            if len(out) == n:
                break
        s += 1
    return out


# the slope pairs every projection tries, in order
_SHEARS = tuple(shear_schedule(SHEAR_TRIES))


def project_with_retry(loops: Sequence) -> ProjectionResult:
    """Project loops to a diagram, shearing until the projection is generic.

    The shear (x, y, z) -> (x + kx*z, y + ky*z, z) keeps every height, so
    the diagram still describes the original curves.  Only degenerate
    projections are retried; intersections in space are real errors and
    propagate immediately.
    """
    point_lists = [tuple(l) for l in loops]
    if not point_lists:
        raise ValueError("need at least one loop")
    last: DegenerateProjection | None = None
    for kx, ky in _SHEARS:
        sheared = (
            point_lists
            if kx == 0 and ky == 0
            else [shear_points(pts, kx, ky) for pts in point_lists]
        )
        try:
            return ProjectionResult(project_to_diagram(sheared), (kx, ky))
        except DegenerateProjection as exc:
            last = exc
    raise DegenerateProjection(
        f"no generic projection after {SHEAR_TRIES} shears: {last}", last.violations
    )


# ---------------------------------------------------------------------------
# linking


class LinkTable:
    """Linking numbers of cycles in one embedding, read from a table of
    arc-pair crossing counts that lk fills in on first use.

    lk(A, B) = 1/2 * sum over arcs e of A and f of B of
    sigma_A(e) * sigma_B(f) * S(e, f).  Here sigma is +1 where the cycle
    runs along the arc and -1 where it runs against it, and S(e, f) is the
    signed count of crossings between arcs e and f, each run tail to head,
    in the projection under the table's current shear.  Only pairs whose
    xy boxes meet can cross, so only those are visited, and lk remembers
    them; lk_pairs, whose pairs are never read again, remembers none.  A
    touch or overlap in projection between arcs of the two cycles, a
    vertical segment whose point lies on the other cycle's projection
    included, moves the whole table to the next shear and redoes the
    query; lk does not depend on the shear.  Each queried cycle is checked
    once for self-intersection in space, and cycles that share a vertex or
    arcs that meet in space raise DisjointnessViolated.

    The CLI creates the tables, one per command.  Engine entry points,
    pattern search and certificate replay take the caller's table in place
    of the embedding, so a command realizes, checks and projects each
    cycle once.  Every memo holds a pure function of the embedding and the
    shear, so sharing changes no answer.
    """

    def __init__(self, emb: SpatialEmbedding):
        self.emb = emb
        self._shears = iter(_SHEARS)
        # per cycle: its closed points, (arc, sign) per step, and its
        # self-check's crossing records, None when its projection is not generic
        self._cycles: dict[DiCycle, tuple[tuple[Point3, ...], tuple, Optional[list]]] = {}
        self._next_shear(None)

    def _next_shear(self, cause: Optional[DegenerateProjection]) -> None:
        shear = next(self._shears, None)
        if shear is None:
            raise DegenerateProjection(
                f"no generic projection after {SHEAR_TRIES} shears: {cause}",
                cause.violations,
            )
        self.shear = shear
        # per arc: its strands under the current shear (geom.arc_strands)
        self._arcs: dict[tuple[int, int], tuple] = {}
        # per cycle: (x0, y0, x1, y1, key, sign, strands) per arc, from the
        # arc's xy box, and the xy box of the whole cycle
        self._placed: dict[DiCycle, tuple[tuple, tuple]] = {}
        # (e, f) with e < f and meeting xy boxes -> S(e, f)
        self._pairs: dict[tuple, int] = {}

    def _cycle(self, c: DiCycle) -> tuple[tuple[Point3, ...], tuple, Optional[list]]:
        got = self._cycles.get(c)
        if got is None:
            points = realize(c, self.emb)
            crossings = check_loops_disjoint([points])
            signed = tuple(
                (c.arc(i), 1 if along else -1) for i, along in enumerate(c.edge_choices)
            )
            got = (points, signed, crossings)
            self._cycles[c] = got
        return got

    def diagram(self, c: DiCycle) -> LinkDiagram:
        """c's one-loop diagram: from the crossings of its self-check when
        the unsheared projection is generic, else from project_with_retry."""
        points, _, crossings = self._cycle(c)
        if crossings is None:
            return project_with_retry([points]).diagram
        return gauss_diagram([0] * len(points), crossings)

    def _arc(self, key: tuple[int, int]) -> tuple:
        got = self._arcs.get(key)
        if got is None:
            pts = self.emb.arcs[key].points
            kx, ky = self.shear
            if kx or ky:
                pts = shear_points(pts, kx, ky)
            got = arc_strands(key, pts)
            self._arcs[key] = got
        return got

    def _place(self, c: DiCycle) -> tuple[tuple, tuple]:
        """c's record per arc, (x0, y0, x1, y1, key, sign, strands) with
        the arc's xy box, and the xy box of the whole cycle."""
        got = self._placed.get(c)
        if got is None:
            arcs = []
            for key, sign in self._cycle(c)[1]:
                strands = self._arc(key)
                arcs.append((*strands[2], key, sign, strands))
            x0, y0, x1, y1 = zip(*(r[:4] for r in arcs))
            got = (arcs, (min(x0), min(y0), max(x1), max(y1)))
            self._placed[c] = got
        return got

    def _sum(self, a: DiCycle, b: DiCycle, store: bool) -> int:
        """Sum of sigma_A(e) * sigma_B(f) * S(e, f) over the arc pairs whose
        xy boxes meet, visited e over A, f over B, so a query raises what
        the full product of arc pairs would raise first.  Stores each new
        arc-pair count if store is set."""
        arcs_a, (ax0, ay0, ax1, ay1) = self._place(a)
        arcs_b, (bx0, by0, bx1, by1) = self._place(b)
        if ax0 > bx1 or bx0 > ax1 or ay0 > by1 or by0 > ay1:
            return 0
        pairs = self._pairs
        total = 0
        for ex0, ey0, ex1, ey1, e, sa, se in arcs_a:
            if ex0 > bx1 or bx0 > ex1 or ey0 > by1 or by0 > ey1:
                continue
            for fx0, fy0, fx1, fy1, f, sb, sf in arcs_b:
                if ex0 > fx1 or fx0 > ex1 or ey0 > fy1 or fy0 > ey1:
                    continue
                key = (e, f) if e < f else (f, e)
                s = pairs.get(key)
                if s is None:
                    s = arc_pair_crossings(se, sf)
                    if store:
                        pairs[key] = s
                total += sa * sb * s
        return total

    def lk(self, a: DiCycle, b: DiCycle) -> int:
        return self._lk(a, a.vertex_set(), b, b.vertex_set(), True)

    def lk_pairs(self, cycles: Sequence[DiCycle]) -> Iterator[tuple[int, int, int]]:
        """(i, j, lk) of every pair i < j in combinations order, each cycle
        realized and self-checked first.  Stores no arc-pair count: an arc
        on two of the cycles puts both its ends on both, so their pair
        raises DisjointnessViolated, and no other pair is read again."""
        for c in cycles:
            self._cycle(c)
        verts = [c.vertex_set() for c in cycles]
        for (i, a), (j, b) in combinations(enumerate(cycles), 2):
            yield i, j, self._lk(a, verts[i], b, verts[j], False)

    def _lk(self, a: DiCycle, va: frozenset, b: DiCycle, vb: frozenset, lone: bool) -> int:
        """lk(a, b).  A lone query (lk) realizes and self-checks both cycles
        before any arc and stores every new arc-pair count; lk_pairs did
        the first for all its cycles and stores none."""
        if va & vb:
            raise DisjointnessViolated(f"cycles share vertices {sorted(va & vb)}")
        if lone:
            self._cycle(a)
            self._cycle(b)
        while True:
            try:
                total = self._sum(a, b, lone)
                break
            except DegenerateProjection as ex:
                self._next_shear(ex)
        if total % 2:
            raise Impossible(f"odd signed crossing sum {total} between two cycles")
        return total // 2

    def omega(self, a: DiCycle, b: DiCycle) -> int:
        return self.lk(a, b) & 1


def linking_table(loops: Sequence) -> dict[tuple[int, int], int]:
    """Linking number of every component pair, from one shared projection.

    Keys are (i, j) with i < j in the order the loops were given.
    """
    diagram, _ = project_with_retry(loops)
    sums: dict[tuple[int, int], int] = {}
    for a, b, sign in diagram.crossings:
        if a != b:
            key = (a, b) if a < b else (b, a)
            sums[key] = sums.get(key, 0) + sign
    out: dict[tuple[int, int], int] = {}
    n = len(diagram.gauss)
    for i in range(n):
        for j in range(i + 1, n):
            s = sums.get((i, j), 0)
            if s % 2:
                raise Impossible(f"odd signed crossing sum {s} between components {i} and {j}")
            out[(i, j)] = s // 2
    return out


def linking_number(a, b) -> int:
    """Linking number of two disjoint closed curves: half the signed sum of
    the crossings between them."""
    return linking_table([a, b])[(0, 1)]


# ---------------------------------------------------------------------------
# second Conway coefficient: interleaved crossing pairs and the Alexander matrix


def _knot(knot) -> LinkDiagram:
    """A knot's one-loop diagram: a diagram is read as it is, a closed loop
    is projected."""
    diagram = knot if isinstance(knot, LinkDiagram) else project_with_retry([knot]).diagram
    if len(diagram.gauss) != 1:
        raise ValueError("knot invariants need a single closed loop")
    return diagram


def a2(knot) -> int:
    """Second Conway coefficient of a knot via the interleaved-pair count.

    ``knot`` is a closed loop or its one-loop :class:`LinkDiagram`.  Walk
    the knot once; each crossing is visited twice.  Crossings a and b
    interleave when their visits alternate a, b, a, b around the walk.
    The value sums sign(a) * sign(b) over the interleaved pairs whose
    earlier crossing a is first met over and whose later crossing b is
    first met under; it is independent of where the walk starts and of
    the knot's orientation.
    """
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    info: dict[int, tuple[bool, int]] = {}
    for pos, (cid, over, sign) in enumerate(_knot(knot).gauss[0]):
        if cid not in first:
            first[cid] = pos
            info[cid] = (over, sign)
        else:
            second[cid] = pos
    total = 0
    # first visits in walk order
    cids = list(first)
    for ia, a in enumerate(cids):
        over_a, sign_a = info[a]
        if not over_a:
            continue
        for b in cids[ia + 1:]:
            over_b, sign_b = info[b]
            if not over_b and first[b] < second[a] < second[b]:
                total += sign_a * sign_b
    return total


def a2_alexander(knot) -> int:
    """Second Conway coefficient of a knot from its Alexander matrix, in
    O(c^2) exact integer steps for c crossings.

    ``knot`` is a closed loop or its one-loop :class:`LinkDiagram`.  Arc k
    of the walk ends at the k-th under-pass, and that crossing gives row k
    of M(t): (1 - t) at its over arc, t at arc k and -1 at arc k + 1 when
    positive; (t - 1), 1 and -t when negative.  Dropping the last row and
    column leaves D(t) = t^m * Delta(t), with Delta(1) = 1, Delta'(1) = 0
    and Delta''(1) = 2*a2, so D(1) = 1, D'(1) = m and
    D''(1) = m(m - 1) + 2*a2.  With M(1 + s) = M0 + s*M1, the kept part
    of M0 is I - N for the shift N onto the superdiagonal, so
    A = (I - N)^-1 * M1 holds suffix sums of M1's rows and
    D(1 + s) = det(I + s*A) = 1 + s*tr(A) + s^2*(tr(A)^2 - tr(A^2))/2
    modulo s^3.
    """
    passes = _knot(knot).gauss[0]
    c = len(passes) // 2
    if c < 2:
        return 0
    # per crossing, in the order of its under-pass: (over arc, sign)
    rows: list[tuple[int, int]] = []
    over_arc: dict[int, int] = {}
    for cid, over, sign in passes:
        if over:
            over_arc[cid] = len(rows) % c
        else:
            rows.append((cid, sign))
    # rows of A, bottom up: running sums of M1's rows (-1 over and +1
    # incoming when positive, +1 over and -1 outgoing when negative); the
    # dropped last column is carried along and never read
    a: list[list[int]] = []
    acc = [0] * c
    for k in range(c - 2, -1, -1):
        cid, sign = rows[k]
        acc = acc[:]
        acc[over_arc[cid]] -= sign
        acc[k if sign > 0 else k + 1] += sign
        a.append(acc)
    a.reverse()
    n = c - 1
    m = sum(a[i][i] for i in range(n))
    cols = list(zip(*a))
    tr_sq = sum(sum(x * y for x, y in zip(a[i], cols[i])) for i in range(n))
    twice_e2 = m * m - tr_sq
    if twice_e2 % 2:
        raise Impossible(f"odd tr(A)^2 - tr(A^2) = {twice_e2} in the Alexander route")
    return twice_e2 // 2 - m * (m - 1) // 2


def a2_routes(knot) -> tuple[int, int]:
    """(a2, a2_alexander) of a knot, both read off one projection."""
    diagram = _knot(knot)
    return a2(diagram), a2_alexander(diagram)


# ---------------------------------------------------------------------------
# second Conway coefficient, test oracle: skein recursion

PassEntry = tuple[int, bool, int]
PassList = tuple[PassEntry, ...]
Poly = dict[int, int]


def _canonical(passes: tuple[PassList, ...]) -> tuple[PassList, ...]:
    # renumber crossing ids by first appearance so equal shapes share memo hits
    relabel: dict[int, int] = {}
    out = []
    for comp in passes:
        oc = []
        for cid, over, sign in comp:
            r = relabel.setdefault(cid, len(relabel))
            oc.append((r, over, sign))
        out.append(tuple(oc))
    return tuple(out)


def _padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for d, c in q.items():
        s = out.get(d, 0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _pzmul(p: Poly, k: int) -> Poly:
    # multiply by k*z, k = +1 or -1
    return {d + 1: c * k for d, c in p.items()}


def _conway(passes: tuple[PassList, ...], memo: dict) -> Poly:
    key = _canonical(passes)
    got = memo.get(key)
    if got is not None:
        return got

    if any(not comp for comp in key):
        # a component with no crossings is split off
        result = {0: 1} if len(key) == 1 else {}
        memo[key] = result
        return result

    # first crossing met on the under strand, scanning components in order
    seen: set[int] = set()
    bad: tuple[int, int] | None = None
    for ci, comp in enumerate(key):
        for pi, (cid, over, _) in enumerate(comp):
            if cid in seen:
                continue
            seen.add(cid)
            if not over:
                bad = (ci, pi)
                break
        if bad:
            break
    if bad is None:
        # fully descending: an unknot, or a split collection of them
        result = {0: 1} if len(key) == 1 else {}
        memo[key] = result
        return result

    cid0 = key[bad[0]][bad[1]][0]
    locs = [
        (ci, pi)
        for ci, comp in enumerate(key)
        for pi, e in enumerate(comp)
        if e[0] == cid0
    ]
    if len(locs) != 2:
        raise Impossible(f"crossing {cid0} is passed {len(locs)} times, not twice")
    (c1, p1), (c2, p2) = locs
    sign0 = key[c1][p1][2]

    switched = tuple(
        tuple(
            (cid, (not over) if cid == cid0 else over, -sign if cid == cid0 else sign)
            for (cid, over, sign) in comp
        )
        for comp in key
    )

    if c1 == c2:
        comp = key[c1]
        i, j = sorted((p1, p2))
        pieces = (comp[i + 1 : j], comp[j + 1 :] + comp[:i])
        smoothed = key[:c1] + pieces + key[c1 + 1 :]
    else:
        a_comp, b_comp = key[c1], key[c2]
        merged = a_comp[:p1] + b_comp[p2 + 1 :] + b_comp[:p2] + a_comp[p1 + 1 :]
        smoothed = key[:c1] + (merged,) + key[c1 + 1 : c2] + key[c2 + 1 :]

    result = _padd(_conway(switched, memo), _pzmul(_conway(smoothed, memo), sign0))
    memo[key] = result
    return result


def conway_from_diagram(diagram: LinkDiagram, max_crossings: int = 16) -> Poly:
    """Conway polynomial of a diagram by skein recursion, as {degree: coeff}.

    Exponential in the crossing number; refuses diagrams above the bound.
    """
    if len(diagram.crossings) > max_crossings:
        raise TooLarge(
            f"{len(diagram.crossings)} crossings exceed the skein bound of {max_crossings}"
        )
    return _conway(diagram.gauss, {})


def a2_skein(knot, max_crossings: int = 16) -> int:
    """Second Conway coefficient by skein recursion, for a closed loop or
    its one-loop :class:`LinkDiagram`.  Exponential in the crossing count;
    tests use it as an oracle for the other two routes."""
    poly = conway_from_diagram(_knot(knot), max_crossings)
    if poly.get(0, 0) != 1:
        raise Impossible("knot Conway polynomial must have constant term 1")
    return poly.get(2, 0)
