"""Constructions and verifiers over embedded directed cycles.

Everything here takes a LinkTable on validated geometry plus combinatorial
cycles, runs a construction or a bounded check, and hands back the result
together with a certificate: a JSON-compatible record of the inputs, every
choice made, the outputs, and a recomputed table proving the claimed
inequalities.  The module never trusts its own bookkeeping; each
postcondition is re-derived from the embedding before a result is
returned, and :func:`replay_certificate` runs a certificate's construction
again on its recorded inputs and requires the same certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple, Optional, Sequence

from dilink import checks
from dilink.digraph import (
    DiCycle,
    connector_cycle,
    directionality,
    nabla,
    nabla_eps,
)
from dilink.errors import (
    ArithmeticOverflow,
    ConstructionFailed,
    HypothesisViolated,
    Impossible,
    NotACycle,
    NotEnoughKeyrings,
    SurgeryFailed,
)
from dilink.invariants import LinkTable, a2_routes
from dilink.patterns import DEFAULT_BUDGET, compute_pattern, find_disjoint_keyrings
from dilink.z2linalg import Z2Matrix, bits_to_vector, heavy_vector

__all__ = [
    "BigZResult",
    "BiparCounts",
    "BiparResult",
    "CONSTRUCTIONS",
    "ConstructionCertificate",
    "Lemma1Result",
    "Prop1Result",
    "SearchReport",
    "Theorem1Result",
    "VerificationReport",
    "big_z",
    "bipar_counts",
    "bipar_z",
    "conway_gordon_parity",
    "growth_function",
    "lemma1_find_odd_links",
    "prop1_step",
    "replay_certificate",
    "search_lemma7_knot",
    "theorem1_step",
    "theorem2_params",
    "verify_lemma6_conclusion",
]


@dataclass(frozen=True)
class ConstructionCertificate:
    """Auditable record of one construction run.

    ``inputs`` hold every argument of the construction but its table;
    ``inputs`` and ``outputs`` store cycles in their JSON form; ``choices``
    records every decision (discards, reversals, surgery rows, ladder
    indices); ``checks`` is the recomputed invariant table.  All values are
    JSON-compatible, with lists where the construction holds tuples.
    """

    kind: str
    inputs: dict
    choices: dict
    outputs: dict
    checks: dict

    def to_json(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# shared helpers


def _cycles_json(cycles: Sequence[DiCycle]) -> list[dict]:
    return [c.to_json() for c in cycles]


def _surgery_chain(base: DiCycle, pieces: Sequence[DiCycle]) -> DiCycle:
    out = base
    for idx, piece in enumerate(pieces):
        try:
            out = nabla(out, piece)
        except NotACycle as ex:
            raise SurgeryFailed(f"surgery step {idx} failed: {ex}") from ex
    return out


# ---------------------------------------------------------------------------
# odd-pair finder on six-vertex blocks


def _triangle(tri: Sequence[int]) -> DiCycle:
    # arcs run from the lower id to the higher, so a sorted triangle
    # traversal uses two along-steps and one against-step
    a, b, c = sorted(tri)
    return DiCycle((a, b, c), (True, True, False))


def _block_table(cache: LinkTable, block: Sequence[int]) -> list[list]:
    """ω of the 10 disjoint triangle pairs of a 6-vertex block, one row
    [triangle, complement, ω] per pair, the triangle holding the lowest id."""
    lead, *rest = sorted(block)
    table = []
    for two in combinations(rest, 2):
        tri = [lead, *two]
        comp = [v for v in rest if v not in two]
        table.append([tri, comp, cache.omega(_triangle(tri), _triangle(comp))])
    return table


@dataclass(frozen=True)
class Lemma1Result:
    pairs: tuple[tuple[DiCycle, DiCycle], ...]
    certificate: ConstructionCertificate
    checks: list[dict]


def lemma1_find_odd_links(table: LinkTable, m: int) -> Lemma1Result:
    """In each consecutive 6-vertex block, find two disjoint triangles with
    odd linking number.

    Arcs are always taken from the lower vertex id to the higher, which
    makes every triangle 2-directional.  A parity count over all 10
    disjoint-triangle pairs per block is recorded; an even total would
    contradict the ambient parity invariant, so exhausting a block raises
    Impossible with the full table rather than returning quietly.
    Linking numbers come from ``table``, the caller's table on the
    embedding whose vertices are blocked.
    """
    ids = sorted(table.emb.vertices)
    if m < 1 or len(ids) != 6 * m:
        raise HypothesisViolated(
            f"need exactly 6*m vertices, got {len(ids)} for m={m}"
        )
    chosen: list[tuple[DiCycle, DiCycle]] = []
    blocks_json = []
    for bi in range(m):
        block = ids[6 * bi : 6 * bi + 6]
        rows = _block_table(table, block)
        winner = next(
            ((_triangle(tri), _triangle(comp)) for tri, comp, w in rows if w == 1),
            None,
        )
        parity = sum(row[2] for row in rows) % 2
        if winner is None:
            raise Impossible(
                f"block {bi}: all 10 disjoint triangle pairs have even "
                f"linking number",
                table={"block": block, "pairs": rows},
            )
        if directionality(winner[0]) != 2 or directionality(winner[1]) != 2:
            raise ConstructionFailed("chosen triangles are not 2-directional")
        chosen.append(winner)
        blocks_json.append(
            {
                "block": list(block),
                "pairs": rows,
                "parity": parity,
                "chosen": [winner[0].to_json(), winner[1].to_json()],
            }
        )
    entries = checks.lemma1([b["parity"] for b in blocks_json], len(chosen), m)
    cert = ConstructionCertificate(
        kind="lemma1",
        inputs={"m": m, "vertices": ids},
        choices={"blocks": blocks_json},
        outputs={"pairs": [[a.to_json(), b.to_json()] for a, b in chosen]},
        checks={
            "parities": [b["parity"] for b in blocks_json],
            "deltas": [[directionality(a), directionality(b)] for a, b in chosen],
        },
    )
    return Lemma1Result(pairs=tuple(chosen), certificate=cert, checks=entries)


def conway_gordon_parity(table: LinkTable) -> tuple[list, int]:
    """All 10 disjoint triangle-pair parities of a 6-vertex embedding, read
    from ``table``, the caller's table on it, and their sum mod 2 (always 1
    for a valid embedding)."""
    ids = sorted(table.emb.vertices)
    if len(ids) != 6:
        raise HypothesisViolated("parity sweep needs exactly 6 vertices")
    rows = _block_table(table, ids)
    return rows, sum(row[2] for row in rows) % 2


# ---------------------------------------------------------------------------
# parity-linking construction (one cycle linking at least n/2 of 2n targets;
# at least n when the connector alone links fewer than n/2)


@dataclass(frozen=True)
class BigZResult:
    z: DiCycle
    index_set: tuple[int, ...]
    certificate: ConstructionCertificate
    checks: list[dict]


def big_z(
    js: Sequence[DiCycle],
    xs: Sequence[DiCycle],
    table: LinkTable,
    target_delta: int = 1,
    extra_vertices: Sequence[int] = (),
) -> BigZResult:
    """Build one cycle of the target directionality that links at least n/2
    of the 2n target cycles mod 2, the bound the result is checked against.

    ``js`` are 2n chained 2-directional cycles, ``xs`` the 2n targets, with
    the diagonal hypothesis ω(J_i, X_i) = 1 for i < n.  The connector cycle
    C over all J's is returned directly when it already links at least n/2
    targets, and its parities c are the result's.  Otherwise the heavy
    path runs: surgering J_i into C flips C's parities by row i of the
    parity matrix, whose diagonal is all ones, so ``heavy_vector`` picks
    the rows v for which c ^ v links at least n of the 2n targets, and the
    surgered cycle's parities are queried.  So the shortcut asks n + 2n lk
    queries and the heavy path n + 2n + (2n)^2 + 2n.  Linking numbers come
    from ``table``, the caller's table on the cycles' embedding.
    """
    js = list(js)
    xs = list(xs)
    if len(js) < 2 or len(js) % 2 or len(js) != len(xs):
        raise HypothesisViolated("need 2n chained cycles and 2n targets")
    n = len(js) // 2
    for i, j in enumerate(js):
        if directionality(j) != 2:
            raise HypothesisViolated(f"chained cycle {i} is not 2-directional")
    for i in range(n):
        if table.omega(js[i], xs[i]) != 1:
            raise HypothesisViolated(
                f"diagonal parity fails at index {i}: ω(J_{i}, X_{i}) = 0"
            )
    connector = connector_cycle(js, target_delta, extra_vertices=extra_vertices)
    c_parities = [table.omega(connector, x) for x in xs]
    shortcut = 2 * sum(c_parities) >= n

    witness_rows: tuple[int, ...] = ()
    matrix_lists: list[list[int]] = []
    if shortcut:
        z, z_parities = connector, c_parities
    else:
        matrix_lists = [[table.omega(j, x) for x in xs] for j in js]
        for i in range(len(js)):
            if matrix_lists[i][i] != 1:
                raise HypothesisViolated(
                    f"parity matrix diagonal fails at index {i}"
                )
        hv = heavy_vector(Z2Matrix.from_lists(matrix_lists), bits_to_vector(c_parities))
        witness_rows = hv.rows
        z = _surgery_chain(connector, [js[i] for i in witness_rows])
        z_parities = [table.omega(z, x) for x in xs]

    index_set = tuple(i for i, w in enumerate(z_parities) if w == 1)
    d = directionality(z)
    entries = checks.big_z(z_parities, index_set, n, d, target_delta)

    cert = ConstructionCertificate(
        kind="big_z",
        inputs={
            "js": _cycles_json(js),
            "xs": _cycles_json(xs),
            "target_delta": target_delta,
            "extra_vertices": list(extra_vertices),
            "q_policy": "lex",
        },
        choices={
            "shortcut": shortcut,
            "connector_parities": c_parities,
            "parity_matrix": matrix_lists,
            "witness_rows": list(witness_rows),
        },
        outputs={"z": z.to_json(), "index_set": list(index_set)},
        checks={"z_parities": z_parities, "delta": d},
    )
    return BigZResult(z=z, index_set=index_set, certificate=cert, checks=entries)


# ---------------------------------------------------------------------------
# weighted bipartite construction (every target linked with weight > lam)


@dataclass(frozen=True)
class BiparResult:
    z: DiCycle
    certificate: ConstructionCertificate
    checks: list[dict]


def _majority_halving(
    kept: list[int],
    signs: list[int],
    table: dict[tuple[int, int], int],
    targets: range,
) -> tuple[list[int], list[dict]]:
    """One sign-halving pass: per target, keep the majority sign class.

    A negative majority flips the target's orientation (recorded in
    ``signs``); ties keep the positive class.  Zero entries never survive.
    """
    record = []
    for t in targets:
        pos = [i for i in kept if signs[t] * table[(i, t)] > 0]
        neg = [i for i in kept if signs[t] * table[(i, t)] < 0]
        flipped = len(neg) > len(pos)
        if flipped:
            signs[t] = -signs[t]
            kept = neg
        else:
            kept = pos
        record.append(
            {"target": t, "flipped": flipped, "kept": list(kept)}
        )
    return kept, record


class BiparCounts(NamedTuple):
    """How many chained cycles of each family ``bipar_z`` keeps, and how
    many it needs, over m X targets and n_y Y targets at threshold λ."""

    keep_j: int  # m(2λ+1) first-family cycles
    keep_l: int  # (m+n_y)(2λ+1) second-family cycles
    min_r: int   # keep_j · 2^m
    min_q: int   # keep_l · 3^m · 2^n_y


def bipar_counts(m: int, n_y: int, lam: int) -> BiparCounts:
    keep_j = m * (2 * lam + 1)
    keep_l = (m + n_y) * (2 * lam + 1)
    return BiparCounts(keep_j, keep_l, keep_j * 2**m, keep_l * 3**m * 2**n_y)


def _bipar_hypotheses(
    js: list[DiCycle], ls: list[DiCycle], xs: list[DiCycle], ys: list[DiCycle],
    table: LinkTable, lam: int,
) -> tuple[int, int, dict, dict]:
    """Raise HypothesisViolated unless bipar_z's hypotheses hold: four
    nonempty families, lam >= 0, enough chained cycles of each family for
    ``bipar_counts``, every chained cycle 2-directional and every lk(J_i,
    X_a) and lk(L_j, Y_b) nonzero.  Returns the counts of J's and L's kept
    and those two lk tables."""
    m, n_y, r, q = len(xs), len(ys), len(js), len(ls)
    if min(m, n_y, r, q) < 1:
        raise HypothesisViolated("all four families must be nonempty")
    if lam < 0:
        raise HypothesisViolated("threshold must be nonnegative")
    keep_j_count, keep_l_count, min_r, min_q = bipar_counts(m, n_y, lam)
    if r < min_r:
        raise HypothesisViolated(
            f"r = {r} < {min_r} chained cycles of the first family"
        )
    if q < min_q:
        raise HypothesisViolated(
            f"q = {q} < {min_q} chained cycles of the second family"
        )
    for fam, name in ((js, "first"), (ls, "second")):
        for i, c in enumerate(fam):
            if directionality(c) != 2:
                raise HypothesisViolated(
                    f"{name}-family cycle {i} is not 2-directional"
                )
    lk_jx = {(i, a): table.lk(js[i], xs[a]) for i in range(r) for a in range(m)}
    lk_ly = {(j, b): table.lk(ls[j], ys[b]) for j in range(q) for b in range(n_y)}
    for (i, a), v in sorted(lk_jx.items()):
        if v == 0:
            raise HypothesisViolated(f"lk(J_{i}, X_{a}) = 0")
    for (j, b), v in sorted(lk_ly.items()):
        if v == 0:
            raise HypothesisViolated(f"lk(L_{j}, Y_{b}) = 0")
    return keep_j_count, keep_l_count, lk_jx, lk_ly


def bipar_z(
    js: Sequence[DiCycle],
    ls: Sequence[DiCycle],
    xs: Sequence[DiCycle],
    ys: Sequence[DiCycle],
    table: LinkTable,
    lam: int,
    target_delta: int = 1,
    extra_vertices: Sequence[int] = (),
) -> BiparResult:
    """Build one cycle whose linking number with every X and Y target
    exceeds ``lam`` in magnitude.

    Three discard phases first make the surviving chained cycles link every
    target with a uniform sign (orientation reversals are recorded, never
    silent).  A connector cycle over the survivors is then improved twice:
    climbing the J-surgery ladder until a column of the X-linking matrix
    clears the threshold, then the L-surgery ladder for the Y's and the
    sign-carrying X's.  Strict ladder monotonicity and the final table are
    recomputed from geometry on every run.  Linking numbers come from
    ``table``, the caller's table on the cycles' embedding.
    """
    js, ls, xs, ys = list(js), list(ls), list(xs), list(ys)
    m, n_y, r, q = len(xs), len(ys), len(js), len(ls)
    keep_j_count, keep_l_count, lk_jx, lk_ly = _bipar_hypotheses(js, ls, xs, ys, table, lam)
    lk_lx = {(j, a): table.lk(ls[j], xs[a]) for j in range(q) for a in range(m)}

    # phase 1: halve the J's over the X targets
    sign_x = [1] * m
    kept_j_all, rec1 = _majority_halving(list(range(r)), sign_x, lk_jx, range(m))
    if len(kept_j_all) < keep_j_count:
        raise ConstructionFailed(
            f"phase 1 kept {len(kept_j_all)} cycles, below {keep_j_count}"
        )
    kept_j = kept_j_all[:keep_j_count]

    # phase 2: halve the L's over the Y targets (no truncation yet)
    sign_y = [1] * n_y
    kept_l_all, rec2 = _majority_halving(list(range(q)), sign_y, lk_ly, range(n_y))

    # phase 3: third the remaining L's by sign against each X target
    cats: list[str] = []
    rec3 = []
    for a in range(m):
        plus = [j for j in kept_l_all if sign_x[a] * lk_lx[(j, a)] > 0]
        zero = [j for j in kept_l_all if lk_lx[(j, a)] == 0]
        minus = [j for j in kept_l_all if sign_x[a] * lk_lx[(j, a)] < 0]
        cat, kept_l_all = max(
            (("+", plus), ("0", zero), ("-", minus)),
            key=lambda kv: (len(kv[1]), -["+", "0", "-"].index(kv[0])),
        )
        cats.append(cat)
        rec3.append({"target": a, "category": cat, "kept": list(kept_l_all)})
    if len(kept_l_all) < keep_l_count:
        raise ConstructionFailed(
            f"phase 3 kept {len(kept_l_all)} cycles, below {keep_l_count}"
        )
    kept_l = kept_l_all[:keep_l_count]

    # connector over the survivors, short paths opposite each orientation
    chain = [js[i] for i in kept_j] + [ls[j] for j in kept_l]
    connector = connector_cycle(
        chain, target_delta, q_policy="opposite", extra_vertices=extra_vertices
    )

    # J ladder: strictly monotone linking growth against every X
    ladder_c = [connector]
    for s in range(keep_j_count):
        ladder_c.append(_surgery_chain(ladder_c[-1], [js[kept_j[s]]]))
    a_matrix = [
        [sign_x[a] * table.lk(c, xs[a]) for c in ladder_c] for a in range(m)
    ]
    for a in range(m):
        for s in range(keep_j_count):
            inc = a_matrix[a][s + 1] - a_matrix[a][s]
            want = sign_x[a] * lk_jx[(kept_j[s], a)]
            if inc != want or inc < 1:
                raise ConstructionFailed(
                    f"J ladder step {s} moved lk against X_{a} by {inc}, "
                    f"expected +{want}"
                )
    s_star = next(
        (
            s
            for s in range(keep_j_count + 1)
            if all(abs(a_matrix[a][s]) > lam for a in range(m))
        ),
        None,
    )
    if s_star is None:
        raise ConstructionFailed(
            "no J-ladder column exceeds the threshold for every X; the "
            "pigeonhole bound rules this out for valid inputs"
        )
    d0 = ladder_c[s_star]

    # orient the sign-carrying X's so the L ladder climbs them too
    late_flips = [a for a in range(m) if cats[a] == "-"]
    for a in late_flips:
        sign_x[a] = -sign_x[a]
    s_rows: list[tuple[str, int]] = [("y", b) for b in range(n_y)]
    s_rows += [("x", a) for a in range(m) if cats[a] != "0"]

    ladder_d = [d0]
    for t in range(keep_l_count):
        ladder_d.append(_surgery_chain(ladder_d[-1], [ls[kept_l[t]]]))

    def row_value(kind: str, idx: int, cyc: DiCycle) -> int:
        sgn = sign_y[idx] if kind == "y" else sign_x[idx]
        tgt = ys[idx] if kind == "y" else xs[idx]
        return sgn * table.lk(cyc, tgt)

    b_matrix = [
        [row_value(kind, idx, d) for d in ladder_d] for kind, idx in s_rows
    ]
    for rix, (kind, idx) in enumerate(s_rows):
        for t in range(keep_l_count):
            inc = b_matrix[rix][t + 1] - b_matrix[rix][t]
            if inc < 1:
                raise ConstructionFailed(
                    f"L ladder step {t} moved lk against {kind}_{idx} by {inc}"
                )
    t_star = next(
        (
            t
            for t in range(keep_l_count + 1)
            if all(abs(b_matrix[rix][t]) > lam for rix in range(len(s_rows)))
        ),
        None,
    )
    if t_star is None:
        raise ConstructionFailed(
            "no L-ladder column exceeds the threshold for every tracked target"
        )
    z = ladder_d[t_star]

    # final table, all recomputed raw (orientation flips cannot hide here)
    final_x = [table.lk(z, x) for x in xs]
    final_y = [table.lk(z, y) for y in ys]
    for a in range(m):
        if cats[a] == "0":
            base = table.lk(d0, xs[a])
            if final_x[a] != base:
                raise ConstructionFailed(
                    f"lk against X_{a} drifted from {base} to {final_x[a]} "
                    f"although no surviving cycle links it"
                )
    d = directionality(z)
    entries = checks.bipar_z(final_x, final_y, lam, d, target_delta)

    cert = ConstructionCertificate(
        kind="bipar_z",
        inputs={
            "js": _cycles_json(js),
            "ls": _cycles_json(ls),
            "xs": _cycles_json(xs),
            "ys": _cycles_json(ys),
            "lam": lam,
            "target_delta": target_delta,
            "extra_vertices": list(extra_vertices),
        },
        choices={
            "phase1": rec1,
            "phase2": rec2,
            "phase3": rec3,
            "kept_j": list(kept_j),
            "kept_l": list(kept_l),
            "categories": cats,
            "late_x_flips": late_flips,
            "sign_x": list(sign_x),
            "sign_y": list(sign_y),
            "s_star": s_star,
            "t_star": t_star,
        },
        outputs={"z": z.to_json()},
        checks={
            "a_matrix": a_matrix,
            "b_matrix": b_matrix,
            "s_rows": [list(rw) for rw in s_rows],
            "final_x": final_x,
            "final_y": final_y,
            "delta": d,
        },
    )
    return BiparResult(z=z, certificate=cert, checks=entries)


# ---------------------------------------------------------------------------
# keyring rounds toward a complete bipartite parity pattern


@dataclass(frozen=True)
class Prop1Result:
    zs: tuple[DiCycle, ...]
    index_set: tuple[int, ...]
    witness: dict
    certificate: ConstructionCertificate
    checks: list[dict]


def prop1_step(
    table: LinkTable,
    candidates: Sequence[DiCycle],
    n: int,
    target_delta: int = 1,
    extra_sets: Sequence[Sequence[int]] = (),
    budget: int = DEFAULT_BUDGET,
) -> Prop1Result:
    """Build n disjoint cycles that all link the same n cycles oddly.

    Locates 2n vertex-disjoint keyrings (a center linking n keys oddly)
    among the candidates, then runs the parity-linking construction once
    per key position, intersecting the resulting target index sets.  The
    intersection must retain at least n targets; structured inputs keep
    every target.  A candidate pattern without the keyrings raises
    NotEnoughKeyrings.  Linking numbers come from ``table``, the caller's
    table on the candidates' embedding.
    """
    if n < 1:
        raise HypothesisViolated("need n >= 1")
    candidates = list(candidates)
    if extra_sets and len(extra_sets) != n:
        raise HypothesisViolated("one extra-vertex set per round, or none")
    pattern = compute_pattern(candidates, table)
    stars = find_disjoint_keyrings(pattern, count=2 * n, keys=n, budget=budget)
    if stars is None:
        raise NotEnoughKeyrings(
            f"candidate pattern holds no {2 * n} disjoint keyrings of {n} keys"
        )
    centers = [st["center"] for st in stars]
    xs = [candidates[c] for c in centers]
    eps_table = [directionality(x) for x in xs]

    zs: list[DiCycle] = []
    round_certs = []
    current: Optional[set[int]] = None
    for j in range(n):
        round_js = [candidates[st[f"k{j}"]] for st in stars]
        extras = list(extra_sets[j]) if extra_sets else []
        sub = big_z(round_js, xs, table, target_delta=target_delta, extra_vertices=extras)
        zs.append(sub.z)
        round_certs.append(sub.certificate.to_json())
        got = set(sub.index_set)
        current = got if current is None else (current & got)
    index_set = tuple(sorted(current or ()))
    # the intersection before the witness, which needs n shared targets
    checks.prop1(index_set, n, ())

    # exhibit the complete bipartite parity witness and re-verify it
    picked = index_set[:n]
    witness_pattern = compute_pattern(
        list(zs) + [candidates[centers[i]] for i in picked], table
    )
    witness = {f"x{j}": j for j in range(n)}
    witness.update({f"y{i}": n + i for i in range(n)})
    omega_table = [
        [witness_pattern.weight(j, n + i) % 2 for i in range(n)] for j in range(n)
    ]
    entries = checks.prop1(index_set, n, omega_table)
    cert = ConstructionCertificate(
        kind="prop1",
        inputs={
            "candidates": _cycles_json(candidates),
            "n": n,
            "target_delta": target_delta,
            "extra_sets": [list(e) for e in extra_sets],
            "budget": budget,
            "q_policy": "lex",
        },
        choices={
            "stars": stars,
            "centers": centers,
            "rounds": round_certs,
            "picked": list(picked),
        },
        outputs={
            "zs": _cycles_json(zs),
            "index_set": list(index_set),
            "witness": witness,
        },
        checks={"omega_table": omega_table, "ring_deltas": eps_table},
    )
    return Prop1Result(
        zs=tuple(zs), index_set=index_set, witness=witness, certificate=cert,
        checks=entries,
    )


# ---------------------------------------------------------------------------
# one induction step of the multipartite pattern growth


@dataclass(frozen=True)
class Theorem1Result:
    witness: dict
    z: DiCycle
    certificate: ConstructionCertificate
    checks: list[dict]


def theorem1_step(
    table: LinkTable,
    candidates: Sequence[DiCycle],
    witness: dict,
    m: int,
    lam: int,
    target_delta: int = 1,
    extra_vertices: Sequence[int] = (),
) -> Theorem1Result:
    """Grow a multipartite witness by one singleton class.

    ``witness`` maps "P1"/"P2" to the two big classes and "Q" to the list
    of singleton cycles, all as candidate indices.  The P1 tail plays the
    second chained family, the P2 tail the first, and the weighted
    construction produces the new singleton; the returned witness has both
    big classes cut down to m and one more Q entry.  Linking numbers come
    from ``table``, the caller's table on the candidates' embedding.
    """
    if m < 1:
        raise HypothesisViolated(f"need m >= 1, got {m}")
    candidates = list(candidates)
    for key in ("P1", "P2", "Q"):
        if key not in witness:
            raise HypothesisViolated(f"witness assignment missing {key!r}")
    p1 = [int(i) for i in witness["P1"]]
    p2 = [int(i) for i in witness["P2"]]
    qs = [int(i) for i in witness["Q"]]
    n = len(qs)
    s = len(p1)
    all_idx = p1 + p2 + qs
    if len(set(all_idx)) != len(all_idx) or any(
        not 0 <= i < len(candidates) for i in all_idx
    ):
        raise HypothesisViolated("witness indices overlap or fall out of range")
    if len(p2) != s or s <= m:
        raise HypothesisViolated("both big classes need size s = m + q > m")
    q_count = s - m
    # the P2 heads and the singletons are bipar_z's m + n Y targets
    expected_q = bipar_counts(m, m + n, lam).min_q
    if q_count != expected_q:
        raise HypothesisViolated(
            f"class size {s} = m + {q_count}, expected m + {expected_q}"
        )

    # verify the incoming parity pattern on the named components
    used = [candidates[i] for i in all_idx]
    pattern = compute_pattern(used, table)
    pos = {orig: k for k, orig in enumerate(all_idx)}
    for i in p1:
        for j in p2:
            if pattern.weight(pos[i], pos[j]) % 2 == 0:
                raise HypothesisViolated(
                    f"input classes are not fully parity-linked: "
                    f"components {i} and {j}"
                )
    lam_pairs = [(a, b) for a in qs for b in p1[:m] + p2[:m] + qs if a != b]
    for a, b in lam_pairs:
        w = pattern.weight(pos[a], pos[b])
        if w <= lam:
            raise HypothesisViolated(
                f"singleton weight |lk| = {w} <= {lam} between "
                f"components {a} and {b}"
            )

    x_cycles = [candidates[i] for i in p1[:m]]
    l_cycles = [candidates[i] for i in p1[m:]]
    y_cycles = [candidates[i] for i in p2[:m]] + [candidates[i] for i in qs]
    j_cycles = [candidates[i] for i in p2[m:]]
    sub = bipar_z(
        j_cycles,
        l_cycles,
        x_cycles,
        y_cycles,
        table,
        lam,
        target_delta=target_delta,
        extra_vertices=extra_vertices,
    )
    z = sub.z

    out_witness = {
        "P1": p1[:m],
        "P2": p2[:m],
        "Q": qs + ["new"],
    }
    # bipar_z has checked these weights against lam and z's δ against the
    # target; its Y targets are the P2 heads, then Q
    claims = sub.certificate.checks
    new_weights = {
        "x": [abs(v) for v in claims["final_x"]],
        "y": [abs(v) for v in claims["final_y"][:m]],
        "q": [abs(v) for v in claims["final_y"][m:]],
    }

    cert = ConstructionCertificate(
        kind="theorem1",
        inputs={
            "witness": {"P1": p1, "P2": p2, "Q": qs},
            "m": m,
            "lam": lam,
            "target_delta": target_delta,
            "extra_vertices": list(extra_vertices),
            "candidates": _cycles_json(candidates),
        },
        choices={"bipar": sub.certificate.to_json()},
        outputs={"witness": out_witness, "z": z.to_json()},
        checks={"new_weights": new_weights, "delta": claims["delta"]},
    )
    return Theorem1Result(witness=out_witness, z=z, certificate=cert, checks=sub.checks)


# ---------------------------------------------------------------------------
# conclusion verifier for the four-cycle surgery family


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: tuple[dict, ...]
    eps_table: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": list(self.checks),
            "eps_table": list(self.eps_table),
        }


def verify_lemma6_conclusion(
    w_prime: DiCycle,
    c_cycles: Sequence[DiCycle],
    a_cycles: Sequence[DiCycle],
    table: LinkTable,
    lam: int,
) -> VerificationReport:
    """Check a surgery-closure family against the linking threshold.

    Verifies that the base cycle is consistently directed and shares
    exactly one directed arc with each of the given cycles, then surgers
    every on/off combination of them and requires each result to link
    every target cycle with magnitude at least ``lam``, read from
    ``table``, the caller's table on the cycles' embedding.  Never raises;
    failures are itemized in the report.
    """
    c_cycles = list(c_cycles)
    a_cycles = list(a_cycles)
    checks: list[dict] = []
    d = directionality(w_prime)
    checks.append(
        {
            "name": "base-one-directional",
            "passed": d == 1,
            "detail": f"directionality {d}",
        }
    )
    w_arcs = w_prime.arc_multiset()
    for i, c in enumerate(c_cycles):
        shared = sorted(w_arcs & c.arc_multiset())
        checks.append(
            {
                "name": f"arc-count-c{i}",
                "passed": len(shared) == 1,
                "detail": f"shares {len(shared)} directed arcs: {shared}",
            }
        )

    eps_rows: list[dict] = []
    for eps in product((0, 1), repeat=len(c_cycles)):
        row: dict = {"eps": list(eps)}
        try:
            k = w_prime
            for e, c in zip(eps, c_cycles):
                k = nabla_eps(k, c, e)
            values = [table.lk(k, a) for a in a_cycles]
            row["lk"] = values
            row["passed"] = all(abs(v) >= lam for v in values)
            if not row["passed"]:
                row["below"] = [
                    h for h, v in enumerate(values) if abs(v) < lam
                ]
        except NotACycle as ex:
            row["passed"] = False
            row["error"] = str(ex)
        eps_rows.append(row)

    ok = all(c["passed"] for c in checks) and all(r["passed"] for r in eps_rows)
    return VerificationReport(
        ok=ok, checks=tuple(checks), eps_table=tuple(eps_rows)
    )


# ---------------------------------------------------------------------------
# bounded knot search over surgery combinations


@dataclass(frozen=True)
class SearchReport:
    status: str  # "found" | "inconclusive"
    knot: Optional[DiCycle]
    candidates_tried: int
    table: tuple[dict, ...]
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "knot": None if self.knot is None else self.knot.to_json(),
            "candidates_tried": self.candidates_tried,
            "table": list(self.table),
            "reason": self.reason,
        }


def search_lemma7_knot(
    a_cycles: Sequence[DiCycle],
    b_cycles: Sequence[DiCycle],
    table: LinkTable,
    lam: int,
    budget: int = 64,
) -> SearchReport:
    """Bounded search for a knotted cycle built on the given loop family.

    Candidates are connector cycles over the loops (both path policies)
    with every surgery subset applied.  A hit must be consistently
    directed, have second Conway coefficient at least lam^2/16 in magnitude
    (computed by the pair-count and the Alexander route on one projection,
    which must agree; neither caps the crossing count), and link every
    target with magnitude at least lam.  Linking numbers and knotting come
    from ``table``, the caller's table on the cycles' embedding.
    Exhausting the budget is reported as inconclusive, never as absence.
    """
    a_cycles = list(a_cycles)
    b_cycles = list(b_cycles)
    if len(b_cycles) < 2:
        raise HypothesisViolated("need at least two loops to chain")
    for h, a in enumerate(a_cycles):
        for i, b in enumerate(b_cycles):
            v = table.lk(a, b)
            if abs(v) < lam:
                raise HypothesisViolated(
                    f"|lk(A_{h}, B_{i})| = {abs(v)} < {lam}"
                )
    for i, j, v in table.lk_pairs(b_cycles):
        if abs(v) < lam:
            raise HypothesisViolated(f"|lk(B_{i}, B_{j})| = {abs(v)} < {lam}")

    need_a2_16 = lam * lam  # |a2| >= lam^2/16  <=>  16|a2| >= lam^2
    tried = 0
    rows: list[dict] = []
    seen: set[DiCycle] = set()
    for policy in ("lex", "opposite"):
        base = connector_cycle(b_cycles, q_policy=policy)
        for subset_size in range(len(b_cycles) + 1):
            for subset in combinations(range(len(b_cycles)), subset_size):
                if tried >= budget:
                    return SearchReport(
                        status="inconclusive",
                        knot=None,
                        candidates_tried=tried,
                        table=tuple(rows),
                        reason="budget exhausted",
                    )
                row: dict = {"policy": policy, "surgeries": list(subset)}
                tried += 1
                try:
                    k = _surgery_chain(base, [b_cycles[i] for i in subset])
                except SurgeryFailed as ex:
                    row.update(passed=False, error=str(ex))
                    rows.append(row)
                    continue
                if k in seen:
                    tried -= 1
                    continue
                seen.add(k)
                d = directionality(k)
                row["delta"] = d
                if d != 1:
                    row["passed"] = False
                    rows.append(row)
                    continue
                lks = [table.lk(k, a) for a in a_cycles]
                row["lk"] = lks
                v_pairs, v_alexander = a2_routes(table.diagram(k))
                if v_pairs != v_alexander:
                    raise ConstructionFailed(
                        f"knotting routes disagree: {v_pairs} vs {v_alexander}"
                    )
                row["a2"] = v_pairs
                row["passed"] = (
                    16 * abs(v_pairs) >= need_a2_16
                    and all(abs(v) >= lam for v in lks)
                )
                rows.append(row)
                if row["passed"]:
                    return SearchReport(
                        status="found",
                        knot=k,
                        candidates_tried=tried,
                        table=tuple(rows),
                    )
    return SearchReport(
        status="inconclusive",
        knot=None,
        candidates_tried=tried,
        table=tuple(rows),
        reason="all candidates exhausted",
    )


# ---------------------------------------------------------------------------
# parameter schedule


def growth_function(k: int) -> int:
    """k - 1 + 3k*2^(k-1), the per-step size amplifier."""
    if k < 1:
        raise ValueError("argument must be positive")
    return k - 1 + 3 * k * 2 ** (k - 1)


_GROWTH_LIMIT = 1 << 20


def theorem2_params(alpha: int, n: int) -> tuple[int, int]:
    """Threshold and start size for an alpha-strength, n-class target.

    Returns (lam, m) with lam = max(alpha, ceil(4*sqrt(alpha))), so that
    lam >= alpha and lam^2/16 >= alpha both hold in integer arithmetic,
    and m the n-fold iterate of the growth function on n.  The iterate is
    doubly exponential; arguments whose next step would exceed 2^(2^20)
    raise ArithmeticOverflow instead of hanging.
    """
    if alpha < 1 or n < 1:
        raise HypothesisViolated("alpha and n must be positive")
    root = math.isqrt(16 * alpha)
    if root * root < 16 * alpha:
        root += 1
    lam = max(alpha, root)
    if lam < alpha or lam * lam < 16 * alpha:
        raise Impossible(f"threshold {lam} is too weak for alpha = {alpha}")
    m = n
    for step in range(n):
        if m >= _GROWTH_LIMIT:
            raise ArithmeticOverflow(
                f"iterate {step} of the growth function on {n} needs "
                f"2^{m - 1}, past the supported range"
            )
        m = growth_function(m)
    return lam, m


# ---------------------------------------------------------------------------
# the construction table and certificate replay


# each certificate kind's construction, called with the caller's table and
# the inputs its certificate records, their cycles as DiCycle: the CLI runs
# a construction through this table, and replay_certificate runs it again
CONSTRUCTIONS = {
    "lemma1": lambda table, ins: lemma1_find_odd_links(table, ins["m"]),
    "big_z": lambda table, ins: big_z(
        ins["js"], ins["xs"], table, ins["target_delta"], ins["extra_vertices"],
    ),
    "bipar_z": lambda table, ins: bipar_z(
        ins["js"], ins["ls"], ins["xs"], ins["ys"], table, ins["lam"],
        ins["target_delta"], ins["extra_vertices"],
    ),
    "prop1": lambda table, ins: prop1_step(
        table, ins["candidates"], ins["n"], ins["target_delta"], ins["extra_sets"],
        ins["budget"],
    ),
    "theorem1": lambda table, ins: theorem1_step(
        table, ins["candidates"], ins["witness"], ins["m"], ins["lam"],
        ins["target_delta"], ins["extra_vertices"],
    ),
}

# the inputs a certificate records as lists of cycles
_CYCLE_INPUTS = {"js", "ls", "xs", "ys", "candidates"}


def _differing_path(again: dict, given: dict) -> list[str]:
    """The keys leading to the first field in which two unequal
    certificate dicts differ, descending while both sides are dicts."""
    for key in [*again, *(k for k in given if k not in again)]:
        if key not in again or key not in given:
            return [key]
        a, g = again[key], given[key]
        if a != g:
            if isinstance(a, dict) and isinstance(g, dict):
                return [key, *_differing_path(a, g)]
            return [key]
    return []


def replay_certificate(
    cert: ConstructionCertificate | dict, table: LinkTable
) -> Lemma1Result | BigZResult | BiparResult | Prop1Result | Theorem1Result:
    """Run a certificate's construction again on its recorded inputs and
    require the same certificate.

    The constructions are deterministic, so every recorded choice, output
    and check must come out again; the first field that does not raises
    ConstructionFailed naming its path.  A certificate of no kind in
    CONSTRUCTIONS, a hypothesis that fails on the recorded inputs, or
    inputs that are missing, mistyped or no cycle raise ConstructionFailed
    too.  Returns the construction's result.
    Every linking number is recomputed through ``table``, so the
    construction's own table can serve: it memoizes only geometry, never
    a certificate's claims.
    """
    given = cert.to_json() if isinstance(cert, ConstructionCertificate) else cert
    kind = given.get("kind") if isinstance(given, dict) else None
    if not isinstance(kind, str) or kind not in CONSTRUCTIONS:
        raise ConstructionFailed(f"no construction has the kind {kind!r}")
    try:
        ins = dict(given["inputs"])
        for key in _CYCLE_INPUTS & ins.keys():
            ins[key] = [DiCycle.from_json(o) for o in ins[key]]
        res = CONSTRUCTIONS[kind](table, ins)
    except HypothesisViolated as ex:
        raise ConstructionFailed(f"replay hypothesis fails: {ex}") from ex
    except (LookupError, TypeError, ValueError, NotACycle) as ex:
        # an input missing, of the wrong type or not a cycle
        raise ConstructionFailed(
            f"replay inputs are malformed: {type(ex).__name__}: {ex}"
        ) from ex
    again = res.certificate.to_json()
    if again != given:
        raise ConstructionFailed(f"replay differs at {'.'.join(_differing_path(again, given))}")
    return res
