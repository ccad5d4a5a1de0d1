"""The benchmark's three workloads: seeded inputs, op lists and output checks.

Set-up writes every input as an instance file in the current directory; an
op is one or more ``dilink`` command lines run one after another on those
files.  Each workload has

- ``setup(seed, gen)``: builds the files, returns the warm-up op and the
  ops of the timed phase (``gen`` runs ``dilink gen`` with the given
  arguments and returns the written path);
- ``outcome(op, results)``: ``"ok"``, ``"known"`` for a documented defect
  of the program that the workload keeps on purpose, or a description of
  an unexpected result;
- ``verify(op, results)``: re-derives a result by a route that shares no
  code with the one that produced it, returning the mismatches.

``results`` holds one ``(exit_code, report)`` per command line, with
``report`` the parsed JSON (``None`` if the command raised).
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

import lattice


class Op(NamedTuple):
    calls: tuple[tuple[str, ...], ...]
    kind: str
    lam: int = 0


def subseed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _all_ok(results) -> bool:
    return all(code == 0 and rep is not None and rep.get("ok") is True for code, rep in results)


def _loops(doc: dict) -> list:
    arcs = lattice.arc_points(doc)
    return [lattice.realize(arcs, c["vertices"], c["edge_choices"]) for c in doc["cycles"]]


def _shift(rng: random.Random, doc: dict) -> tuple[int, int, int]:
    """A random translation that keeps every coordinate inside the box."""
    slack = min(doc["box"] - lattice.max_coord(doc), 2**20)
    return tuple(rng.randint(-slack, slack) for _ in range(3))


class Construct:
    """``dilink bigz FILE`` on seeded ``big_z`` instances at n=16."""

    name = "construct"
    n = 16
    bases = 4  # distinct seeded instances; op files are translated copies
    files = 64
    round_size = 1
    digest_ops = 2
    sample_ops = 2

    def setup(self, seed: int, gen):
        rng = random.Random(subseed(seed, "construct"))
        docs = [
            lattice.load(gen("big_z", f"base{b}.json", "--n", str(self.n),
                             "--seed", str(subseed(seed, f"construct:{b}"))))
            for b in range(self.bases)
        ]

        def op(name: str, doc: dict) -> Op:
            lattice.save(name, lattice.translated(doc, _shift(rng, doc)))
            return Op((("bigz", name),), "bigz")

        warmup = op("warmup.json", docs[0])
        ops = [op(f"op{i:03d}.json", docs[i % self.bases]) for i in range(self.files)]
        return warmup, ops

    def outcome(self, op: Op, results):
        return "ok" if _all_ok(results) else "bigz report not ok"

    def verify(self, op: Op, results) -> list[str]:
        (_, rep), = results
        doc = lattice.load(op.calls[0][1])
        arcs = lattice.arc_points(doc)
        cert = rep["certificates"][0]
        z = cert["outputs"]["z"]
        zl = lattice.realize(arcs, z["vertices"], z["edge_choices"])
        parities = [
            lattice.linking_number(zl, lattice.realize(arcs, x["vertices"], x["edge_choices"])) & 1
            for x in cert["inputs"]["xs"]
        ]
        bad = []
        if parities != cert["checks"]["z_parities"]:
            bad.append(f"{op.calls[0][1]}: lk parities {parities} != {cert['checks']['z_parities']}")
        linked = [i for i, w in enumerate(parities) if w]
        if linked != rep["index_set"]:
            bad.append(f"{op.calls[0][1]}: index set {rep['index_set']} != {linked}")
        if 2 * len(linked) < len(cert["inputs"]["js"]) // 2:
            bad.append(f"{op.calls[0][1]}: links only {len(linked)} targets")
        return bad


class Sweep:
    """``dilink validate FILE`` then ``dilink lemma1 FILE`` on seeded
    ``lemma1_dk6m`` embeddings at m=4 (24 vertices, 1104 segments)."""

    name = "sweep"
    m = 4
    bases = 1  # seeded embeddings; op files are relabeled, moved copies
    files = 64
    round_size = 1
    digest_ops = 2
    sample_ops = 2

    def setup(self, seed: int, gen):
        rng = random.Random(subseed(seed, "sweep"))
        docs = [
            lattice.load(gen("lemma1_dk6m", f"base{b}.json", "--m", str(self.m),
                             "--seed", str(subseed(seed, f"sweep:{b}"))))
            for b in range(self.bases)
        ]

        def op(name: str, doc: dict) -> Op:
            perm = list(range(len(doc["vertices"])))
            rng.shuffle(perm)
            moved = lattice.relabeled(doc, perm)
            lattice.save(name, lattice.translated(moved, _shift(rng, moved)))
            return Op((("validate", name), ("lemma1", name)), "sweep")

        warmup = op("warmup.json", docs[0])
        ops = [op(f"op{i:03d}.json", docs[i % self.bases]) for i in range(self.files)]
        return warmup, ops

    def outcome(self, op: Op, results):
        return "ok" if _all_ok(results) else "validate or lemma1 report not ok"

    def verify(self, op: Op, results) -> list[str]:
        rep = results[1][1]
        name = op.calls[0][1]
        arcs = lattice.arc_points(lattice.load(name))
        bad = []
        for bi, block in enumerate(rep["certificates"][0]["choices"]["blocks"]):
            total = 0
            for tri, comp, w in block["pairs"]:
                # triangle arcs run from the lower vertex id to the higher
                a = lattice.realize(arcs, sorted(tri), (1, 1, 0))
                b = lattice.realize(arcs, sorted(comp), (1, 1, 0))
                got = lattice.linking_number(a, b) & 1
                total += got
                if got != w:
                    bad.append(f"{name}: block {bi} pair {tri}/{comp} parity {w}, recomputed {got}")
            if total % 2 != 1 or block["parity"] != 1:
                bad.append(f"{name}: block {bi} parity {block['parity']}, recomputed {total % 2}")
        return bad


def _components(word, strands: int) -> int:
    perm = list(range(strands))
    for g in word:
        k = abs(g)
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
    seen: set[int] = set()
    count = 0
    for i in range(strands):
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return count


def _braid_word(rng: random.Random, lengths: tuple[int, int], comps: int):
    """A random braid word on 3 or 4 strands whose closure has ``comps``
    components, with no cancelling neighbours and every generator used."""
    while True:
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(*lengths))]
        if any(a == -b for a, b in zip(word, word[1:])):
            continue
        if {abs(g) for g in word} == set(range(1, strands)) and _components(word, strands) == comps:
            return word, strands


def _skein_a2(points):
    """a2 by the skein route on a nonzero-shear projection with at most 16
    crossings, or None when every such projection is larger."""
    from dilink.errors import TooLarge
    from dilink.geom import Point3
    from dilink.invariants import a2_skein

    for kx, ky in lattice.SHEARS:
        try:
            if lattice.crossing_count(points, kx, ky) > 16:
                continue
        except lattice.Degenerate:
            continue
        try:
            return a2_skein([Point3(x + kx * z, y + ky * z, z) for x, y, z in points])
        except TooLarge:
            return None
    return None


class Knots:
    """``invariants`` and ``pattern --with-knots`` on seeded braid-closure
    knots and links, and ``search-l7`` on ``coiled_braid`` files."""

    name = "knots"
    lams = tuple(range(2, 9))
    known_inconclusive = 8  # search-l7 at this lambda reports inconclusive today
    knot_crossings = (9, 11)
    link_crossings = (6, 10)
    sheared_min_crossings = 20  # past the skein's 16-crossing cap
    word_sets = 24  # distinct seeded word sets; rounds reuse them, translated
    rounds = 64
    round_size = 15
    digest_ops = 30
    sample_ops = 30

    def _word_set(self, rng: random.Random, gen, s: int) -> dict[str, dict]:
        docs = {}
        for key in ("inv_knot0", "inv_knot1", "inv_shear", "inv_link",
                    "pat_knot0", "pat_knot1", "pat_shear", "pat_link"):
            while True:
                if key.endswith("link"):
                    word, strands = _braid_word(rng, self.link_crossings, rng.choice((2, 3)))
                else:
                    word, strands = _braid_word(rng, self.knot_crossings, 1)
                path = gen("braid", f"set{s:02d}_{key}.json",
                           "--word=" + ",".join(map(str, word)), "--p", str(strands))
                doc = lattice.load(path)
                if key.endswith("shear"):
                    doc = self._sheared(rng, doc)
                    if doc is None:
                        continue
                docs[key] = doc
                break
        return docs

    def _sheared(self, rng: random.Random, doc: dict):
        (loop,) = _loops(doc)
        shears = [(kx, ky) for kx in range(-6, 7) for ky in range(-6, 7) if kx or ky]
        rng.shuffle(shears)
        for kx, ky in shears:
            try:
                if lattice.crossing_count(loop, kx, ky) >= self.sheared_min_crossings:
                    return lattice.sheared(doc, kx, ky)
            except lattice.Degenerate:
                continue
        return None

    def setup(self, seed: int, gen):
        rng = random.Random(subseed(seed, "knots"))
        coiled = {lam: lattice.load(gen("coiled_braid", f"coiled{lam}.json", "--lambda", str(lam)))
                  for lam in self.lams}
        sets = [self._word_set(rng, gen, s) for s in range(self.word_sets)]

        def moved(name: str, doc: dict) -> str:
            shift = tuple(rng.randint(-1000, 1000) for _ in range(3))
            lattice.save(name, lattice.translated(doc, shift))
            return name

        def search(r: int, lam: int) -> Op:
            name = moved(f"r{r:02d}_l7_{lam}.json", coiled[lam])
            return Op((("search-l7", name, "--lambda", str(lam)),), "search", lam)

        def measure(r: int, key: str) -> Op:
            name = moved(f"r{r:02d}_{key}.json", sets[r % self.word_sets][key])
            if key.startswith("inv"):
                return Op((("invariants", name),), "invariants")
            return Op((("pattern", "--with-knots", name),), "pattern")

        warmup = Op((("invariants", moved("warmup.json", sets[0]["inv_knot0"])),), "invariants")
        ops = []
        for r in range(self.rounds):
            for lam, suffix in zip(self.lams, ("knot0", "knot1", "shear", "link", None, None, None)):
                ops.append(search(r, lam))
                if suffix:
                    ops.append(measure(r, "inv_" + suffix))
                    ops.append(measure(r, "pat_" + suffix))
        return warmup, ops

    def outcome(self, op: Op, results):
        if _all_ok(results):
            if op.kind == "search" and results[0][1]["search"]["status"] != "found":
                return "search ok without a knot"
            return "ok"
        code, rep = results[0]
        if (op.kind == "search" and op.lam == self.known_inconclusive and code == 1
                and rep is not None and rep.get("search", {}).get("status") == "inconclusive"):
            return "known"
        return f"{op.kind} report not ok"

    def verify(self, op: Op, results) -> list[str]:
        rep = results[0][1]
        name = next(a for a in op.calls[0] if a.endswith(".json"))
        doc = lattice.load(name)
        loops = _loops(doc)
        bad = []
        if op.kind == "search":
            sr = rep["search"]
            if sr["status"] != "found":
                return bad
            knot = lattice.realize(lattice.arc_points(doc), sr["knot"]["vertices"],
                                   sr["knot"]["edge_choices"])
            row = next(r for r in sr["table"] if r.get("passed"))
            targets = [loops[i] for i in doc["roles"]["targets"]]
            lks = [lattice.linking_number(knot, t) for t in targets]
            if lks != row["lk"] or any(abs(v) < op.lam for v in lks):
                bad.append(f"{name}: lk {row['lk']}, recomputed {lks}, lambda {op.lam}")
            got = _skein_a2(knot)
            if got is not None and got != row["a2"]:
                bad.append(f"{name}: a2 {row['a2']}, skein {got}")
            if 16 * abs(row["a2"]) < op.lam * op.lam:
                bad.append(f"{name}: |a2| {row['a2']} below lambda^2/16")
            return bad

        if op.kind == "invariants":
            lk = {(i, j): v for i, j, v in rep["linking"]}
            a2s = {e["cycle"]: e["a2"] for e in rep["knotting"] if "a2" in e}
            norm = int  # signed values
        else:
            lk = {(i, j): v for i, j, v in rep["pattern"]["edges"]}
            a2s = dict(rep["pattern"]["knot_weights"])
            norm = abs  # the pattern stores magnitudes
        for i in range(len(loops)):
            for j in range(i + 1, len(loops)):
                got = norm(lattice.linking_number(loops[i], loops[j]))
                if got != lk.get((i, j), 0):
                    bad.append(f"{name}: lk({i},{j}) {lk.get((i, j), 0)}, recomputed {got}")
        for i, value in a2s.items():
            got = _skein_a2(loops[i])
            if got is not None and norm(got) != value:
                bad.append(f"{name}: a2 of cycle {i} {value}, skein {got}")
        return bad


WORKLOADS = {w.name: w for w in (Construct(), Sweep(), Knots())}
