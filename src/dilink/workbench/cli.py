"""Command-line harness: generate, validate, measure, construct, verify.

Every subcommand wraps one library operation and emits a RunReport as JSON
(stdout by default, ``--out`` to a file; ``gen`` uses ``--out`` for the
generated instance instead).  Exit status 0 means every check in the
report passed; domain failures exit 1 with a structured error object in
the report, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from dilink import __version__
from dilink.digraph import DiCycle, connector_cycle, directionality, realize
from dilink.engine import (
    big_z,
    bipar_z,
    conway_gordon_parity,
    lemma1_find_odd_links,
    prop1_step,
    replay_certificate,
    search_lemma7_knot,
    theorem1_step,
    theorem2_params,
    verify_lemma6_conclusion,
)
from dilink.errors import DilinkError, FormatError, TooLarge
from dilink.geom import validate_general_position
from dilink.invariants import a2, a2_skein, linking_table
from dilink.patterns import LinkObject, compute_pattern
from dilink.workbench import generators as gens
from dilink.workbench.serialization import (
    FORMAT_VERSION,
    ParsedInstance,
    load_instance,
    save_instance,
)

__all__ = ["main"]


def _report(command: str, params: dict) -> dict:
    return {
        "command": command,
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "params": params,
        "checks": [],
        "ok": True,
    }


def _check(rep: dict, name: str, passed: bool, detail: str = "") -> None:
    entry = {"name": name, "passed": bool(passed)}
    if detail:
        entry["detail"] = detail
    rep["checks"].append(entry)
    if not passed:
        rep["ok"] = False


def _emit(rep: dict, out: Optional[str]) -> int:
    text = json.dumps(rep, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if rep["ok"] else 1


def _load(path: str) -> ParsedInstance:
    return load_instance(path)


def _role_or(inst: ParsedInstance, name: str, alt: str = "") -> tuple[DiCycle, ...]:
    if name in inst.roles:
        return inst.role_cycles(name)
    if alt and alt in inst.roles:
        return inst.role_cycles(alt)
    raise FormatError(f"instance file lacks a {name!r} role")


def _free_vertices(inst: ParsedInstance) -> list[int]:
    # chain spacer vertices belong to no stored cycle; connector closures
    # for directionality >= 4 consume them in ascending id order
    used: set[int] = set()
    for c in inst.cycles:
        used |= c.vertex_set()
    return sorted(set(inst.embedding.vertices) - used)


def _extras_for_delta(inst: ParsedInstance, delta: int) -> list[int]:
    need = delta - 2 if delta >= 4 else 0
    free = _free_vertices(inst)
    if len(free) < need:
        raise FormatError(
            f"directionality {delta} needs {need} spare vertices, "
            f"file has {len(free)}"
        )
    return free[:need]


# ---------------------------------------------------------------------------
# generation


def _instance_roles(inst: gens.GeneratedInstance) -> tuple[list[DiCycle], dict]:
    cycles: list[DiCycle] = []
    roles: dict[str, list[int]] = {}
    for name in sorted(inst.cycles):
        idxs = []
        for c in inst.cycles[name]:
            idxs.append(len(cycles))
            cycles.append(c)
        roles[name] = idxs
    return cycles, roles


class ParameterError(DilinkError):
    """A generator rejected its parameters: a usage error (exit 2)."""


def _generate(args, params: dict) -> gens.GeneratedInstance:
    kind = args.kind
    if kind == "random_complete":
        inst = gens.random_complete(args.p, seed=args.seed)
        params["p"] = args.p
    elif kind == "lemma1_dk6m":
        inst = gens.lemma1_dk6m(args.m, seed=args.seed)
        params["m"] = args.m
    elif kind == "torus_style":
        inst = gens.torus_style(args.p, args.q)
        params.update(p=args.p, q=args.q)
    elif kind == "braid":
        word = [int(w) for w in args.word.split(",") if w.strip()]
        inst = gens.braid_instance(word, args.p)
        params.update(word=word, strands=args.p)
    elif kind == "grid_link":
        inst = gens.grid_link(
            args.rings, [(0, args.rings - 1)] * args.keys
        )
        params.update(rings=args.rings, keys=args.keys)
    elif kind == "big_z":
        inst = gens.big_z_instance(args.n, target_delta=args.delta, seed=args.seed)
        params.update(n=args.n, delta=args.delta)
    elif kind == "bipar":
        inst = gens.bipar_instance(
            args.m, args.n, args.lam, args.r, args.q, target_delta=args.delta
        )
        params.update(m=args.m, n=args.n, lam=args.lam, r=args.r, q=args.q,
                      delta=args.delta)
    elif kind == "prop1":
        inst = gens.prop1_instance(args.n, args.rings, target_delta=args.delta)
        params.update(n=args.n, rings=args.rings, delta=args.delta)
    elif kind == "theorem1":
        inst = gens.theorem1_instance(
            args.m, args.lam, n=args.n, target_delta=args.delta
        )
        params.update(m=args.m, lam=args.lam, n=args.n, delta=args.delta)
    elif kind == "ring_wrap":
        inst = gens.ring_wrap_instance(key_count=args.keys, wrap_turns=args.wrap)
        params.update(keys=args.keys, wrap=args.wrap)
    elif kind == "coiled_braid":
        inst = gens.coiled_braid_pair(args.lam)
        params["lam"] = args.lam
    else:
        raise FormatError(f"unknown generator kind {kind!r}")
    return inst


def _cmd_gen(args) -> int:
    t0 = time.perf_counter()
    kind = args.kind
    params = {"kind": kind, "seed": args.seed}
    try:
        inst = _generate(args, params)
    except ValueError as ex:
        raise ParameterError(f"{kind}: {ex}") from ex

    cycles, roles = _instance_roles(inst)
    if kind == "ring_wrap":
        # store the closed walk the surgery family verifier starts from
        keys = list(inst.role("keys"))
        base = connector_cycle(keys, "one_directional", q_policy="opposite").cycle
        roles["base"] = [len(cycles)]
        cycles.append(base)
    save_instance(args.out, inst.embedding, cycles, roles=roles)

    rep = _report("gen", params)
    rep["out"] = args.out
    rep["resamples"] = inst.resamples
    rep["stats"] = {
        "vertices": len(inst.embedding.vertices),
        "edges": len(inst.embedding.arcs),
        "cycles": len(cycles),
        "roles": {k: len(v) for k, v in roles.items()},
        "spare_vertices": sorted(
            set(inst.embedding.vertices)
            - set().union(*(c.vertex_set() for c in cycles))
        ) if cycles else [],
    }
    _check(rep, "generated", True, f"{kind} written to {args.out}")
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, None)


# ---------------------------------------------------------------------------
# measurement


def _cmd_validate(args) -> int:
    t0 = time.perf_counter()
    rep = _report("validate", {"file": args.file})
    inst = _load(args.file)
    result = validate_general_position(inst.embedding)
    _check(
        rep,
        "general-position",
        result.ok,
        "" if result.ok else f"violations: {sorted(set(result.kinds()))}",
    )
    rep["stats"] = {
        "vertices": len(inst.embedding.vertices),
        "edges": len(inst.embedding.arcs),
        "segments": inst.embedding.segment_count(),
        "cycles": len(inst.cycles),
    }
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _realized(inst: ParsedInstance):
    loops = []
    for c, o in zip(inst.cycles, inst.orientations):
        loops.append(realize(c, inst.embedding, reverse=o < 0))
    return loops


def _cmd_invariants(args) -> int:
    t0 = time.perf_counter()
    path = args.file or args.loop
    if not path:
        raise FormatError("give an instance file (positional or --loop)")
    rep = _report("invariants", {"file": path})
    inst = _load(path)
    if not inst.cycles:
        raise FormatError("instance file stores no cycles to measure")
    loops = _realized(inst)
    deltas = [directionality(c) for c in inst.cycles]
    table = linking_table(loops)
    rep["delta"] = deltas
    rep["linking"] = [
        [i, j, v] for (i, j), v in sorted(table.items()) if v
    ]
    knots = []
    for k, (c, loop) in enumerate(zip(inst.cycles, loops)):
        if deltas[k] != 1 and len(inst.cycles) > 1:
            continue
        try:
            va = a2(loop)
            vs = a2_skein(loop)
        except TooLarge as ex:
            knots.append({"cycle": k, "skipped": str(ex)})
            continue
        knots.append({"cycle": k, "a2": va, "a2_skein": vs})
        _check(rep, f"a2-routes-agree-{k}", va == vs, f"{va} vs {vs}")
    rep["knotting"] = knots
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_pattern(args) -> int:
    t0 = time.perf_counter()
    rep = _report("pattern", {"file": args.file})
    inst = _load(args.file)
    if not inst.cycles:
        raise FormatError("instance file stores no cycles")
    labels = tuple(f"c{i}" for i in range(len(inst.cycles)))
    pat = compute_pattern(
        LinkObject(inst.cycles, labels=labels),
        inst.embedding,
        with_knotting=args.with_knots,
    )
    rep["pattern"] = pat.to_json()
    _check(rep, "pattern-computed", True, f"{pat.n} components")
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


# ---------------------------------------------------------------------------
# constructions


def _cmd_lemma1(args) -> int:
    t0 = time.perf_counter()
    inst = _load(args.file)
    m = args.m or len(inst.embedding.vertices) // 6
    rep = _report("lemma1", {"file": args.file, "m": m})
    res = lemma1_find_odd_links(inst.embedding, m)
    rep["certificates"] = [res.certificate.to_json()]
    for bi, par in enumerate(res.certificate.checks["parities"]):
        _check(rep, f"block-{bi}-parity", par == 1, f"sum mod 2 = {par}")
    _check(rep, "pairs-found", len(res.pairs) == m)
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_bigz(args) -> int:
    t0 = time.perf_counter()
    inst = _load(args.file)
    js = _role_or(inst, "js", "keys")
    xs = _role_or(inst, "xs", "rings")
    extras = _extras_for_delta(inst, args.delta)
    rep = _report(
        "bigz",
        {
            "file": args.file,
            "delta": args.delta,
            "q_policy": args.q_policy,
            "extras": extras,
            "checked": not args.unchecked,
        },
    )
    res = big_z(
        js,
        xs,
        inst.embedding,
        target_delta=args.delta,
        extra_vertices=extras,
        q_policy=args.q_policy,
        checked=not args.unchecked,
    )
    rep["certificates"] = [res.certificate.to_json()]
    rep["index_set"] = list(res.index_set)
    _check(
        rep,
        "coverage",
        2 * len(res.index_set) >= len(js) // 2,
        f"linked {len(res.index_set)} of {len(xs)} targets",
    )
    _check(
        rep,
        "directionality",
        directionality(res.z) == args.delta,
    )
    replay_certificate(res.certificate, inst.embedding)
    _check(rep, "replay", True, "certificate re-executed bit-exactly")
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_bipar(args) -> int:
    t0 = time.perf_counter()
    inst = _load(args.file)
    keys = _role_or(inst, "keys")
    rings = _role_or(inst, "rings")
    m, n, lam = args.m, args.n, args.lam
    r = args.r or m * (2 * lam + 1) * 2**m
    if len(rings) != m + n:
        raise FormatError(f"need {m + n} rings, file has {len(rings)}")
    if len(keys) <= r:
        raise FormatError(f"need more than {r} keys, file has {len(keys)}")
    extras = _extras_for_delta(inst, args.delta)
    rep = _report(
        "bipar",
        {
            "file": args.file,
            "m": m,
            "n": n,
            "lam": lam,
            "r": r,
            "q": len(keys) - r,
            "delta": args.delta,
            "extras": extras,
            "checked": not args.unchecked,
        },
    )
    res = bipar_z(
        keys[:r],
        keys[r:],
        rings[:m],
        rings[m:],
        inst.embedding,
        lam,
        target_delta=args.delta,
        extra_vertices=extras,
        checked=not args.unchecked,
    )
    rep["certificates"] = [res.certificate.to_json()]
    final = res.certificate.checks["final_x"] + res.certificate.checks["final_y"]
    _check(
        rep,
        "threshold",
        all(abs(v) > lam for v in final),
        f"linking values {final}, threshold {lam}",
    )
    _check(rep, "directionality", directionality(res.z) == args.delta)
    replay_certificate(res.certificate, inst.embedding)
    _check(rep, "replay", True, "certificate re-executed bit-exactly")
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _prop1_candidates(inst: ParsedInstance) -> list[int]:
    # ring cycles must come first: the keyring finder walks candidates in
    # ascending order and junction arcs only exist along the stored chains
    if "rings" in inst.roles and "keys" in inst.roles:
        head = list(inst.roles["rings"]) + list(inst.roles["keys"])
        return head + [i for i in range(len(inst.cycles)) if i not in set(head)]
    return list(range(len(inst.cycles)))


def _cmd_prop1(args) -> int:
    t0 = time.perf_counter()
    inst = _load(args.file)
    if not inst.cycles:
        raise FormatError("instance file stores no cycles")
    order = _prop1_candidates(inst)
    rep = _report(
        "prop1",
        {
            "file": args.file,
            "n": args.n,
            "delta": args.delta,
            "budget": args.budget,
            "checked": not args.unchecked,
        },
    )
    rep["candidate_order"] = order
    res = prop1_step(
        inst.embedding,
        [inst.cycles[i] for i in order],
        args.n,
        target_delta=args.delta,
        budget=args.budget,
        checked=not args.unchecked,
    )
    rep["certificates"] = [res.certificate.to_json()]
    rep["index_set"] = list(res.index_set)
    rep["witness"] = res.witness
    _check(rep, "intersection", len(res.index_set) >= args.n,
           f"{len(res.index_set)} shared targets")
    _check(
        rep,
        "witness-parities",
        all(
            w == 1
            for row in res.certificate.checks["omega_table"]
            for w in row
        ),
    )
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_thm1_step(args) -> int:
    t0 = time.perf_counter()
    inst = _load(args.file)
    p1 = list(inst.roles.get("P1", inst.roles.get("rings", ())))
    p2 = list(inst.roles.get("P2", inst.roles.get("keys", ())))
    qs = list(inst.roles.get("Q", ()))
    if not p1 or not p2:
        raise FormatError("instance file lacks the two class roles")
    rep = _report(
        "thm1-step",
        {
            "file": args.file,
            "m": args.m,
            "lam": args.lam,
            "delta": args.delta,
            "checked": not args.unchecked,
        },
    )
    res = theorem1_step(
        inst.embedding,
        inst.cycles,
        {"P1": p1, "P2": p2, "Q": qs},
        args.m,
        args.lam,
        target_delta=args.delta,
        extra_vertices=_extras_for_delta(inst, args.delta),
        checked=not args.unchecked,
    )
    rep["certificates"] = [res.certificate.to_json()]
    rep["witness"] = res.witness
    weights = res.certificate.checks["new_weights"]
    flat = [w for vals in weights.values() for w in vals]
    _check(rep, "new-singleton-weights", all(w > args.lam for w in flat),
           f"|lk| values {flat}, threshold {args.lam}")
    _check(rep, "directionality", directionality(res.z) == args.delta)
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_verify_l6(args) -> int:
    t0 = time.perf_counter()
    inst = _load(args.file)
    base = _role_or(inst, "base")
    c_cycles = _role_or(inst, "surgeries", "keys")
    a_cycles = _role_or(inst, "targets", "rings")
    rep = _report(
        "verify-l6", {"file": args.file, "lam": args.lam}
    )
    report = verify_lemma6_conclusion(
        base[0], c_cycles, a_cycles, inst.embedding, args.lam
    )
    rep["verification"] = report.to_json()
    for c in report.checks:
        _check(rep, c["name"], c["passed"], c.get("detail", ""))
    bad = [r for r in report.eps_table if not r["passed"]]
    _check(
        rep,
        "all-surgery-combinations",
        not bad,
        f"{len(report.eps_table) - len(bad)}/{len(report.eps_table)} pass",
    )
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_search_l7(args) -> int:
    t0 = time.perf_counter()
    inst = _load(args.file)
    a_cycles = _role_or(inst, "targets", "rings")
    b_cycles = _role_or(inst, "loops", "keys")
    rep = _report(
        "search-l7",
        {"file": args.file, "lam": args.lam, "budget": args.budget},
    )
    sr = search_lemma7_knot(
        a_cycles, b_cycles, inst.embedding, args.lam, budget=args.budget
    )
    rep["search"] = sr.to_json()
    _check(
        rep,
        "knot-found",
        sr.status == "found",
        f"{sr.status} after {sr.candidates_tried} candidates",
    )
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_thm2_params(args) -> int:
    t0 = time.perf_counter()
    rep = _report("thm2-params", {"alpha": args.alpha, "n": args.n})
    lam, m = theorem2_params(args.alpha, args.n)
    rep["lam"] = lam
    rep["m"] = m
    _check(rep, "threshold-strength", lam >= args.alpha and lam * lam >= 16 * args.alpha)
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


def _cmd_cgtest(args) -> int:
    t0 = time.perf_counter()
    rep = _report("cgtest", {"count": args.count, "seed": args.seed})
    results = []
    passed = 0
    for k in range(args.count):
        seed = gens.split_seed(args.seed, f"cgtest:{k}")
        inst = gens.random_complete(6, seed=seed)
        _, par = conway_gordon_parity(inst.embedding)
        results.append({"run": k, "seed": seed, "parity": par})
        passed += par == 1
    rep["runs"] = results
    _check(
        rep,
        "parity",
        passed == args.count,
        f"{passed}/{args.count} embeddings have odd total parity",
    )
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    return _emit(rep, args.out)


# ---------------------------------------------------------------------------
# wiring


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0)
    if "lam" in names:
        p.add_argument("--lambda", dest="lam", type=int, default=1)
    if "delta" in names:
        p.add_argument("--delta", type=int, default=1)
    if "n" in names:
        p.add_argument("--n", type=int, default=1)
    if "m" in names:
        p.add_argument("--m", type=int, default=0)
    if "budget" in names:
        p.add_argument("--budget", type=int, default=500_000)
    if "unchecked" in names:
        p.add_argument("--unchecked", action="store_true")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dilink",
        description="Exact linking and knotting workbench for directed "
        "spatial graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=[
        "random_complete", "lemma1_dk6m", "torus_style", "braid",
        "grid_link", "big_z", "bipar", "prop1", "theorem1", "ring_wrap",
        "coiled_braid",
    ])
    g.add_argument("--p", type=int, default=2)
    g.add_argument("--q", type=int, default=2)
    g.add_argument("--r", type=int, default=6)
    g.add_argument("--rings", type=int, default=1)
    g.add_argument("--keys", type=int, default=3)
    g.add_argument("--wrap", type=int, default=5)
    g.add_argument("--word", default="1")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--lambda", dest="lam", type=int, default=1)
    g.add_argument("--delta", type=int, default=1)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--m", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("validate", help="check general position of a file")
    v.add_argument("file")
    _add_common(v)
    v.set_defaults(func=_cmd_validate)

    iv = sub.add_parser("invariants", help="linking and knotting measures")
    iv.add_argument("file", nargs="?")
    iv.add_argument("--loop", help="instance file holding the loops")
    _add_common(iv)
    iv.set_defaults(func=_cmd_invariants)

    pt = sub.add_parser("pattern", help="weighted linking pattern of a file")
    pt.add_argument("file")
    pt.add_argument("--with-knots", action="store_true")
    _add_common(pt)
    pt.set_defaults(func=_cmd_pattern)

    l1 = sub.add_parser("lemma1", help="find odd-linked triangle pairs")
    l1.add_argument("file")
    _add_common(l1, "m")
    l1.set_defaults(func=_cmd_lemma1)

    bz = sub.add_parser("bigz", help="build a cycle linking half the targets")
    bz.add_argument("file")
    bz.add_argument("--q-policy", default="lex", choices=["lex", "opposite"])
    _add_common(bz, "delta", "unchecked")
    bz.set_defaults(func=_cmd_bigz)

    bp = sub.add_parser("bipar", help="build a cycle past a linking threshold")
    bp.add_argument("file")
    bp.add_argument("--r", type=int, default=0)
    _add_common(bp, "m", "n", "lam", "delta", "unchecked")
    bp.set_defaults(func=_cmd_bipar)
    bp.set_defaults(m=1, n=1)

    p1 = sub.add_parser("prop1", help="keyring rounds toward a parity pattern")
    p1.add_argument("file")
    _add_common(p1, "n", "delta", "budget", "unchecked")
    p1.set_defaults(func=_cmd_prop1)

    t1 = sub.add_parser("thm1-step", help="grow a witness by one singleton")
    t1.add_argument("file")
    _add_common(t1, "m", "lam", "delta", "unchecked")
    t1.set_defaults(func=_cmd_thm1_step)
    t1.set_defaults(m=1)

    v6 = sub.add_parser("verify-l6", help="check all surgery combinations")
    v6.add_argument("file")
    _add_common(v6, "lam")
    v6.set_defaults(func=_cmd_verify_l6)

    s7 = sub.add_parser("search-l7", help="bounded search for a knotted cycle")
    s7.add_argument("file")
    _add_common(s7, "lam", "budget")
    s7.set_defaults(func=_cmd_search_l7, budget=64)

    tp = sub.add_parser("thm2-params", help="threshold and start size")
    tp.add_argument("--alpha", type=int, required=True)
    _add_common(tp, "n")
    tp.set_defaults(func=_cmd_thm2_params)

    cg = sub.add_parser("cgtest", help="parity sweep over random embeddings")
    cg.add_argument("--count", type=int, default=10)
    _add_common(cg, "seed")
    cg.set_defaults(func=_cmd_cgtest)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DilinkError as ex:
        err = {
            "command": args.command,
            "format_version": FORMAT_VERSION,
            "tool_version": __version__,
            "ok": False,
            "error": {"type": type(ex).__name__, "message": str(ex)},
        }
        extra = getattr(ex, "table", None)
        if extra is not None:
            err["error"]["table"] = extra
        # gen's --out names the instance file; its reports go to stdout
        code = _emit(err, None if args.command == "gen" else args.out)
        return 2 if isinstance(ex, ParameterError) else code


if __name__ == "__main__":
    sys.exit(main())
