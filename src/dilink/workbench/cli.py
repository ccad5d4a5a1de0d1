"""Command-line harness: generate, validate, measure, construct, verify.

Every subcommand wraps one library operation.  ``main`` runs it and emits
its RunReport as JSON (stdout by default, ``--out`` to a file; ``gen`` uses
``--out`` for the generated instance instead).  A handler only fills the
report's ``params`` and body; ``main`` owns the envelope, the timer, the
output and the exit status.  Exit status 0 means every check in the report
passed; domain failures exit 1 with a structured error object added to the
report, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import combinations
from typing import Optional, Sequence

from dilink import __version__
from dilink.digraph import (
    DiCycle,
    connector_cycle,
    directionality,
    extra_count,
)
from dilink.engine import (
    big_z,
    bipar_counts,
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
from dilink.errors import DilinkError, FormatError, HypothesisViolated
from dilink.geom import validate_general_position
from dilink.invariants import LinkTable, a2_routes
from dilink.patterns import compute_pattern
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


def _extras_for_delta(
    inst: ParsedInstance, delta: int, rounds: int = 1
) -> list[list[int]]:
    # one group of extra vertices per connector closure, in the order the
    # generators laid the closures out
    need = extra_count(delta)
    free = _free_vertices(inst)
    if len(free) < need * rounds:
        raise FormatError(
            f"directionality {delta} needs {need * rounds} spare vertices, "
            f"file has {len(free)}"
        )
    return [free[k * need:(k + 1) * need] for k in range(rounds)]


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
    """A command rejected its parameters: a usage error (exit 2)."""


# gen's shared flags: option -> (dest, parser, value when the flag is not given)
_GEN_FLAGS = {
    "--p": ("p", int, 2),
    "--q": ("q", int, 2),
    "--r": ("r", int, 6),
    "--rings": ("rings", int, 1),
    "--keys": ("keys", int, 3),
    "--wrap": ("wrap", int, 5),
    "--word": ("word", str, "1"),
    "--seed": ("seed", int, 0),
    "--lambda": ("lam", int, 1),
    "--delta": ("delta", int, 1),
    "--n": ("n", int, 1),
    "--m": ("m", int, 1),
}

# gen --kind: the params each kind records, in report order, each read from
# the flag of the same dest (braid's strands from --p, and its word parsed
# into a list), and its builder, called with exactly those values in that
# order; only kinds whose builder uses a seed read --seed
GENERATORS = {
    "random_complete": (("seed", "p"), lambda seed, p: gens.random_complete(p, seed)),
    "lemma1_dk6m": (("seed", "m"), lambda seed, m: gens.lemma1_dk6m(m, seed)),
    "torus_style": (("p", "q"), gens.torus_style),
    "braid": (("word", "strands"), gens.braid_instance),
    "grid_link": (("rings", "keys"),
                  lambda rings, keys: gens.grid_link(rings, [(0, rings - 1)] * keys)),
    "big_z": (("seed", "n", "delta"),
              lambda seed, n, delta: gens.big_z_instance(n, target_delta=delta, seed=seed)),
    "bipar": (("m", "n", "lam", "r", "q", "delta"),
              lambda m, n, lam, r, q, delta: gens.bipar_instance(
                  m, n, lam, r, q, target_delta=delta)),
    "prop1": (("n", "delta"), lambda n, delta: gens.prop1_instance(n, target_delta=delta)),
    "theorem1": (("m", "lam", "n", "delta"),
                 lambda m, lam, n, delta: gens.theorem1_instance(
                     m, lam, n=n, target_delta=delta)),
    "ring_wrap": (("keys", "wrap"),
                  lambda keys, wrap: gens.ring_wrap_instance(key_count=keys, wrap_turns=wrap)),
    "coiled_braid": (("lam",), gens.coiled_braid_pair),
}


def _cmd_gen(args, rep: dict) -> None:
    names, build = GENERATORS[args.kind]
    params = rep["params"]
    params["kind"] = args.kind
    dests = ["p" if name == "strands" else name for name in names]
    unread = [opt for opt, (dest, _, _) in _GEN_FLAGS.items()
              if dest not in dests and getattr(args, dest) is not None]
    if unread:
        raise ParameterError(f"{args.kind} does not read {', '.join(unread)}")
    default = {dest: value for dest, _, value in _GEN_FLAGS.values()}
    for name, dest in zip(names, dests):
        value = getattr(args, dest)
        params[name] = default[dest] if value is None else value
    try:
        if "word" in params:
            params["word"] = [int(w) for w in params["word"].split(",") if w.strip()]
        inst = build(*(params[name] for name in names))
    except (ValueError, HypothesisViolated) as ex:
        raise ParameterError(f"{args.kind}: {ex}") from ex

    cycles, roles = _instance_roles(inst)
    save_instance(args.out, inst.embedding, cycles, roles=roles)
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
    _check(rep, "generated", True, f"{args.kind} written to {args.out}")


# ---------------------------------------------------------------------------
# measurement


def _cmd_validate(args, rep: dict) -> None:
    inst = load_instance(args.file)
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


def _cmd_invariants(args, rep: dict) -> None:
    inst = load_instance(args.file)
    if not inst.cycles:
        raise FormatError("instance file stores no cycles to measure")
    cycles, signs = inst.cycles, inst.orientations
    table = LinkTable(inst.embedding)
    linking = []
    for i, j in combinations(range(len(cycles)), 2):
        v = signs[i] * signs[j] * table.lk(cycles[i], cycles[j])
        if v:
            linking.append([i, j, v])
    deltas = [directionality(c) for c in cycles]
    rep["delta"] = deltas
    rep["linking"] = linking
    knots = []
    for k, c in enumerate(cycles):
        if deltas[k] != 1 and len(cycles) > 1:
            continue
        va, vx = a2_routes(table.diagram(c))
        knots.append({"cycle": k, "a2": va, "a2_alexander": vx})
        _check(rep, f"a2-routes-agree-{k}", va == vx, f"{va} vs {vx}")
    rep["knotting"] = knots


def _cmd_pattern(args, rep: dict) -> None:
    inst = load_instance(args.file)
    if not inst.cycles:
        raise FormatError("instance file stores no cycles")
    table = LinkTable(inst.embedding)
    pat = compute_pattern(inst.cycles, table, with_knotting=args.with_knots)
    rep["pattern"] = pat.to_json()
    _check(rep, "pattern-computed", True, f"{pat.n} components")


# ---------------------------------------------------------------------------
# constructions


def _cmd_lemma1(args, rep: dict) -> None:
    inst = load_instance(args.file)
    m = args.m or len(inst.embedding.vertices) // 6
    rep["params"]["m"] = m
    res = lemma1_find_odd_links(LinkTable(inst.embedding), m)
    rep["certificates"] = [res.certificate.to_json()]
    rep["checks"] += res.checks


def _cmd_bigz(args, rep: dict) -> None:
    inst = load_instance(args.file)
    js = _role_or(inst, "keys")
    xs = _role_or(inst, "rings")
    rep["params"].update(delta=args.delta, q_policy="lex")
    (extras,) = _extras_for_delta(inst, args.delta)
    rep["params"]["extras"] = extras
    table = LinkTable(inst.embedding)
    res = big_z(js, xs, table, target_delta=args.delta, extra_vertices=extras)
    rep["certificates"] = [res.certificate.to_json()]
    rep["index_set"] = list(res.index_set)
    rep["checks"] += res.checks
    replay_certificate(res.certificate, table)
    _check(rep, "replay", True, "certificate re-executed bit-exactly")


def _cmd_bipar(args, rep: dict) -> None:
    inst = load_instance(args.file)
    keys = _role_or(inst, "keys")
    rings = _role_or(inst, "rings")
    m, n, lam = args.m, args.n, args.lam
    r = args.r or bipar_counts(m, n, lam).min_r
    if len(rings) != m + n:
        raise FormatError(f"need {m + n} rings, file has {len(rings)}")
    if len(keys) <= r:
        raise FormatError(f"need more than {r} keys, file has {len(keys)}")
    rep["params"].update(m=m, n=n, lam=lam, r=r, q=len(keys) - r, delta=args.delta)
    (extras,) = _extras_for_delta(inst, args.delta)
    rep["params"]["extras"] = extras
    table = LinkTable(inst.embedding)
    res = bipar_z(
        keys[:r],
        keys[r:],
        rings[:m],
        rings[m:],
        table,
        lam,
        target_delta=args.delta,
        extra_vertices=extras,
    )
    rep["certificates"] = [res.certificate.to_json()]
    rep["checks"] += res.checks
    replay_certificate(res.certificate, table)
    _check(rep, "replay", True, "certificate re-executed bit-exactly")


def _prop1_candidates(inst: ParsedInstance) -> list[int]:
    # ring cycles must come first: the keyring finder walks candidates in
    # ascending order and junction arcs only exist along the stored chains
    if "rings" in inst.roles and "keys" in inst.roles:
        head = list(inst.roles["rings"]) + list(inst.roles["keys"])
        return head + [i for i in range(len(inst.cycles)) if i not in set(head)]
    return list(range(len(inst.cycles)))


def _cmd_prop1(args, rep: dict) -> None:
    rep["params"].update(n=args.n, delta=args.delta, budget=args.budget)
    inst = load_instance(args.file)
    rings = inst.roles.get("rings")
    if rings is not None and len(rings) != 2 * args.n:
        raise FormatError(
            f"prop1 --n {args.n} needs {2 * args.n} rings, file has {len(rings)}"
        )
    if not inst.cycles:
        raise FormatError("instance file stores no cycles")
    extra_sets = _extras_for_delta(inst, args.delta, rounds=args.n)
    rep["params"]["extras"] = extra_sets
    order = _prop1_candidates(inst)
    res = prop1_step(
        LinkTable(inst.embedding),
        [inst.cycles[i] for i in order],
        args.n,
        target_delta=args.delta,
        extra_sets=extra_sets,
        budget=args.budget,
    )
    rep["candidate_order"] = order
    rep["certificates"] = [res.certificate.to_json()]
    rep["index_set"] = list(res.index_set)
    rep["witness"] = res.witness
    rep["checks"] += res.checks


def _cmd_thm1_step(args, rep: dict) -> None:
    rep["params"].update(m=args.m, lam=args.lam, delta=args.delta)
    inst = load_instance(args.file)
    p1 = list(inst.roles.get("P1", inst.roles.get("rings", ())))
    p2 = list(inst.roles.get("P2", inst.roles.get("keys", ())))
    qs = list(inst.roles.get("Q", ()))
    if not p1 or not p2:
        raise FormatError("instance file lacks the two class roles")
    # each big class has s = m + (2m+n)(2λ+1)3^m 2^(m+n) cycles, n = |Q|
    m, lam, n = args.m, args.lam, len(qs)
    s = m + bipar_counts(m, m + n, lam).min_q
    for name, cls in (("rings", p1), ("keys", p2)):
        if len(cls) != s:
            raise FormatError(
                f"thm1-step --m {m} --lambda {lam} needs {s} {name} with {n} "
                f"singletons, file has {len(cls)}"
            )
    res = theorem1_step(
        LinkTable(inst.embedding),
        inst.cycles,
        {"P1": p1, "P2": p2, "Q": qs},
        args.m,
        args.lam,
        target_delta=args.delta,
        extra_vertices=_extras_for_delta(inst, args.delta)[0],
    )
    rep["certificates"] = [res.certificate.to_json()]
    rep["witness"] = res.witness
    rep["checks"] += res.checks


def _cmd_verify_l6(args, rep: dict) -> None:
    rep["params"]["lam"] = args.lam
    inst = load_instance(args.file)
    c_cycles = _role_or(inst, "keys")
    a_cycles = _role_or(inst, "targets", "rings")
    if "base" in inst.roles:
        base = inst.role_cycles("base")[0]
    elif len(c_cycles) >= 2:
        # the closed walk the surgery family starts from: the connector
        # over the surgery cycles, taking each one's path against its loop
        base = connector_cycle(c_cycles, q_policy="opposite")
    else:
        raise FormatError(
            "instance file lacks a 'base' role and has too few surgery "
            "cycles to derive one"
        )
    report = verify_lemma6_conclusion(
        base, c_cycles, a_cycles, LinkTable(inst.embedding), args.lam
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


def _cmd_search_l7(args, rep: dict) -> None:
    rep["params"].update(lam=args.lam, budget=args.budget)
    inst = load_instance(args.file)
    a_cycles = _role_or(inst, "targets", "rings")
    b_cycles = _role_or(inst, "loops", "keys")
    sr = search_lemma7_knot(
        a_cycles, b_cycles, LinkTable(inst.embedding), args.lam, budget=args.budget
    )
    rep["search"] = sr.to_json()
    _check(
        rep,
        "knot-found",
        sr.status == "found",
        f"{sr.status} after {sr.candidates_tried} candidates",
    )


def _cmd_thm2_params(args, rep: dict) -> None:
    rep["params"].update(alpha=args.alpha, n=args.n)
    lam, m = theorem2_params(args.alpha, args.n)
    rep["lam"] = lam
    rep["m"] = m
    _check(rep, "threshold-strength", lam >= args.alpha and lam * lam >= 16 * args.alpha)


def _cmd_cgtest(args, rep: dict) -> None:
    rep["params"].update(count=args.count, seed=args.seed)
    results = []
    passed = 0
    for k in range(args.count):
        seed = gens.split_seed(args.seed, f"cgtest:{k}")
        inst = gens.random_complete(6, seed=seed)
        _, par = conway_gordon_parity(LinkTable(inst.embedding))
        results.append({"run": k, "seed": seed, "parity": par})
        passed += par == 1
    rep["runs"] = results
    _check(
        rep,
        "parity",
        passed == args.count,
        f"{passed}/{args.count} embeddings have odd total parity",
    )


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
    p.add_argument("--out", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="dilink",
        description="Exact linking and knotting workbench for directed "
        "spatial graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=list(GENERATORS))
    for opt, (dest, parse, _) in _GEN_FLAGS.items():
        g.add_argument(opt, dest=dest, type=parse, default=None)
    g.add_argument("--out", required=True)

    v = sub.add_parser("validate", help="check general position of a file")
    v.add_argument("file")
    _add_common(v)

    iv = sub.add_parser("invariants", help="linking and knotting measures")
    iv.add_argument("file")
    _add_common(iv)

    pt = sub.add_parser("pattern", help="weighted linking pattern of a file")
    pt.add_argument("file")
    pt.add_argument("--with-knots", action="store_true")
    _add_common(pt)

    l1 = sub.add_parser("lemma1", help="find odd-linked triangle pairs")
    l1.add_argument("file")
    _add_common(l1, "m")

    bz = sub.add_parser("bigz", help="build a cycle linking at least n/2 of 2n targets")
    bz.add_argument("file")
    _add_common(bz, "delta")

    bp = sub.add_parser("bipar", help="build a cycle past a linking threshold")
    bp.add_argument("file")
    bp.add_argument("--r", type=int, default=0)
    _add_common(bp, "m", "n", "lam", "delta")
    bp.set_defaults(m=1, n=1)

    p1 = sub.add_parser("prop1", help="keyring rounds toward a parity pattern")
    p1.add_argument("file")
    _add_common(p1, "n", "delta", "budget")

    t1 = sub.add_parser("thm1-step", help="grow a witness by one singleton")
    t1.add_argument("file")
    _add_common(t1, "m", "lam", "delta")
    t1.set_defaults(m=1)

    v6 = sub.add_parser("verify-l6", help="check all surgery combinations")
    v6.add_argument("file")
    _add_common(v6, "lam")

    s7 = sub.add_parser("search-l7", help="bounded search for a knotted cycle")
    s7.add_argument("file")
    _add_common(s7, "lam", "budget")
    s7.set_defaults(budget=64)

    tp = sub.add_parser("thm2-params", help="threshold and start size")
    tp.add_argument("--alpha", type=int, required=True)
    _add_common(tp, "n")

    cg = sub.add_parser("cgtest", help="parity sweep over random embeddings")
    cg.add_argument("--count", type=int, default=10)
    _add_common(cg, "seed")

    return ap


# per command: the options (flag -> dest) whose value must be at least 1
_POSITIVE = {
    "bipar": {"--m": "m", "--n": "n"},
    "prop1": {"--n": "n", "--budget": "budget"},
    "thm1-step": {"--m": "m"},
    "verify-l6": {"--lambda": "lam"},
    "search-l7": {"--lambda": "lam", "--budget": "budget"},
    "thm2-params": {"--alpha": "alpha", "--n": "n"},
    "cgtest": {"--count": "count"},
}


def _check_positive(args) -> None:
    for flag, dest in _POSITIVE.get(args.command, {}).items():
        value = getattr(args, dest)
        if value < 1:
            raise ParameterError(f"{flag} must be at least 1, got {value}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value that starts with "-" for a flag, so a braid
    # word such as -1,2 is glued to its flag
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--word":
            argv[i:i + 2] = ["--word=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    # a command that reads a file records it first
    rep = _report(args.command, {"file": args.file} if "file" in args else {})
    usage_error = False
    t0 = time.perf_counter()
    try:
        _check_positive(args)
        # looked up by name at each call, so a handler replaced on the
        # module after the parser was built is the one that runs
        globals()["_cmd_" + args.command.replace("-", "_")](args, rep)
    except (DilinkError, MemoryError) as ex:
        rep["ok"] = False
        message = "out of memory" if isinstance(ex, MemoryError) else str(ex)
        rep["error"] = {"type": type(ex).__name__, "message": message}
        table = getattr(ex, "table", None)
        if table is not None:
            rep["error"]["table"] = table
        usage_error = isinstance(ex, ParameterError)
    rep["timing_s"] = round(time.perf_counter() - t0, 6)
    # gen's --out names the instance file; its reports go to stdout
    code = _emit(rep, None if args.command == "gen" else args.out)
    return 2 if usage_error else code


if __name__ == "__main__":
    sys.exit(main())
