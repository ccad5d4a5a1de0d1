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
    # dest -> (flag, default) of each gen flag
    flags = {_FLAGS[flag][0]: (flag, default)
             for flag, (default, _) in _COMMANDS["gen"][2].items()}
    unread = [flag for dest, (flag, _) in flags.items()
              if dest not in dests and getattr(args, dest) is not None]
    if unread:
        raise ParameterError(f"{args.kind} does not read {', '.join(unread)}")
    for name, dest in zip(names, dests):
        value = getattr(args, dest)
        params[name] = flags[dest][1] if value is None else value
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


# every option flag: its dest and its type
_FLAGS = {
    "--p": ("p", int), "--q": ("q", int), "--r": ("r", int), "--rings": ("rings", int),
    "--keys": ("keys", int), "--wrap": ("wrap", int), "--word": ("word", str),
    "--seed": ("seed", int), "--lambda": ("lam", int), "--delta": ("delta", int),
    "--n": ("n", int), "--m": ("m", int), "--budget": ("budget", int),
    "--alpha": ("alpha", int), "--count": ("count", int),
}

# every subcommand, in help order: its help, whether it reads a file, and
# its flags as {flag: (default, least value)}; a default of None makes the
# flag required, a least value of None leaves it unbounded.  Under gen the
# parser's default is None, so _cmd_gen can tell a flag that was given.
_COMMANDS = {
    "gen": ("generate an instance file", False, {
        "--p": (2, None), "--q": (2, None), "--r": (6, None), "--rings": (1, None),
        "--keys": (3, None), "--wrap": (5, None), "--word": ("1", None),
        "--seed": (0, None), "--lambda": (1, None), "--delta": (1, None),
        "--n": (1, None), "--m": (1, None),
    }),
    "validate": ("check general position of a file", True, {}),
    "invariants": ("linking and knotting measures", True, {}),
    "pattern": ("weighted linking pattern of a file", True, {}),
    "lemma1": ("find odd-linked triangle pairs", True, {"--m": (0, 0)}),
    "bigz": ("build a cycle linking at least n/2 of 2n targets", True,
             {"--delta": (1, None)}),
    "bipar": ("build a cycle past a linking threshold", True, {
        "--r": (0, 0), "--lambda": (1, 0), "--delta": (1, None),
        "--n": (1, 1), "--m": (1, 1),
    }),
    "prop1": ("keyring rounds toward a parity pattern", True, {
        "--delta": (1, None), "--n": (1, 1), "--budget": (500_000, 1),
    }),
    "thm1-step": ("grow a witness by one singleton", True, {
        "--lambda": (1, 0), "--delta": (1, None), "--m": (1, 1),
    }),
    "verify-l6": ("check all surgery combinations", True, {"--lambda": (1, 1)}),
    "search-l7": ("bounded search for a knotted cycle", True, {
        "--lambda": (1, 1), "--budget": (64, 1),
    }),
    "thm2-params": ("threshold and start size", False, {
        "--alpha": (None, 1), "--n": (1, 1),
    }),
    "cgtest": ("parity sweep over random embeddings", False, {
        "--count": (10, 1), "--seed": (0, None),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="dilink",
        description="Exact linking and knotting workbench for directed "
        "spatial graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, reads_file, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if reads_file:
            p.add_argument("file")
        if command == "gen":
            p.add_argument("--kind", required=True, choices=list(GENERATORS))
        if command == "pattern":
            p.add_argument("--with-knots", action="store_true")
        for flag, (default, _) in flags.items():
            dest, parse = _FLAGS[flag]
            p.add_argument(flag, dest=dest, type=parse, required=default is None,
                           default=None if command == "gen" else default)
        p.add_argument("--out", required=command == "gen", default=None)
    return ap


def _check_least(args) -> None:
    for flag, (_, least) in _COMMANDS[args.command][2].items():
        value = getattr(args, _FLAGS[flag][0])
        if least is not None and value < least:
            raise ParameterError(f"{flag} must be at least {least}, got {value}")


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
        _check_least(args)
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
