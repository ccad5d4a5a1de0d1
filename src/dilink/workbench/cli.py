"""Command-line harness: generate, validate, measure, construct, verify.

Every subcommand wraps one library operation.  ``main`` runs it and emits
its RunReport as JSON (stdout by default, ``--out`` to a file; ``gen`` uses
``--out`` for the generated instance instead).  A handler only fills the
report's ``params`` and body; ``main`` owns the envelope, the timer, the
output and the exit status.  The five construction commands share one
handler, which runs each through ``engine.CONSTRUCTIONS``, the table that
replay runs certificates through.  Exit status 0 means every check in the
report passed; domain failures exit 1 with a structured error object added
to the report, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional, Sequence

from dilink import __version__
from dilink.digraph import (
    DiCycle,
    connector_cycle,
    directionality,
    extra_count,
)
from dilink.engine import (
    CONSTRUCTIONS,
    bipar_counts,
    conway_gordon_parity,
    replay_certificate,
    search_lemma7_knot,
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
    Instance,
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


def _role_or(inst: Instance, name: str, alt: str = "") -> tuple[DiCycle, ...]:
    if name in inst.roles:
        return inst.role(name)
    if alt and alt in inst.roles:
        return inst.role(alt)
    raise FormatError(f"instance file lacks a {name!r} role")


def _free_vertices(inst: Instance) -> list[int]:
    # chain spacer vertices belong to no stored cycle; connector closures
    # for directionality >= 4 consume them in ascending id order
    used: set[int] = set()
    for c in inst.cycles:
        used |= c.vertex_set()
    return sorted(set(inst.embedding.vertices) - used)


def _extras_for_delta(
    inst: Instance, delta: int, rounds: int = 1
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


class ParameterError(DilinkError):
    """A command rejected its parameters: a usage error (exit 2)."""


# gen --kind: the params each kind records, in report order, each read from
# the flag of the same dest (braid's strands from --p, and its word parsed
# into a list), and its builder, called with exactly those values in that
# order; only kinds whose builder uses a seed read --seed
GENERATORS = {
    "random_complete": (("seed", "p"), lambda seed, p: gens.random_complete(p, seed)),
    "lemma1_dk6m": (("seed", "m"), lambda seed, m: gens.lemma1_dk6m(m, seed)),
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
    "ring_wrap": (("keys", "wrap"), gens.ring_wrap_instance),
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
    if args.kind == "theorem1" and args.n is None:
        # thm1-step reads only a file without singletons, so theorem1
        # lays none unless --n asks
        params["n"] = 0
    try:
        if "word" in params:
            params["word"] = [int(w) for w in params["word"].split(",") if w.strip()]
        inst = build(*(params[name] for name in names))
    except (ValueError, HypothesisViolated) as ex:
        raise ParameterError(f"{args.kind}: {ex}") from ex

    save_instance(args.out, inst)
    rep["out"] = args.out
    rep["resamples"] = inst.resamples
    rep["stats"] = {
        "vertices": len(inst.embedding.vertices),
        "edges": len(inst.embedding.arcs),
        "cycles": len(inst.cycles),
        "roles": {k: len(v) for k, v in inst.roles.items()},
        "spare_vertices": _free_vertices(inst) if inst.cycles else [],
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
    linking = [[i, j, signs[i] * signs[j] * v]
               for i, j, v in table.lk_pairs(cycles) if v]
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


# A construction command's reader records the params it takes from its
# flags and the loaded file, and returns the construction's inputs, their
# cycles as DiCycle, and the report fields written before the certificate.


def _lemma1_inputs(args, params: dict, inst: Instance) -> tuple[dict, dict]:
    params["m"] = args.m or len(inst.embedding.vertices) // 6
    return {"m": params["m"]}, {}


def _bigz_inputs(args, params: dict, inst: Instance) -> tuple[dict, dict]:
    js = _role_or(inst, "keys")
    xs = _role_or(inst, "rings")
    params.update(delta=args.delta, q_policy="lex")
    (params["extras"],) = _extras_for_delta(inst, args.delta)
    return {"js": js, "xs": xs, "target_delta": args.delta,
            "extra_vertices": params["extras"]}, {}


def _bipar_inputs(args, params: dict, inst: Instance) -> tuple[dict, dict]:
    keys = _role_or(inst, "keys")
    rings = _role_or(inst, "rings")
    m, n, lam = args.m, args.n, args.lam
    r = args.r or bipar_counts(m, n, lam).min_r
    if len(rings) != m + n:
        raise FormatError(f"need {m + n} rings, file has {len(rings)}")
    if len(keys) <= r:
        raise FormatError(f"need more than {r} keys, file has {len(keys)}")
    params.update(m=m, n=n, lam=lam, r=r, q=len(keys) - r, delta=args.delta)
    (params["extras"],) = _extras_for_delta(inst, args.delta)
    return {"js": keys[:r], "ls": keys[r:], "xs": rings[:m], "ys": rings[m:],
            "lam": lam, "target_delta": args.delta,
            "extra_vertices": params["extras"]}, {}


def _prop1_inputs(args, params: dict, inst: Instance) -> tuple[dict, dict]:
    rings = inst.roles.get("rings")
    if rings is not None and len(rings) != 2 * args.n:
        raise FormatError(
            f"prop1 --n {args.n} needs {2 * args.n} rings, file has {len(rings)}"
        )
    if not inst.cycles:
        raise FormatError("instance file stores no cycles")
    params["extras"] = _extras_for_delta(inst, args.delta, rounds=args.n)
    # ring cycles must come first: the keyring finder walks candidates in
    # ascending order and junction arcs only exist along the stored chains
    order = list(range(len(inst.cycles)))
    if "rings" in inst.roles and "keys" in inst.roles:
        head = [*inst.roles["rings"], *inst.roles["keys"]]
        order = head + sorted(set(order) - set(head))
    return {"candidates": [inst.cycles[i] for i in order], "n": args.n,
            "target_delta": args.delta, "extra_sets": params["extras"],
            "budget": args.budget}, {"candidate_order": order}


def _thm1_step_inputs(args, params: dict, inst: Instance) -> tuple[dict, dict]:
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
    (params["extras"],) = _extras_for_delta(inst, args.delta)
    return {"candidates": inst.cycles, "witness": {"P1": p1, "P2": p2, "Q": qs},
            "m": m, "lam": lam, "target_delta": args.delta,
            "extra_vertices": params["extras"]}, {}


# each construction command: the certificate kind it runs, the flags it
# records in params before it reads the file, its reader, and whether it
# replays its certificate before reporting
_CONSTRUCTION_COMMANDS = {
    "lemma1": ("lemma1", (), _lemma1_inputs, False),
    "bigz": ("big_z", (), _bigz_inputs, True),
    "bipar": ("bipar_z", (), _bipar_inputs, True),
    "prop1": ("prop1", ("n", "delta", "budget"), _prop1_inputs, False),
    "thm1-step": ("theorem1", ("m", "lam", "delta"), _thm1_step_inputs, False),
}


def _construct(args, rep: dict) -> None:
    kind, early, read, replays = _CONSTRUCTION_COMMANDS[args.command]
    params = rep["params"]
    params.update((dest, getattr(args, dest)) for dest in early)
    inst = load_instance(args.file)
    inputs, head = read(args, params, inst)
    table = LinkTable(inst.embedding)
    res = CONSTRUCTIONS[kind](table, inputs)
    rep.update(head)
    rep["certificates"] = [res.certificate.to_json()]
    for field in ("index_set", "witness"):
        if hasattr(res, field):
            rep[field] = getattr(res, field)
    rep["checks"] += res.checks
    if replays:
        replay_certificate(res.certificate, table)
        _check(rep, "replay", True, "certificate re-executed bit-exactly")


def _cmd_verify_l6(args, rep: dict) -> None:
    rep["params"]["lam"] = args.lam
    inst = load_instance(args.file)
    c_cycles = _role_or(inst, "keys")
    a_cycles = _role_or(inst, "targets", "rings")
    if "base" in inst.roles:
        base = inst.role("base")[0]
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
        if args.command in _CONSTRUCTION_COMMANDS:
            _construct(args, rep)
        else:
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
