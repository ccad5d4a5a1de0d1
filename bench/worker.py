"""One slice of a workload in a fresh interpreter: set-up, timed ops, checks.

``run.py`` starts this script and times its set-up.  It prints ``@ready``
on stdout once set-up (inputs written, one untimed warm-up op) is done,
then runs the ops from ``--start`` on for ``--seconds``, checks the outputs
and prints ``@result`` followed by one JSON object.  The slice that starts
at op 0 also runs the digest ops and the independent checks.  Every dilink
command runs in-process through ``dilink.workbench.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads
from spans import Tracer


def _call(cli, argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as ex:  # argparse rejected the command line
        return (ex.code, None)
    except Exception as ex:  # the op fails; the run goes on and reports it
        print(f"{' '.join(argv)} raised {type(ex).__name__}: {ex}", file=sys.stderr)
        return ("exception", None)
    try:
        return (code, json.loads(buf.getvalue()))
    except json.JSONDecodeError:
        return (code, None)


def _timed(wl, ops, seconds, min_ops, run):
    """Run ops in order until ``seconds`` have passed, at least ``min_ops``
    are done and a round is complete.  Returns the latencies and outcomes,
    the results of the first ops (those the digest and the checks read) and
    the elapsed time of the phase."""
    keep = max(wl.digest_ops, wl.sample_ops)
    lat, outcomes, kept = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if (i >= min_ops and i % wl.round_size == 0
                and time.perf_counter() - start >= seconds):
            break
        t = time.perf_counter()
        results = run(i, op)
        lat.append(time.perf_counter() - t)
        outcomes.append(wl.outcome(op, results))
        if i < keep:
            kept.append(results)
    return lat, outcomes, kept, time.perf_counter() - start


def _digest(results) -> str:
    h = hashlib.sha256()
    for per_op in results:
        for code, rep in per_op:
            rep = {k: v for k, v in (rep or {}).items() if k != "timing_s"}
            h.update(json.dumps([code, rep], sort_keys=True).encode())
    return h.hexdigest()


def _layer_metrics(tracer: Tracer, op_ids, setup_totals) -> dict[str, float]:
    t = tracer.layer_totals(op_ids)
    n = len(op_ids)
    m: dict[str, float] = {}

    def per_op(name, key, out=None):
        m[out or f"{name}.{key}"] = t[name][key] / n

    for name, keys in (
        ("geom.validate", ("calls", "self_s", "segments")),
        ("geom.project", ("calls", "self_s", "segments", "crossings")),
        ("invariants.lk", ("calls", "self_s")),
        ("invariants.retry", ("calls", "self_s")),
        ("invariants.a2", ("calls", "self_s")),
        ("invariants.a2_skein", ("calls", "self_s")),
        ("z2linalg.heavy_vector", ("calls", "self_s", "rows")),
        ("digraph.realize", ("calls", "self_s")),
        ("digraph.connector", ("calls", "self_s")),
        ("digraph.nabla", ("calls", "self_s")),
        ("patterns.compute_pattern", ("calls", "self_s")),
        ("engine.big_z", ("self_s",)),
        ("engine.replay", ("self_s",)),
        ("engine.lemma1", ("self_s",)),
        ("engine.search", ("self_s", "candidates")),
        ("workbench.load", ("calls", "self_s")),
        ("workbench.cli", ("self_s",)),
    ):
        for key in keys:
            per_op(name, key)
    per_op("geom.project", "error:DegenerateProjection", "geom.project.degenerate")
    per_op("invariants.a2_skein", "error:TooLarge", "invariants.a2_skein.refused")
    retry = t["invariants.retry"]
    m["invariants.shear_retries"] = (
        t["geom.project"]["calls"] - (retry["calls"] - retry["error:DegenerateProjection"])
    ) / n
    a2_calls = t["invariants.a2"]["calls"]
    skein = t["invariants.a2_skein"]
    m["invariants.crosscheck_coverage"] = (
        (skein["calls"] - skein["error:TooLarge"]) / a2_calls if a2_calls else 0.0
    )
    searches = t["engine.search"]["calls"]
    m["engine.search.found_ratio"] = t["engine.search"]["found"] / searches if searches else 0.0
    m["workbench.generate.self_s"] = setup_totals["workbench.generate"]["self_s"]
    m["geom.validate.setup_s"] = setup_totals["geom.validate"]["self_s"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--start", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import dilink.workbench.cli as cli

    if not os.path.abspath(cli.__file__).startswith(args.src + os.sep):
        raise SystemExit(f"dilink imported from {cli.__file__}, not from {args.src}")
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    os.chdir(args.workdir)
    wl = workloads.WORKLOADS[args.workload]

    def gen(kind, out, *extra):
        code, rep = _call(cli, ("gen", "--kind", kind, "--out", out) + extra)
        if code != 0 or rep is None or not rep.get("ok"):
            raise SystemExit(f"dilink gen --kind {kind} failed: {rep}")
        return out

    warmup, ops = wl.setup(args.seed, gen)
    warm = [_call(cli, argv) for argv in warmup.calls]
    if wl.outcome(warmup, warm) != "ok":
        raise SystemExit(f"warm-up op failed: {warm}")
    tracer.enabled = False
    print("@ready", flush=True)
    ops = ops[args.start:]
    first = args.start == 0

    def run(i, op):
        return [_call(cli, argv) for argv in op.calls]

    out: dict = {}
    if args.trace:
        # untraced then traced over the same ops, to measure the overhead
        _, outcomes, kept, plain_s = _timed(wl, ops, args.seconds / 2, wl.digest_ops, run)
        ops = ops[: len(outcomes)]
        tracer.enabled = True
        _, outcomes, kept, traced_s = _timed(
            wl, ops, float("inf"), 0, lambda i, op: tracer.op(i, run, i, op))
        tracer.enabled = False
        tracer.write("spans.jsonl")
        metrics = _layer_metrics(tracer, set(range(len(ops))), tracer.layer_totals({"setup"}))
        oks = outcomes.count("ok")
        metrics["trace.ops_per_s"] = oks / traced_s
        metrics["trace.untraced_ops_per_s"] = oks / plain_s
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        out["per_layer"] = metrics
    else:
        lat, outcomes, kept, elapsed = _timed(
            wl, ops, args.seconds, wl.digest_ops if first else 0, run)
        out.update(latencies=lat, elapsed_s=elapsed, exhausted=len(outcomes) == len(ops))
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"op {args.start + i}: {o}" for i, o in enumerate(outcomes) if o not in ("ok", "known")]
    checked = 0
    for op, results, outcome in list(zip(ops, kept, outcomes))[: wl.sample_ops if first else 0]:
        if outcome == "ok":
            problems += wl.verify(op, results)
            checked += 1
    out.update(
        attempted=len(outcomes),
        ok=outcomes.count("ok"),
        known=outcomes.count("known"),
        failed=len(outcomes) - outcomes.count("ok") - outcomes.count("known"),
        verified_ops=checked,
        problems=problems,
        digest=_digest([warm] + kept[: wl.digest_ops]) if first else None,
    )
    print("@result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
