"""dilink benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

``--workload`` is ``construct``, ``sweep``, ``knots`` or ``all``.  Each
workload runs in fresh interpreters started by this script (see
``worker.py``): ``SLICES`` interpreters one after another, each doing the
whole set-up and then a third of the timed phase, continuing the op list
where the previous one stopped, so a run samples the machine in several
processes.  With ``--trace 0`` the script prints the end-to-end metrics;
with ``--trace 1`` it runs one interpreter: set-up, then the same ops
untraced and traced, and prints the per-layer metrics.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Inputs and spans go to ``.bench_run/`` in the
current directory.  The script itself imports no numpy and nothing outside
the standard library.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("construct", "sweep", "knots")
SLICES = 3  # worker interpreters per run: setup_s is the median of their set-ups

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "1",
    "peak_rss_mib": "MiB",
}


def _layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "1/s" if name.endswith("ops_per_s") else "1"
    if name.endswith(("_ratio", "_coverage")):
        return "1"
    if name in ("workbench.generate.self_s", "geom.validate.setup_s"):
        return "s"  # set-up totals
    return "s/op" if name.endswith("_s") else "count/op"


def _context(root: str) -> dict:
    src = os.path.join(root, "src")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", fh.read(), re.S | re.M)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": _commit(root),
        "src_lines": lines,
        "runtime_dependencies": re.findall(r'"([^"]+)"', deps.group(1)) if deps else [],
    }


def _commit(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _worker(args, workdir: str, seconds: float, start: int) -> tuple[float, dict]:
    """Run one worker interpreter; return its set-up time and result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--start", str(start),
           "--src", os.path.abspath("src"), "--workdir", workdir]
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - begin
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "@ready" or code != 0 or not lines or not lines[-1].startswith("@result "):
        raise RuntimeError(f"{args.workload} worker exited with {code} before finishing")
    return setup_s, json.loads(lines[-1][len("@result "):])


def _tail(lat: list[float]) -> tuple[float, dict]:
    """Highest percentile with at least 10 ops beyond it; with 20 ops or
    fewer, the upper median."""
    ordered = sorted(lat)
    beyond = min(10, (len(ordered) - 1) // 2)
    rank = len(ordered) - beyond  # 1-based rank of the reported op
    return ordered[rank - 1], {"percentile": 100.0 * rank / len(ordered),
                               "ops_beyond": beyond, "ops": len(ordered)}


def run_workload(args) -> dict:
    workdir = os.path.abspath(os.path.join(".bench_run", args.workload))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    slices = 1 if args.trace else SLICES
    setups, parts = [], []
    for _ in range(slices):
        start = sum(p["attempted"] for p in parts)
        setup_s, part = _worker(args, workdir, args.seconds / slices, start)
        setups.append(setup_s)
        parts.append(part)
    first = parts[0]
    ok = sum(p["ok"] for p in parts)
    attempted = sum(p["attempted"] for p in parts)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_runs_s": setups,
        "attempted": attempted,
        "ok": ok,
        "known_failures": sum(p["known"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "fail_ratio": 1 - ok / attempted,
        "verified_ops": first["verified_ops"],
        "problems": [x for p in parts for x in p["problems"]],
        "digest": first["digest"],
    }
    if args.trace:
        metrics = first["per_layer"]
        units = {k: _layer_unit(k) for k in metrics}
    else:
        lat = [x for p in parts for x in p["latencies"]]
        tail, details["op_tail"] = _tail(lat)
        details["inputs_exhausted"] = parts[-1]["exhausted"]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok / sum(p["elapsed_s"] for p in parts),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail,
            "ok_ratio": ok / attempted,
            "peak_rss_mib": max(p["peak_rss_mib"] for p in parts),
        }
        units = UNITS
    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:36s} {value:14.6g} {units[name]}")
    print("details " + json.dumps(dict(details, problems=details["problems"][:20])))
    return {
        "correct": not details["problems"],
        "attempted": attempted,
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dilink", "__init__.py")):
        print("run from the repository root: src/dilink not found", file=sys.stderr)
        return 2
    print("context " + json.dumps(_context(root)))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
    except RuntimeError as ex:
        print(ex, file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
