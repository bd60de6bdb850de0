#!/usr/bin/env python3
"""Time to a verified verdict for ``rw``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One fresh process asks a workload's questions one at a time (closed loop, no
threads) through ``ramsey_workbench.cli.run`` and the ``catalogs`` builders,
checks every verdict against an independently known answer, replays every
report it wrote, and repeats the pass until ``--seconds`` have gone by.  The
last line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of traced passes (``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ramsey_workbench")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
MIN_PASSES = 2
CALIBRATIONS_PER_PASS = 3
# Fastest time of calibrate() on the reference machine: a 2-core VM, Python 3.11.
REFERENCE_S = 0.0150
EXIT_BY_STATUS = {workloads.HOLDS: 0, workloads.FAILS: 1, workloads.UNKNOWN: 2}
# Environment the CLI reads defaults from; cleared so only argv configures it.
RW_ENV = ("RW_SEED", "RW_BUDGET_NODES", "RW_BUDGET_SECS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload: str, seed: int, work: str):
    """Import the package and write the inputs, SETUP_REPS times.

    Each repetition drops the package from ``sys.modules`` first, so every one
    pays the full import.  Returns each repetition's seconds and scale (see
    ``calibrate``), the last inputs and the CLI module.
    """
    reps = []
    for rep in range(SETUP_REPS):
        for name in [m for m in sys.modules
                     if m == "ramsey_workbench" or m.startswith("ramsey_workbench.")]:
            del sys.modules[name]
        root = os.path.join(work, f"inputs{rep}")
        os.makedirs(root)
        scale = REFERENCE_S / min(calibrate() for _ in range(CALIBRATIONS_PER_PASS))
        start = perf_counter()
        cli = importlib.import_module("ramsey_workbench.cli")
        paths = workloads.write_inputs(workload, seed, root)
        reps.append((perf_counter() - start, scale))
    origin = os.path.dirname(os.path.abspath(cli.__file__))
    if origin != PACKAGE:
        raise SystemExit(f"ramsey_workbench imported from {origin}, not {PACKAGE}")
    return reps, paths, cli


def calibrate() -> float:
    """Seconds for a fixed pure-Python task shaped like the engine's loops.

    Integer arithmetic, then tuple building with dict and set traffic.  The
    machine is shared, and phases of up to 2x slowdown last minutes; this task
    slows down with the program, so a time measured after it is scaled by
    REFERENCE_S over the task's fastest time there.
    """
    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    seen: dict = {}
    for p in itertools.permutations(range(8), 5):
        q = (p[3], p[1], p[4], p[0], p[2])
        seen[q] = seen.get(q, 0) + len({x for x in q if x & 1})
    return perf_counter() - start


def ask(cli, q, out: str, tracer):
    """Ask one question; return (seconds, status, report or result, error)."""
    span = tracer.span("cli.question") if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with span:
            if q.library is not None:
                status, result = q.library()
                code = EXIT_BY_STATUS[status]
            else:
                code = cli.run(["--out", out] + list(q.argv))
    except Exception as exc:  # a crash is a failed question, not a dead run
        return perf_counter() - start, None, None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if q.library is not None:
        return seconds, status, result, None
    if code not in EXIT_BY_STATUS.values() or not os.path.exists(out):
        return seconds, None, None, f"exit {code}"
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    if tracer:
        tracer.counts["cli.report_bytes"] += os.path.getsize(out)
    if EXIT_BY_STATUS.get(report.get("status")) != code:
        return seconds, None, report, f"exit {code} for {report.get('status')}"
    return seconds, report["status"], report, None


def replay(cli, report: str, tracer):
    """Run ``rw replay``; return (seconds, error)."""
    out = report + ".replay"
    span = tracer.span("cli.replay") if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with span:
            code = cli.run(["--out", out, "replay", report])
    except Exception as exc:
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if code != 0:
        return seconds, f"replay exit {code}"
    with open(out, encoding="utf-8") as fh:
        if json.load(fh)["replay"]["status"] != workloads.HOLDS:
            return seconds, "replay did not hold"
    return seconds, None


def run_pass(cli, qs, outdir: str, traced: bool) -> dict:
    os.makedirs(outdir)
    scale = REFERENCE_S / min(calibrate() for _ in range(CALIBRATIONS_PER_PASS))
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    rows = {}
    try:
        for q in qs:
            out = os.path.join(outdir, q.name + ".json")
            before = tracer.snapshot() if tracer else None
            seconds, status, result, error = ask(cli, q, out, tracer)
            row = {"solve_s": seconds, "status": status, "problems": []}
            if tracer:
                tracer.end_question()
                after = tracer.snapshot()
                row["counts"] = {k: v - before.get(k, 0) for k, v in after.items()
                                 if v != before.get(k, 0)}
            if error:
                row["problems"].append(error)
            elif status not in q.expect:
                row["problems"].append(f"{status}, expected {'/'.join(q.expect)}"
                                       f" ({q.source})")
            if result is not None and not error:
                try:
                    row["problems"] += q.check(result) if q.check else []
                    if q.library is None:
                        row["problems"] += verify.report_certificates(result)
                        verdict = result["verdicts"][0] if result["verdicts"] else {}
                        row["stats"] = verdict.get("stats")
                        row["report"] = out
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    row["problems"].append(f"malformed answer: {exc!r}")
            rows[q.name] = row
        for name, row in rows.items():
            if "report" in row:
                row["replay_s"], error = replay(cli, row["report"], tracer)
                if error:
                    row["problems"].append(error)
    finally:
        if tracer:
            tracer.uninstall()
    return {"traced": traced, "rows": rows, "tracer": tracer, "scale": scale}


def source_digest() -> str:
    h = hashlib.sha256()
    for d in (PACKAGE, HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def consistency(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Identical statuses and counts across passes and across runs.

    Arrow search stats must match between every pass, traced or not; traced
    call counts must match between traced passes; and both must match what
    an earlier run of the same sources and seed recorded, if there was one.
    """
    problems = []
    seen = {"stats": {}, "counts": {}}
    for p in passes:
        for name, row in p["rows"].items():
            for key in ("stats", "counts"):
                if key == "counts" and not p["traced"]:
                    continue
                value = {"status": row["status"], key: row.get(key)}
                if seen[key].setdefault(name, value) != value:
                    problems.append(f"{name}: {key} differ between passes")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"counts-{workload}-seed{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        for key, rows in seen.items():
            for name, value in rows.items():
                if name in earlier.get(key, {}) and earlier[key][name] != value:
                    problems.append(f"{name}: {key} differ from an earlier run")
                earlier.setdefault(key, {})[name] = value
        seen = earlier
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, sort_keys=True, indent=1)
    return problems


def pass_time(passes, key: str, scaled: bool = True) -> float:
    """A pass's time: each question's median over the passes, summed.

    Scaled times are in reference-machine seconds (see ``calibrate``).
    """
    rows = passes[0]["rows"]
    return sum(statistics.median(p["rows"][n][key] * (p["scale"] if scaled else 1)
                                 for p in passes)
               for n in rows if key in rows[n])


def end_to_end(passes, setup_reps) -> dict:
    rows = [row for p in passes for row in p["rows"].values()]
    asked = len(rows)
    decided = sum(row["status"] in workloads.DECIDED for row in rows)
    failed = sum(bool(row["problems"]) for row in rows)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(t * scale for t, scale in setup_reps), "s"),
        "solve_s": (pass_time(passes, "solve_s"), "s"),
        "replay_s": (pass_time(passes, "replay_s"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "decided_ratio": (decided / asked, "1"),
        "verified_ratio": ((asked - failed) / asked, "1"),
    }


def per_layer(workload: str, seed: int, passes) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [p["tracer"].metrics() for p in traced]
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    overhead = pass_time(traced, "solve_s", False) - pass_time(plain, "solve_s", False)
    metrics["trace.overhead_s"] = overhead
    problems = spans.self_check(workload, metrics)
    last = traced[-1]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({
            "workload": workload, "seed": seed, "metrics": metrics,
            "untraced_solve_s": pass_time(plain, "solve_s", False),
            "questions": [{"name": n, "solve_s": r["solve_s"],
                           "replay_s": r.get("replay_s"), "counts": r["counts"]}
                          for n, r in last["rows"].items()],
            "spans": last["tracer"].records,
        }, fh, indent=1)
    return metrics, problems


def reported_layers() -> dict[str, str]:
    """Per-layer metric names and units that the result line carries."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no ramsey_workbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for var in RW_ENV:
        os.environ.pop(var, None)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        setup_reps, paths, cli = setup(args.workload, args.seed, work)
        qs = workloads.questions(args.workload, args.seed, paths)
        passes = []
        start = perf_counter()
        # Stop before a pass that would end past --seconds, so a run lasts
        # about --seconds whatever the length of one pass.
        while (len(passes) < MIN_PASSES or (perf_counter() - start)
               * (len(passes) + 1) / len(passes) <= args.seconds):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(cli, qs, os.path.join(work, f"pass{len(passes)}"),
                                   traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = consistency(args.workload, args.seed, passes)
    with open(os.path.join(OUT, f"samples-{args.workload}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_reps,
                   "passes": [{"traced": p["traced"], "scale": p["scale"],
                               "questions": {n: {k: r.get(k) for k in ("solve_s", "replay_s")}
                                             for n, r in p["rows"].items()}}
                              for p in passes]}, fh, indent=1)
    plain = [p for p in passes if not p["traced"]]
    for i, p in enumerate(passes):
        rows = p["rows"].values()
        print(f"pass {i}{' traced' if p['traced'] else ''}: "
              f"solve {sum(r['solve_s'] for r in rows):.3f} s, "
              f"replay {sum(r.get('replay_s', 0) for r in rows):.3f} s")
    for name, row in plain[-1]["rows"].items():
        print(f"{name:28s} {str(row['status']):17s} {row['solve_s']:8.3f} s"
              f"  {'; '.join(row['problems'])}")
    if args.trace:
        metrics, more = per_layer(args.workload, args.seed, passes)
        problems += more
        selfs = sorted(((metrics[f"{layer}.self_s"], layer)
                        for layer in spans.LAYERS), reverse=True)
        print("self time by layer: " + ", ".join(f"{layer} {s:.3f}s"
                                                  for s, layer in selfs))
        print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s")
        print("all per-layer metrics: " + json.dumps(metrics))
        shown = {k: (metrics[k], unit) for k, unit in reported_layers().items()}
    else:
        shown = end_to_end(plain, setup_reps)
        print(f"wall seconds before scaling: setup "
              f"{statistics.median(t for t, _ in setup_reps):.4f}, solve "
              f"{pass_time(plain, 'solve_s', False):.4f}, replay "
              f"{pass_time(plain, 'replay_s', False):.4f}; scales "
              + " ".join(f"{p['scale']:.3f}" for p in plain))
    for problem in problems:
        print(f"problem: {problem}")
    rows = [row for p in passes for row in p["rows"].values()]
    failed = sum(bool(row["problems"]) for row in rows)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
