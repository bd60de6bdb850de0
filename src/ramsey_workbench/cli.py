"""Command-line front door.

Every subcommand loads a catalog, runs one checker, and emits a canonical
JSON report: sorted keys, two-space indent, no volatile fields, so identical
inputs and configuration produce byte-identical files.  Timing goes to
stderr under -v only.  Exit codes: 0 holds, 1 fails, 2 unknown at bound,
3 usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .arrows import (FAILS, HOLDS, UNKNOWN, Coloring, arrow_check,
                     export_cnf, oracle_arrow_check, verify_bad_coloring)
from .amalgam import (failure_chain, is_amalgamation_arrow, two_of_k_check,
                      verify_pairwise_non_amalgamable, wap_check)
from .catalogs import catalog_from_json, load_catalog
from .category import (FiniteCategory, abstract_from_json, check_axioms,
                       load_abstract, op, skeletonize, tables_equal)
from .degrees import degree_interval
from .errors import CorruptCertificate, WorkbenchError, check_type
from .expansion import (ExpansionSpace, check_forgetful,
                        expansion_property_check, orbit_age_analysis)
from .sequences import (colimit, sequence_from_json, weak_fraisse_check,
                        weak_homogeneity_check)

EXIT_BY_STATUS = {HOLDS: 0, FAILS: 1, UNKNOWN: 2}
WITNESS_CAP = 200


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_category(args) -> FiniteCategory:
    if getattr(args, "abstract", False):
        return load_abstract(args.catalog)
    return FiniteCategory.from_structures(load_catalog(args.catalog))


def _require_objects(objects, args, *flags: str) -> None:
    """Each flag must name one of the objects; otherwise an input error."""
    for flag in flags:
        name = getattr(args, flag)
        if name is None:
            raise WorkbenchError(f"--{flag} is required here")
        if name not in objects:
            raise WorkbenchError(f"--{flag} {name!r} is not a catalog object")


def _emit(args, report: dict) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.verbose:
            print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _base_report(args, status: str | None) -> dict:
    report = {
        "tool": {"name": "rw", "version": __version__},
        "command": args.command_echo,
        "config": {
            "seed": args.seed,
            "budget_nodes": args.budget_nodes,
            "budget_secs": args.budget_secs,
        },
        "verdicts": [],
        "certificates": [],
    }
    if getattr(args, "catalog", None):
        report["catalog"] = {"path": args.catalog,
                             "sha256": _sha256(args.catalog)}
    if status is not None:
        report["status"] = status
    return report


def _coloring_cert(kind: str, c: str, b: str, a: str, k: int, t: int,
                   coloring: Coloring) -> dict:
    return {
        "type": "bad-coloring",
        "kind": kind,
        "C": c, "B": b, "A": a, "k": k, "t": t,
        "domain": list(coloring.domain),
        "values": list(coloring.values),
    }


def _composition_cert(lhs: list[str], rhs: list[str], note: str) -> dict:
    return {"type": "composition-equality", "lhs": lhs, "rhs": rhs,
            "note": note}


# -- subcommand handlers -----------------------------------------------------


def _cmd_cat(args) -> tuple[int, dict]:
    cat = _load_category(args)
    if args.cat_action == "check":
        rep = check_axioms(cat)
        status = HOLDS if (rep.all_mono and rep.directed and rep.identity_ok
                           and rep.associativity_ok) else FAILS
        if status == HOLDS and "UNKNOWN-AT-BOUND" in rep.locally_finite.values():
            status = UNKNOWN
        report = _base_report(args, status)
        report["verdicts"].append({"check": "axioms", "status": status,
                                   "detail": rep.as_dict()})
        return EXIT_BY_STATUS[status], report
    if args.cat_action == "skeleton":
        skel = skeletonize(cat)
        report = _base_report(args, HOLDS)
        report["verdicts"].append({
            "check": "skeleton",
            "status": HOLDS,
            "representatives": {a: skel.representatives[a]
                                for a in cat.objects},
            "isos": {a: list(skel.canon_iso[a].map) for a in cat.objects},
        })
        return 0, report
    if args.cat_action == "op":
        o = op(cat)
        involutive = tables_equal(op(o), cat)
        mono_epi = all(cat.is_mono(m) == o.is_epi(m)
                       for m in cat.all_morphisms())
        status = HOLDS if involutive and mono_epi else FAILS
        report = _base_report(args, status)
        report["verdicts"].append({
            "check": "op",
            "status": status,
            "involutive": involutive,
            "mono_epi_swap": mono_epi,
            "homs": {f"{a}->{b}": o.hom(a, b)
                     for a in o.objects for b in o.objects if o.hom(a, b)},
        })
        return EXIT_BY_STATUS[status], report
    raise WorkbenchError(f"unknown cat action {args.cat_action!r}")


def _cmd_arrow(args) -> tuple[int, dict]:
    cat = _load_category(args)
    _require_objects(cat.objects, args, "C", "B", "A")
    if args.oracle:
        verdict = oracle_arrow_check(cat, args.C, args.B, args.A, args.k,
                                     args.t)
    else:
        verdict = arrow_check(cat, args.C, args.B, args.A, args.k, args.t,
                              node_budget=args.budget_nodes,
                              symmetry=not args.no_symmetry)
    report = _base_report(args, verdict.status)
    entry = {
        "check": "arrow",
        "status": verdict.status,
        "C": args.C, "B": args.B, "A": args.A, "k": args.k, "t": args.t,
        "degenerate": verdict.degenerate,
        "stats": {"nodes": verdict.stats.nodes,
                  "symmetry_prunes": verdict.stats.symmetry_prunes,
                  "witness_prunes": verdict.stats.witness_prunes,
                  "colorings_scanned": verdict.stats.colorings_scanned},
    }
    report["verdicts"].append(entry)
    if verdict.status == FAILS and verdict.bad_coloring is not None:
        report["certificates"].append(_coloring_cert(
            "arrow-fails", args.C, args.B, args.A, args.k, args.t,
            verdict.bad_coloring))
    elif verdict.status == HOLDS:
        report["certificates"].append({
            "type": "exhaustion",
            "kind": "arrow-holds",
            "C": args.C, "B": args.B, "A": args.A, "k": args.k, "t": args.t,
            "nodes": verdict.stats.nodes,
            "colorings_scanned": verdict.stats.colorings_scanned,
        })
    if args.cnf:
        with open(args.cnf, "w", encoding="utf-8") as fh:
            fh.write(export_cnf(cat, args.C, args.B, args.A, args.k, args.t))
    return EXIT_BY_STATUS[verdict.status], report


def _cmd_degree(args) -> tuple[int, dict]:
    cat = _load_category(args)
    _require_objects(cat.objects, args, "A")
    bs = None
    if args.bmax is not None:
        bs = [b for b in cat.objects if cat.structure(b).size <= args.bmax]
    interval = degree_interval(cat, args.A, args.kmax, bs=bs,
                               node_budget=args.budget_nodes)
    status = HOLDS if interval.upper is not None else UNKNOWN
    report = _base_report(args, status)
    report["verdicts"].append({"check": "degree-interval", "status": status,
                               "interval": interval.as_dict()})
    if interval.lower_cert is not None:
        for c, coloring in sorted(interval.lower_cert.bad_colorings.items()):
            report["certificates"].append(_coloring_cert(
                "degree-lower", c, interval.lower_cert.b, args.A,
                interval.lower_cert.k, interval.lower_cert.n - 1, coloring))
    for cert in interval.upper_certs:
        report["certificates"].append({
            "type": "exhaustion", "kind": "degree-upper",
            "C": cert.witness, "B": cert.b, "A": args.A,
            "k": cert.k, "t": interval.upper,
        })
    return EXIT_BY_STATUS[status], report


def _cmd_amalgam(args) -> tuple[int, dict]:
    cat = _load_category(args)
    report_out: dict
    if args.wap:
        rep = wap_check(cat)
        report_out = _base_report(args, rep.status)
        report_out["verdicts"].append({"check": "weak-amalgamation",
                                       "status": rep.status,
                                       "arrows": rep.witnesses,
                                       "failure": rep.failure})
        for w in rep.witnesses:
            arrow_rep = is_amalgamation_arrow(cat, w["f"])
            for inst in arrow_rep.witnesses[:WITNESS_CAP]:
                report_out["certificates"].append(_composition_cert(
                    [inst.r, inst.g, w["f"]], [inst.s, inst.h, w["f"]],
                    note=f"amalgamation arrow for {w['A']}"))
        return EXIT_BY_STATUS[rep.status], report_out
    if args.two_of_k is not None:
        _require_objects(cat.objects, args, "A")
        rep = two_of_k_check(cat, args.A, args.two_of_k)
        report_out = _base_report(args, rep.status)
        report_out["verdicts"].append({"check": "two-out-of-k",
                                       "status": rep.status,
                                       "A": args.A, "k": args.two_of_k,
                                       "failure": rep.failure,
                                       "notes": rep.notes})
        for w in rep.witnesses[:WITNESS_CAP]:
            report_out["certificates"].append(_composition_cert(
                [w["r"], w["tuple"][w["i"]]], [w["s"], w["tuple"][w["j"]]],
                note="pair amalgam"))
        return EXIT_BY_STATUS[rep.status], report_out
    if args.chain:
        _require_objects(cat.objects, args, "A")
        chain = failure_chain(cat, args.A, args.depth)
        ok = verify_pairwise_non_amalgamable(cat, chain)
        status = HOLDS if ok else FAILS
        report_out = _base_report(args, status)
        report_out["verdicts"].append({
            "check": "failure-chain", "status": status,
            "A": args.A, "depth": args.depth, "chain": chain,
            "note": "bounded refutation only; length k refutes "
                    "2-out-of-k at this depth",
        })
        return EXIT_BY_STATUS[status], report_out
    raise WorkbenchError("amalgam needs one of --wap, --two-of-k, --chain")


def _cmd_seq(args) -> tuple[int, dict]:
    catalog = load_catalog(args.catalog)
    if args.seq_action in ("colim", "wfcheck"):
        if args.seq is None:
            raise WorkbenchError("--seq is required here")
        with open(args.seq, encoding="utf-8") as fh:
            seq = sequence_from_json(json.load(fh), catalog)
    if args.seq_action == "colim":
        result = colimit(seq)
        report = _base_report(args, HOLDS)
        report["verdicts"].append({
            "check": "colimit", "status": HOLDS,
            "size": result.structure.size,
            "class_names": [list(c) for c in result.class_names],
        })
        for n in range(seq.length):
            for m in range(n, seq.length):
                from .structures import compose as ecompose
                lhs = ecompose(result.cocone[m], seq.bonding(n, m)).map
                report["certificates"].append({
                    "type": "map-equality",
                    "lhs": list(lhs),
                    "rhs": list(result.cocone[n].map),
                    "note": f"cocone triangle {n}->{m}",
                })
        return 0, report
    if args.seq_action == "wfcheck":
        rep = weak_fraisse_check(seq, catalog, m_max=args.mmax,
                                 k_max=args.kmax)
        report = _base_report(args, rep.status)
        report["verdicts"].append({
            "check": "weak-fraisse", "status": rep.status,
            "cofinality": rep.cofinality_witness,
            "missing": rep.missing_objects,
            "absorption": {str(k): v for k, v in rep.absorption_witness.items()},
            "stuck": rep.stuck_levels,
            "notes": rep.notes,
        })
        return EXIT_BY_STATUS[rep.status], report
    if args.seq_action == "whom":
        by_name = {s.name: s for s in catalog}
        _require_objects(by_name, args, "obj")
        f_struct = by_name[args.obj]
        rep = weak_homogeneity_check(f_struct, catalog)
        report = _base_report(args, rep.status)
        report["verdicts"].append({
            "check": "weak-homogeneity", "status": rep.status,
            "object": args.obj,
            "witnesses": [
                {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in w.items()}
                for w in rep.witnesses[:WITNESS_CAP]],
            "failure": None if rep.failure is None else {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in rep.failure.items()},
        })
        return EXIT_BY_STATUS[rep.status], report
    raise WorkbenchError(f"unknown seq action {args.seq_action!r}")


def _load_degrees(args) -> dict[str, int]:
    if not args.degrees:
        return {}
    with open(args.degrees, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc = check_type(doc, dict, "degree file")
    degrees = check_type(doc.get("degrees", doc), dict, "degree table")
    return {k: check_type(v, int, f"degree of {k}") for k, v in degrees.items()}


def _cmd_expand(args) -> tuple[int, dict]:
    cat = _load_category(args)
    space = ExpansionSpace(cat, _load_degrees(args))
    if args.expand_action == "build":
        expansions = []
        for obj in cat.objects:
            for e in space.fiber(obj):
                expansions.append({
                    "base": obj,
                    "theta": {rep: list(values) for rep, values in e.theta},
                })
        report = _base_report(args, HOLDS)
        report["verdicts"].append({
            "check": "expansion-build", "status": HOLDS,
            "degrees": {r: t for r, t in space.degrees.degrees},
            "fiber_sizes": {obj: space.fiber_size(obj)
                            for obj in cat.objects},
        })
        report["expansions"] = expansions
        return 0, report
    if args.expand_action == "check":
        rep = check_forgetful(space)
        status = HOLDS if rep.all_hold else FAILS
        report = _base_report(args, status)
        report["verdicts"].append({
            "check": "forgetful-functor", "status": status,
            "surjective_on_objects": rep.surjective_on_objects,
            "injective_on_homs": rep.injective_on_homs,
            "reasonable": rep.reasonable,
            "unique_restrictions": rep.unique_restrictions,
            "precompact": rep.precompact,
            "fiber_sizes": rep.fiber_sizes,
            "failure": rep.failure,
        })
        return EXIT_BY_STATUS[status], report
    if args.expand_action == "orbits":
        _require_objects(cat.objects, args, "obj")
        rep = orbit_age_analysis(space, args.obj)
        status = HOLDS if rep.ages_equal_on_orbits else FAILS
        report = _base_report(args, status)
        report["verdicts"].append({
            "check": "orbit-age", "status": status,
            "object": args.obj,
            "orbit_sizes": sorted(len(o) for o in rep.orbits),
            "ages_equal_on_orbits": rep.ages_equal_on_orbits,
            "minimal_theta": {r: list(v) for r, v in rep.minimal.theta},
            "notes": rep.notes,
        })
        return EXIT_BY_STATUS[status], report
    if args.expand_action == "ep":
        designated = {obj: space.fiber(obj) for obj in cat.objects}
        rep = expansion_property_check(space, designated)
        status = rep.direct_status
        report = _base_report(args, status)
        report["verdicts"].append({
            "check": "expansion-property", "status": status,
            "direct": rep.direct,
            "single_object_status": rep.single_status,
            "criteria_agree": rep.agree,
        })
        return EXIT_BY_STATUS[status], report
    raise WorkbenchError(f"unknown expand action {args.expand_action!r}")


# -- replay -------------------------------------------------------------------


def replay(report_path: str) -> tuple[int, dict]:
    """Re-verify every certificate in a report by direct evaluation."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    cat = None
    if "catalog" in report:
        path = report["catalog"]["path"]
        if _sha256(path) != report["catalog"]["sha256"]:
            raise CorruptCertificate("catalog file changed since the report")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)   # parsed once for either reading
        try:
            structures = catalog_from_json(doc)
        except (WorkbenchError, KeyError):
            cat = abstract_from_json(doc)
        else:
            cat = FiniteCategory.from_structures(structures)

    replayed = 0
    for cert in report.get("certificates", []):
        kind = cert.get("type")
        if kind in ("bad-coloring", "composition-equality") and cat is None:
            raise CorruptCertificate(f"{kind} without a catalog")
        if kind == "bad-coloring":
            coloring = Coloring(tuple(cert["domain"]), cert["k"],
                                tuple(cert["values"]))
            if not verify_bad_coloring(cat, cert["C"], cert["B"], cert["A"],
                                       cert["t"], coloring):
                raise CorruptCertificate(
                    f"bad coloring does not replay: {cert['kind']}")
        elif kind == "composition-equality":
            lhs = _compose_chain(cat, cert["lhs"])
            rhs = _compose_chain(cat, cert["rhs"])
            if lhs != rhs:
                raise CorruptCertificate(f"composition differs: {cert['note']}")
        elif kind == "map-equality":
            if list(cert["lhs"]) != list(cert["rhs"]):
                raise CorruptCertificate(f"maps differ: {cert['note']}")
        elif kind == "exhaustion":
            if "kind" not in cert:
                raise CorruptCertificate("exhaustion statement lacks a kind")
        else:
            raise CorruptCertificate(f"unknown certificate type {kind!r}")
        replayed += 1
    out = {"replayed": replayed, "status": HOLDS}
    return 0, out


def _compose_chain(cat: FiniteCategory, mids: list[str]) -> str:
    out = mids[-1]
    for mid in reversed(mids[:-1]):
        out = cat.compose(mid, out)
    return out


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rw",
        description="bounded verification over finite structure catalogs")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("RW_SEED", "0")))
    parser.add_argument("--budget-nodes", type=int,
                        default=_env_int("RW_BUDGET_NODES"))
    parser.add_argument("--budget-secs", type=float,
                        default=_env_float("RW_BUDGET_SECS"))
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cat = sub.add_parser("cat", help="category-level checks")
    cat.add_argument("cat_action", choices=["check", "skeleton", "op"])
    cat.add_argument("--catalog", required=True)
    cat.add_argument("--abstract", action="store_true")

    arrow = sub.add_parser("arrow", help="decide a partition arrow")
    arrow.add_argument("--catalog", required=True)
    arrow.add_argument("--C", required=True)
    arrow.add_argument("--B", required=True)
    arrow.add_argument("--A", required=True)
    arrow.add_argument("-k", type=int, required=True)
    arrow.add_argument("-t", type=int, required=True)
    arrow.add_argument("--oracle", action="store_true")
    arrow.add_argument("--no-symmetry", action="store_true")
    arrow.add_argument("--cnf", help="also export a DIMACS encoding here")

    degree = sub.add_parser("degree", help="catalog-relative degree interval")
    degree.add_argument("--catalog", required=True)
    degree.add_argument("--A", required=True)
    degree.add_argument("--kmax", type=int, default=2)
    degree.add_argument("--bmax", type=int, default=None)

    amalgam = sub.add_parser("amalgam", help="amalgamation checks")
    amalgam.add_argument("--catalog", required=True)
    amalgam.add_argument("--abstract", action="store_true")
    amalgam.add_argument("--wap", action="store_true")
    amalgam.add_argument("--two-of-k", type=int, default=None)
    amalgam.add_argument("--chain", action="store_true")
    amalgam.add_argument("--depth", type=int, default=4)
    amalgam.add_argument("--A", default=None)

    seq = sub.add_parser("seq", help="sequence calculus")
    seq.add_argument("seq_action", choices=["colim", "wfcheck", "whom"])
    seq.add_argument("--catalog", required=True)
    seq.add_argument("--seq", help="sequence JSON file")
    seq.add_argument("--obj", help="ambient object for whom")
    seq.add_argument("--mmax", type=int, default=8)
    seq.add_argument("--kmax", type=int, default=8)

    expand = sub.add_parser("expand", help="coloring-family expansions")
    expand.add_argument("expand_action",
                        choices=["build", "check", "orbits", "ep"])
    expand.add_argument("--catalog", required=True)
    expand.add_argument("--degrees", help="degrees JSON file")
    expand.add_argument("--obj", help="object for orbit analysis")

    rep = sub.add_parser("replay", help="re-verify report certificates")
    rep.add_argument("report")
    return parser


def _env_int(name: str) -> int | None:
    value = os.environ.get(name)
    return int(value) if value else None


def _env_float(name: str) -> float | None:
    value = os.environ.get(name)
    return float(value) if value else None


HANDLERS = {
    "cat": _cmd_cat,
    "arrow": _cmd_arrow,
    "degree": _cmd_degree,
    "amalgam": _cmd_amalgam,
    "seq": _cmd_seq,
    "expand": _cmd_expand,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    # the output path is not semantic configuration; keep it out of the
    # echo so identical runs into different files stay byte-identical
    echo = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        echo.append(token)
    args.command_echo = echo
    started = time.monotonic()
    try:
        if args.subcommand == "replay":
            code, report = replay(args.report)
            args.catalog = None
            args.out = getattr(args, "out", None)
            _emit(args, {"replay": report, "command": args.command_echo})
            return code
        code, report = HANDLERS[args.subcommand](args)
    except (WorkbenchError, FileNotFoundError, KeyError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(args, report)
    if args.verbose:
        elapsed = time.monotonic() - started
        print(f"{args.subcommand}: status={report.get('status')} "
              f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
