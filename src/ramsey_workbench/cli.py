"""Command-line front door: each question becomes a canonical JSON report.

Sorted keys, a two-space indent and no volatile field make identical inputs
and flags give identical bytes; timing goes to stderr under -v only.
``QUESTIONS`` maps each (subcommand, action) to a question and the flags
that must name catalog objects.  ``ask`` loads the category once, checks
those flags and makes the question's ``(check, status, verdict fields,
certificates[, top-level extras])`` the report's one verdict, whose status
is the report's and sets the exit code: 0 holds, 1 fails, 2 unknown at
bound, 3 input error.  ``REPLAY`` maps each certificate type to a re-checker
and the types of the fields it reads, which are checked first.  ``_owed``
is the one rule that derives, from an arrow or degree verdict's claim and
the catalog, the certificates it owes: ``ask`` fills in their evidence and
replay requires them, read once in step; ``BOUND_TO`` binds each other type
to the verdicts it may sit under.  Checkers are called through this
module's globals, so a tracer that replaces ``cli.<name>`` sees every call.

``run`` builds the argument parser once per process, on its first call, and
reuses it; the ``RW_SEED``, ``RW_BUDGET_NODES`` and ``RW_BUDGET_SECS``
defaults are read again on every call.  ``--budget-secs`` sets one absolute
deadline per arrow or degree question, which each search checks before it
starts and every 1,024 nodes; a search stopped by it is UNKNOWN-AT-BOUND,
with a note that the time budget ran out.  ``--oracle`` keeps its coloring
budget and ignores the deadline and the node budget.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict
from functools import reduce

from . import __version__, structures
from .arrows import (FAILS, HOLDS, TIME_OUT, UNKNOWN, Coloring, arrow_check,
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


# -- questions ----------------------------------------------------------------


def _cat_check(args, cat):
    rep = check_axioms(cat)
    status = HOLDS if (rep.all_mono and rep.directed and rep.identity_ok
                       and rep.associativity_ok) else FAILS
    if status == HOLDS and UNKNOWN in rep.locally_finite.values():
        status = UNKNOWN
    return "axioms", status, {"detail": asdict(rep)}, []


def _cat_skeleton(args, cat):
    skel = skeletonize(cat)
    isos = {a: e.map for a, e in skel.canon_iso.items()}
    return "skeleton", HOLDS, {
        "representatives": skel.representatives, "isos": isos}, []


def _cat_op(args, cat):
    o = op(cat)
    involutive = tables_equal(op(o), cat)
    mono_epi = all(cat.is_mono(m) == o.is_epi(m) for m in cat.all_morphisms())
    status = HOLDS if involutive and mono_epi else FAILS
    return "op", status, {
        "involutive": involutive, "mono_epi_swap": mono_epi,
        "homs": {f"{a}->{b}": o.hom(a, b)
                 for a in o.objects for b in o.objects if o.hom(a, b)}}, []


def _deadline(args) -> float | None:
    """The question's one absolute deadline, on the monotonic clock."""
    return None if args.budget_secs is None else time.monotonic() + args.budget_secs


def _arrow(args, cat):
    instance = {"C": args.C, "B": args.B, "A": args.A, "k": args.k, "t": args.t}
    if args.oracle:
        verdict = oracle_arrow_check(cat, *instance.values())
    else:
        verdict = arrow_check(cat, *instance.values(), node_budget=args.budget_nodes,
                              deadline=_deadline(args),
                              symmetry=not args.no_symmetry)
    if args.cnf:
        with open(args.cnf, "w", encoding="utf-8") as fh:
            fh.write(export_cnf(cat, *instance.values()))
    fields = {**instance, "degenerate": verdict.degenerate,
              "stats": asdict(verdict.stats)}
    if verdict.note == TIME_OUT:    # only a stopped clock adds a field
        fields["note"] = TIME_OUT
    certificates = list(_owed(
        {"check": "arrow", "status": verdict.status, **fields}, cat))
    if verdict.status == FAILS:     # the colouring only the certificate holds
        certificates[0].update(vars(verdict.bad_coloring))
    return "arrow", verdict.status, fields, certificates


def _degree(args, cat):
    bs = None if args.bmax is None else [
        b for b in cat.objects if cat.structure(b).size <= args.bmax]
    deadline = _deadline(args)
    interval = degree_interval(cat, args.A, args.kmax, bs=bs,
                               node_budget=args.budget_nodes, deadline=deadline)
    fields = {"interval": interval.as_dict()}
    status = _degree_status(fields["interval"])
    if deadline is not None and time.monotonic() >= deadline:
        fields["note"] = TIME_OUT   # searches still running then stopped
    certificates = list(_owed(
        {"check": "degree-interval", "status": status, **fields}, cat))
    witnesses = iter(interval.upper_certs)
    for cert in certificates:       # the evidence only the certificates hold
        if cert["kind"] == "degree-lower":
            cert.update(vars(interval.lower_cert.bad_colorings[cert["C"]]))
        else:
            cert["C"] = next(witnesses).witness
    return "degree-interval", status, fields, certificates


def _amalgam_wap(args, cat):
    rep = wap_check(cat)
    certificates = [
        {"type": "composition-equality", "note": f"amalgamation arrow for {w['A']}",
         "lhs": [inst.r, inst.g, w["f"]], "rhs": [inst.s, inst.h, w["f"]]}
        for w in rep.witnesses
        for inst in is_amalgamation_arrow(cat, w["f"]).witnesses[:WITNESS_CAP]]
    return ("weak-amalgamation", rep.status,
            {"arrows": rep.witnesses, "failure": rep.failure}, certificates)


def _amalgam_two_of_k(args, cat):
    rep = two_of_k_check(cat, args.A, args.two_of_k)
    certificates = [
        {"type": "composition-equality", "note": "pair amalgam",
         "lhs": [w["r"], w["tuple"][w["i"]]], "rhs": [w["s"], w["tuple"][w["j"]]]}
        for w in rep.witnesses[:WITNESS_CAP]]
    return "two-out-of-k", rep.status, {
        "A": args.A, "k": args.two_of_k, "failure": rep.failure,
        "notes": rep.notes}, certificates


def _amalgam_chain(args, cat):
    chain = failure_chain(cat, args.A, args.depth)
    status = HOLDS if verify_pairwise_non_amalgamable(cat, chain) else FAILS
    return "failure-chain", status, {
        "A": args.A, "depth": args.depth, "chain": chain,
        "note": "bounded refutation only; length k refutes "
                "2-out-of-k at this depth"}, []


def _load_sequence(args, cat):
    if args.seq is None:
        raise WorkbenchError("--seq is required here")
    with open(args.seq, encoding="utf-8") as fh:
        return sequence_from_json(json.load(fh), list(cat.structures.values()))


def _seq_colim(args, cat):
    seq = _load_sequence(args, cat)
    result = colimit(seq)
    certificates = [
        {"type": "map-equality", "note": f"cocone triangle {n}->{m}",
         "lhs": structures.compose(result.cocone[m], seq.bonding(n, m)).map,
         "rhs": result.cocone[n].map}
        for n in range(seq.length) for m in range(n, seq.length)]
    return "colimit", HOLDS, {"size": result.structure.size,
                              "class_names": result.class_names}, certificates


def _seq_wfcheck(args, cat):
    seq = _load_sequence(args, cat)
    steps = [cat.embedding_id(s.source.name, s.target.name, s.map)
             for s in seq.steps]
    rep = weak_fraisse_check(cat, [x.name for x in seq.objects], steps,
                             cat.objects, m_max=args.mmax, k_max=args.kmax)
    return "weak-fraisse", rep.status, {
        "cofinality": rep.cofinality_witness, "missing": rep.missing_objects,
        # str keys sort as text ("10" < "2"); sort_keys orders int keys as numbers
        "absorption": {str(k): v for k, v in rep.absorption_witness.items()},
        "stuck": rep.stuck_levels, "notes": rep.notes}, []


def _seq_whom(args, cat):
    rep = weak_homogeneity_check(cat, args.obj, cat.objects)

    def maps(found: dict) -> dict:
        return {k: cat.embedding(v).map if k in ("f", "e", "i") else v
                for k, v in found.items()}

    return "weak-homogeneity", rep.status, {
        "object": args.obj,
        "witnesses": [maps(w) for w in rep.witnesses[:WITNESS_CAP]],
        "failure": rep.failure and maps(rep.failure)}, []


def _expansion_space(args, cat):
    degrees = {}
    if args.degrees:
        with open(args.degrees, encoding="utf-8") as fh:
            doc = check_type(json.load(fh), dict, "degree file")
        degrees = check_type(doc.get("degrees", doc), dict, "degree table")
    return ExpansionSpace(cat, degrees)


def _expand_build(args, cat):
    space = _expansion_space(args, cat)
    expansions = [{"base": obj, "theta": dict(e.theta)}
                  for obj in cat.objects for e in space.fiber(obj)]
    return "expansion-build", HOLDS, {
        "degrees": space.degrees,
        "fiber_sizes": {obj: space.fiber_size(obj) for obj in cat.objects},
    }, [], {"expansions": expansions}


def _expand_check(args, cat):
    rep = check_forgetful(_expansion_space(args, cat))
    return "forgetful-functor", HOLDS if rep.reasonable else FAILS, asdict(rep), []


def _expand_orbits(args, cat):
    rep = orbit_age_analysis(_expansion_space(args, cat), args.obj)
    return "orbit-age", HOLDS, {
        "object": args.obj, "orbit_sizes": sorted(len(o) for o in rep.orbits),
        "minimal_theta": dict(rep.minimal.theta), "notes": rep.notes}, []


def _expand_ep(args, cat):
    space = _expansion_space(args, cat)
    rep = expansion_property_check(
        space, {obj: space.fiber(obj) for obj in cat.objects})
    return "expansion-property", rep.direct_status, {
        "direct": rep.direct, "single_object_status": rep.single_status,
        "criteria_agree": rep.agree}, []


# (subcommand, action) -> (question, flags that must name catalog objects)
QUESTIONS = {
    ("cat", "check"): (_cat_check, ()),
    ("cat", "skeleton"): (_cat_skeleton, ()),
    ("cat", "op"): (_cat_op, ()),
    ("arrow", None): (_arrow, ("C", "B", "A")),
    ("degree", None): (_degree, ("A",)),
    ("amalgam", "wap"): (_amalgam_wap, ()),
    ("amalgam", "two-of-k"): (_amalgam_two_of_k, ("A",)),
    ("amalgam", "chain"): (_amalgam_chain, ("A",)),
    ("seq", "colim"): (_seq_colim, ()),
    ("seq", "wfcheck"): (_seq_wfcheck, ()),
    ("seq", "whom"): (_seq_whom, ("obj",)),
    ("expand", "build"): (_expand_build, ()),
    ("expand", "check"): (_expand_check, ()),
    ("expand", "orbits"): (_expand_orbits, ("obj",)),
    ("expand", "ep"): (_expand_ep, ()),
}


def ask(args) -> tuple[int, dict]:
    """Answer one question: (exit code, report with its one verdict)."""
    question, flags = QUESTIONS[args.subcommand, getattr(args, "action", None)]
    cat = _load_category(args)
    _require_objects(cat.objects, args, *flags)
    check, status, fields, certificates, *extras = question(args, cat)
    report = {
        "tool": {"name": "rw", "version": __version__},
        "command": args.command_echo,
        "config": {"seed": args.seed, "budget_nodes": args.budget_nodes,
                   "budget_secs": args.budget_secs},
        "catalog": {"path": args.catalog, "sha256": _sha256(args.catalog)},
        "status": status,
        "verdicts": [{"check": check, "status": status, **fields}],
        "certificates": certificates,
    }
    for extra in extras:
        report.update(extra)
    return EXIT_BY_STATUS[status], report


# -- replay -------------------------------------------------------------------


def _replay_coloring(cert: dict, cat: FiniteCategory) -> None:
    _replay_instance(cert, cat)
    coloring = Coloring(tuple(cert["domain"]), cert["k"], tuple(cert["values"]))
    if not verify_bad_coloring(cat, cert["C"], cert["B"], cert["A"], cert["t"],
                               coloring):
        raise CorruptCertificate(f"bad coloring does not replay: {cert['kind']}")


def _replay_composition(cert: dict, cat: FiniteCategory) -> None:
    if not (cert["lhs"] and cert["rhs"]):
        raise CorruptCertificate(f"empty composition: {cert['note']}")
    try:
        lhs, rhs = (reduce(lambda f, g: cat.compose(g, f), reversed(cert[side]))
                    for side in ("lhs", "rhs"))
        cat.morphism(lhs)       # a side of one id composes nothing
    except KeyError as exc:     # FiniteCategory.morphism: an id it lacks
        raise CorruptCertificate(f"no morphism {exc}: {cert['note']}") from None
    if lhs != rhs:
        raise CorruptCertificate(f"composition differs: {cert['note']}")


def _replay_maps(cert: dict, cat) -> None:
    if cert["lhs"] != cert["rhs"]:
        raise CorruptCertificate(f"maps differ: {cert['note']}")


def _replay_instance(cert: dict, cat: FiniteCategory) -> None:
    """An instance on catalog objects: an exhaustion's whole re-check until
    HOLDS is re-decided, and a colouring's first, as off the catalog every
    hom-set is empty and an empty hom(B, C) makes every colouring bad."""
    for name in ("C", "B", "A"):
        if cert[name] not in cat.objects:
            raise CorruptCertificate(f"{cert['kind']} {name} {cert[name]!r} "
                                     f"is not a catalog object")


INSTANCE_FIELDS = {"kind": str, "C": str, "B": str, "A": str, "k": int, "t": int}


def _instance(claim: dict, names: str = "CBAkt") -> dict:
    """The claim's fields named in names, each of its certificate field's type."""
    return {name: check_type(claim.get(name), INSTANCE_FIELDS[name],
                             f"verdict field {name!r}") for name in names}


def _degree_status(interval: dict) -> str:
    """A degree verdict HOLDS exactly when its interval has an upper end."""
    return UNKNOWN if interval.get("upper") is None else HOLDS


def _owed(verdict: dict, cat: FiniteCategory | None) -> Iterator[dict]:
    """The kinded certificates a verdict owes, in report order, as the fields
    each must carry; ``ask`` adds their evidence and ``replay`` requires
    them.  An arrow HOLDS owes its exhaustion, an arrow FAILS a colouring.
    A degree verdict, whose status its interval sets, owes a colouring of
    each catalog object, in sorted order, one below the lower end, which is
    1 without a lower certificate and at least 2 with one; then at
    the upper end an exhaustion, whose C is evidence, per (B, k) in
    ``degree_upper``'s order, B in ``b_range`` with hom(A, B) non-empty and
    k up to ``k_max``; the upper end must not be below the lower."""
    check, status = verdict.get("check"), verdict.get("status")
    if check == "arrow" and status == HOLDS:
        stats = check_type(verdict.get("stats"), dict, "arrow stats")
        yield {"type": "exhaustion", "kind": "arrow-holds",
               **_instance(verdict), "nodes": stats.get("nodes"),
               "colorings_scanned": stats.get("colorings_scanned")}
    if check == "arrow" and status == FAILS:
        yield {"type": "bad-coloring", "kind": "arrow-fails",
               **_instance(verdict)}
    if check != "degree-interval":
        return
    interval = check_type(verdict.get("interval"), dict, "degree interval")
    if status != _degree_status(interval):
        raise CorruptCertificate(f"a degree verdict of status {status!r} "
                                 f"with upper end {interval.get('upper')!r}")
    if interval.get("catalog") != cat.objects:
        raise CorruptCertificate("the degree interval's catalog is not the "
                                 "report catalog's object list")
    a = check_type(interval.get("object"), str, "interval object")
    k_max = check_type(interval.get("k_max"), int, "interval k_max")
    targets = [b for b in check_type(interval.get("b_range"), list, "b_range")
               if cat.hom(a, check_type(b, str, "an item of b_range"))]
    lower = check_type(interval.get("lower"), int, "interval lower")
    cert = interval.get("lower_certificate")
    if (cert is None) != (lower == 1) or lower < 1:
        raise CorruptCertificate(f"a lower end of {lower} with lower "
                                 f"certificate {cert!r}")
    if cert is not None:
        claim = {**_instance(check_type(cert, dict, "lower certificate"),
                             "Bk"), "A": a, "t": lower - 1}
        if claim["B"] not in targets or claim["k"] > k_max:
            raise CorruptCertificate("the lower certificate's B or k is "
                                     "outside b_range and k_max")
        for c in sorted(cat.objects):
            yield {"type": "bad-coloring", "kind": "degree-lower", "C": c, **claim}
    if interval.get("upper") is not None:
        t = check_type(interval["upper"], int, "interval upper")
        if t < lower:
            raise CorruptCertificate(f"a degree interval [{lower}, {t}]")
        for b in targets:
            for k in range(1, k_max + 1):
                yield {"type": "exhaustion", "kind": "degree-upper",
                       "B": b, "A": a, "k": k, "t": t}


def _replay_pair_amalgams(certificates: list[dict], cat: FiniteCategory,
                          a: str, k: int) -> None:
    """A two-out-of-k HOLDS owes one pair amalgam per k-tuple of morphisms
    out of a, in ``itertools.product`` order up to the cap, as
    ``two_of_k_check`` asks them: its lhs ends in the tuple's i-th member
    and its rhs in the j-th, for some i < j."""
    pool = [g for b in cat.objects for g in cat.hom(a, b)]
    # id_A is in the pool, so with two members 2^8 tuples pass the cap: the
    # tuples within it are k - 8 copies of pool[0], then a tuple of 8 places,
    # and two of those copies give every pair (i, j) that more would
    places = min(k, 8)
    if k < 2 or len(certificates) != min(WITNESS_CAP, len(pool) ** places):
        raise CorruptCertificate("a two-out-of-k HOLDS owes one pair "
                                 "amalgam per k-tuple, up to the cap")
    lead = tuple(pool[:1] * min(k - places, 2))
    for n, (cert, tail) in enumerate(
            zip(certificates, itertools.product(pool, repeat=places))):
        tup = lead + tail
        if not any(cert["lhs"][-1] == tup[i] and cert["rhs"][-1] == tup[j]
                   for i, j in itertools.combinations(range(len(tup)), 2)):
            raise CorruptCertificate(f"pair amalgam {n} does not amalgamate "
                                     f"a pair of k-tuple {n}")


# certificate type -> (re-checker, needs the report's catalog, field types);
# a one-item list is a list whose items have that type
REPLAY = {
    "bad-coloring": (_replay_coloring, True,
                     {**INSTANCE_FIELDS, "domain": [str], "values": [int]}),
    "composition-equality": (_replay_composition, True,
                             {"lhs": [str], "rhs": [str], "note": str}),
    "map-equality": (_replay_maps, False, {"lhs": [int], "rhs": [int], "note": str}),
    "exhaustion": (_replay_instance, True, INSTANCE_FIELDS),
}
# type of a certificate without kinds -> the (check, status) of each verdict
# it may sit under; a kinded certificate is one its verdict owes
BOUND_TO = {"composition-equality": {("weak-amalgamation", HOLDS),
                                     ("two-out-of-k", HOLDS)},
            "map-equality": {("colimit", HOLDS)}}


def _replay_category(data: bytes) -> FiniteCategory:
    """A structure catalog, which has a signature, or else a table."""
    doc = json.loads(data)
    if isinstance(doc, dict) and "signature" in doc:
        return FiniteCategory.from_structures(catalog_from_json(doc))
    return abstract_from_json(doc)


def replay(report_path: str) -> tuple[int, dict]:
    """Re-verify every certificate in a report by direct evaluation.

    The catalog's hash is checked for every report; the catalog itself is
    parsed first for a verdict whose claim it bounds, else on the first
    certificate that reads it.  A report with a status must have exactly one
    verdict, with that status.  Its kinded certificates are, in order, the
    ones ``_owed`` derives from that verdict and the catalog, on every field
    each names and on catalog objects.  Every other certificate sits under a
    verdict that ``BOUND_TO`` binds its type to; a two-out-of-k HOLDS has
    one per k-tuple, up to the cap, on a pair of that tuple."""
    with open(report_path, encoding="utf-8") as fh:
        report = check_type(json.load(fh), dict, "report")
    status, verdict = report.get("status"), {}
    if "status" in report:
        verdicts = check_type(report.get("verdicts"), list, "report verdicts")
        if [check_type(v, dict, "verdict").get("status") for v in verdicts] != [status]:
            raise CorruptCertificate("the report's status is not its one verdict's")
        verdict = verdicts[0]
    data = cat = None
    if "catalog" in report:
        entry = check_type(report["catalog"], dict, "report catalog")
        path = check_type(entry.get("path"), str, "report catalog path")
        with open(path, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
            raise CorruptCertificate("catalog file changed since the report")
    certificates = check_type(report.get("certificates", []), list,
                              "report certificates")
    check = verdict.get("check")
    if check == "degree-interval" or (check, status) == ("two-out-of-k", HOLDS):
        if data is None:
            raise CorruptCertificate(f"{check} without a catalog")
        cat = _replay_category(data)
    owed = _owed(verdict, cat)
    unowed = ("kinded certificates are not one for each bad colouring and "
              "exhaustion their verdict's instance owes, in order")
    for cert in certificates:
        kind = check_type(check_type(cert, dict, "certificate").get("type"),
                          str, "certificate type")
        if kind not in REPLAY:
            raise CorruptCertificate(f"unknown certificate type {kind!r}")
        recheck, needs_catalog, fields = REPLAY[kind]
        if needs_catalog and data is None:
            raise CorruptCertificate(f"{kind} without a catalog")
        for name, field_type in fields.items():
            what = f"{kind} field {name!r}"
            if isinstance(field_type, list):
                for item in check_type(cert.get(name), list, what):
                    check_type(item, field_type[0], f"an item of {what}")
            else:
                check_type(cert.get(name), field_type, what)
        if "kind" in fields:    # every field the owed one names, as owed
            expected = next(owed, None)
            if expected is None or not expected.items() <= cert.items():
                raise CorruptCertificate(unowed)
        elif (check, status) not in BOUND_TO[kind]:
            raise CorruptCertificate(f"{kind} under a {check!r} "
                                     f"verdict of status {status!r}")
        if needs_catalog and cat is None:
            cat = _replay_category(data)
        recheck(cert, cat)
    if next(owed, None) is not None:
        raise CorruptCertificate(unowed)
    if (check, status) == ("two-out-of-k", HOLDS):
        a, k = _instance(verdict, "Ak").values()
        _replay_pair_amalgams(certificates, cat, a, k)
    return 0, {"replayed": len(certificates), "status": HOLDS}


# -- argument parsing ---------------------------------------------------------


def _budget(parse, what: str):
    """The flag type of a budget: parse(text), finite and at least 0."""
    def read(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf:   # exact for ints of any size
            raise argparse.ArgumentTypeError(f"not {what} >= 0: {text!r}")
        return value
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rw", allow_abbrev=False,
        description="bounded verification over finite structure catalogs")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("-v", "--verbose", action="store_true")
    # defaults come from RW_* at every run (see _env_defaults)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget-nodes", type=_budget(int, "a whole number"),
                        help="search nodes for each arrow search of an arrow "
                             "or degree question; --oracle ignores it")
    parser.add_argument("--budget-secs",
                        type=_budget(float, "a finite number of seconds"),
                        help="wall-clock seconds for an arrow or degree "
                             "question, checked before each search and "
                             "every 1,024 search nodes")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--catalog", required=True)

    def question(name: str, help: str, *actions: str):
        command = sub.add_parser(name, help=help, parents=[catalog],
                                 allow_abbrev=False)
        if actions:
            command.add_argument("action", choices=actions)
        return command

    cat = question("cat", "category-level checks", "check", "skeleton", "op")
    cat.add_argument("--abstract", action="store_true")

    arrow = question("arrow", "decide a partition arrow")
    for flag in ("--C", "--B", "--A"):
        arrow.add_argument(flag, required=True)
    arrow.add_argument("-k", type=int, required=True)
    arrow.add_argument("-t", type=int, required=True)
    arrow.add_argument("--oracle", action="store_true",
                       help="test every coloring, within the oracle's coloring "
                            "budget; ignores --budget-secs")
    arrow.add_argument("--no-symmetry", action="store_true")
    arrow.add_argument("--cnf", help="also export a DIMACS encoding here")

    degree = question("degree", "catalog-relative degree interval")
    degree.add_argument("--A", required=True)
    degree.add_argument("--kmax", type=int, default=2)
    degree.add_argument("--bmax", type=int, default=None)

    amalgam = question("amalgam", "amalgamation checks")
    amalgam.add_argument("--abstract", action="store_true")
    mode = amalgam.add_mutually_exclusive_group(required=True)
    mode.add_argument("--wap", dest="action", action="store_const", const="wap")
    mode.add_argument("--two-of-k", type=int, default=None)
    mode.add_argument("--chain", dest="action", action="store_const", const="chain")
    amalgam.set_defaults(action="two-of-k")   # the one mode without a const
    amalgam.add_argument("--depth", type=int, default=4)
    amalgam.add_argument("--A", default=None)

    seq = question("seq", "sequence calculus", "colim", "wfcheck", "whom")
    seq.add_argument("--seq", help="sequence JSON file")
    seq.add_argument("--obj", help="ambient object for whom")
    seq.add_argument("--mmax", type=int, default=8)
    seq.add_argument("--kmax", type=int, default=8)

    expand = question("expand", "coloring-family expansions",
                      "build", "check", "orbits", "ep")
    expand.add_argument("--degrees", help="degrees JSON file")
    expand.add_argument("--obj", help="object for orbit analysis")

    rep = sub.add_parser("replay", help="re-verify report certificates")
    rep.add_argument("report")
    return parser


def _env_defaults() -> dict:
    """Flag defaults from the environment; string defaults pass through each
    flag's type, so RW_* values parse like the flags themselves."""
    return {"seed": os.environ.get("RW_SEED", "0"),
            "budget_nodes": os.environ.get("RW_BUDGET_NODES") or None,
            "budget_secs": os.environ.get("RW_BUDGET_SECS") or None}


_parser: argparse.ArgumentParser | None = None   # built by the first run


def run(argv: list[str]) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    _parser.set_defaults(**_env_defaults())
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    # the output path is not semantic configuration; keep it out of the
    # echo so identical runs into different files stay byte-identical
    args.command_echo = [token for prev, token in zip([None, *argv], argv)
                         if "--out" not in (prev, token)
                         and not token.startswith("--out=")]
    started = time.monotonic()
    try:
        if args.subcommand == "replay":
            code, result = replay(args.report)
            report = {"replay": result, "command": args.command_echo}
        else:
            code, report = ask(args)
        text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (WorkbenchError, OSError, KeyError, ValueError) as exc:
        # OSError: a file flag names no file; a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.verbose and args.out:
        print(f"report written to {args.out}", file=sys.stderr)
    if args.verbose and args.subcommand != "replay":
        print(f"{args.subcommand}: status={report['status']} "
              f"elapsed={time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
