"""Truncated sequences: structure chains and chains of category ids.

Colimits work on structure chains: objects X_0..X_{N-1} with embedding
bondings.

``weak_fraisse_check`` and ``weak_homogeneity_check`` work on category ids:
they read hom-sets and composites only through a ``FiniteCategory``.

The index set stops at N-1 instead of running forever, so every "there is
a larger level" quantifier carries an explicit bound and the checkers
report UNKNOWN-AT-BOUND when the bound is the only obstacle.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import FAILS, HOLDS, UNKNOWN
from .category import FiniteCategory
from .errors import (ShapeMismatch, TruncationOverflow, WorkbenchError,
                     check_field, check_type)
from .structures import Embedding, Structure, compose, identity
# not called here: perfbench/spans.py wraps these two names in this module
from .structures import automorphisms, enumerate_embeddings  # noqa: F401


@dataclass(frozen=True)
class TruncatedSequence:
    objects: tuple[Structure, ...]
    steps: tuple[Embedding, ...]

    def __post_init__(self):
        if not self.objects:
            raise ShapeMismatch("sequences need at least one level")
        if len(self.steps) != len(self.objects) - 1:
            raise ShapeMismatch("need exactly one step per consecutive pair")
        for n, step in enumerate(self.steps):
            if step.source != self.objects[n] or step.target != self.objects[n + 1]:
                raise ShapeMismatch(f"step {n} does not join levels {n}, {n + 1}")

    @property
    def length(self) -> int:
        return len(self.objects)

    def bonding(self, n: int, m: int) -> Embedding:
        if not (0 <= n <= m < self.length):
            raise TruncationOverflow(f"bonding {n}->{m} outside truncation")
        e = identity(self.objects[n])
        for level in range(n, m):
            e = compose(self.steps[level], e)
        return e


# -- colimits ----------------------------------------------------------------


@dataclass
class ColimitResult:
    structure: Structure
    cocone: tuple[Embedding, ...]
    class_names: tuple[tuple[int, int], ...]   # least (level, element) per class


def colimit(seq: TruncatedSequence) -> ColimitResult:
    """Union along the bondings.

    Elements are classes of (level, element) under identification by the
    bondings, named by their least representative; relations are inherited
    from the top level, which every class reaches.
    """
    top = seq.length - 1
    top_struct = seq.objects[top]
    to_top = [seq.bonding(n, top) for n in range(seq.length)]

    rep_of_top_elt: dict[int, tuple[int, int]] = {}
    for n in range(seq.length):
        for x in range(seq.objects[n].size):
            t = to_top[n].map[x]
            if t not in rep_of_top_elt:
                rep_of_top_elt[t] = (n, x)
    for t in range(top_struct.size):
        rep_of_top_elt.setdefault(t, (top, t))

    reps = sorted(rep_of_top_elt.values())
    index_of_rep = {rep: i for i, rep in enumerate(reps)}
    top_to_class = {
        t: index_of_rep[rep_of_top_elt[t]] for t in range(top_struct.size)
    }

    relations = {
        rname: {tuple(top_to_class[v] for v in t) for t in table}
        for rname, table in top_struct.relations
    }
    constants = {cname: top_to_class[v] for cname, v in top_struct.constants}
    colim = Structure.make(top_struct.signature, top_struct.size, relations,
                           constants, name="colim")

    cocone = tuple(
        Embedding(seq.objects[n], colim,
                  tuple(top_to_class[to_top[n].map[x]]
                        for x in range(seq.objects[n].size)))
        for n in range(seq.length)
    )
    return ColimitResult(colim, cocone, tuple(reps))


# -- lemma-level checks -------------------------------------------------------


@dataclass
class ChainAbsorptionReport:
    status: str
    cofinality_witness: dict[str, int]
    missing_objects: list[str]
    absorption_witness: dict[int, int]
    stuck_levels: list[int]
    notes: list[str] = field(default_factory=list)


def weak_fraisse_check(cat: FiniteCategory, levels: list[str], steps: list[str],
                       catalog: list[str], m_max: int,
                       k_max: int) -> ChainAbsorptionReport:
    """Is the chain cofinal for the catalog and tail-absorbing within bounds?

    The chain is the objects ``levels`` joined by the morphism ids ``steps``,
    with bondings w(n, m).  Absorption at level n asks for m >= n such that
    every morphism f from level m into a catalog object bends back into some
    later level k while fixing the level-n copy: position(w(n, k)) lies in
    the row pre(f.w(n, m), X_k).  The existential bounds m_max and k_max are
    capped by the truncation, so a missing witness is UNKNOWN-AT-BOUND,
    while a cofinality gap is a definite failure for this chain.
    """
    top = len(levels) - 1
    cof: dict[str, int] = {}   # the first level each catalog object embeds in
    for c in catalog:
        hit = next((n for n, x in enumerate(levels) if cat.hom(c, x)), None)
        if hit is not None:
            cof[c] = hit
    missing = [c for c in catalog if c not in cof]
    if missing:
        return ChainAbsorptionReport(FAILS, cof, missing, {}, [],
                                     notes=["catalog object never embeds"])

    w: dict[tuple[int, int], str] = {}   # w[n, m]: the bonding n -> m
    for n, x in enumerate(levels):
        w[n, n] = cat.identity(x)
        for m in range(n, top):
            w[n, m + 1] = cat.compose(steps[m], w[n, m])

    pre = functools.cache(cat.pre)   # levels share rows pre(f.w(n, m), X_k)

    def absorbs(n: int, m: int) -> bool:
        targets = [(levels[k], cat.position(w[n, k]))
                   for k in range(m, min(k_max, top) + 1)]
        for c in catalog:
            for f in cat.hom(levels[m], c):
                fw = cat.compose(f, w[n, m])
                if not any(at in pre(fw, x_k) for x_k, at in targets):
                    return False
        return True

    witness: dict[int, int] = {}
    for n in range(len(levels)):
        found = next((m for m in range(n, min(m_max, top) + 1)
                      if absorbs(n, m)), None)
        if found is not None:
            witness[n] = found
    stuck = [n for n in range(len(levels)) if n not in witness]
    status = HOLDS if not stuck else UNKNOWN
    return ChainAbsorptionReport(status, cof, [], witness, stuck,
                                 notes=[f"bounds m<={m_max} k<={k_max}, "
                                        f"truncated at {top}"])


@dataclass
class HomogeneityReport:
    status: str
    witnesses: list
    failure: dict | None = None


def weak_homogeneity_check(cat: FiniteCategory, f_obj: str,
                           catalog: list[str]) -> HomogeneityReport:
    """Weak homogeneity of the object F = f_obj, with B ranging over the catalog.

    For every catalog A and f: A -> F there must be e: A -> B and
    i: B -> F with i.e = f such that every j: B -> F satisfies h.j.e = f
    for some h in Aut(F): the row pre(e, F) holds position(f) and lies in
    the orbit {position(h.f) : h in Aut(F)}.  Witnesses carry morphism ids.
    Every finite F passes once the catalog holds a copy of F: take B to be
    that copy, and every j is then an isomorphism.
    So FAILS is a verdict relative to the catalog.  Whether a catalog too
    small to hold a witness B should give UNKNOWN-AT-BOUND under the bound
    rule of this module is left open; the verdict stays FAILS.
    """
    auts = cat.automorphism_ids(f_obj)
    pre = functools.cache(cat.pre)   # each row pre(e, F) is read once
    witnesses = []
    for a in catalog:
        into_f = cat.hom(a, f_obj)
        if not into_f:
            continue
        moved = [cat.post(h, a) for h in auts]   # position of h.f, per f
        for k, f in enumerate(into_f):
            orbit = {row[k] for row in moved}
            for b, e in ((b, e) for b in catalog for e in cat.hom(a, b)):
                row = pre(e, f_obj)
                if k in row and orbit.issuperset(row):
                    witnesses.append({"A": a, "f": f, "B": b, "e": e,
                                      "i": cat.hom(b, f_obj)[row.index(k)]})
                    break
            else:
                return HomogeneityReport(
                    FAILS, witnesses,
                    failure={"A": a, "f": f,
                             "reason": "no factorization is exchangeable"})
    return HomogeneityReport(HOLDS, witnesses)


# -- sequence files -----------------------------------------------------------


def sequence_from_json(doc: dict, catalog: list[Structure]) -> TruncatedSequence:
    """The sequence a JSON document describes, every field type-checked."""
    by_name = {s.name: s for s in catalog}
    doc = check_type(doc, dict, "sequence document")
    names = check_field(doc, "objects", list, "sequence object list")
    try:
        objects = tuple(by_name[check_type(n, str, "sequence object")]
                        for n in names)
    except KeyError as exc:
        raise WorkbenchError(f"sequence references unknown structure {exc}")
    bondings = {}
    for key, spec in check_type(doc.get("bonding", {}), dict,
                                "sequence bondings").items():
        # decimal without leading zeros, so no two keys name one bonding
        if not re.fullmatch(r"(0|[1-9][0-9]*)->(0|[1-9][0-9]*)", key):
            raise WorkbenchError(f"bad bonding key {key!r}")
        if not all(type(v) is int for v in check_type(spec, list, f"bonding {key}")):
            raise WorkbenchError(f"bonding {key} must be a list of ints")
        n, _, m = key.partition("->")
        bondings[(int(n), int(m))] = tuple(spec)
    steps = []
    for n in range(len(objects) - 1):
        if (n, n + 1) not in bondings:
            raise WorkbenchError(f"missing bonding {n}->{n + 1}")
        steps.append(Embedding(objects[n], objects[n + 1], bondings[(n, n + 1)]))
    seq = TruncatedSequence(objects, tuple(steps))
    for (n, m), mp in sorted(bondings.items()):
        if seq.bonding(n, m).map != mp:
            raise WorkbenchError(f"bonding {n}->{m} breaks the chain laws")
    return seq
