"""Truncated sequences: structure chains and chains of category ids.

Colimits and the transformation calculus work on structure chains: objects
X_0..X_{N-1} with embedding bondings.  Transformations carry a nondecreasing
level map and per-level components making every square commute.  Since all
bondings are embeddings, two transformations that separate at some level
stay separated all the way up, so equivalence is decidable at the
truncation: agreement at any level is agreement at the top.

``weak_fraisse_check`` and ``weak_homogeneity_check`` work on category ids:
they read hom-sets and composites only through a ``FiniteCategory``.

The index set stops at N-1 instead of running forever, so every "there is
a larger level" quantifier carries an explicit bound and the checkers
report UNKNOWN-AT-BOUND when the bound is the only obstacle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import FAILS, HOLDS, UNKNOWN
from .category import FiniteCategory
from .errors import (ShapeMismatch, TruncationOverflow, WorkbenchError,
                     check_type)
from .structures import (Embedding, Structure, automorphisms, compose,
                         enumerate_embeddings, identity)


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


def constant_sequence(a: Structure, length: int) -> TruncatedSequence:
    if length < 1:
        raise ShapeMismatch("length must be positive")
    return TruncatedSequence(tuple(a for _ in range(length)),
                             tuple(identity(a) for _ in range(length - 1)))


@dataclass(frozen=True)
class Transformation:
    source: TruncatedSequence
    target: TruncatedSequence
    phi: tuple[int, ...]
    components: tuple[Embedding, ...]

    def __post_init__(self):
        if len(self.phi) != self.source.length or \
                len(self.components) != self.source.length:
            raise ShapeMismatch("one level value and component per source level")
        if any(self.phi[i] > self.phi[i + 1] for i in range(len(self.phi) - 1)):
            raise ShapeMismatch("level map must be nondecreasing")
        if any(not (0 <= p < self.target.length) for p in self.phi):
            raise TruncationOverflow("level map leaves the target truncation")
        for n, comp in enumerate(self.components):
            if comp.source != self.source.objects[n] or \
                    comp.target != self.target.objects[self.phi[n]]:
                raise ShapeMismatch(f"component {n} joins the wrong objects")
        for n in range(self.source.length - 1):
            left = compose(self.components[n + 1], self.source.steps[n])
            right = compose(self.target.bonding(self.phi[n], self.phi[n + 1]),
                            self.components[n])
            if left != right:
                raise ShapeMismatch(f"square at level {n} does not commute")

    def naturality_holds_everywhere(self) -> bool:
        for n in range(self.source.length):
            for m in range(n, self.source.length):
                left = compose(self.components[m], self.source.bonding(n, m))
                right = compose(self.target.bonding(self.phi[n], self.phi[m]),
                                self.components[n])
                if left != right:
                    return False
        return True


def constant_transformation(f: Embedding, length: int) -> Transformation:
    return Transformation(constant_sequence(f.source, length),
                          constant_sequence(f.target, length),
                          tuple(range(length)),
                          tuple(f for _ in range(length)))


@dataclass
class EquivVerdict:
    status: str
    offending_level: int | None = None
    witness_levels: dict[int, int] = field(default_factory=dict)


def equiv_check(t1: Transformation, t2: Transformation,
                bound: int | None = None) -> EquivVerdict:
    """Do the two transformations agree up to pushing along bondings?

    For each source level n we look for a target level m (at most the
    bound) where the two pushed components coincide.  Bondings are mono, so
    disagreement that survives to the top level is conclusive; running out
    of levels below the top is only UNKNOWN-AT-BOUND.
    """
    if t1.source != t2.source or t1.target != t2.target:
        raise ShapeMismatch("equivalence needs identical endpoints")
    top = t1.target.length - 1
    hi = top if bound is None else min(bound, top)
    witness: dict[int, int] = {}
    unknown = False
    for n in range(t1.source.length):
        lo = max(t1.phi[n], t2.phi[n])
        found = None
        for m in range(lo, hi + 1):
            a = compose(t1.target.bonding(t1.phi[n], m), t1.components[n])
            b = compose(t2.target.bonding(t2.phi[n], m), t2.components[n])
            if a == b:
                found = m
                break
        if found is None:
            if hi == top:
                return EquivVerdict(FAILS, offending_level=n)
            unknown = True
        else:
            witness[n] = found
    if unknown:
        return EquivVerdict(UNKNOWN)
    return EquivVerdict(HOLDS, witness_levels=witness)


def compose_transformations(t2: Transformation, t1: Transformation) -> Transformation:
    if t1.target != t2.source:
        raise ShapeMismatch("transformations not composable")
    phi = tuple(t2.phi[p] for p in t1.phi)
    comps = tuple(compose(t2.components[t1.phi[n]], t1.components[n])
                  for n in range(t1.source.length))
    return Transformation(t1.source, t2.target, phi, comps)


def all_transformations(src: TruncatedSequence,
                        tgt: TruncatedSequence) -> list[Transformation]:
    """Exhaustive enumeration; intended for short truncations in tests."""
    import itertools

    n = src.length
    out = []
    levels = range(tgt.length)
    for phi in itertools.product(levels, repeat=n):
        if any(phi[i] > phi[i + 1] for i in range(n - 1)):
            continue
        pools = [enumerate_embeddings(src.objects[i], tgt.objects[phi[i]])
                 for i in range(n)]
        for comps in itertools.product(*pools):
            try:
                out.append(Transformation(src, tgt, tuple(phi), tuple(comps)))
            except (ShapeMismatch, TruncationOverflow):
                continue
    return out


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


def mediating_morphism(seq: TruncatedSequence, result: ColimitResult,
                       target_cocone: tuple[Embedding, ...]) -> Embedding:
    """The unique embedding u with u . c_n = d_n for every level n."""
    if len(target_cocone) != seq.length:
        raise ShapeMismatch("target cocone has the wrong length")
    tgt = target_cocone[0].target
    for n in range(seq.length - 1):
        if compose(target_cocone[n + 1], seq.steps[n]) != target_cocone[n]:
            raise ShapeMismatch(f"target cocone breaks at level {n}")
    top = seq.length - 1
    c_top = result.cocone[top]
    inv = {}
    for x in range(seq.objects[top].size):
        inv[c_top.map[x]] = x
    u = tuple(target_cocone[top].map[inv[i]]
              for i in range(result.structure.size))
    emb = Embedding(result.structure, tgt, u)
    for n in range(seq.length):
        if compose(emb, result.cocone[n]) != target_cocone[n]:
            raise WorkbenchError("mediating morphism fails a triangle")
    return emb


# -- lemma-level checks -------------------------------------------------------


@dataclass
class MonoTestReport:
    composite_status: str
    argument_status: str
    violation: bool


def mono_test(f: Transformation, g: Transformation, h: Transformation,
              bound: int | None = None) -> MonoTestReport:
    """Left-cancellation probe: f.g ~ f.h should force g ~ h."""
    fg = compose_transformations(f, g)
    fh = compose_transformations(f, h)
    left = equiv_check(fg, fh, bound)
    right = equiv_check(g, h, bound)
    violation = left.status == HOLDS and right.status == FAILS
    return MonoTestReport(left.status, right.status, violation)


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

    def absorbs(n: int, m: int) -> bool:
        targets = [(levels[k], cat.position(w[n, k]))
                   for k in range(m, min(k_max, top) + 1)]
        for c in catalog:
            for f in cat.hom(levels[m], c):
                fw = cat.compose(f, w[n, m])
                if not any(at in cat.pre(fw, x_k) for x_k, at in targets):
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


def ultrahomogeneity_check(f_struct: Structure,
                           catalog: list[Structure]) -> HomogeneityReport:
    """Any two copies of a catalog object are exchanged by an automorphism."""
    auts = automorphisms(f_struct)
    witnesses = []
    for a in catalog:
        copies = enumerate_embeddings(a, f_struct)
        for e1 in copies:
            for e2 in copies:
                hit = next((g for g in auts if compose(g, e1) == e2), None)
                if hit is None:
                    return HomogeneityReport(
                        FAILS, witnesses,
                        failure={"A": a.name, "e1": e1.map, "e2": e2.map})
                witnesses.append((a.name, e1.map, e2.map, hit.map))
    return HomogeneityReport(HOLDS, witnesses)


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
    witnesses = []
    for a in catalog:
        moved = [cat.post(h, a) for h in auts]   # position of h.f, per f
        for k, f in enumerate(cat.hom(a, f_obj)):
            orbit = {row[k] for row in moved}
            for b, e in ((b, e) for b in catalog for e in cat.hom(a, b)):
                row = cat.pre(e, f_obj)
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
    names = check_type(doc["objects"], list, "sequence object list")
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
