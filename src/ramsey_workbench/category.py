"""Explicit finite category fragments.

Two flavors share one interface: structure-backed categories, whose
morphisms are embeddings and whose composition is map composition, and
abstract categories loaded from a JSON table.  Everything downstream
(arrow search, amalgamation, expansions) works through this interface.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import MissingIsoData, SignatureMismatch, WorkbenchError
from .structures import (Embedding, Structure, automorphisms, canonical_form,
                         canonical_key, compose as compose_embeddings,
                         enumerate_embeddings, identity, refinement_partition)


@dataclass(frozen=True)
class Morphism:
    mid: str
    src: str
    tgt: str
    emb: Embedding | None = field(default=None, compare=False)


class FiniteCategory:
    def __init__(self, objects, homs, morphisms, identities, compose_table=None,
                 structures=None, compose_fn=None):
        self.objects: list[str] = list(objects)
        self._homs: dict[tuple[str, str], list[str]] = {
            k: list(v) for k, v in homs.items()
        }
        self._mor: dict[str, Morphism] = dict(morphisms)
        self._identities: dict[str, str] = dict(identities)
        self._compose_table = dict(compose_table) if compose_table is not None else None
        self.structures: dict[str, Structure] = dict(structures or {})
        self._compose_fn = compose_fn
        self._emb_index: dict[tuple[str, str, tuple[int, ...]], str] | None = None
        seen: set[str] = set()
        for (s, t), mids in self._homs.items():
            for mid in mids:
                if mid in seen:
                    raise WorkbenchError(f"morphism {mid!r} appears in two hom-sets")
                seen.add(mid)
                m = self._mor[mid]
                if (m.src, m.tgt) != (s, t):
                    raise WorkbenchError(f"morphism {mid!r} filed under wrong hom-set")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_structures(catalog: list[Structure]) -> "FiniteCategory":
        """Embedding category on a catalog; morphism ids are lex ranks."""
        if catalog:
            sig = catalog[0].signature
            if any(s.signature != sig for s in catalog):
                raise SignatureMismatch("catalog structures disagree on signature")
        names = []
        for i, s in enumerate(catalog):
            names.append(s.name or f"S{i}")
        if len(set(names)) != len(names):
            raise WorkbenchError("catalog object names must be distinct")
        structures = dict(zip(names, catalog))
        homs: dict[tuple[str, str], list[str]] = {}
        morphisms: dict[str, Morphism] = {}
        identities: dict[str, str] = {}
        emb_index: dict[tuple[str, str, tuple[int, ...]], str] = {}
        for a in names:
            for b in names:
                embs = enumerate_embeddings(structures[a], structures[b])
                mids = []
                for k, e in enumerate(embs):
                    mid = f"{a}->{b}#{k}"
                    mids.append(mid)
                    morphisms[mid] = Morphism(mid, a, b, e)
                    emb_index[(a, b, e.map)] = mid
                    if a == b and e.is_identity:
                        identities[a] = mid
                homs[(a, b)] = mids
        cat = FiniteCategory(names, homs, morphisms, identities,
                             structures=structures)
        cat._emb_index = emb_index
        return cat

    # -- basic interface ---------------------------------------------------

    def hom(self, a: str, b: str) -> list[str]:
        return self._homs.get((a, b), [])

    def morphism(self, mid: str) -> Morphism:
        return self._mor[mid]

    def embedding(self, mid: str) -> Embedding:
        e = self._mor[mid].emb
        if e is None:
            raise WorkbenchError(f"morphism {mid!r} carries no embedding")
        return e

    def identity(self, a: str) -> str:
        return self._identities[a]

    def source(self, mid: str) -> str:
        return self._mor[mid].src

    def target(self, mid: str) -> str:
        return self._mor[mid].tgt

    def compose(self, g: str, f: str) -> str:
        """Composite g . f (f first)."""
        mf, mg = self._mor[f], self._mor[g]
        if mf.tgt != mg.src:
            raise WorkbenchError(f"{g!r} . {f!r} not composable")
        if self._compose_fn is not None:
            return self._compose_fn(g, f)
        if self._compose_table is not None:
            try:
                return self._compose_table[(g, f)]
            except KeyError:
                raise WorkbenchError(f"composition table misses {g!r} . {f!r}")
        # map() rather than a generator: a closure would cost every call a cell
        composite = tuple(map(mg.emb.map.__getitem__, mf.emb.map))
        return self._emb_index[(mf.src, mg.tgt, composite)]

    def all_morphisms(self):
        for a in self.objects:
            for b in self.objects:
                yield from self.hom(a, b)

    def composable_pairs(self):
        for a in self.objects:
            for b in self.objects:
                for f in self.hom(a, b):
                    for c in self.objects:
                        for g in self.hom(b, c):
                            yield g, f

    def automorphism_ids(self, a: str) -> list[str]:
        """Invertible endomorphisms of a."""
        out = []
        for f in self.hom(a, a):
            for g in self.hom(a, a):
                if (self.compose(g, f) == self.identity(a)
                        and self.compose(f, g) == self.identity(a)):
                    out.append(f)
                    break
        return out

    def is_mono(self, mid: str) -> bool:
        b = self.source(mid)
        for a in self.objects:
            pool = self.hom(a, b)
            for g, h in itertools.combinations(pool, 2):
                if self.compose(mid, g) == self.compose(mid, h):
                    return False
        return True

    def is_epi(self, mid: str) -> bool:
        b = self.target(mid)
        for c in self.objects:
            pool = self.hom(b, c)
            for g, h in itertools.combinations(pool, 2):
                if self.compose(g, mid) == self.compose(h, mid):
                    return False
        return True

    def structure(self, a: str) -> Structure:
        try:
            return self.structures[a]
        except KeyError:
            raise MissingIsoData(f"object {a!r} has no attached structure")


def op(cat: FiniteCategory) -> FiniteCategory:
    """Opposite category: hom-sets swapped, composition reversed."""
    homs = {(b, a): list(mids) for (a, b), mids in cat._homs.items()}
    morphisms = {
        mid: Morphism(mid, m.tgt, m.src, m.emb) for mid, m in cat._mor.items()
    }
    return FiniteCategory(cat.objects, homs, morphisms, cat._identities,
                          structures=cat.structures,
                          compose_fn=lambda g, f: cat.compose(f, g))


def tables_equal(c1: FiniteCategory, c2: FiniteCategory) -> bool:
    """Object lists, hom-sets, identities, and all composites agree."""
    if c1.objects != c2.objects:
        return False
    for a in c1.objects:
        if c1.identity(a) != c2.identity(a):
            return False
        for b in c1.objects:
            if c1.hom(a, b) != c2.hom(a, b):
                return False
    for g, f in c1.composable_pairs():
        if c1.compose(g, f) != c2.compose(g, f):
            return False
    return True


# -- axiom checks ----------------------------------------------------------


@dataclass
class AxiomReport:
    all_mono: bool
    mono_failures: list[str]
    finiteness: dict
    below_sets: dict[str, list[str]]
    ambient_templates_note: str
    directed: bool
    directed_witnesses: dict[str, str]
    directed_failures: list[tuple[str, str]]
    associativity_ok: bool
    identity_ok: bool
    locally_finite: dict[str, str]

    def as_dict(self) -> dict:
        return {
            "all_mono": self.all_mono,
            "mono_failures": self.mono_failures,
            "finiteness": self.finiteness,
            "below_sets": self.below_sets,
            "ambient_templates_note": self.ambient_templates_note,
            "directed": self.directed,
            "directed_witnesses": self.directed_witnesses,
            "directed_failures": [list(p) for p in self.directed_failures],
            "associativity_ok": self.associativity_ok,
            "identity_ok": self.identity_ok,
            "locally_finite": self.locally_finite,
        }


def _covering_morphisms(cat, f_obj, span):
    """Pairs (D, r) with r: D -> f_obj whose image covers ``span``."""
    out = []
    for d in cat.objects:
        for r in cat.hom(d, f_obj):
            emb = cat.embedding(r)
            if span <= set(emb.map):
                out.append((d, r))
    return out


def _pullback_along(cat: FiniteCategory, cover: str, e: str) -> str | None:
    """The morphism u with cover . u = e, or None if e's image misses cover.

    Covers are injective, so u is unique: its map is e's map read back
    through cover, and it is looked up in hom(source e, source cover)
    rather than validated again.
    """
    pos = {v: i for i, v in enumerate(cat.embedding(cover).map)}
    try:
        m = tuple(pos[v] for v in cat.embedding(e).map)
    except KeyError:
        return None
    return cat._emb_index.get((cat.source(e), cat.source(cover), m))


def locally_finite_verdict(cat: FiniteCategory, f_obj: str) -> str:
    """HOLDS / UNKNOWN-AT-BOUND for the two-part joint-cover condition.

    For every pair of morphisms into f_obj there must be a catalog object
    covering both, universal among catalog covers.  A missing or defeated
    cover is inconclusive at this catalog (a larger one might supply it),
    so the negative verdict is UNKNOWN-AT-BOUND rather than FAILS.
    """
    for a in cat.objects:
        for b in cat.objects:
            for e in cat.hom(a, f_obj):
                e_map = cat.embedding(e).map
                for f in cat.hom(b, f_obj):
                    span = set(e_map) | set(cat.embedding(f).map)
                    covers = _covering_morphisms(cat, f_obj, span)
                    if not covers:
                        return "UNKNOWN-AT-BOUND"
                    covers.sort(key=lambda dr: (cat.structure(dr[0]).size, dr[0], dr[1]))
                    found = False
                    for _, r in covers:
                        if _pullback_along(cat, r, e) is None or \
                                _pullback_along(cat, r, f) is None:
                            continue
                        if _defeated(cat, r, e, f, covers):
                            continue
                        found = True
                        break
                    if not found:
                        return "UNKNOWN-AT-BOUND"
    return "HOLDS"


def _defeated(cat, r, e, f, covers):
    # r is defeated if some contender cover admits no mediating embedding
    # under it (mediators are unique here because covers are injective).
    for _, r2 in covers:
        if _pullback_along(cat, r2, e) is None or \
                _pullback_along(cat, r2, f) is None:
            continue
        if _pullback_along(cat, r2, r) is None:
            return True
    return False


def check_axioms(cat: FiniteCategory, *, include_local_finiteness: bool = True) -> AxiomReport:
    mono_failures = [m for m in cat.all_morphisms() if not cat.is_mono(m)]

    identity_ok = True
    for a in cat.objects:
        ia = cat.identity(a)
        for b in cat.objects:
            for f in cat.hom(a, b):
                if cat.compose(f, ia) != f or cat.compose(cat.identity(b), f) != f:
                    identity_ok = False

    associativity_ok = True
    for g, f in cat.composable_pairs():
        c = cat.target(g)
        for d in cat.objects:
            for h in cat.hom(c, d):
                if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f):
                    associativity_ok = False

    below = {
        b: sorted(a for a in cat.objects if cat.hom(a, b))
        for b in cat.objects
    }

    directed_witnesses: dict[str, str] = {}
    directed_failures: list[tuple[str, str]] = []
    for a in cat.objects:
        for b in cat.objects:
            hit = None
            for c in cat.objects:
                if cat.hom(a, c) and cat.hom(b, c):
                    hit = c
                    break
            if hit is None:
                directed_failures.append((a, b))
            else:
                directed_witnesses[f"{a},{b}"] = hit

    locally_finite: dict[str, str] = {}
    # needs embeddings pointing the same way as the arrows, so skip on op views
    if include_local_finiteness and cat.structures and cat._emb_index is not None:
        for f_obj in cat.objects:
            locally_finite[f_obj] = locally_finite_verdict(cat, f_obj)

    return AxiomReport(
        all_mono=not mono_failures,
        mono_failures=mono_failures,
        finiteness={
            "objects": len(cat.objects),
            "morphisms": sum(len(v) for v in cat._homs.values()),
            "all_hom_sets_finite": True,
        },
        below_sets=below,
        ambient_templates_note=(
            "template coverage is vacuous when the template subcategory "
            "is the whole catalog"
        ),
        directed=not directed_failures,
        directed_witnesses=directed_witnesses,
        directed_failures=directed_failures,
        associativity_ok=associativity_ok,
        identity_ok=identity_ok,
        locally_finite=locally_finite,
    )


# -- skeletonization -------------------------------------------------------


@dataclass
class Skeletonization:
    parent: FiniteCategory
    representatives: dict[str, str]   # object -> its representative
    canon_iso: dict[str, Embedding]   # object -> iso onto the representative

    @property
    def representative_objects(self) -> list[str]:
        seen = []
        for a in self.parent.objects:
            r = self.representatives[a]
            if r not in seen:
                seen.append(r)
        return seen

    def skeleton_category(self) -> FiniteCategory:
        reps = self.representative_objects
        return FiniteCategory.from_structures(
            [self.parent.structure(r) for r in reps]
        )


def skeletonize(cat: FiniteCategory) -> Skeletonization:
    """Pick one representative per isomorphism class, with witnessing isos.

    Representatives are the first catalog object in each class; classes are
    keyed by canonical form, with the invariant partition as a pre-filter.
    """
    if set(cat.structures) != set(cat.objects):
        raise MissingIsoData("skeletonization needs structures on every object")
    canon: dict[str, tuple[Structure, Embedding]] = {}
    prefilter: dict[str, tuple] = {}
    for a in cat.objects:
        s = cat.structure(a)
        prefilter[a] = (s.size, tuple(sorted(refinement_partition(s))))
        canon[a] = canonical_form(s)

    reps: dict[tuple, str] = {}
    representatives: dict[str, str] = {}
    canon_iso: dict[str, Embedding] = {}
    for a in cat.objects:
        key = canonical_key(cat.structure(a))
        if key not in reps:
            reps[key] = a
        rep = reps[key]
        representatives[a] = rep
        iso_a = canon[a][1]
        iso_rep = canon[rep][1]
        eta = compose_embeddings(iso_rep.inverse(), iso_a)
        # retarget onto the catalog's own copy of the representative
        eta = Embedding(cat.structure(a), cat.structure(rep), eta.map)
        canon_iso[a] = eta
    return Skeletonization(cat, representatives, canon_iso)


# -- abstract categories from JSON -----------------------------------------


def abstract_from_json(doc: dict) -> FiniteCategory:
    objects = list(doc["objects"])
    homs: dict[tuple[str, str], list[str]] = {}
    morphisms: dict[str, Morphism] = {}
    for key, mids in doc["homs"].items():
        src, _, tgt = key.partition("->")
        if not tgt:
            raise WorkbenchError(f"bad hom key {key!r}")
        homs[(src, tgt)] = list(mids)
        for mid in mids:
            morphisms[mid] = Morphism(mid, src, tgt)
    compose_table: dict[tuple[str, str], str] = {}
    for key, mid in doc.get("compose", {}).items():
        g, _, f = key.partition("∘")
        if not f:
            raise WorkbenchError(f"bad composition key {key!r}")
        compose_table[(g, f)] = mid
    identities = dict(doc["identities"])
    for a in objects:
        ia = identities[a]
        for b in objects:
            for f in homs.get((a, b), []):
                compose_table.setdefault((f, ia), f)
            for f in homs.get((b, a), []):
                compose_table.setdefault((ia, f), f)
    return FiniteCategory(objects, homs, morphisms, identities,
                          compose_table=compose_table)


def load_abstract(path) -> FiniteCategory:
    with open(path, encoding="utf-8") as fh:
        return abstract_from_json(json.load(fh))
