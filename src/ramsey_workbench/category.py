"""Explicit finite category fragments.

Two flavors share one interface: structure-backed categories, whose
morphisms are embeddings and whose composition is map composition, and
abstract categories loaded from a JSON table.  Everything downstream
(arrow search, amalgamation, expansions, the weak Fraïssé and weak
homogeneity checks on sequences) works through this interface.

A structure-backed category enumerates each hom-set the first time it is
read, so a question pays only for the hom-sets it reads.  Ids do not depend
on the read order: ``A->B#k`` is always the k-th embedding of A into B in
enumeration order.  Hence the rule: every read of ``_homs``, ``_mor``,
``_identities``, ``_pos`` or ``_emb_index`` goes through a method that reads
the hom-set first (``hom``, ``identity``, ``morphism``, ``source``, ``target``,
``compose``, ``post``, ``pre``, ``embedding_id``).  An id whose hom-set is
unread, say one from a certificate, is resolved by reading the one hom-set it
names.  Table and ``op`` categories have every hom-set up front; a missing one
is empty.

The integer kernel: ``position(mid)`` is the k of mid in its hom-set.  The
row ``post(w, a)`` maps hom(a, source w) into hom(a, target w) by positions,
and its dual ``pre(v, d)`` maps hom(target v, d) into hom(source v, d), the
position of s.v for each s.  Hot loops compare rows, not composites.  A table
category stores its composition as these rows and nothing else: the loader
writes ``rows[g][source f][position f] = position(g.f)`` for every entry it
checks, so ``post`` returns a stored row and ``compose`` indexes a hom-set by
a row entry.  The rows post(s, a) for s in hom(b, d), stacked, have as
columns the rows pre(v, d) for v in hom(a, b): ``columns(a, b, d)`` is that
transpose, built once per block and cached, and a table's ``pre`` reads one
of its entries.  ``op`` is such a table too, built block by block: its rows
are the columns of the category it dualizes.  Rows are total and faithful:
the loader refuses a table that leaves out a composite or names one outside
its hom-set, and nothing checks them after.

A table's ``automorphism_ids(a)`` reads rows too: f is kept when some j
has ``post(f, a)[j] == pre(f, a)[j] == position(id_a)``.  Expansions pick
representatives by invertible morphisms and decide absorption by sets of
restrictions, so they run on tables; only ``skeletonize`` and
``locally_finite_verdict`` need structures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter

from . import HOLDS, UNKNOWN
from .errors import (MissingIsoData, SignatureMismatch, WorkbenchError,
                     check_field, check_type)
from .structures import (Embedding, Structure, canonical_form,
                         compose as compose_embeddings, enumerate_embeddings)
# not called here: perfbench/spans.py wraps these two names in this module
from .structures import canonical_key, refinement_partition  # noqa: F401


@dataclass(frozen=True)
class Morphism:
    mid: str
    src: str
    tgt: str
    emb: Embedding | None = field(default=None, compare=False)


class FiniteCategory:
    def __init__(self, objects, homs, morphisms, identities, rows=None,
                 structures=None):
        self.objects: list[str] = list(objects)
        self._homs: dict[tuple[str, str], list[str]] = {
            k: list(v) for k, v in homs.items()
        }
        self._mor: dict[str, Morphism] = dict(morphisms)
        self._identities: dict[str, str] = dict(identities)
        # table composition: rows[g][a] = post(g, a), for each a with
        # hom(a, source g) non-empty
        self._rows: dict[str, dict[str, tuple]] | None = rows
        # table only: (a, b, d) -> columns(a, b, d), built on first read
        self._cols: dict[tuple[str, str, str], list[tuple]] = {}
        self.structures: dict[str, Structure] = dict(structures or {})
        self._emb_index: dict[tuple[str, str, tuple[int, ...]], str] | None = None
        # "a->b" -> (a, b), the hom-set an id "a->b#k" names, read on demand
        self._hom_of: dict[str, tuple[str, str]] = {}
        self._pos: dict[str, int] = {mid: k for mids in self._homs.values()
                                     for k, mid in enumerate(mids)}

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_structures(catalog: list[Structure]) -> "FiniteCategory":
        """Embedding category on a catalog; morphism ids are lex ranks.

        Nothing is enumerated here: each hom-set is read on demand.
        Unnamed structures are named S<index>."""
        if catalog:
            sig = catalog[0].signature
            if any(s.signature != sig for s in catalog):
                raise SignatureMismatch("catalog structures disagree on signature")
        names = [s.name or f"S{i}" for i, s in enumerate(catalog)]
        if len(set(names)) != len(names):
            raise WorkbenchError("catalog object names must be distinct")
        structures = dict(zip(names, catalog))
        cat = FiniteCategory(structures, {}, {}, {}, structures=structures)
        cat._emb_index = {}
        # ids are "a->b#k", so "x", "y->z" and "x->y", "z" would share them
        for a in names:
            for b in names:
                other = cat._hom_of.setdefault(f"{a}->{b}", (a, b))
                if other != (a, b):
                    raise WorkbenchError(
                        f"hom({other[0]}, {other[1]}) and hom({a}, {b}) "
                        f"would share the ids {a}->{b}#k")
        return cat

    # -- basic interface ---------------------------------------------------

    def hom(self, a: str, b: str) -> list[str]:
        mids = self._homs.get((a, b))
        if mids is not None:
            return mids
        if (self._emb_index is None or a not in self.structures
                or b not in self.structures):
            return []
        mids = self._homs[(a, b)] = []
        embs = enumerate_embeddings(self.structures[a], self.structures[b])
        for k, e in enumerate(embs):
            mid = f"{a}->{b}#{k}"
            mids.append(mid)
            self._pos[mid] = k
            self._mor[mid] = Morphism(mid, a, b, e)
            self._emb_index[(a, b, e.map)] = mid
            if a == b and e.is_identity:
                self._identities[a] = mid
        return mids

    def morphism(self, mid: str) -> Morphism:
        try:
            return self._mor[mid]
        except KeyError:
            # an id from outside, say a certificate: read the hom-set it names
            pair = self._hom_of.get(mid.rpartition("#")[0])
            if pair is None:
                raise
        self.hom(*pair)
        return self._mor[mid]

    def embedding(self, mid: str) -> Embedding:
        e = self.morphism(mid).emb
        if e is None:
            raise WorkbenchError(f"morphism {mid!r} carries no embedding")
        return e

    def identity(self, a: str) -> str:
        try:
            return self._identities[a]
        except KeyError:
            self.hom(a, a)
            return self._identities[a]

    # source, target and compose index _mor first: morphism() costs a call
    def source(self, mid: str) -> str:
        try:
            return self._mor[mid].src
        except KeyError:
            return self.morphism(mid).src

    def target(self, mid: str) -> str:
        try:
            return self._mor[mid].tgt
        except KeyError:
            return self.morphism(mid).tgt

    def compose(self, g: str, f: str) -> str:
        """Composite g . f (f first)."""
        try:
            mf, mg = self._mor[f], self._mor[g]
        except KeyError:
            mf, mg = self.morphism(f), self.morphism(g)
        if mf.tgt != mg.src:
            raise WorkbenchError(f"{g!r} . {f!r} not composable")
        if self._rows is not None:
            return self._homs[(mf.src, mg.tgt)][self._rows[g][mf.src][self._pos[f]]]
        # map() rather than a generator: a closure would cost every call a cell
        key = (mf.src, mg.tgt, tuple(map(mg.emb.map.__getitem__, mf.emb.map)))
        try:
            return self._emb_index[key]
        except KeyError:
            return self.embedding_id(*key)

    def embedding_id(self, a: str, b: str, mp: tuple[int, ...]) -> str:
        """The id of the embedding of a into b whose vertex map is mp."""
        self.hom(a, b)
        try:
            return self._emb_index[(a, b, mp)]
        except KeyError:
            raise WorkbenchError(f"{list(mp)} is no embedding of {a} into {b}")

    def position(self, mid: str) -> int:
        """Index of mid in its hom-set: the k of ``A->B#k``."""
        self.morphism(mid)
        return self._pos[mid]

    def post(self, w: str, a: str) -> tuple[int, ...]:
        """Position of w.f for each f in hom(a, source w), in order.  Reads
        only hom(a, source w) and hom(a, target w)."""
        if self._rows is None:
            pos, compose = self._pos, self.compose
            return tuple([pos[compose(w, f)] for f in self.hom(a, self.source(w))])
        return self._rows[w].get(a, ())

    def pre(self, v: str, d: str) -> tuple[int, ...]:
        """Position of s.v for each s in hom(target v, d), in order.  Reads
        only hom(target v, d) and hom(source v, d)."""
        if self._rows is None:
            pos, compose = self._pos, self.compose
            return tuple([pos[compose(s, v)] for s in self.hom(self.target(v), d)])
        return self.columns(self.source(v), self.target(v), d)[self._pos[v]]

    def columns(self, a: str, b: str, d: str) -> list[tuple[int, ...]]:
        """``pre(v, d)`` for each v in hom(a, b), in order.  On a table it is
        the transpose of the rows post(s, a) for s in hom(b, d), cached; an
        empty hom(b, d) gives empty columns."""
        if self._rows is None:
            return [self.pre(v, d) for v in self.hom(a, b)]
        try:
            return self._cols[(a, b, d)]
        except KeyError:
            pool = self.hom(b, d)
            rows = self._rows
            cols = (list(zip(*[rows[s][a] for s in pool])) if pool
                    else [()] * len(self.hom(a, b)))
            self._cols[(a, b, d)] = cols
            return cols

    def all_morphisms(self):
        for a in self.objects:
            for b in self.objects:
                yield from self.hom(a, b)

    def automorphism_ids(self, a: str) -> list[str]:
        """Invertible endomorphisms of a.

        In a structure category that is all of hom(a, a): a self-embedding
        of a finite structure is a bijection that preserves and reflects
        every relation and constant, so it is an automorphism.  In a table,
        f.g_j = id_a = g_j.f for some j, by rows."""
        if self._emb_index is not None:
            return list(self.hom(a, a))
        one = self.position(self.identity(a))
        return [f for f in self.hom(a, a)
                if any(x == y == one
                       for x, y in zip(self.post(f, a), self.pre(f, a)))]

    def is_mono(self, mid: str) -> bool:
        """Every row post(mid, a) is injective."""
        rows = ((self.post(mid, a) for a in self.objects) if self._rows is None
                else self._rows[mid].values())
        return all(len(set(row)) == len(row) for row in rows)

    def is_epi(self, mid: str) -> bool:
        """Every row pre(mid, c) is injective."""
        return all(len(set(row)) == len(row)
                   for row in (self.pre(mid, c) for c in self.objects))

    def structure(self, a: str) -> Structure:
        try:
            return self.structures[a]
        except KeyError:
            raise MissingIsoData(f"object {a!r} has no attached structure")


def op(cat: FiniteCategory) -> FiniteCategory:
    """Opposite category: hom-sets swapped, composition reversed.

    A row table whose row (w, d) is ``cat.pre(w, d)``: w.f in op is f.w in
    cat.  Built per hom-set block hom(a, b) of cat, whose rows are the
    ``columns(a, b, d)`` for each d that b maps into."""
    objects = cat.objects
    homs, morphisms, rows = {}, {}, {}
    for a in objects:
        for b in objects:
            block = homs[(b, a)] = cat.hom(a, b)
            if not block:
                continue
            for mid in block:
                morphisms[mid] = Morphism(mid, b, a, cat.morphism(mid).emb)
                rows[mid] = {}
            for d in objects:
                if cat.hom(b, d):
                    for mid, col in zip(block, cat.columns(a, b, d)):
                        rows[mid][d] = col
    identities = {a: cat.identity(a) for a in objects}
    return FiniteCategory(cat.objects, homs, morphisms, identities, rows=rows,
                          structures=cat.structures)


def tables_equal(c1: FiniteCategory, c2: FiniteCategory) -> bool:
    """Object lists, identities, hom-sets and all composites agree.

    With equal hom-sets, equal rows ``post(w, a)`` are equal composites, and
    two tables hold the same rows under the same keys."""
    if c1.objects != c2.objects:
        return False
    for a in c1.objects:
        if c1.identity(a) != c2.identity(a):
            return False
        for b in c1.objects:
            if c1.hom(a, b) != c2.hom(a, b):
                return False
    if c1._rows is not None and c2._rows is not None:
        return c1._rows == c2._rows
    return all(c1.post(w, a) == c2.post(w, a)
               for w in c1.all_morphisms() for a in c1.objects)


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


def locally_finite_verdict(cat: FiniteCategory, f_obj: str) -> str:
    """HOLDS / UNKNOWN-AT-BOUND for the two-part joint-cover condition.

    For every pair of morphisms into f_obj there must be a catalog object
    covering both, universal among catalog covers.  A missing or defeated
    cover is inconclusive at this catalog (a larger one might supply it),
    so the negative verdict is UNKNOWN-AT-BOUND rather than FAILS.

    Only for categories that ``from_structures`` builds.  Every hom-set
    there lists all embeddings, and embeddings are injective, so two facts
    hold: e factors through a cover r exactly when image(e) is inside
    image(r), and r factors through a cover r2 exactly when image(r) is
    inside image(r2).  So a pair (e, f) passes exactly when the images that
    contain span = image(e) | image(f) meet in the image of some morphism
    into f_obj.  The identity of f_obj covers every span.
    """
    images = {frozenset(cat.embedding(r).map)
              for d in cat.objects for r in cat.hom(d, f_obj)}
    for span in {e | f for e in images for f in images}:
        if frozenset.intersection(*(r for r in images if span <= r)) not in images:
            return UNKNOWN
    return HOLDS


def check_axioms(cat: FiniteCategory) -> AxiomReport:
    objects = cat.objects
    # the morphisms into t, sources in catalog order; flat[w] lists the index
    # of w.f in into[target w] for each f in into[source w].  Its blocks are
    # the rows post(w, a), shifted by the offset of hom(a, target w).
    into: dict[str, list[str]] = {}
    offset: dict[tuple[str, str], int] = {}
    for t in objects:
        into[t] = []
        for a in objects:
            offset[(a, t)] = len(into[t])
            into[t] += cat.hom(a, t)
    flat: dict[str, tuple[int, ...]] = {}
    index: dict[str, int] = {}      # w's own place in into[target w]
    for w in cat.all_morphisms():
        s, t = cat.source(w), cat.target(w)
        index[w] = offset[(s, t)] + cat.position(w)
        row: list[int] = []
        for a in objects:
            if cat.hom(a, s):
                row += map(offset[(a, t)].__add__, cat.post(w, a))
        flat[w] = tuple(row)
    # the blocks land in disjoint hom-sets: flat[w] is injective iff every
    # post(w, a) is, as in is_mono
    mono_failures = [w for w, row in flat.items() if len(set(row)) < len(row)]

    # id_b.f = f for all f into b, and f.id_a = f
    identity_ok = all(
        flat[cat.identity(b)] == tuple(range(len(into[b])))
        and all(flat[f][index[cat.identity(a)]] == index[f]
                for a in objects for f in cat.hom(a, b))
        for b in objects)

    # h.(g.f) = (h.g).f for all f: flat[h.g] is flat[h] after flat[g].  read
    # takes h.g's index, then flat[h] after flat[g]; flat[g] holds g.id at
    # least, so read always takes two or more indices and returns a tuple
    associativity_ok = True
    for g, row_g in flat.items():
        read, c = itemgetter(index[g], *row_g), cat.target(g)
        for d in objects:
            into_d = into[d]
            for h in cat.hom(c, d):
                got = read(flat[h])
                if flat[into_d[got[0]]] != got[1:]:
                    associativity_ok = False

    below = {
        b: sorted(a for a in cat.objects if cat.hom(a, b))
        for b in cat.objects
    }

    directed_witnesses: dict[str, str] = {}
    directed_failures: list[tuple[str, str]] = []
    for a in cat.objects:
        for b in cat.objects:
            hit = next((c for c in cat.objects
                        if cat.hom(a, c) and cat.hom(b, c)), None)
            if hit is None:
                directed_failures.append((a, b))
            else:
                directed_witnesses[f"{a},{b}"] = hit

    locally_finite: dict[str, str] = {}
    # needs embeddings pointing the same way as the arrows, so skip on op views
    if cat.structures and cat._emb_index is not None:
        for f_obj in cat.objects:
            locally_finite[f_obj] = locally_finite_verdict(cat, f_obj)

    return AxiomReport(
        all_mono=not mono_failures,
        mono_failures=mono_failures,
        finiteness={
            "objects": len(cat.objects),
            "morphisms": sum(1 for _ in cat.all_morphisms()),
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
    representatives: dict[str, str]   # object -> its representative
    canon_iso: dict[str, Embedding]   # object -> iso onto the representative


def skeletonize(cat: FiniteCategory) -> Skeletonization:
    """Pick one representative per isomorphism class, with witnessing isos.

    Representatives are the first catalog object in each class; classes are
    keyed by canonical form.
    """
    if set(cat.structures) != set(cat.objects):
        raise MissingIsoData("skeletonization needs structures on every object")
    canon = {a: canonical_form(cat.structure(a)) for a in cat.objects}

    reps: dict[Structure, str] = {}
    representatives: dict[str, str] = {}
    canon_iso: dict[str, Embedding] = {}
    for a in cat.objects:
        rep = reps.setdefault(canon[a][0], a)
        representatives[a] = rep
        eta = compose_embeddings(canon[rep][1].inverse(), canon[a][1])
        # retarget onto the catalog's own copy of the representative
        canon_iso[a] = Embedding(cat.structure(a), cat.structure(rep), eta.map)
    return Skeletonization(representatives, canon_iso)


# -- abstract categories from JSON -----------------------------------------


def abstract_from_json(doc: dict) -> FiniteCategory:
    """The category a JSON table describes, every field type-checked and
    every reference checked: object names are distinct, each hom key
    splits at one "->" into two objects, no id holds "∘", identities and
    composites lie in their hom-sets, and every composable pair has a
    composite.  Nothing checks them later.  Each
    composite is written into its row; identity composites fill only the
    slots the table leaves empty."""
    doc = check_type(doc, dict, "category document")
    objects = [check_type(a, str, "object")
               for a in check_field(doc, "objects", list, "object list")]
    declared = set(objects)
    if len(declared) != len(objects):
        raise WorkbenchError("category object names must be distinct")
    homs: dict[tuple[str, str], list[str]] = {}
    morphisms: dict[str, Morphism] = {}
    for key, mids in check_field(doc, "homs", dict, "hom-set table").items():
        # object names may hold "->": take the one split naming two objects
        splits = [(key[:i], key[i + 2:]) for i in range(len(key))
                  if key.startswith("->", i)
                  and key[:i] in declared and key[i + 2:] in declared]
        if len(splits) > 1:
            readings = " and ".join(f"{s!r}->{t!r}" for s, t in splits)
            raise WorkbenchError(f"hom key {key!r} is ambiguous: it reads {readings}")
        if not splits:
            raise WorkbenchError(f"hom key {key!r} is not A->B for declared A, B")
        (src, tgt), = splits
        homs[(src, tgt)] = [check_type(mid, str, f"morphism of {key}")
                            for mid in check_type(mids, list, f"hom-set {key}")]
        for mid in homs[(src, tgt)]:
            if mid in morphisms:
                raise WorkbenchError(f"morphism {mid!r} appears in two hom-sets")
            if "∘" in mid:
                raise WorkbenchError(f"morphism id {mid!r} holds the separator '∘'")
            morphisms[mid] = Morphism(mid, src, tgt)
    rows: dict[str, dict[str, list | tuple]] = {}
    # mid -> (source, target, position, rows[mid]): one lookup per name
    entry: dict[str, tuple[str, str, int, dict]] = {}
    for (src, tgt), mids in homs.items():
        for k, mid in enumerate(mids):
            row = rows[mid] = {a: [None] * len(homs[(a, src)])
                               for a in objects if homs.get((a, src))}
            entry[mid] = (src, tgt, k, row)
    table = check_type(doc.get("compose", {}), dict, "composition table")
    for key, mid in table.items():
        # before any lookup: a list or dict is unhashable
        if type(mid) is not str:
            raise WorkbenchError("every composite must be a morphism id string")
        g, sep, f = key.partition("∘")
        eg, ef = entry.get(g), entry.get(f)
        if not sep or eg is None or ef is None or ef[1] != eg[0]:
            raise WorkbenchError(f"composition key {key!r} names no composable pair")
        e = entry.get(mid)
        if e is None or e[0] != ef[0] or e[1] != eg[1]:
            raise WorkbenchError(
                f"composite {key!r} = {mid!r} is not in hom({ef[0]}, {eg[1]})")
        eg[3][ef[0]][ef[2]] = e[2]
    identities = check_field(doc, "identities", dict, "identity table")
    if not all(type(mid) is str for mid in identities.values()):
        raise WorkbenchError("every identity must be a morphism id string")
    for a in objects:
        try:
            ia = identities[a]
        except KeyError:
            raise WorkbenchError(f"identity table has no entry for {a!r}") from None
        e = entry.get(ia)
        if e is None or e[0] != a or e[1] != a:
            raise WorkbenchError(f"identity {ia!r} of {a!r} is not in hom({a}, {a})")
        k = e[2]
        for b in objects:
            for f in homs.get((a, b), []):     # f . ia
                _, _, j, by_a = entry[f]
                if by_a[a][k] is None:
                    by_a[a][k] = j
            row = e[3].get(b, [])              # ia . f for f into a
            for j, slot in enumerate(row):
                if slot is None:
                    row[j] = j
    for g, by_a in rows.items():
        for a, row in by_a.items():
            if None in row:
                f = homs[(a, morphisms[g].src)][row.index(None)]
                raise WorkbenchError(f"composition table misses {g!r} . {f!r}")
            by_a[a] = tuple(row)
    return FiniteCategory(objects, homs, morphisms, identities, rows=rows)


def load_abstract(path) -> FiniteCategory:
    with open(path, encoding="utf-8") as fh:
        return abstract_from_json(json.load(fh))
