"""Brute-force reference computations used only by the tests.

These deliberately share no code with the package: embeddings by filtering
all injections, canonical forms by minimizing over all permutations, arrow
verdicts by scanning every coloring.  Expected values in the test suite are
frozen from these, not from the implementations under test.  The scans
kept from earlier checkers (``first_amalgam``, ``eager_two_of_k``,
``scan_wap``, ``scan_extraction``, ``scan_forgetful``,
``scan_automorphism_ids``) call the package's
primitives, ``compose`` and ``morphism_preserves``, but not the checkers
they test.
``scan_arrow_check``, the coloring-by-coloring scan that the bit-sliced
``oracle_arrow_check`` replaced, reads its instance through
``ArrowInstance.build`` and returns the package's verdict types;
``degree_from_table`` reads a degree off a table of its verdicts.
``domain_permutations`` with ``dominated`` is the full-scan lex-leader test
that the search's tied sets replaced, and ``scan_embedding_error`` the
tuple-by-tuple scan that ``Embedding``'s set comparison replaced.
``lo_table`` writes the chain category's compose table by hand, without
``compose``; ``table_dump`` writes any category's table through it.

Three functions moved here from the package, which never called them:
``lex_arrow_check``, the recursive DFS that both modes of ``arrow_check``
are tested against, which like ``scan_arrow_check`` shares only
``ArrowInstance.build``, ``is_bad`` and the verdict types with the package
and decides its degenerate instances itself; ``isomorphic``, the test on
structures that compares canonical forms after a ``refinement_partition``
pre-filter; and ``find_extraction_instance``, the catalog search that feeds
``amalgam.extract_amalgamable_pair``.

The scaffolding at the end backs the tests of sequences and expansions: the
transformation calculus on structure chains with ``mono_test`` (acceptance
tests 05a and 05b), ``mediating_morphism``, ``ultrahomogeneity_check``,
``transport_expansion``, ``render`` with ``parse_expansion`` (its inverse)
``hom_star``, ``age`` and ``find_isomorphic``.  It calls package
primitives (``compose``, ``enumerate_embeddings``, ``automorphisms``,
``canonical_form`` through ``isomorphic`` above, and the expansion space's
own methods) but no checker.
``render`` is the oracle for isomorphism types of expansions: it writes an
expansion as one structure over a widened signature, with a table of copies
per (representative, color), so ``canonical_key`` of a rendering names the
type without the automorphism orbits that ``age`` reads.
"""

import functools
import itertools
from dataclasses import dataclass, field

from ramsey_workbench import FAILS, HOLDS, UNKNOWN
from ramsey_workbench.amalgam import PairExtraction
from ramsey_workbench.arrows import (ArrowInstance, ArrowStats, ArrowVerdict,
                                     Coloring, arrow_check, is_bad)
from ramsey_workbench.category import FiniteCategory, Skeletonization
from ramsey_workbench.errors import (ArrowDoesNotHold, BudgetExceeded,
                                     FactorSearchFailed, ShapeMismatch,
                                     TruncationOverflow, WorkbenchError)
from ramsey_workbench.expansion import ExpandedObject, ExpansionSpace
from ramsey_workbench.sequences import (ColimitResult, HomogeneityReport,
                                        TruncatedSequence)
from ramsey_workbench.structures import (Embedding, Signature, Structure,
                                         automorphisms, canonical_form,
                                         compose, enumerate_embeddings,
                                         identity, refinement_partition)


def is_embedding_map(a: Structure, b: Structure, mapping) -> bool:
    if len(set(mapping)) != len(mapping):
        return False
    for cname, v in a.constants:
        if mapping[v] != b.constant(cname):
            return False
    for rname, table in a.relations:
        ar = a.signature.arity(rname)
        tgt = b.rel(rname)
        for t in itertools.product(range(a.size), repeat=ar):
            if (t in table) != (tuple(mapping[x] for x in t) in tgt):
                return False
    return True


def scan_embedding_error(a: Structure, b: Structure, mapping) -> str | None:
    """The message ``Embedding(a, b, mapping)`` raised when it tested every
    tuple of a^ar for each relation in order, or None for an embedding."""
    if a.signature != b.signature:
        return "embedding endpoints disagree on signature"
    if len(mapping) != a.size:
        return "embedding map has wrong length"
    if len(set(mapping)) != len(mapping):
        return "embedding map is not injective"
    if any(not (0 <= v < b.size) for v in mapping):
        return "embedding map out of range"
    for rname, table in a.relations:
        tgt = b.rel(rname)
        for t in itertools.product(range(a.size), repeat=a.signature.arity(rname)):
            if (t in table) != (tuple(mapping[v] for v in t) in tgt):
                return f"relation {rname!r} not matched on {t}"
    for cname, v in a.constants:
        if mapping[v] != b.constant(cname):
            return f"constant {cname!r} not preserved"
    return None


def brute_embeddings(a: Structure, b: Structure) -> list[tuple[int, ...]]:
    out = []
    for mapping in itertools.permutations(range(b.size), a.size):
        if is_embedding_map(a, b, mapping):
            out.append(mapping)
    return sorted(out)


def brute_automorphisms(a: Structure) -> list[tuple[int, ...]]:
    return brute_embeddings(a, a)


def brute_isomorphic(a: Structure, b: Structure) -> bool:
    if a.size != b.size:
        return False
    return bool(brute_embeddings(a, b))


def isomorphic(a: Structure, b: Structure) -> bool:
    if a.signature != b.signature or a.size != b.size:
        return False
    if sorted(refinement_partition(a)) != sorted(refinement_partition(b)):
        return False
    return canonical_form(a)[0] == canonical_form(b)[0]


def brute_canonical_form(a: Structure) -> tuple[Structure, tuple[int, ...]]:
    """The first least permutation in lex order, as (relabeled, position map).

    Permutations list the elements by new position; the key is the package's
    canonical slot order, with constant positions as the tie-break.
    """
    from ramsey_workbench.structures import _level_slots

    slots = _level_slots(a.signature, a.size)
    tables = [table for _, table in a.relations]

    def key(perm):
        pos = {e: i for i, e in enumerate(perm)}
        bits = []
        for p in range(a.size):
            for ri, t in slots[p]:
                bits.append(1 if tuple(perm[v] for v in t) in tables[ri] else 0)
        tail = tuple(pos[v] for _, v in a.constants)
        return (tuple(bits), tail)

    best = min(itertools.permutations(range(a.size)), key=key)
    pos = [0] * a.size
    for i, e in enumerate(best):
        pos[e] = i
    return a.relabel(tuple(pos)), tuple(pos)


def brute_min_relabeling(a: Structure) -> Structure:
    """Minimum over all permutations of the package's canonical slot order."""
    return brute_canonical_form(a)[0]


def brute_graph_orbits(n: int) -> list[frozenset]:
    """Each isomorphism class of edge masks on n vertices, as a set of masks.

    Bit b of a mask is the b-th pair (i, j), i < j, in lex order.  A mask's
    class is its image under all n! relabellings.  Classes are listed by
    their least mask.
    """
    pairs = list(itertools.combinations(range(n), 2))
    bit = {p: b for b, p in enumerate(pairs)}

    def relabel(mask, perm):
        out = 0
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                out |= 1 << bit[tuple(sorted((perm[i], perm[j])))]
        return out

    orbits = []
    seen = set()
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        orbit = frozenset(relabel(mask, perm)
                          for perm in itertools.permutations(range(n)))
        seen |= orbit
        orbits.append(orbit)
    return orbits


def brute_graph_classes(n: int) -> list[frozenset]:
    """The edge set of each class's least edge mask, over all 2^C(n,2) masks."""
    pairs = list(itertools.combinations(range(n), 2))
    return [frozenset(p for b, p in enumerate(pairs) if min(orbit) >> b & 1)
            for orbit in brute_graph_orbits(n)]


def brute_arrow_status(hom_ac, copies, k, t) -> str:
    """Scan all k^|hom(A,C)| colorings; FAILS iff some coloring is bad."""
    m = len(hom_ac)
    if not copies:
        return "FAILS"
    for values in itertools.product(range(k), repeat=m):
        if all(len({values[i] for i in copy}) > t for copy in copies):
            return "FAILS"
    return "HOLDS"


def scan_arrow_check(cat, c, b, a, k, t, *, budget=2_000_000) -> ArrowVerdict:
    """``oracle_arrow_check`` one coloring at a time: the whole verdict of
    a scan of every coloring in ``itertools.product`` order, stopping at the
    first bad one, with ``colorings_scanned`` counting the colorings tried."""
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    stats = ArrowStats()
    inst = ArrowInstance.build(cat, c, b, a)
    degenerate = "empty-hom-A-B" if not inst.hom_ab else None
    m = len(inst.domain)
    if k ** m > budget:
        raise BudgetExceeded(f"{k}^{m} colorings exceed budget {budget}")
    for values in itertools.product(range(k), repeat=m):
        stats.colorings_scanned += 1
        if all(len({values[i] for i in copy}) > t for copy in inst.copies):
            return ArrowVerdict(FAILS, Coloring(inst.domain, k, values), stats,
                                degenerate)
    return ArrowVerdict(HOLDS, None, stats, degenerate)


def degree_from_table(cat, a, k_max, bs=None) -> int:
    """The degree of a relative to the catalog as a max-min over a table of
    every arrow status C -> (B)^A_{k,t} with k, t <= k_max, for B in bs (the
    catalog by default) with hom(A, B) non-empty: the max over (B, k) of the
    min over C of t*, the least t at which the arrow holds (k_max + 1 when
    none does), and 1 with no target.  Each status is scanned when there
    are at most 2^16 colourings, and searched by ``arrow_check`` otherwise."""
    def status(c, b, k, t):
        if k ** len(cat.hom(a, c)) <= 2 ** 16:
            return scan_arrow_check(cat, c, b, a, k, t).status
        return arrow_check(cat, c, b, a, k, t).status

    targets = [b for b in (bs if bs is not None else cat.objects)
               if cat.hom(a, b)]
    ks = range(1, k_max + 1)
    table = {(c, b, k, t): status(c, b, k, t) for c in cat.objects
             for b in targets for k in ks for t in ks}
    return max((min(next((t for t in ks if table[c, b, k, t] == HOLDS),
                         k_max + 1) for c in cat.objects)
                for b in targets for k in ks), default=1)


def lex_arrow_check(cat: FiniteCategory, c: str, b: str, a: str, k: int,
                    t: int) -> ArrowVerdict:
    """Decide the arrow by DFS over partial colorings of hom(A, C).

    Colors are assigned to the domain in its fixed order, a new color only
    as the least unused one, so one coloring per color renaming is tried.
    A branch dies as soon as some witness can no longer exceed t colors
    (its seen colors plus its unassigned copies fit within t).  Neither cut
    changes whether a bad coloring exists, and there is no Aut(C) cut.
    A copy of at most t positions sees at most t colors under every
    coloring, so the arrow holds; with no copy at all, the first coloring
    the DFS reaches is bad.

    This is the differential oracle for ``arrow_check``.  Exhaustion proves
    HOLDS; a surviving leaf is a verifiable FAILS certificate.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    inst = ArrowInstance.build(cat, c, b, a)
    degenerate = None if inst.hom_ab else "empty-hom-A-B"
    stats = ArrowStats()
    if any(len(set(copy)) <= t for copy in inst.copies):
        return ArrowVerdict(HOLDS, None, stats, degenerate)
    m = len(inst.domain)

    incidence: list[list[int]] = [[] for _ in range(m)]
    for wi, copy in enumerate(inst.copies):
        for i in copy:
            incidence[i].append(wi)

    values = [-1] * m
    seen: list[set[int]] = [set() for _ in inst.copies]
    unassigned = [len(copy) for copy in inst.copies]

    def rec(depth: int, used: int) -> bool:
        stats.nodes += 1
        if depth == m:
            return True
        top = min(used + 1, k)
        for col in range(top):
            values[depth] = col
            ok = True
            touched = []
            for wi in incidence[depth]:
                unassigned[wi] -= 1
                added = col not in seen[wi]
                if added:
                    seen[wi].add(col)
                touched.append((wi, added))
                if len(seen[wi]) + unassigned[wi] <= t:
                    ok = False
            if not ok:
                stats.witness_prunes += 1
            elif rec(depth + 1, max(used, col + 1)):
                return True
            for wi, added in touched:
                unassigned[wi] += 1
                if added:
                    seen[wi].discard(col)
            values[depth] = -1
        return False

    if not rec(0, 0):
        return ArrowVerdict(HOLDS, None, stats, degenerate)
    bad = Coloring(inst.domain, k, tuple(values))
    assert is_bad(inst, bad.values, t)
    return ArrowVerdict(FAILS, bad, stats, degenerate)


def domain_permutations(cat, a, c):
    """Permutations of the domain hom(A, C) induced by Aut(C) acting by
    post-composition, built as full ``post`` rows, without the identity,
    duplicates or permutations that act trivially."""
    perms = set()
    for g in cat.automorphism_ids(c):
        if g == cat.identity(c):
            continue
        perm = cat.post(g, a)
        if perm != tuple(range(len(perm))):
            perms.add(perm)
    return sorted(perms)


def dominated(perms, values) -> bool:
    """The full-scan lex-leader test that the search's tied sets replaced:
    some permutation's image of the coloring has a smaller normal form,
    comparing every permutation from position 0, along the domain order,
    for as long as both the coloring and its image are colored there."""
    for perm in perms:
        mine: dict[int, int] = {}
        image: dict[int, int] = {}
        for j, v in enumerate(values):
            u = values[perm[j]]
            if u < 0 or v < 0:
                break
            x = image.setdefault(u, len(image))
            y = mine.setdefault(v, len(mine))
            if x != y:
                if x < y:
                    return True
                break
    return False


def chain_arrow_status(c: int, b: int, a: int, k: int, t: int) -> str:
    """brute_arrow_status for LO_c -> (LO_b)^{LO_a}_{k,t}.

    An embedding of chains is fixed by its image, so hom(LO_a, LO_c) is the
    a-subsets of range(c), and a copy of LO_b sees the a-subsets of its image.
    """
    domain = list(itertools.combinations(range(c), a))
    index = {s: i for i, s in enumerate(domain)}
    copies = [tuple(index[s] for s in itertools.combinations(w, a))
              for w in itertools.combinations(range(c), b)]
    return brute_arrow_status(domain, copies, k, t)


def smallest_chain_amalgam(g, b: int, h, c: int) -> int:
    """Size of the least chain amalgamating g: LO_a -> LO_b and h: LO_a -> LO_c.

    g and h are given by their images.  An amalgam keeps the points of B and
    of C that fall in one gap of A inside the same gap, and it can merge the
    shorter run into the longer, so each gap costs the larger of its sizes.
    """
    def gaps(image, size):
        ends = (-1, *image, size)
        return [hi - lo - 1 for lo, hi in zip(ends, ends[1:])]

    return len(g) + sum(map(max, gaps(g, b), gaps(h, c)))


def chain_absorption_witnesses(length: int,
                               catalog_max: int) -> dict[int, int]:
    """Least absorption witness m per level n of LO1 -> ... -> LO_length.

    The bondings are initial segments, so level n is range(n + 1) inside
    every later level.  m absorbs n when every f: LO_{m+1} -> LO_c, for c up
    to catalog_max, is bent back by some g: LO_c -> LO_{k+1}, m <= k, that
    fixes the points of level n.  Levels without a witness are left out.
    """
    def bent_back(n, m, c, f):
        return any(all(g[f[i]] == i for i in range(n + 1))
                   for k in range(m, length)
                   for g in itertools.combinations(range(k + 1), c))

    out = {}
    for n in range(length):
        for m in range(n, length):
            if all(bent_back(n, m, c, f)
                   for c in range(1, catalog_max + 1)
                   for f in itertools.combinations(range(c), m + 1)):
                out[n] = m
                break
    return out


def weak_homogeneity_witnesses(f_struct: Structure, catalog):
    """(A, f, B) for every catalog A and f: A -> F, in catalog and lex order.

    B is the first catalog object with e: A -> B and i: B -> F, i.e = f,
    such that every j: B -> F has h.j.e = f for some automorphism h of F;
    None when no catalog object qualifies.
    """
    auts = brute_automorphisms(f_struct)
    into_f = {s.name: brute_embeddings(s, f_struct) for s in catalog}

    def witness(a, f):
        for b in catalog:
            for e in brute_embeddings(a, b):
                images = [tuple(j[x] for x in e) for j in into_f[b.name]]
                if f in images and all(
                        any(tuple(h[x] for x in img) == f for h in auts)
                        for img in images):
                    return b.name
        return None

    return [(a.name, f, witness(a, f))
            for a in catalog for f in into_f[a.name]]


def brute_locally_finite(catalog, f_struct: Structure) -> str:
    """HOLDS / UNKNOWN-AT-BOUND for joint covers into F, by the definition.

    f_struct is one of the catalog's structures.  For every pair of maps
    e: A -> F and f: B -> F from catalog objects, some cover r: D -> F must
    exist (e = r.u and f = r.v for maps u, v) that factors through every
    cover r2 (r = r2.w for a map w).  Each factoring is found by searching
    the embeddings into the middle object for one whose composite is the
    target map.
    """
    embeddings = functools.cache(brute_embeddings)

    def factors(a, m, d, r):
        """Is m: A -> F equal to r.u for some map u: A -> D?"""
        return any(tuple(r[x] for x in u) == m for u in embeddings(a, d))

    into = [(d, r) for d in catalog for r in embeddings(d, f_struct)]
    for a, e in into:
        for b, f in into:
            covers = [(d, r) for d, r in into
                      if factors(a, e, d, r) and factors(b, f, d, r)]
            if not any(all(factors(d, r, d2, r2) for d2, r2 in covers)
                       for d, r in covers):
                return "UNKNOWN-AT-BOUND"
    return "HOLDS"


def brute_associative(cat) -> bool:
    """h.(g.f) == (h.g).f for every composable triple, one triple at a time."""
    for a in cat.objects:
        for b in cat.objects:
            for f in cat.hom(a, b):
                for c in cat.objects:
                    for g in cat.hom(b, c):
                        for d in cat.objects:
                            for h in cat.hom(c, d):
                                if (cat.compose(h, cat.compose(g, f))
                                        != cat.compose(cat.compose(h, g), f)):
                                    return False
    return True


def composable_pairs(cat):
    """Every (g, f) with f into the source of g, f's hom-set in catalog order."""
    for a in cat.objects:
        for b in cat.objects:
            for f in cat.hom(a, b):
                for c in cat.objects:
                    for g in cat.hom(b, c):
                        yield g, f


class ClosureOp:
    """The opposite category as ``op`` built it before it became a row table:
    hom-sets swapped, and each composite asked of cat one call at a time."""

    def __init__(self, cat):
        self.cat, self.objects = cat, cat.objects

    def hom(self, a, b):
        return self.cat.hom(b, a)

    def identity(self, a):
        return self.cat.identity(a)

    def source(self, mid):
        return self.cat.target(mid)

    def target(self, mid):
        return self.cat.source(mid)

    def compose(self, g, f):
        return self.cat.compose(f, g)


def scan_tables_equal(c1, c2) -> bool:
    """``tables_equal`` by composing every composable pair in both."""
    if c1.objects != c2.objects:
        return False
    for a in c1.objects:
        if c1.identity(a) != c2.identity(a):
            return False
        for b in c1.objects:
            if c1.hom(a, b) != c2.hom(a, b):
                return False
    return all(c1.compose(g, f) == c2.compose(g, f)
               for g, f in composable_pairs(c1))


def scan_is_epi(cat, mid) -> bool:
    """The composites g.mid are pairwise distinct over each hom(target, c)."""
    b = cat.target(mid)
    return all(len({cat.compose(g, mid) for g in cat.hom(b, c)})
               == len(cat.hom(b, c)) for c in cat.objects)


def first_amalgam(cat, u, v):
    """The first (D, r, s) with r.u == s.v: D in catalog order, then r, then
    s in hom order; None when no catalog object amalgamates u and v."""
    for d in cat.objects:
        for r in cat.hom(cat.target(u), d):
            for s in cat.hom(cat.target(v), d):
                if cat.compose(r, u) == cat.compose(s, v):
                    return d, r, s
    return None


def eager_two_of_k(cat, a, k):
    """The 2-out-of-k check as it was before pairs were decided on demand,
    kept as the reference for ``amalgam.two_of_k_check``: every pair of the
    pool is decided first, by ``first_amalgam``, then the k-tuples are
    scanned in product order."""
    from ramsey_workbench.amalgam import AmalgamationReport

    if k < 2:
        raise ValueError("k must be at least 2")
    pool = [g for b in cat.objects for g in cat.hom(a, b)]
    pair_ok = {(u, v): first_amalgam(cat, u, v)
               for u, v in itertools.product(pool, repeat=2)}
    witnesses = []
    for tup in itertools.product(pool, repeat=k):
        hit = None
        for i, j in itertools.combinations(range(k), 2):
            found = pair_ok[(tup[i], tup[j])]
            if found is not None:
                hit = {"tuple": list(tup), "i": i, "j": j,
                       "D": found[0], "r": found[1], "s": found[2]}
                break
        if hit is None:
            return AmalgamationReport("FAILS",
                                      failure={"A": a, "k": k, "tuple": list(tup)})
        witnesses.append(hit)
    return AmalgamationReport("HOLDS", witnesses,
                              notes=[f"tuples checked: {len(pool) ** k}"])


def scan_wap(cat):
    """The weak amalgamation check as it was before it decided candidates
    on extensions into sinks, kept as the reference for
    ``amalgam.wap_check``: each f: A -> A' in catalog order gets the whole
    pair scan of ``is_amalgamation_arrow``."""
    from ramsey_workbench.amalgam import (AmalgamationReport, AmalgamEngine,
                                          is_amalgamation_arrow)

    engine = AmalgamEngine(cat)
    arrows = {}
    for a in cat.objects:
        found = None
        for a_prime in cat.objects:
            for f in cat.hom(a, a_prime):
                if is_amalgamation_arrow(cat, f, engine=engine).status == "HOLDS":
                    found = {"A": a, "Aprime": a_prime, "f": f}
                    break
            if found:
                break
        if found is None:
            return AmalgamationReport("FAILS", failure={
                "A": a, "reason": "no amalgamation arrow in catalog"})
        arrows[a] = found
    return AmalgamationReport("HOLDS", [arrows[a] for a in cat.objects])


def scan_extraction(cat: FiniteCategory, a: str, k: int, c: str,
                    d: str, g_list: list[str],
                    f_list: list[str]) -> PairExtraction:
    """The pair extraction as it was before it read ``pre`` and ``post``
    rows, kept as the reference for ``amalgam.extract_amalgamable_pair``:
    each h in hom(A, D) is colored by composing every g in hom(B_i, D) with
    f_i, and each copy of C by composing x with every e in hom(A, C)."""
    if len(g_list) != k or len(f_list) != k:
        raise ValueError("need exactly k composable pairs")
    for fi, gi in zip(f_list, g_list):
        if cat.source(fi) != a or cat.target(fi) != cat.source(gi):
            raise ValueError("f_i and g_i do not line up")
        if cat.target(gi) != c:
            raise ValueError("g_i must land in C")

    verdict = arrow_check(cat, d, c, a, k, k - 1)
    if verdict.status != HOLDS:
        raise ArrowDoesNotHold(
            f"{d} -> ({c})^{a}_({k},{k - 1}) is {verdict.status}")

    hom_ad = cat.hom(a, d)
    factor_cache: dict[tuple[str, int], str | None] = {}

    def factor_through(h: str, i: int) -> str | None:
        key = (h, i)
        if key not in factor_cache:
            found = None
            b_i = cat.target(f_list[i])
            for g in cat.hom(b_i, d):
                if cat.compose(g, f_list[i]) == h:
                    found = g
                    break
            factor_cache[key] = found
        return factor_cache[key]

    def chi(h: str) -> int:
        for i in range(k - 1):
            if factor_through(h, i) is not None:
                return i
        return k - 1

    coloring = {h: chi(h) for h in hom_ad}

    x_found = None
    for x in cat.hom(c, d):
        seen = {coloring[cat.compose(x, e)] for e in cat.hom(a, c)}
        if len(seen) <= k - 1:
            x_found = (x, seen)
            break
    if x_found is None:
        raise ArrowDoesNotHold("no copy of C sees at most k-1 colors; "
                               "arrow verdict was inconsistent")
    x, seen = x_found
    avoided = [j for j in range(k) if j not in seen]
    j = avoided[0]

    rhs = cat.compose(x, cat.compose(g_list[j], f_list[j]))
    i = coloring[rhs]
    if i == j:
        raise FactorSearchFailed("extracted pair is degenerate; "
                                 "precondition violated")
    if i == k - 1:
        # the avoided color j < k-1 forces a factorization below k-1
        raise FactorSearchFailed("composite landed in the residual color")
    g = factor_through(rhs, i)
    if g is None:
        raise FactorSearchFailed("coloring promised a factorization "
                                 "that does not exist")
    lhs = cat.compose(g, f_list[i])
    assert lhs == rhs
    return PairExtraction(i, j, g, x, lhs, rhs, coloring)


def find_extraction_instance(cat: FiniteCategory, a: str, k: int, *,
                             node_budget: int | None = None):
    """Search the catalog for (C, D, g_list, f_list) on which the pair
    extraction runs: a joint extension C of k copies of extensions of a,
    and a D with the required arrow."""
    pool = [f for b in cat.objects for f in cat.hom(a, b)]
    for f_tuple in itertools.combinations_with_replacement(pool, k):
        targets = [cat.target(f) for f in f_tuple]
        for c in cat.objects:
            gs = []
            for b in targets:
                hom = cat.hom(b, c)
                if not hom:
                    gs = None
                    break
                gs.append(hom[0])
            if gs is None:
                continue
            for d in cat.objects:
                verdict = arrow_check(cat, d, c, a, k, k - 1,
                                      node_budget=node_budget)
                if verdict.status == HOLDS:
                    return a, k, c, d, list(gs), list(f_tuple)
    return None


def lo_table(n: int) -> dict:
    """Compose-table dump of the embedding category of LO1..LOn.

    An increasing map LOa -> LOb is an a-subset of range(b); in lex order
    the subsets get the ``LOa->LOb#k`` ids of the embedding route.  Built
    by hand, so the ``--abstract`` pins and the table tests do not depend on
    ``compose``.
    """
    subsets = {(a, b): list(itertools.combinations(range(b), a))
               for a in range(1, n + 1) for b in range(a, n + 1)}

    def mid(a, b, s):
        return f"LO{a}->LO{b}#{subsets[(a, b)].index(s)}"

    compose = {}
    for (a, b), fs in subsets.items():
        for c in range(b, n + 1):
            for g in subsets[(b, c)]:
                for f in fs:
                    compose[f"{mid(b, c, g)}∘{mid(a, b, f)}"] = mid(
                        a, c, tuple(g[i] for i in f))
    return {"objects": [f"LO{a}" for a in range(1, n + 1)],
            "homs": {f"LO{a}->LO{b}": [mid(a, b, s) for s in subs]
                     for (a, b), subs in subsets.items()},
            "compose": compose,
            "identities": {f"LO{a}": f"LO{a}->LO{a}#0"
                           for a in range(1, n + 1)}}


def table_dump(cat) -> dict:
    """cat as the JSON table ``abstract_from_json`` reads: its non-empty
    hom-sets, identities and every composite, asked of ``compose`` one
    pair at a time."""
    return {"objects": list(cat.objects),
            "homs": {f"{a}->{b}": cat.hom(a, b) for a in cat.objects
                     for b in cat.objects if cat.hom(a, b)},
            "compose": {f"{g}∘{f}": cat.compose(g, f)
                        for g, f in composable_pairs(cat)},
            "identities": {a: cat.identity(a) for a in cat.objects}}


def one_object_table(elements, products) -> dict:
    """The one-object table on elements, the first the identity; products
    maps "g∘f" to the composite for each pair not involving the identity."""
    return {"objects": ["G"], "homs": {"G->G": list(elements)},
            "compose": products, "identities": {"G": elements[0]}}


Z3 = one_object_table(["e", "a", "b"], {"a∘a": "b", "a∘b": "e",
                                        "b∘a": "e", "b∘b": "a"})
IDEMPOTENT = one_object_table(["1", "z"], {"z∘z": "z"})
# x.y = 1 but y.x = x: y inverts x on one side only; w.w = 1
NON_ASSOCIATIVE = one_object_table(["1", "x", "y", "w"], {
    "x∘x": "y", "x∘y": "1", "x∘w": "x", "y∘x": "x", "y∘y": "y",
    "y∘w": "w", "w∘x": "y", "w∘y": "x", "w∘w": "1"})


def scan_automorphism_ids(cat, a) -> list[str]:
    """The f in hom(a, a) with some g, g.f = id_a = f.g, by ``compose``."""
    endo, one = cat.hom(a, a), cat.identity(a)
    return [f for f in endo
            if any(cat.compose(g, f) == one == cat.compose(f, g) for g in endo)]


@dataclass
class ForgetfulScan:
    """The five properties of the forgetful functor, as the scan finds them;
    ``failure`` names the first reasonable failure, else the first
    unique-restrictions failure."""
    surjective_on_objects: bool
    injective_on_homs: bool
    reasonable: bool
    unique_restrictions: bool
    precompact: bool
    fiber_sizes: dict[str, int]
    failure: dict | None


def scan_forgetful(space) -> ForgetfulScan:
    """The forgetful audit by scanning pairs of fibers, kept as the reference
    for ``expansion.check_forgetful``: reasonable by searching fiber(B) for a
    preserving extension of each A*, unique restrictions by listing every A*
    that e preserves into each B*, and injective on homs by listing, for each
    pair (A*, B*), the base morphisms that preserve it.  O(|fiber A|·|fiber B|)
    per morphism.

    It calls the space's compose-based ``morphism_preserves`` and
    ``restriction``; it shares no code with the audit's restriction rows.
    """
    cat = space.cat
    fibers = {obj: space.fiber(obj) for obj in cat.objects}
    sizes = {obj: len(fibers[obj]) for obj in cat.objects}

    surjective = all(sizes[obj] >= 1 for obj in cat.objects)
    precompact = all(sizes[obj] == space.fiber_size(obj) for obj in cat.objects)

    failure = next(({"property": "reasonable", "e": e, "Astar": astar.theta}
                    for a in cat.objects for b in cat.objects
                    for e in cat.hom(a, b) for astar in fibers[a]
                    if not any(space.morphism_preserves(e, astar, bstar)
                               for bstar in fibers[b])), None)
    reasonable = failure is None

    unique = True
    hom_star = {}   # (A*, B*) -> the base morphisms that preserve the pair
    for b in cat.objects:
        for bstar in fibers[b]:
            for a in cat.objects:
                for e in cat.hom(a, b):
                    matching = [astar for astar in fibers[a]
                                if space.morphism_preserves(e, astar, bstar)]
                    for astar in matching:
                        hom_star.setdefault((astar, bstar), []).append(e)
                    if unique and matching != [space.restriction(bstar, e)]:
                        unique = False
                        failure = failure or {"property": "unique-restrictions",
                                              "e": e, "Bstar": bstar.theta}
    injective = all(len(set(homs)) == len(homs) for homs in hom_star.values())

    return ForgetfulScan(surjective, injective, reasonable, unique,
                         precompact, sizes, failure)


# -- sequence and expansion scaffolding ------------------------------------
#
# Transformations between structure chains carry a nondecreasing level map
# and per-level components making every square commute.  Since all bondings
# are embeddings, two transformations that separate at some level stay
# separated all the way up, so equivalence is decidable at the truncation:
# agreement at any level is agreement at the top.


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


@dataclass(frozen=True)
class ExpandedSignature:
    base: Signature
    added: tuple[tuple[str, int, str, int], ...]   # (rep, color j, name, arity)

    def as_signature(self) -> Signature:
        return Signature(
            relations=self.base.relations + tuple(
                (name, arity) for _, _, name, arity in self.added),
            constants=self.base.constants,
        )


def expanded_signature(space: ExpansionSpace) -> ExpandedSignature:
    """The catalog's signature with one relation per (rep, color j), of the
    rep's size, named ``{rep}_copy_color{j}``."""
    cat = space.cat
    if not cat.objects:
        raise WorkbenchError("empty catalog has no signature")
    base = cat.structure(cat.objects[0]).signature
    added = []
    for rep in space.reps:
        arity = cat.structure(rep).size
        for j in range(1, space.degrees[rep] + 1):
            name = f"{rep}_copy_color{j}"
            if any(name == rn for rn, _ in base.relations):
                raise WorkbenchError(f"added relation {name!r} collides")
            added.append((rep, j, name, arity))
    return ExpandedSignature(base, tuple(added))


def render(space: ExpansionSpace, cstar: ExpandedObject) -> Structure:
    """cstar as one structure over the widened signature: the base tables,
    and for each (rep, color j) the maps of the copies of rep colored j."""
    cat = space.cat
    esig = expanded_signature(space)
    base_struct = cat.structure(cstar.base)
    tables = {rname: set(table) for rname, table in base_struct.relations}
    for rep, j, name, _ in esig.added:
        colors = cstar.colors(rep)
        tables[name] = {cat.embedding(e).map
                        for i, e in enumerate(cat.hom(rep, cstar.base))
                        if colors[i] == j - 1}
    constants = {cname: v for cname, v in base_struct.constants}
    return Structure.make(esig.as_signature(), base_struct.size, tables,
                          constants, name=f"{cstar.base}*")


def parse_expansion(space: ExpansionSpace, rendered: Structure,
                    base_obj: str) -> ExpandedObject:
    """Inverse of render; validates the three table conditions."""
    esig = expanded_signature(space)
    theta = []
    for rep in space.reps:
        hom = space.cat.hom(rep, base_obj)
        names = [name for r, _, name, _ in esig.added if r == rep]
        values = []
        for e in hom:
            emb = space.cat.embedding(e).map
            hits = [j for j, name in enumerate(names)
                    if emb in rendered.rel(name)]
            if len(hits) != 1:
                raise WorkbenchError(
                    "copy colored by none or several of the added tables")
            values.append(hits[0])
        for name in names:
            for tup in rendered.rel(name):   # each tuple must be a copy
                space.cat.embedding_id(rep, base_obj, tup)
        theta.append((rep, tuple(values)))
    return ExpandedObject(base_obj, tuple(theta))


def hom_star(space: ExpansionSpace, cstar: ExpandedObject,
             dstar: ExpandedObject) -> list[str]:
    """The morphisms of expansions cstar -> dstar: hom(C, D) filtered by the
    compose-based ``morphism_preserves``."""
    return [f for f in space.cat.hom(cstar.base, dstar.base)
            if space.morphism_preserves(f, cstar, dstar)]


def age(space: ExpansionSpace,
        fstar: ExpandedObject) -> dict[ExpandedObject, ExpandedObject]:
    """Representative expansions admitting a morphism into fstar, one per
    isomorphism type in first-seen order, each keyed by the least member,
    by theta, of its orbit under the automorphisms of its base."""
    out: dict[ExpandedObject, ExpandedObject] = {}
    for rep in space.reps:
        auts = space.cat.automorphism_ids(rep)
        for e in space.cat.hom(rep, fstar.base):
            astar = space.restriction(fstar, e)
            key = min((space.restriction(astar, g) for g in auts),
                      key=lambda x: x.theta)
            out.setdefault(key, astar)
    return out


def transport_expansion(space: ExpansionSpace,
                        skel: Skeletonization) -> dict[str, list[ExpandedObject]]:
    """Pull the representative fibers back along the canonical isomorphisms.

    Every catalog object receives the expansions of its representative with
    colorings precomposed by eta; the result must coincide with direct
    enumeration, and the caller re-runs check_forgetful to confirm.
    """
    cat = space.cat
    out: dict[str, list[ExpandedObject]] = {}
    for obj in cat.objects:
        rep = skel.representatives[obj]
        eta = cat.embedding_id(obj, rep, skel.canon_iso[obj].map)
        out[obj] = sorted(
            (space.restriction(rep_star, eta)
             for rep_star in space.fiber(rep)),
            key=lambda x: x.theta,
        )
    return out


def find_isomorphic(catalog: list[Structure], target: Structure) -> Structure | None:
    for s in catalog:
        if isomorphic(s, target):
            return s
    return None
