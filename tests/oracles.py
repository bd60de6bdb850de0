"""Brute-force reference computations used only by the tests.

These deliberately share no code with the package: embeddings by filtering
all injections, canonical forms by minimizing over all permutations, arrow
verdicts by scanning every coloring.  Expected values in the test suite are
frozen from these, not from the implementations under test.  The scans
kept from earlier checkers (``first_amalgam``, ``eager_two_of_k``,
``scan_forgetful``) call the package's primitives, ``compose`` and
``morphism_preserves``, but not the checkers they test.  ``lo_table`` writes
the chain category's compose table by hand, without ``compose``.
"""

import functools
import itertools

from ramsey_workbench.structures import Structure


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


def render(s: Structure):
    return (s.size,
            tuple(tuple(sorted(table)) for _, table in s.relations),
            s.constants)


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
            return AmalgamationReport(
                "two-out-of-k", "FAILS",
                failure={"A": a, "k": k, "tuple": list(tup)})
        witnesses.append(hit)
    return AmalgamationReport("two-out-of-k", "HOLDS", witnesses,
                              notes=[f"tuples checked: {len(pool) ** k}"])


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


def scan_forgetful(space, fibers=None):
    """The forgetful audit by scanning pairs of fibers, kept as the reference
    for ``expansion.check_forgetful``: reasonable by searching fiber(B) for a
    preserving extension of each A*, unique restrictions by listing every A*
    that e preserves into each B*.  O(|fiber A|·|fiber B|) per morphism.

    It calls the space's compose-based ``morphism_preserves`` and
    ``restriction``; it shares no code with the audit's restriction rows.
    """
    from ramsey_workbench.expansion import ForgetfulReport

    cat = space.cat
    fibers = fibers or {obj: space.fiber(obj) for obj in cat.objects}
    sizes = {obj: len(fibers[obj]) for obj in cat.objects}

    surjective = all(sizes[obj] >= 1 for obj in cat.objects)
    precompact = all(sizes[obj] == space.fiber_size(obj) for obj in cat.objects)

    injective = True   # morphisms of expansions are base morphisms verbatim
    failure = None

    reasonable = True
    for a in cat.objects:
        for b in cat.objects:
            for e in cat.hom(a, b):
                for astar in fibers[a]:
                    hit = next((bstar for bstar in fibers[b]
                                if space.morphism_preserves(e, astar, bstar)),
                               None)
                    if hit is None:
                        reasonable = False
                        failure = {"property": "reasonable", "e": e,
                                   "Astar": astar.theta}
                        break
                if not reasonable:
                    break
            if not reasonable:
                break
        if not reasonable:
            break

    unique = True
    for b in cat.objects:
        for bstar in fibers[b]:
            for a in cat.objects:
                for e in cat.hom(a, b):
                    matching = [astar for astar in fibers[a]
                                if space.morphism_preserves(e, astar, bstar)]
                    expected = space.restriction(bstar, e)
                    if matching != [expected]:
                        unique = False
                        if failure is None:
                            failure = {"property": "unique-restrictions",
                                       "e": e, "Bstar": bstar.theta}
                        break
                if not unique:
                    break
            if not unique:
                break
        if not unique:
            break

    return ForgetfulReport(surjective, injective, reasonable, unique,
                           precompact, sizes, failure)
