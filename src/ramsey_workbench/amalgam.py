"""Joint embedding, (weak) amalgamation, and 2-out-of-k amalgamation.

Every quantifier ranges over the loaded catalog: an instance fails when no
amalgamating cocone exists among catalog objects, and a property holds when
every catalog instance has one.  Witnesses are morphism triples (D, r, s)
whose defining equation replays by composition.

The kernel works on integer rows.  For a span u: A -> B, v: A -> C and a
catalog object D, the row ``pre(u, D)`` lists the position of r.u in
hom(A, D) for each r in hom(B, D), and likewise for v.  D amalgamates the
span exactly when the two rows share a value, so ``AmalgamEngine`` tests
each D by one set-disjointness check and scans for the first r only at the
first D that passes.  Each row is composed once per engine, not once per
span.  ``two_of_k_check`` asks the engine for a pair only when the tuple
loop first reaches it, so a FAILS verdict decides only the pairs in the
tuples up to the first one that has no amalgamable pair.

``wap_check`` decides each candidate f: A -> A' on the extensions of A'
into a set of sinks, objects S such that every object has a morphism into
some member of S.  The sink lemma: f is an amalgamation arrow exactly when
every pair of extensions of A' into S amalgamates over f.  Proof: given
g: A' -> B and h: A' -> C, take k: B -> M and l: C -> N with M, N in S; if
r.(k.g).f = s.(l.h).f then (r.k).g.f = (s.l).h.f.  The step regroups
composites, so it relies on associativity: ``rw cat check`` verifies it,
and the table loader does not.  On a chain catalog the one sink is the top
chain, so a failing candidate is refuted by its first two extensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import FAILS, HOLDS
from .arrows import arrow_check
from .category import FiniteCategory
from .errors import ArrowDoesNotHold, FactorSearchFailed


@dataclass
class AmalgamWitness:
    g: str
    h: str
    d: str
    r: str
    s: str


@dataclass
class AmalgamationReport:
    status: str
    witnesses: list = field(default_factory=list)
    failure: dict | None = None
    notes: list[str] = field(default_factory=list)


class AmalgamEngine:
    """Shared memo for amalgam searches over one category.

    For each (morphism v, object D) it touches, it keeps hom(target v, D),
    the row ``pre(v, D)`` and a dict from each row value to its first index.
    On a table that row is an entry of the category's cached
    ``columns(source v, target v, D)``.  They die with the engine."""

    def __init__(self, cat: FiniteCategory):
        self.cat = cat
        self._memo: dict[tuple[str, str], tuple | None] = {}
        self._rows: dict[tuple[str, str], tuple] = {}

    def _row(self, v: str, d: str) -> tuple:
        cat = self.cat
        row = cat.pre(v, d)
        first: dict[int, int] = {}
        for i, x in enumerate(row):
            first.setdefault(x, i)
        out = self._rows[(v, d)] = (cat.hom(cat.target(v), d), row, first)
        return out

    def amalgamate(self, u: str, v: str):
        """First (D, r, s) with r.u = s.v, scanning catalog order; None if
        no catalog object amalgamates the cospan.  Per D, the rows of u and
        v hold the positions of r.u and s.v in hom(A, D): D amalgamates
        exactly when they share a value, and then the first r whose value
        the row of v holds gives the first s by one lookup."""
        key = (u, v)
        try:
            return self._memo[key]
        except KeyError:
            pass
        cat, rows = self.cat, self._rows
        found = None
        # positions in different hom-sets are not comparable
        if cat.source(u) == cat.source(v):
            for d in cat.objects:
                hom_u, row_u, first_u = rows.get((u, d)) or self._row(u, d)
                if not hom_u:
                    continue
                hom_v, _, first_v = rows.get((v, d)) or self._row(v, d)
                if first_u.keys().isdisjoint(first_v.keys()):
                    continue
                i = next(i for i, x in enumerate(row_u) if x in first_v)
                found = (d, hom_u[i], hom_v[first_v[row_u[i]]])
                break
        self._memo[key] = found
        return found


def is_amalgamation_arrow(cat: FiniteCategory, f: str, *,
                          engine: AmalgamEngine | None = None) -> AmalgamationReport:
    """Does every pair of extensions of target(f) amalgamate over f?

    Scans all g: A'->B, h: A'->C over the catalog; the required equation is
    r.g.f = s.h.f, so the amalgam only has to agree on the image of f.
    """
    engine = engine or AmalgamEngine(cat)
    cat = engine.cat
    a_prime = cat.target(f)
    witnesses = []
    for b in cat.objects:
        for g in cat.hom(a_prime, b):
            gf = cat.compose(g, f)
            for c in cat.objects:
                for h in cat.hom(a_prime, c):
                    hf = cat.compose(h, f)
                    hit = engine.amalgamate(gf, hf)
                    if hit is None:
                        return AmalgamationReport(FAILS, failure={
                            "f": f, "g": g, "h": h,
                            "reason": "no amalgam in catalog"})
                    d, r, s = hit
                    witnesses.append(AmalgamWitness(g, h, d, r, s))
    return AmalgamationReport(HOLDS, witnesses)


def sinks(cat: FiniteCategory) -> list[str]:
    """A set of sinks, in catalog order: every object has a morphism into
    one of them.  Walking from the end of the catalog, an object joins when
    no member so far receives a morphism from it; it reaches itself by its
    identity."""
    found: list[str] = []
    for b in reversed(cat.objects):
        if not any(cat.hom(b, m) for m in found):
            found.append(b)
    return found[::-1]


def holds_on_sinks(engine: AmalgamEngine, f: str, tops: list[str]) -> bool:
    """Is f an amalgamation arrow, given ``tops``, a set of sinks?

    Decides every pair of distinct composites g.f over the extensions g of
    target(f) into the sinks, read off the rows ``pre(f, M)``.  A pair
    amalgamates in either order and an arrow with itself, so each unordered
    pair is asked once."""
    cat = engine.cat
    a = cat.source(f)
    composites = [cat.hom(a, m)[p] for m in tops
                  for p in dict.fromkeys(cat.pre(f, m))]
    return all(engine.amalgamate(u, v) is not None
               for u, v in itertools.combinations(composites, 2))


def wap_check(cat: FiniteCategory) -> AmalgamationReport:
    """Weak amalgamation: every object admits some amalgamation arrow.

    For each object A, the first f: A -> A' in catalog order whose pairs of
    extensions into the sinks all amalgamate over f.  By the sink lemma (see
    the module docstring) that is the first f that ``is_amalgamation_arrow``
    finds to hold, so the arrows are those of the whole-catalog scan; the
    lemma needs composition to be associative."""
    engine, tops = AmalgamEngine(cat), sinks(cat)
    arrows = []
    for a in cat.objects:
        f = next((f for a_prime in cat.objects for f in cat.hom(a, a_prime)
                  if holds_on_sinks(engine, f, tops)), None)
        if f is None:
            return AmalgamationReport(FAILS, failure={
                "A": a, "reason": "no amalgamation arrow in catalog"})
        arrows.append({"A": a, "Aprime": cat.target(f), "f": f})
    return AmalgamationReport(HOLDS, arrows)


def two_of_k_check(cat: FiniteCategory, a: str, k: int) -> AmalgamationReport:
    """Among any k extensions of a, some pair amalgamates over a.

    Each pair is decided when the tuple loop first reaches it, and witness
    dicts are built only once every tuple has a pair."""
    if k < 2:
        raise ValueError("k must be at least 2")
    engine = AmalgamEngine(cat)
    pool = [g for b in cat.objects for g in cat.hom(a, b)]
    pairs = list(itertools.combinations(range(k), 2))
    hits = []
    for tup in itertools.product(pool, repeat=k):
        for i, j in pairs:
            found = engine.amalgamate(tup[i], tup[j])
            if found is not None:
                hits.append((tup, i, j, found))
                break
        else:
            return AmalgamationReport(FAILS,
                                      failure={"A": a, "k": k, "tuple": list(tup)})
    witnesses = [{"tuple": list(tup), "i": i, "j": j,
                  "D": found[0], "r": found[1], "s": found[2]}
                 for tup, i, j, found in hits]
    return AmalgamationReport(HOLDS, witnesses,
                              notes=[f"tuples checked: {len(pool) ** k}"])


@dataclass
class PairExtraction:
    i: int
    j: int
    g: str              # factorization witness in hom(B_i, D)
    x: str              # copy of C in D avoiding color j
    lhs: str            # g . f_i
    rhs: str            # x . g_j . f_j
    coloring: dict


def extract_amalgamable_pair(cat: FiniteCategory, a: str, k: int, c: str,
                             d: str, g_list: list[str],
                             f_list: list[str]) -> PairExtraction:
    """Executable transcript of the degree-to-amalgamation argument.

    Given f_i: A -> B_i, g_i: B_i -> C, and D with D -> (C)^A_{k,k-1}:
    color each h in hom(A, D) by the least i < k-1 such that h factors
    through f_i, that is, the row ``pre(f_i, D)`` holds its position (last
    color otherwise); take the first copy x of C in D whose row
    ``post(x, A)`` avoids some color j; read off i = color(x.g_j.f_j), and
    return the pair (i, j) with the factorization witness g, the first in
    hom(B_i, D) at that position of the row.  The defining equation
    g.f_i = x.g_j.f_j replays by composition.
    """
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

    colors = [k - 1] * len(cat.hom(a, d))
    for i in reversed(range(k - 1)):     # the least i is written last
        for p in cat.pre(f_list[i], d):
            colors[p] = i

    for x in cat.hom(c, d):
        seen = {colors[p] for p in cat.post(x, a)}
        if len(seen) <= k - 1:
            break
    else:
        raise ArrowDoesNotHold("no copy of C sees at most k-1 colors; "
                               "arrow verdict was inconsistent")
    j = next(j for j in range(k) if j not in seen)

    rhs = cat.compose(x, cat.compose(g_list[j], f_list[j]))
    p = cat.position(rhs)
    i = colors[p]
    if i == j:
        raise FactorSearchFailed("extracted pair is degenerate; "
                                 "precondition violated")
    if i == k - 1:
        # the avoided color j < k-1 forces a factorization below k-1
        raise FactorSearchFailed("composite landed in the residual color")
    g = cat.hom(cat.target(f_list[i]), d)[cat.pre(f_list[i], d).index(p)]
    lhs = cat.compose(g, f_list[i])
    assert lhs == rhs
    return PairExtraction(i, j, g, x, lhs, rhs,
                          dict(zip(cat.hom(a, d), colors)))


def failure_chain(cat: FiniteCategory, a: str, depth: int) -> list[str]:
    """Iterated non-amalgamable extensions starting from the identity.

    While the current arrow f is not an amalgamation arrow, take the first
    witnessing pair (g, h) whose composites with f do not amalgamate, record
    g.f, and continue from h.f.  The recorded arrows are pairwise
    non-amalgamable; reaching length k refutes 2-out-of-k at this depth.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    engine = AmalgamEngine(cat)
    f = cat.identity(a)
    chain: list[str] = []
    for _ in range(depth):
        report = is_amalgamation_arrow(cat, f, engine=engine)
        if report.status == HOLDS:
            break
        g, h = report.failure["g"], report.failure["h"]
        chain.append(cat.compose(g, f))
        f = cat.compose(h, f)
    return chain


def verify_pairwise_non_amalgamable(cat: FiniteCategory, arrows: list[str]) -> bool:
    engine = AmalgamEngine(cat)
    for u, v in itertools.combinations(arrows, 2):
        if engine.amalgamate(u, v) is not None:
            return False
    return True
