"""The paper's bridge, finite small Ramsey degree to weak amalgamation, as a
relation between checkers.

If D -> (C)^A_{k,k-1} holds, then among any k extensions f_i: A -> B_i whose
targets all map into C, two amalgamate: colour each h in hom(A, D) by the
least i through whose f_i it factors, take a copy x of C in D that avoids a
colour j, and x.g_j.f_j factors through some f_i with i != j.
``extract_amalgamable_pair`` is the transcript of that argument.

``arrow_check`` decides the arrow and ``AmalgamEngine`` decides the pairs,
so the theorem is a relation their answers must satisfy on every finite
catalog; no expected value comes from either checker (metamorphic testing:
Chen, Cheung and Yiu, HKUST-CS98-01, 1998).  The truncation of a chain
catalog is what makes pairs fail to amalgamate, so the relation is asked on
``lo_catalog(5)`` and on the truncated chain and graph catalogs that
``sub_catalogs`` draws, at k = 2 and 3, where it has tuples with a
non-amalgamable pair to say something about.
"""

import itertools
from collections import Counter

from hypothesis import given, settings

from ramsey_workbench import HOLDS
from ramsey_workbench.amalgam import AmalgamEngine, extract_amalgamable_pair
from ramsey_workbench.arrows import arrow_check
from ramsey_workbench.catalogs import lo_catalog
from ramsey_workbench.category import FiniteCategory

from test_amalgam import sub_catalogs


def arrow_instances(cat):
    """(A, k, C, D) for every A, k in {2, 3} and C for which some D has
    D -> (C)^A_{k,k-1}, with the first such D in catalog order."""
    for a, k, c in itertools.product(cat.objects, (2, 3), cat.objects):
        d = next((d for d in cat.objects
                  if arrow_check(cat, d, c, a, k, k - 1).status == HOLDS), None)
        if d is not None:
            yield a, k, c, d


def bridge_counts(cat) -> Counter:
    """Assert the bridge on every holding arrow of cat: every ordered
    k-tuple of extensions of A into objects that map into C holds a pair
    the engine amalgamates, and the extraction names one.  Counts the
    instances, the tuples and the tuples with a non-amalgamable pair."""
    engine = AmalgamEngine(cat)
    counts = Counter()
    for a, k, c, d in arrow_instances(cat):
        counts["instances"] += 1
        extensions = [f for b in cat.objects if cat.hom(b, c)
                      for f in cat.hom(a, b)]
        for fs in itertools.product(extensions, repeat=k):
            counts["tuples"] += 1
            amalgamable = {(i, j) for i, j in itertools.combinations(range(k), 2)
                           if engine.amalgamate(fs[i], fs[j]) is not None}
            assert amalgamable, (a, k, c, d, fs)
            counts["with_a_gap"] += len(amalgamable) < k * (k - 1) // 2
            gs = [cat.hom(cat.target(f), c)[0] for f in fs]
            pair = extract_amalgamable_pair(cat, a, k, c, d, gs, list(fs))
            assert engine.amalgamate(fs[pair.i], fs[pair.j]) is not None, (
                a, k, c, d, fs, pair.i, pair.j)
    return counts


def test_holding_arrow_gives_an_amalgamable_pair():
    counts = bridge_counts(FiniteCategory.from_structures(lo_catalog(5)))
    # not vacuous: tuples with a pair that does not amalgamate occur
    assert counts["instances"] >= 30 and counts["tuples"] >= 1000
    assert counts["with_a_gap"] >= 200


def test_holding_arrow_gives_an_amalgamable_pair_on_drawn_catalogs():
    """The bridge on each catalog ``sub_catalogs`` draws.  The draws are
    derandomized, and together they hold over 400 instances, 2,000 tuples
    and 150 tuples with a non-amalgamable pair."""
    counts = Counter()

    @settings(max_examples=40)
    @given(sub_catalogs())
    def ask(cat):
        counts.update(bridge_counts(cat))

    ask()
    assert counts["instances"] >= 200 and counts["tuples"] >= 1000
    assert counts["with_a_gap"] >= 100
