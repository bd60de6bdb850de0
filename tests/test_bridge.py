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
``lo_catalog(5)`` at k = 2 and 3, where it has tuples with a
non-amalgamable pair to say something about.
"""

import itertools

import pytest

from ramsey_workbench import HOLDS
from ramsey_workbench.amalgam import AmalgamEngine, extract_amalgamable_pair
from ramsey_workbench.arrows import arrow_check
from ramsey_workbench.catalogs import lo_catalog
from ramsey_workbench.category import FiniteCategory


@pytest.fixture(scope="module")
def lo5():
    return FiniteCategory.from_structures(lo_catalog(5))


def arrow_instances(cat):
    """(A, k, C, D) for every A, k in {2, 3} and C for which some D has
    D -> (C)^A_{k,k-1}, with the first such D in catalog order."""
    for a, k, c in itertools.product(cat.objects, (2, 3), cat.objects):
        d = next((d for d in cat.objects
                  if arrow_check(cat, d, c, a, k, k - 1).status == HOLDS), None)
        if d is not None:
            yield a, k, c, d


def test_holding_arrow_gives_an_amalgamable_pair(lo5):
    """Every ordered k-tuple of extensions of A into objects that map into
    C holds a pair the engine amalgamates, and the extraction names one."""
    engine = AmalgamEngine(lo5)
    instances = tuples = with_a_gap = 0
    for a, k, c, d in arrow_instances(lo5):
        instances += 1
        extensions = [f for b in lo5.objects if lo5.hom(b, c)
                      for f in lo5.hom(a, b)]
        for fs in itertools.product(extensions, repeat=k):
            tuples += 1
            amalgamable = {(i, j) for i, j in itertools.combinations(range(k), 2)
                           if engine.amalgamate(fs[i], fs[j]) is not None}
            assert amalgamable, (a, k, c, d, fs)
            with_a_gap += len(amalgamable) < k * (k - 1) // 2
            gs = [lo5.hom(lo5.target(f), c)[0] for f in fs]
            pair = extract_amalgamable_pair(lo5, a, k, c, d, gs, list(fs))
            assert engine.amalgamate(fs[pair.i], fs[pair.j]) is not None, (
                a, k, c, d, fs, pair.i, pair.j)
    # not vacuous: tuples with a pair that does not amalgamate occur
    assert instances >= 30 and tuples >= 1000 and with_a_gap >= 200
