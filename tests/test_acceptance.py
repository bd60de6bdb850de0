"""End-to-end acceptance checks.

One test per criterion clause; the conftest terminal hook prints a PASS or
FAIL line for each.  Expected values come from classical combinatorial
ground truths recomputed here by the in-repo enumeration oracle, never
taken on faith.
"""

import itertools
import json
import random
import time

import pytest

from ramsey_workbench.amalgam import (AmalgamEngine,
                                      extract_amalgamable_pair,
                                      is_amalgamation_arrow, wap_check)
from ramsey_workbench.arrows import (arrow_check, oracle_arrow_check,
                                     verify_bad_coloring)
from ramsey_workbench.catalogs import (graph_catalog, linear_order,
                                       lo_catalog, path_graph, save_catalog)
from ramsey_workbench.category import (FiniteCategory, check_axioms, op,
                                       tables_equal)
from ramsey_workbench.cli import replay, run
from ramsey_workbench.degrees import degree_lower, degree_upper
from ramsey_workbench.expansion import (ExpansionSpace, check_forgetful,
                                        orbit_age_analysis)
from ramsey_workbench.sequences import (TruncatedSequence, colimit,
                                        weak_fraisse_check,
                                        weak_homogeneity_check)
from ramsey_workbench.structures import Embedding, compose, isomorphic

import oracles
from oracles import (all_transformations, compose_transformations,
                     constant_sequence, equiv_check, find_isomorphic,
                     mono_test)


@pytest.fixture(scope="module")
def lo6():
    return FiniteCategory.from_structures(lo_catalog(6))


@pytest.fixture(scope="module")
def lo7():
    return FiniteCategory.from_structures(lo_catalog(7))


def lo_chain(n):
    objs = [linear_order(i) for i in range(1, n + 1)]
    steps = [Embedding(objs[i], objs[i + 1], tuple(range(i + 1)))
             for i in range(n - 1)]
    return TruncatedSequence(tuple(objs), tuple(steps))


# -- 1: classical arrow instance --------------------------------------------


def test_01_arrow_ground_truth(lo6):
    started = time.monotonic()
    holds = arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1)
    fails = arrow_check(lo6, "LO5", "LO3", "LO2", 2, 1)
    oracle_holds = oracle_arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1)
    oracle_fails = oracle_arrow_check(lo6, "LO5", "LO3", "LO2", 2, 1)
    elapsed = time.monotonic() - started
    assert holds.status == "HOLDS"
    assert fails.status == "FAILS"
    assert verify_bad_coloring(lo6, "LO5", "LO3", "LO2", 1, fails.bad_coloring)
    assert oracle_holds.status == "HOLDS"
    assert oracle_fails.status == "FAILS"
    assert elapsed < 30.0


# -- 2: oracle equivalence on randomized instances ---------------------------


def test_02_oracle_agreement_randomized(graphs5_category):
    rng = random.Random(20240811)
    catalogs = [FiniteCategory.from_structures(lo_catalog(5)),
                graphs5_category]
    agreements = 0
    attempts = 0
    while agreements < 100 and attempts < 10000:
        attempts += 1
        cat = catalogs[rng.randrange(2)]
        a = rng.choice(cat.objects)
        b = rng.choice(cat.objects)
        c = rng.choice(cat.objects)
        k = rng.randint(1, 3)
        t = rng.randint(1, k)
        m = len(cat.hom(a, c))
        if m > 12 or k ** m > 600_000:
            continue
        fast = arrow_check(cat, c, b, a, k, t)
        slow = oracle_arrow_check(cat, c, b, a, k, t)
        assert fast.status == slow.status, (a, b, c, k, t)
        agreements += 1
    assert agreements >= 100


# -- 3: degree interval -------------------------------------------------------


def test_03a_degree_upper_for_pairs_in_chains(lo7):
    bs = ["LO1", "LO2", "LO3"]

    def least_witnesses(k_max, t):
        # LO1 holds no pair, so it is no target; the scan stops at LO7
        return {(f"LO{b}", k): next(
                    (f"LO{c}" for c in range(1, 8)
                     if oracles.chain_arrow_status(c, b, 2, k, t) == "HOLDS"),
                    None)
                for b in (2, 3) for k in range(1, k_max + 1)}

    # two colors: bound 1, and triples need LO6 since R(3,3) = 6
    n, certs, unknowns = degree_upper(lo7, "LO2", 2, bs=bs)
    expected = least_witnesses(2, 1)
    assert expected[("LO3", 2)] == "LO6"
    assert n == 1 and not unknowns
    assert {(c.b, c.k): c.witness for c in certs} == expected

    # three colors: bound 1 would need a 17-chain, R(3,3,3) = 17.  The bad
    # coloring of LO7 is re-checked on all 35 triples; every shorter catalog
    # chain is an initial segment of LO7, so none witnesses bound 1
    bad = arrow_check(lo7, "LO7", "LO3", "LO2", 3, 1)
    assert bad.status == "FAILS"
    color = {lo7.embedding(mid).map: v for mid, v in
             zip(bad.bad_coloring.domain, bad.bad_coloring.values)}
    assert set(color) == set(itertools.combinations(range(7), 2))
    for triple in itertools.combinations(range(7), 3):
        assert len({color[p] for p in itertools.combinations(triple, 2)}) > 1

    # so the least bound within the catalog is 2, with triples witnessed by
    # LO5: K4 has a proper 3-edge-coloring and K5 has none
    n, certs, _ = degree_upper(lo7, "LO2", 3, bs=bs)
    expected = least_witnesses(3, 2)
    assert expected[("LO3", 3)] == "LO5"
    assert n == 2, f"the least bound with witnesses in LO1..LO7 is 2, not {n}"
    assert {(c.b, c.k): c.witness for c in certs} == expected


def test_03b_degree_lower_for_paths_in_graphs(graphs5_category):
    cat = graphs5_category
    p3 = find_isomorphic(list(cat.structures.values()), path_graph(3)).name
    cert = degree_lower(cat, p3, 2, 2)
    assert cert is not None
    assert cert.b == p3
    assert set(cert.bad_colorings) == set(cat.objects)
    for c, coloring in cert.bad_colorings.items():
        assert verify_bad_coloring(cat, c, p3, p3, 1, coloring)


# -- 4: constructive amalgamation ---------------------------------------------


def test_04a_pair_extraction_on_arrow_instance(lo6):
    f_list = lo6.hom("LO2", "LO3")[:2]
    g_list = [lo6.identity("LO3")] * 2
    out = extract_amalgamable_pair(lo6, "LO2", 2, "LO3", "LO6",
                                   g_list, f_list)
    assert out.i != out.j
    assert lo6.compose(out.g, f_list[out.i]) == out.rhs
    assert out.lhs == out.rhs


def test_04b_weak_amalgamation_holds(lo5_category):
    report = wap_check(lo5_category)
    assert report.status == "HOLDS"
    for w in report.witnesses:
        assert is_amalgamation_arrow(lo5_category, w["f"]).status == "HOLDS"


def test_04c_weak_amalgamation_identity_arrows(lo5_category):
    cat = lo5_category
    ceiling = max(s.size for s in cat.structures.values())
    top = f"LO{ceiling}"
    engine = AmalgamEngine(cat)

    def amalgam_size(u, v):
        return oracles.smallest_chain_amalgam(
            cat.embedding(u).map, cat.structure(cat.target(u)).size,
            cat.embedding(v).map, cat.structure(cat.target(v)).size)

    # two copies of the point at opposite ends of the five-chain need a
    # nine-chain to merge, four more than the catalog holds
    assert oracles.smallest_chain_amalgam((0,), 5, (4,), 5) == 9

    # the catalog holds every chain up to its ceiling, so a span amalgamates
    # in it exactly when its smallest chain amalgam fits under the ceiling
    identity_holds = set()
    first_bad = {}
    for a in cat.objects:
        spans = [u for b in cat.objects for u in cat.hom(a, b)]
        fits = {(u, v): amalgam_size(u, v) <= ceiling
                for u in spans for v in spans}
        for (u, v), fit in fits.items():
            assert (engine.amalgamate(u, v) is not None) == fit, (u, v)
        report = is_amalgamation_arrow(cat, cat.identity(a), engine=engine)
        if all(fits.values()):
            assert report.status == "HOLDS"
            identity_holds.add(a)
        else:
            # spans are scanned in catalog order, as the engine scans them
            first_bad[a] = next(span for span, fit in fits.items() if not fit)
            assert report.status == "FAILS"
            assert (report.failure["g"], report.failure["h"]) == first_bad[a]
    assert identity_holds == {top}
    assert first_bad["LO1"] == ("LO1->LO2#0", "LO1->LO5#4")
    assert amalgam_size(*first_bad["LO1"]) == 6

    report = wap_check(cat)
    assert report.status == "HOLDS"
    for w in report.witnesses:
        assert (w["f"] == cat.identity(w["A"])) == (w["A"] == top), (
            f"the first amalgamation arrow for {w['A']} is {w['f']}; only "
            f"{top} has spans that all amalgamate within the catalog")


# -- 5: sequence calculus ------------------------------------------------------


def test_05a_equivalence_calculus_exhaustive():
    a, b, c = linear_order(1), linear_order(2), linear_order(3)

    def class_of(t, reps):
        for i, rep in enumerate(reps):
            if equiv_check(t, rep).status == "HOLDS":
                return i
        reps.append(t)
        return len(reps) - 1

    for n in (1, 2, 3):
        ja, jb, jc = (constant_sequence(x, n) for x in (a, b, c))
        ts_ab = all_transformations(ja, jb)
        ts_bc = all_transformations(jb, jc)
        for t1 in ts_ab:
            assert equiv_check(t1, t1).status == "HOLDS"
            for t2 in ts_ab:
                assert equiv_check(t1, t2).status == \
                    equiv_check(t2, t1).status
        reps_ab, reps_bc, reps_ac = [], [], []
        table = {}
        for u in ts_bc:
            cu = class_of(u, reps_bc)
            for t in ts_ab:
                ct = class_of(t, reps_ab)
                comp = class_of(compose_transformations(u, t), reps_ac)
                assert table.setdefault((cu, ct), comp) == comp


def test_05b_mono_cancellation_randomized():
    rng = random.Random(31415)
    pools = {}

    def pool(n_lo, n_hi, length):
        key = (n_lo, n_hi, length)
        if key not in pools:
            pools[key] = all_transformations(
                constant_sequence(linear_order(n_lo), length),
                constant_sequence(linear_order(n_hi), length))
        return pools[key]

    violations = 0
    trials = 0
    while trials < 1000:
        n_src = rng.randint(1, 2)
        n_mid = rng.randint(n_src, 3)
        n_tgt = rng.randint(n_mid, 4)
        length = rng.randint(1, 3)
        pool_gh = pool(n_src, n_mid, length)
        pool_f = pool(n_mid, n_tgt, length)
        if not pool_gh or not pool_f:
            continue
        g = pool_gh[rng.randrange(len(pool_gh))]
        h = pool_gh[rng.randrange(len(pool_gh))]
        f = pool_f[rng.randrange(len(pool_f))]
        if mono_test(f, g, h).violation:
            violations += 1
        trials += 1
    assert trials >= 1000 and violations == 0


def test_05c_chain_colimit_is_top():
    seq = lo_chain(5)
    result = colimit(seq)
    assert isomorphic(result.structure, linear_order(5))
    for n in range(5):
        for m in range(n, 5):
            assert compose(result.cocone[m], seq.bonding(n, m)) == \
                result.cocone[n]


# -- 6: chain absorption and homogeneity ---------------------------------------


def lo8_chain():
    """The category of LO1..LO8 and its chain of initial-segment steps."""
    cat = FiniteCategory.from_structures(lo_catalog(8))
    steps = [cat.embedding_id(a, b, tuple(range(i + 1)))
             for i, (a, b) in enumerate(zip(cat.objects, cat.objects[1:]))]
    return cat, cat.objects, steps


def test_06a_chain_absorption_holds():
    cat, levels, steps = lo8_chain()
    report = weak_fraisse_check(cat, levels, steps, levels[:4],
                                m_max=7, k_max=7)
    assert report.status == "HOLDS"


def test_06a_chain_absorption_witnesses_at_own_level():
    # a level-n copy sent off the initial segment of a catalog chain cannot
    # be bent back, so a level absorbs at itself exactly when it already
    # holds the largest catalog chain; earlier levels climb to that ceiling
    cat, levels, steps = lo8_chain()
    for ceiling in (4, 8):
        report = weak_fraisse_check(cat, levels, steps, levels[:ceiling],
                                    m_max=7, k_max=7)
        expected = oracles.chain_absorption_witnesses(8, ceiling)
        assert expected == {n: max(n, ceiling - 1) for n in range(8)}
        assert report.absorption_witness == expected
        own_level = {n for n, m in report.absorption_witness.items() if m == n}
        assert own_level == set(range(ceiling - 1, 8))


def test_06b_weak_homogeneity_of_chain_top(lo6):
    top = linear_order(6)
    # on the age of LO6 the catalog holds LO6 itself, through which every
    # copy factors with the identity as its only re-embedding
    age = lo_catalog(6)
    expected = oracles.weak_homogeneity_witnesses(top, age)
    assert {b for _, _, b in expected} == {"LO6"}
    report = weak_homogeneity_check(lo6, "LO6", lo6.objects)
    assert report.status == "HOLDS"
    assert [(w["A"], lo6.embedding(w["f"]).map, w["B"])
            for w in report.witnesses] == expected

    # with B <= LO3 the rigid chain offers no witness: two copies of B
    # restrict to different copies of A and no automorphism moves either
    small = lo_catalog(3)
    first_bare = next((a, f) for a, f, b in
                      oracles.weak_homogeneity_witnesses(top, small)
                      if b is None)
    assert first_bare == ("LO1", (0,))
    report = weak_homogeneity_check(lo6, "LO6", [s.name for s in small])
    assert report.status == "FAILS"
    assert (report.failure["A"],
            lo6.embedding(report.failure["f"]).map) == first_bare


# -- 7: expansion construction --------------------------------------------------


@pytest.fixture(scope="module")
def p3_space():
    from ramsey_workbench.catalogs import complete_graph, empty_graph
    cat = FiniteCategory.from_structures(
        [empty_graph(1, name="K1"), complete_graph(2, name="K2"),
         path_graph(3)])
    return ExpansionSpace(cat, {"K2": 2})


def test_07a_sixteen_expansions_and_forgetful_checks(p3_space):
    assert len(p3_space.fiber("P3")) == 16
    report = check_forgetful(p3_space)
    assert report.reasonable
    assert report.fiber_sizes["P3"] == 16
    # the audit reports only what can fail; the scan finds the rest
    scan = oracles.scan_forgetful(p3_space)
    assert scan.precompact
    assert scan.unique_restrictions
    assert scan.injective_on_homs
    assert scan.surjective_on_objects


def test_07b_action_laws_and_orbit_ages(p3_space):
    cat = p3_space.cat
    auts = cat.automorphism_ids("P3")
    fiber = p3_space.fiber("P3")
    ident = cat.identity("P3")
    # an automorphism g moves F* to restriction(F*, g)
    for fstar in fiber:
        assert p3_space.restriction(fstar, ident) == fstar
        for g in auts:
            for h in auts:
                assert p3_space.restriction(
                    p3_space.restriction(fstar, g), h) == \
                    p3_space.restriction(fstar, cat.compose(g, h))
    report = orbit_age_analysis(p3_space, "P3")
    assert sum(len(o) for o in report.orbits) == 16
    for orbit in report.orbits:
        ages = {frozenset(oracles.age(p3_space, member)) for member in orbit}
        assert len(ages) == 1


# -- 8: degenerate degrees -------------------------------------------------------


def test_08_unit_degrees_mirror_base_category(graphs4_category):
    cat = graphs4_category
    space = ExpansionSpace(cat, {})
    assert len(cat.objects) == 18
    for a in cat.objects:
        assert space.fiber_size(a) == 1
        astar = space.fiber(a)[0]
        for b in cat.objects:
            bstar = space.fiber(b)[0]
            assert (len(oracles.hom_star(space, astar, bstar))
                    == len(cat.hom(a, b)))


# -- 9: duality --------------------------------------------------------------------


def test_09_duality(lo5_category):
    cat = lo5_category
    o = op(cat)
    assert tables_equal(op(o), cat)
    for mid in cat.all_morphisms():
        assert cat.is_mono(mid) == o.is_epi(mid)
        assert cat.is_epi(mid) == o.is_mono(mid)
    fwd = check_axioms(cat)
    dual = check_axioms(o)
    dually_directed = all(
        any(cat.hom(c, a) and cat.hom(c, b) for c in cat.objects)
        for a in cat.objects for b in cat.objects)
    assert fwd.directed
    assert dual.directed == dually_directed


# -- 10: determinism and replay ------------------------------------------------------


WORKLOAD = [
    ["arrow", "--catalog", "{lo6}", "--C", "LO6", "--B", "LO3",
     "--A", "LO2", "-k", "2", "-t", "1"],
    ["arrow", "--catalog", "{lo6}", "--C", "LO5", "--B", "LO3",
     "--A", "LO2", "-k", "2", "-t", "1"],
    ["cat", "check", "--catalog", "{lo4}"],
    ["cat", "op", "--catalog", "{lo4}"],
    ["degree", "--catalog", "{lo4}", "--A", "LO2", "--kmax", "2",
     "--bmax", "2"],
    ["amalgam", "--catalog", "{lo4}", "--wap"],
    ["seq", "colim", "--catalog", "{lo4}", "--seq", "{seq}"],
    ["expand", "check", "--catalog", "{p3cat}", "--degrees", "{deg}"],
]


def test_10_determinism_and_replay(tmp_path):
    from ramsey_workbench.catalogs import complete_graph, empty_graph

    lo6 = tmp_path / "lo6.json"
    save_catalog(lo_catalog(6), lo6)
    lo4 = tmp_path / "lo4.json"
    save_catalog(lo_catalog(4), lo4)
    p3cat = tmp_path / "p3.json"
    save_catalog([empty_graph(1, name="K1"), complete_graph(2, name="K2"),
                  path_graph(3)], p3cat)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({
        "objects": ["LO1", "LO2", "LO3", "LO4"],
        "bonding": {"0->1": [0], "1->2": [0, 1], "2->3": [0, 1, 2]}}))
    deg = tmp_path / "deg.json"
    deg.write_text(json.dumps({"degrees": {"K2": 2}}))
    subst = {"{lo6}": str(lo6), "{lo4}": str(lo4), "{p3cat}": str(p3cat),
             "{seq}": str(seq), "{deg}": str(deg)}

    def run_all(tag):
        outs = []
        for i, argv in enumerate(WORKLOAD):
            resolved = [subst.get(tok, tok) for tok in argv]
            out = tmp_path / f"{tag}_{i}.json"
            run(["--out", str(out), "--seed", "7"] + resolved)
            outs.append(out)
        return outs

    first = run_all("a")
    second = run_all("b")
    for fa, fb in zip(first, second):
        assert fa.read_bytes() == fb.read_bytes()
    for out in first:
        code, result = replay(str(out))
        assert code == 0
