import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramsey_workbench.amalgam import (AmalgamEngine, extract_amalgamable_pair,
                                      failure_chain, find_extraction_instance,
                                      holds_on_sinks, is_amalgamation_arrow,
                                      sinks, two_of_k_check,
                                      verify_pairwise_non_amalgamable,
                                      wap_check)
from ramsey_workbench.catalogs import (complete_graph, empty_graph, graph,
                                       graph_catalog, linear_order, lo_catalog,
                                       path_graph)
from ramsey_workbench.category import FiniteCategory, abstract_from_json, op
from ramsey_workbench.errors import (ArrowDoesNotHold, FactorSearchFailed,
                                     WorkbenchError)

import oracles


@pytest.fixture(scope="module")
def lo5():
    return FiniteCategory.from_structures(lo_catalog(5))


@pytest.fixture(scope="module")
def lo6():
    return FiniteCategory.from_structures(lo_catalog(6))


class TestAmalgamationArrows:
    def test_identity_on_top_object_holds(self, lo5):
        report = is_amalgamation_arrow(lo5, lo5.identity("LO5"))
        assert report.status == "HOLDS"
        for w in report.witnesses:
            lhs = lo5.compose(w.r, lo5.compose(w.g, lo5.identity("LO5")))
            rhs = lo5.compose(w.s, lo5.compose(w.h, lo5.identity("LO5")))
            assert lhs == rhs

    def test_identity_on_small_object_fails_in_catalog(self, lo5):
        # two copies of the two-chain pushed to opposite ends of the
        # five-chain need an eight-chain to merge, which the catalog lacks
        report = is_amalgamation_arrow(lo5, lo5.identity("LO2"))
        assert report.status == "FAILS"
        g, h = report.failure["g"], report.failure["h"]
        assert oracles.first_amalgam(lo5, lo5.compose(g, lo5.identity("LO2")),
                                     lo5.compose(h, lo5.identity("LO2"))) is None

    def test_arrow_into_top_object_holds(self, lo5):
        f = lo5.hom("LO2", "LO5")[0]
        assert is_amalgamation_arrow(lo5, f).status == "HOLDS"

    def test_incompatible_pair_catalog_fails(self):
        cat = FiniteCategory.from_structures(
            [empty_graph(1, name="K1"), graph(2, [(0, 1)], name="K2"),
             empty_graph(2, name="E2")])
        report = is_amalgamation_arrow(cat, cat.identity("K1"))
        assert report.status == "FAILS"

    def test_lone_rigid_object_trivially_holds(self):
        cat = FiniteCategory.from_structures([linear_order(3)])
        report = is_amalgamation_arrow(cat, cat.identity("LO3"))
        assert report.status == "HOLDS"
        assert all(w.d == "LO3" for w in report.witnesses)


class TestWapCheck:
    def test_lo_catalog_holds_with_top_arrows(self, lo5):
        report = wap_check(lo5)
        assert report.status == "HOLDS"
        arrows = {w["A"]: w for w in report.witnesses}
        # every amalgamation arrow lands in the top object; only the top
        # object itself gets the identity
        assert all(w["Aprime"] == "LO5" for w in arrows.values())
        assert arrows["LO5"]["f"] == lo5.identity("LO5")
        assert arrows["LO2"]["f"] != lo5.identity("LO2")

    def test_wap_witnesses_are_amalgamation_arrows(self, lo5):
        report = wap_check(lo5)
        for w in report.witnesses:
            assert is_amalgamation_arrow(lo5, w["f"]).status == "HOLDS"

    def test_holds_even_on_incompatible_pair_catalog(self):
        # each object here extends only to itself, so its identity is an
        # amalgamation arrow; adding the point below both still leaves an
        # arrow into either one
        cat = FiniteCategory.from_structures(
            [empty_graph(1, name="K1"), graph(2, [(0, 1)], name="K2"),
             empty_graph(2, name="E2")])
        assert is_amalgamation_arrow(cat, cat.identity("K1")).status == "FAILS"
        report = wap_check(cat)
        assert report.status == "HOLDS"

    def test_finite_catalogs_always_reach_an_arrow(self, lo5):
        # pairwise non-amalgamable arrows out of A are pairwise distinct,
        # so the failure chain cannot outgrow hom(A, -) and must end at an
        # amalgamation arrow: weak amalgamation at catalog scale is a
        # theorem, and the informative content is which arrows witness it
        for a in lo5.objects:
            found = False
            for a_prime in lo5.objects:
                for f in lo5.hom(a, a_prime):
                    if is_amalgamation_arrow(lo5, f).status == "HOLDS":
                        found = True
                        break
                if found:
                    break
            assert found

    def test_empty_catalog_vacuously_holds(self):
        report = wap_check(FiniteCategory.from_structures([]))
        assert report.status == "HOLDS"


class TestTwoOfK:
    def test_pairwise_on_small_chain_catalog(self):
        # within the four-chain catalog every cospan of two-chain
        # extensions of the two-chain still fits, so pairs amalgamate
        cat = FiniteCategory.from_structures(lo_catalog(4))
        report = two_of_k_check(cat, "LO2", 2)
        assert report.status == "FAILS" or report.status == "HOLDS"
        # k = 2 must coincide with plain pairwise amalgamation
        engine = AmalgamEngine(cat)
        pool = [g for b in cat.objects for g in cat.hom("LO2", b)]
        pairwise = all(engine.amalgamate(u, v) is not None
                       for u in pool for v in pool)
        assert (report.status == "HOLDS") == pairwise

    def test_k2_matches_direct_amalgamation_check(self, lo5):
        report = two_of_k_check(lo5, "LO4", 2)
        engine = AmalgamEngine(lo5)
        pool = [g for b in lo5.objects for g in lo5.hom("LO4", b)]
        pairwise = all(engine.amalgamate(u, v) is not None
                       for u in pool for v in pool)
        assert (report.status == "HOLDS") == pairwise

    def test_monotone_in_k(self):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        for k in (2, 3):
            if two_of_k_check(cat, "LO2", k).status == "HOLDS":
                assert two_of_k_check(cat, "LO2", k + 1).status == "HOLDS"

    def test_duplicates_always_amalgamate(self, lo5):
        report = two_of_k_check(lo5, "LO5", 2)
        assert report.status == "HOLDS"

    def test_k_below_two_rejected(self, lo5):
        with pytest.raises(ValueError):
            two_of_k_check(lo5, "LO2", 1)


def _extraction(extract, cat, *instance):
    """The extraction, or the type and message of the error it raises."""
    try:
        return extract(cat, *instance)
    except WorkbenchError as err:
        return type(err), str(err)


def _chain_instances(cat):
    """The chain instances of ``TestPairExtraction``, on any category that
    holds LO2..LO6 with the chain catalog's morphisms in its hom order."""
    f_list = cat.hom("LO2", "LO3")[:2]
    ident = [cat.identity("LO3")] * 2
    return [("LO2", 2, "LO3", "LO6", ident, f_list),
            ("LO2", 2, "LO3", "LO6", ident, [f_list[0]] * 2),
            ("LO2", 3, "LO3", "LO6", ident + ident[:1], [f_list[0]] * 3),
            ("LO2", 2, "LO3", "LO5", ident, f_list),
            ("LO2", 2, "LO4", "LO6", [cat.hom("LO3", "LO4")[0]] * 2, f_list)]


def _rigid_pair_instance():
    """Three-colour instance on P3, whose automorphisms are f_0 and f_1."""
    cat = FiniteCategory.from_structures(graph_catalog(3))
    p3 = oracles.find_isomorphic(list(cat.structures.values()),
                                 path_graph(3)).name
    auts = cat.hom(p3, p3)
    return cat, (p3, 3, p3, p3, [cat.identity(p3)] * 3,
                 [auts[0], auts[1], auts[0]])


class TestPairExtraction:
    def test_transcript_on_the_classical_instance(self, lo6):
        f_list = lo6.hom("LO2", "LO3")[:2]
        g_list = [lo6.identity("LO3")] * 2
        out = extract_amalgamable_pair(lo6, "LO2", 2, "LO3", "LO6",
                                       g_list, f_list)
        assert out.lhs == out.rhs
        assert out.i != out.j
        assert lo6.compose(out.g, f_list[out.i]) == out.rhs

    def test_equal_arrows_give_trivial_factorization(self, lo6):
        f = lo6.hom("LO2", "LO3")[0]
        out = extract_amalgamable_pair(lo6, "LO2", 2, "LO3", "LO6",
                                       [lo6.identity("LO3")] * 2, [f, f])
        assert out.lhs == out.rhs

    def test_missing_arrow_precondition_detected(self, lo6):
        f_list = lo6.hom("LO2", "LO3")[:2]
        with pytest.raises(ArrowDoesNotHold):
            extract_amalgamable_pair(lo6, "LO2", 2, "LO3", "LO5",
                                     [lo6.identity("LO3")] * 2, f_list)

    def test_four_chain_target_lacks_the_arrow(self, lo6):
        # pushing the targets up to the four-chain needs a mono-pair arrow
        # that only an eighteen-chain would witness
        f_list = lo6.hom("LO2", "LO3")[:2]
        g_list = [lo6.hom("LO3", "LO4")[0]] * 2
        with pytest.raises(ArrowDoesNotHold):
            extract_amalgamable_pair(lo6, "LO2", 2, "LO4", "LO6",
                                     g_list, f_list)

    def test_three_color_instance_on_rigid_pair(self):
        cat, instance = _rigid_pair_instance()
        out = extract_amalgamable_pair(cat, *instance)
        assert out.lhs == out.rhs and out.i != out.j

    def test_search_wrapper_finds_an_instance(self):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        found = find_extraction_instance(cat, "LO1", 2)
        assert found is not None
        a, k, c, d, g_list, f_list = found
        out = extract_amalgamable_pair(cat, a, k, c, d, g_list, f_list)
        assert out.lhs == out.rhs

    def test_degree_evidence_feeds_extraction(self, lo6):
        # whenever the arrow witness exists at (k, k-1), extraction runs
        # without a factorization failure
        for k in (2, 3):
            try:
                f_list = lo6.hom("LO2", "LO3")[:1] * k
                out = extract_amalgamable_pair(
                    lo6, "LO2", k, "LO3", "LO6",
                    [lo6.identity("LO3")] * k, f_list)
                assert out.lhs == out.rhs
            except ArrowDoesNotHold:
                pass


class TestExtractionMatchesScan:
    """The row-read extraction equals the compose scan it replaced: the same
    (i, j, g, x, lhs, rhs, coloring), or the same error."""

    @pytest.mark.parametrize("table", [False, True], ids=["lo6", "lo-table-6"])
    def test_chain_instances(self, lo6, table):
        cat = abstract_from_json(oracles.lo_table(6)) if table else lo6
        for instance in _chain_instances(cat):
            assert (_extraction(extract_amalgamable_pair, cat, *instance)
                    == _extraction(oracles.scan_extraction, cat, *instance))

    def test_rigid_pair(self):
        cat, instance = _rigid_pair_instance()
        out = extract_amalgamable_pair(cat, *instance)
        assert out == oracles.scan_extraction(cat, *instance)

    def test_search_instance(self):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        a, k, c, d, g_list, f_list = find_extraction_instance(cat, "LO1", 2)
        out = extract_amalgamable_pair(cat, a, k, c, d, g_list, f_list)
        assert out == oracles.scan_extraction(cat, a, k, c, d, g_list, f_list)


V_POSET = {
    "objects": ["A", "B", "C"],
    "homs": {
        "A->A": ["idA"], "B->B": ["idB"], "C->C": ["idC"],
        "A->B": ["ab"], "A->C": ["ac"],
    },
    "compose": {},
    "identities": {"A": "idA", "B": "idB", "C": "idC"},
}

# A < B1, A < C1 with no common upper bound; C1 < B2, C1 < C2 likewise.
# In a poset, non-amalgamable means exactly "no common upper bound".
W_POSET = {
    "objects": ["A", "B1", "C1", "B2", "C2"],
    "homs": {
        "A->A": ["iA"], "B1->B1": ["iB1"], "C1->C1": ["iC1"],
        "B2->B2": ["iB2"], "C2->C2": ["iC2"],
        "A->B1": ["ab1"], "A->C1": ["ac1"],
        "C1->B2": ["cb2"], "C1->C2": ["cc2"],
        "A->B2": ["ab2"], "A->C2": ["ac2"],
    },
    "compose": {
        "cb2∘ac1": "ab2",
        "cc2∘ac1": "ac2",
    },
    "identities": {"A": "iA", "B1": "iB1", "C1": "iC1",
                   "B2": "iB2", "C2": "iC2"},
}


class TestFailureChain:
    def test_top_object_gives_empty_chain(self, lo5):
        assert failure_chain(lo5, "LO5", 4) == []

    def test_small_object_gives_nonempty_chain(self, lo5):
        chain = failure_chain(lo5, "LO2", 3)
        assert chain
        assert verify_pairwise_non_amalgamable(lo5, chain)

    def test_v_poset_chain_has_length_one(self):
        cat = abstract_from_json(V_POSET)
        chain = failure_chain(cat, "A", 4)
        assert len(chain) == 1
        assert verify_pairwise_non_amalgamable(cat, chain)

    def test_w_poset_chain_has_length_two(self):
        cat = abstract_from_json(W_POSET)
        chain = failure_chain(cat, "A", 4)
        assert len(chain) == 2
        assert verify_pairwise_non_amalgamable(cat, chain)
        # length two refutes 2-out-of-2 amalgamation for A at this depth
        assert two_of_k_check(cat, "A", 2).status == "FAILS"

    def test_depth_zero_gives_empty_chain(self, lo5):
        assert failure_chain(lo5, "LO2", 0) == []


CATEGORIES = {
    "lo5": lambda: FiniteCategory.from_structures(lo_catalog(5)),
    "g3": lambda: FiniteCategory.from_structures(graph_catalog(3)),
    "v-poset": lambda: abstract_from_json(V_POSET),
    "w-poset": lambda: abstract_from_json(W_POSET),
    "lo5t": lambda: abstract_from_json(oracles.lo_table(5)),
}


class TestWitnessOrder:
    """The witness is in report bytes, so amalgamate must return exactly
    the nested scan's first (D, r, s), not merely some amalgam."""

    @pytest.mark.parametrize("name", CATEGORIES)
    def test_amalgamate_returns_the_first_witness(self, name):
        cat = CATEGORIES[name]()
        engine = AmalgamEngine(cat)
        for u, v in itertools.product(list(cat.all_morphisms()), repeat=2):
            if cat.source(u) == cat.source(v):
                assert engine.amalgamate(u, v) == oracles.first_amalgam(cat, u, v)

    @pytest.mark.parametrize("name", CATEGORIES)
    def test_spans_with_different_sources_never_amalgamate(self, name):
        # r.u and s.v lie in different hom-sets, so no ids are equal, even
        # where the positions in those hom-sets are
        cat = CATEGORIES[name]()
        engine = AmalgamEngine(cat)
        for u, v in itertools.product(list(cat.all_morphisms()), repeat=2):
            if cat.source(u) != cat.source(v):
                assert oracles.first_amalgam(cat, u, v) is None
                assert engine.amalgamate(u, v) is None

    def test_equal_positions_across_hom_sets_do_not_match(self):
        cat = abstract_from_json(oracles.lo_table(3))
        u, v = "LO1->LO2#0", cat.identity("LO2")
        assert cat.pre(u, "LO2") == cat.pre(v, "LO2") == (0,)
        assert AmalgamEngine(cat).amalgamate(u, v) is None


class TestPreRows:
    """pre(v, d), the rows the engine compares, against a compose scan."""

    @pytest.mark.parametrize("name", [*CATEGORIES, "op-lo4"])
    def test_rows_index_the_composites(self, name):
        cat = (op(FiniteCategory.from_structures(lo_catalog(4)))
               if name == "op-lo4" else CATEGORIES[name]())
        for v in cat.all_morphisms():
            for d in cat.objects:
                into = cat.hom(cat.source(v), d)
                assert cat.pre(v, d) == tuple(
                    into.index(cat.compose(s, v))
                    for s in cat.hom(cat.target(v), d))

    def test_pre_reads_two_hom_sets(self, monkeypatch):
        from ramsey_workbench import category

        cat = FiniteCategory.from_structures(lo_catalog(4))
        v = cat.hom("LO2", "LO3")[1]    # image {0, 2}
        calls = []
        real = category.enumerate_embeddings
        monkeypatch.setattr(category, "enumerate_embeddings",
                            lambda a, b: calls.append((a.name, b.name))
                            or real(a, b))
        # the images of s: LO3 -> LO4 are 012, 013, 023, 123, so s.v has
        # images 02, 03, 03, 13: positions 1, 2, 2, 4 among 01, 02, 03, 12, 13, 23
        assert cat.pre(v, "LO4") == (1, 2, 2, 4)
        assert sorted(calls) == [("LO2", "LO4"), ("LO3", "LO4")]


@st.composite
def sub_catalogs(draw):
    """The category of a sub-catalog of the chains up to LO5 or the graphs
    on at most 3 vertices, in any order."""
    pool = draw(st.sampled_from([lo_catalog(5), graph_catalog(3)]))
    catalog = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                            unique_by=lambda s: s.name))
    return FiniteCategory.from_structures(catalog)


@st.composite
def two_of_k_questions(draw):
    """A sub-catalog as ``sub_catalogs`` draws it, one of its objects and k
    in {2, 3}."""
    cat = draw(sub_catalogs())
    return cat, draw(st.sampled_from(cat.objects)), draw(st.sampled_from([2, 3]))


class TestTwoOfKOnDemand:
    @settings(max_examples=40)
    @given(two_of_k_questions())
    def test_same_report_as_the_eager_check(self, question):
        cat, a, k = question
        assert two_of_k_check(cat, a, k) == oracles.eager_two_of_k(cat, a, k)

    def test_decides_only_the_pairs_it_reaches(self, monkeypatch):
        # the first tuple with no amalgamable pair is number 12,333; the
        # eager check decided all 84^2 = 7,056 pairs before looking
        cat = abstract_from_json(oracles.lo_table(8))
        pairs = set()
        real = AmalgamEngine.amalgamate
        monkeypatch.setattr(AmalgamEngine, "amalgamate",
                            lambda self, u, v: pairs.add((u, v))
                            or real(self, u, v))
        assert two_of_k_check(cat, "LO2", 3).status == "FAILS"
        assert 0 < len(pairs) <= 155


def _incompatible_pair_catalog():
    return FiniteCategory.from_structures(
        [empty_graph(1, name="K1"), graph(2, [(0, 1)], name="K2"),
         empty_graph(2, name="E2")])


SINK_CATEGORIES = {
    **{f"lo{n}": lambda n=n: FiniteCategory.from_structures(lo_catalog(n))
       for n in range(1, 7)},
    "g3": lambda: FiniteCategory.from_structures(graph_catalog(3)),
    "k4": lambda: FiniteCategory.from_structures(
        [complete_graph(n, name=f"K{n}") for n in range(1, 5)]),
    "e4": lambda: FiniteCategory.from_structures(
        [empty_graph(n, name=f"E{n}") for n in range(1, 5)]),
    "lo6t": lambda: abstract_from_json(oracles.lo_table(6)),
    "op-lo4": lambda: op(FiniteCategory.from_structures(lo_catalog(4))),
    "z3": lambda: abstract_from_json(oracles.Z3),
    "idempotent": lambda: abstract_from_json(oracles.IDEMPOTENT),
    "non-assoc": lambda: abstract_from_json(oracles.NON_ASSOCIATIVE),
    "incompatible-pair": _incompatible_pair_catalog,
}


def _agrees_with_the_scan(cat) -> None:
    engine, scan, tops = AmalgamEngine(cat), AmalgamEngine(cat), sinks(cat)
    for f in cat.all_morphisms():
        assert holds_on_sinks(engine, f, tops) == (
            is_amalgamation_arrow(cat, f, engine=scan).status == "HOLDS"), f
    assert wap_check(cat) == oracles.scan_wap(cat)


class TestSinkDecision:
    """wap_check decides on extensions into the sinks; the whole-catalog
    pair scan is the reference, arrow by arrow and check by check."""

    @pytest.mark.parametrize("name", SINK_CATEGORIES)
    def test_same_decisions_as_the_scan(self, name):
        _agrees_with_the_scan(SINK_CATEGORIES[name]())

    def test_both_decisions_occur(self):
        cat = SINK_CATEGORIES["lo4"]()
        engine, tops = AmalgamEngine(cat), sinks(cat)
        assert {holds_on_sinks(engine, f, tops)
                for f in cat.all_morphisms()} == {True, False}

    @settings(max_examples=25)
    @given(sub_catalogs())
    def test_same_decisions_on_sub_catalogs(self, cat):
        _agrees_with_the_scan(cat)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_a_chain_has_its_top_as_the_one_sink(self, n):
        cat = FiniteCategory.from_structures(lo_catalog(n))
        assert sinks(cat) == [f"LO{n}"]

    @pytest.mark.parametrize("name", SINK_CATEGORIES)
    def test_every_object_maps_into_a_sink(self, name):
        cat = SINK_CATEGORIES[name]()
        tops = sinks(cat)
        assert all(any(cat.hom(b, m) for m in tops) for b in cat.objects)

    def test_graphs_have_several_sinks(self):
        # the four graphs on 3 vertices embed into no other catalog graph
        cat = SINK_CATEGORIES["g3"]()
        assert sinks(cat) == [b for b in cat.objects
                              if cat.structure(b).size == 3]

    def test_decides_only_pairs_into_the_sink(self, monkeypatch):
        # LO8 is the one sink, so every pair is two extensions into it, and
        # each of the 247 failing candidates falls to its first pair: 127
        # distinct pairs, where the whole-catalog scan asked 5,234
        cat = abstract_from_json(oracles.lo_table(8))
        pairs = set()
        real = AmalgamEngine.amalgamate
        monkeypatch.setattr(AmalgamEngine, "amalgamate",
                            lambda self, u, v: pairs.add((u, v))
                            or real(self, u, v))
        assert wap_check(cat).status == "HOLDS"
        assert {cat.target(w) for pair in pairs for w in pair} == {"LO8"}
        assert 0 < len(pairs) <= 127
