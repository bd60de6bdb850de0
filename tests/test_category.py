import pytest
from hypothesis import given, settings, strategies as st

from ramsey_workbench.catalogs import (all_graphs, complete_graph,
                                       empty_graph, graph, graph_catalog,
                                       linear_order, lo_catalog, path_graph)
from ramsey_workbench.category import (FiniteCategory, abstract_from_json,
                                       check_axioms, locally_finite_verdict,
                                       op, skeletonize, tables_equal)
from ramsey_workbench.errors import MissingIsoData, WorkbenchError
from ramsey_workbench.structures import Embedding, enumerate_embeddings

import oracles
from oracles import IDEMPOTENT, NON_ASSOCIATIVE, Z3


@pytest.fixture(scope="module")
def lo4():
    return FiniteCategory.from_structures(lo_catalog(4))


class TestFromStructures:
    def test_hom_counts_lo1_lo2(self):
        cat = FiniteCategory.from_structures([linear_order(1), linear_order(2)])
        assert len(cat.hom("LO1", "LO2")) == 2
        assert len(cat.hom("LO2", "LO1")) == 0

    def test_rigid_singleton(self):
        cat = FiniteCategory.from_structures([linear_order(3)])
        assert cat.hom("LO3", "LO3") == [cat.identity("LO3")]

    def test_p3_endomorphisms(self):
        cat = FiniteCategory.from_structures([path_graph(3)])
        assert len(cat.hom("P3", "P3")) == 2
        assert len(cat.automorphism_ids("P3")) == 2

    @pytest.mark.parametrize("catalog", [
        lo_catalog(5), graph_catalog(4),
        [complete_graph(n) for n in range(1, 6)]], ids=["lo5", "g4", "k5"])
    def test_automorphism_ids_are_the_endomorphisms(self, catalog):
        cat = FiniteCategory.from_structures(catalog)
        for s in catalog:
            a = s.name
            ids = cat.automorphism_ids(a)
            assert ids == oracles.scan_automorphism_ids(cat, a)
            assert sorted(cat.embedding(m).map for m in ids) == (
                oracles.brute_automorphisms(s))

    def test_composition_matches_embeddings(self, lo4):
        for f in lo4.hom("LO2", "LO3"):
            for g in lo4.hom("LO3", "LO4"):
                gf = lo4.compose(g, f)
                ef, eg = lo4.embedding(f), lo4.embedding(g)
                assert lo4.embedding(gf).map == tuple(eg.map[v] for v in ef.map)

    def test_colliding_hom_ids_are_refused(self):
        # hom(x, y->z) and hom(x->y, z) would both be x->y->z#0, x->y->z#1
        catalog = [linear_order(1, name="x"), linear_order(2, name="y->z"),
                   linear_order(1, name="x->y"), linear_order(2, name="z")]
        with pytest.raises(WorkbenchError, match="share the ids x->y->z#k"):
            FiniteCategory.from_structures(catalog)

    @pytest.mark.parametrize("catalog,message", [
        ([linear_order(2), path_graph(3)], "disagree on signature"),
        ([linear_order(2), linear_order(3, name="LO2")], "must be distinct"),
    ], ids=["mixed-signatures", "one-name-twice"])
    def test_catalog_it_cannot_name_is_refused(self, catalog, message):
        with pytest.raises(WorkbenchError, match=message):
            FiniteCategory.from_structures(catalog)

    def test_hom_counts_match_brute_force(self, lo4):
        for a in lo4.objects:
            for b in lo4.objects:
                expected = oracles.brute_embeddings(lo4.structure(a),
                                                    lo4.structure(b))
                assert len(lo4.hom(a, b)) == len(expected)


class TestAxioms:
    def test_embedding_category_all_mono(self, lo4):
        report = check_axioms(lo4)
        assert report.all_mono
        assert report.identity_ok and report.associativity_ok

    def test_lo_directed(self, lo4):
        report = check_axioms(lo4)
        assert report.directed
        assert all(w == "LO4" or lo4.hom(w, "LO4")
                   for w in report.directed_witnesses.values())

    def test_incompatible_graphs_not_directed(self):
        cat = FiniteCategory.from_structures(
            [graph(2, [(0, 1)], name="K2"), empty_graph(2, name="E2")])
        report = check_axioms(cat)
        assert not report.directed
        assert ("K2", "E2") in report.directed_failures

    def test_below_sets_explicit(self, lo4):
        report = check_axioms(lo4)
        assert report.below_sets["LO3"] == ["LO1", "LO2", "LO3"]

    def test_local_finiteness_on_chain_catalog(self):
        cat = FiniteCategory.from_structures(lo_catalog(4))
        report = check_axioms(cat)
        assert set(report.locally_finite.values()) == {"HOLDS"}

    def test_local_finiteness_gap_is_inconclusive(self):
        # without the single edge, the two point-inclusions at the middle of
        # P4 are jointly covered only by incomparable 3-vertex covers, and
        # each is defeated by the other
        from ramsey_workbench.category import locally_finite_verdict
        gap = FiniteCategory.from_structures(
            [empty_graph(1, name="E1"), path_graph(3), path_graph(4)])
        assert locally_finite_verdict(gap, "P4") == "UNKNOWN-AT-BOUND"
        filled = FiniteCategory.from_structures(
            [empty_graph(1, name="E1"), path_graph(2, name="P2"),
             path_graph(3), path_graph(4)])
        assert locally_finite_verdict(filled, "P4") == "HOLDS"

    def test_local_finiteness_on_graph_catalog(self):
        cat = FiniteCategory.from_structures(graph_catalog(3))
        assert {locally_finite_verdict(cat, f) for f in cat.objects} == {"HOLDS"}

    @pytest.mark.parametrize("catalog", [
        graph_catalog(3),
        [empty_graph(1, name="E1"), path_graph(3), path_graph(4)],
    ], ids=["graphs3", "gap"])
    def test_local_finiteness_reads_the_hom_sets_it_looks_up(self, catalog):
        full = FiniteCategory.from_structures(catalog)
        list(full.all_morphisms())
        for f in full.objects:
            fresh = FiniteCategory.from_structures(catalog)
            assert (locally_finite_verdict(fresh, f)
                    == locally_finite_verdict(full, f))


GRAPHS3 = graph_catalog(3)
# E4 and K4 are left out: 24 automorphisms make the oracle slow
RICH_F = [g for g in all_graphs(4) if len(oracles.brute_automorphisms(g)) <= 8]


@given(st.sampled_from(RICH_F),
       st.lists(st.sampled_from(GRAPHS3), min_size=1, max_size=4, unique=True))
def test_local_finiteness_matches_the_definition(f_struct, below):
    catalog = sorted(below, key=GRAPHS3.index) + [f_struct]
    cat = FiniteCategory.from_structures(catalog)
    assert (locally_finite_verdict(cat, f_struct.name)
            == oracles.brute_locally_finite(catalog, f_struct))


@st.composite
def random_tables(draw):
    """A well-typed table on 1-3 objects with random composites.

    hom(a, b) is non-empty for a <= b, or for every pair, so every
    composable pair has somewhere to land.  Identities come first in their
    hom-set and their composites are left to the loader; every other
    composite is drawn from the right hom-set, so most tables are not
    associative."""
    n = draw(st.integers(1, 3))
    full = draw(st.booleans())
    objects = [f"O{i}" for i in range(n)]
    homs = {}
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            if i == j or full or i < j:
                size = draw(st.integers(1, 3 if i == j else 2))
                homs[(a, b)] = [f"m{i}{j}{k}" for k in range(size)]
    identities = {a: homs[(a, a)][0] for a in objects}
    compose = {}
    for (a, b), fs in homs.items():
        for c in objects:
            for g in homs.get((b, c), []):
                for f in fs:
                    if identities[b] not in (f, g):
                        compose[f"{g}∘{f}"] = draw(st.sampled_from(homs[(a, c)]))
    return {"objects": objects,
            "homs": {f"{a}->{b}": fs for (a, b), fs in homs.items()},
            "identities": identities, "compose": compose}


# g sends the two morphisms A -> B to the same composite
NON_MONO = {
    "objects": ["A", "B", "C"],
    "homs": {"A->A": ["idA"], "B->B": ["idB"], "C->C": ["idC"],
             "A->B": ["f1", "f2"], "B->C": ["g"], "A->C": ["h"]},
    "compose": {"g∘f1": "h", "g∘f2": "h"},
    "identities": {"A": "idA", "B": "idB", "C": "idC"},
}


@st.composite
def gappy_tables(draw):
    """A random table with some of its non-identity composites left out."""
    doc = draw(random_tables())
    keys = sorted(doc["compose"])
    dropped = draw(st.sets(st.sampled_from(keys))) if keys else set()
    return dict(doc, compose={k: mid for k, mid in doc["compose"].items()
                              if k not in dropped})


@st.composite
def table_pairs(draw):
    """A random table and a copy that may differ from it in one composite."""
    doc = draw(random_tables())
    hom_of = {mid: mids for mids in doc["homs"].values() for mid in mids}
    keys = sorted(k for k, mid in doc["compose"].items() if len(hom_of[mid]) > 1)
    other = dict(doc["compose"])
    if keys and draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        other[key] = draw(st.sampled_from(
            [mid for mid in hom_of[other[key]] if mid != other[key]]))
    return doc, dict(doc, compose=other)


def lo_table_with_gaps(n: int, every: int) -> dict:
    """``oracles.lo_table(n)`` without every every-th non-identity composite."""
    doc = oracles.lo_table(n)
    ids = set(doc["identities"].values())
    keys = [k for k in doc["compose"] if not ids & set(k.split("∘"))]
    dropped = set(keys[::every])
    return dict(doc, compose={k: mid for k, mid in doc["compose"].items()
                              if k not in dropped})


class TestRowKernel:
    """A table lives on rows: every composite the document gives is what
    compose returns, identities fill the rest of their slots, and a table
    that leaves out any other composite is refused at load."""

    @staticmethod
    def check_against_document(doc):
        """The non-identity composites doc leaves out, read off the document.
        If there are any, the load refuses doc and names one of them."""
        given = {tuple(key.split("∘")): mid for key, mid in doc["compose"].items()}
        ids = set(doc["identities"].values())
        homs = {tuple(key.split("->")): mids for key, mids in doc["homs"].items()}
        omitted = {(g, f) for (a, b), fs in homs.items()
                   for (b2, _), gs in homs.items() if b2 == b
                   for g in gs for f in fs
                   if (g, f) not in given and not ids & {g, f}}
        if omitted:
            with pytest.raises(WorkbenchError, match="table misses") as refused:
                abstract_from_json(doc)
            assert any(f"misses {g!r} . {f!r}" in str(refused.value)
                       for g, f in omitted)
            return omitted
        cat = abstract_from_json(doc)
        for g, f in oracles.composable_pairs(cat):
            assert cat.compose(g, f) == given.get((g, f), g if f in ids else f)
        return omitted

    @pytest.mark.parametrize("doc,gaps", [
        (oracles.lo_table(4), False), (lo_table_with_gaps(4, 7), True)],
        ids=["lo4", "lo4-gaps"])
    def test_lo_table_entries_are_the_composites(self, doc, gaps):
        assert bool(self.check_against_document(doc)) == gaps

    @settings(max_examples=150)
    @given(gappy_tables())
    def test_random_table_entries_are_the_composites(self, doc):
        self.check_against_document(doc)

    @staticmethod
    def check_op(cat):
        o, closure = op(cat), oracles.ClosureOp(cat)
        for a in cat.objects:
            assert o.identity(a) == closure.identity(a)
            for b in cat.objects:
                assert o.hom(a, b) == closure.hom(a, b)
        for g, f in oracles.composable_pairs(closure):
            assert o.compose(g, f) == closure.compose(g, f)
        for mid in cat.all_morphisms():
            assert cat.is_epi(mid) == oracles.scan_is_epi(cat, mid)
            assert o.is_epi(mid) == oracles.scan_is_epi(closure, mid)
        assert tables_equal(op(o), cat)
        assert oracles.scan_tables_equal(op(o), cat)

    @pytest.mark.parametrize("cat", [
        FiniteCategory.from_structures(lo_catalog(4)),
        abstract_from_json(oracles.lo_table(4)),
        abstract_from_json(NON_MONO),
    ], ids=["lo4", "lo4-table", "non-mono"])
    def test_row_op_matches_the_closure_op(self, cat):
        self.check_op(cat)

    @settings(max_examples=100)
    @given(table_pairs())
    def test_row_tables_equal_matches_the_pair_scan(self, docs):
        c1, c2 = map(abstract_from_json, docs)
        self.check_op(c1)
        same = docs[0] == docs[1]
        assert tables_equal(c1, c2) == oracles.scan_tables_equal(c1, c2) == same
        assert (tables_equal(op(c1), op(c2))
                == oracles.scan_tables_equal(oracles.ClosureOp(c1),
                                             oracles.ClosureOp(c2)) == same)

    def test_one_changed_composite_is_seen(self):
        doc = oracles.lo_table(4)
        changed = dict(doc["compose"], **{"LO3->LO4#1∘LO2->LO3#0": "LO2->LO4#5"})
        assert doc["compose"]["LO3->LO4#1∘LO2->LO3#0"] != "LO2->LO4#5"
        c1, c2 = abstract_from_json(doc), abstract_from_json(dict(doc, compose=changed))
        assert not tables_equal(c1, c2)
        assert not oracles.scan_tables_equal(c1, c2)
        assert not tables_equal(op(c1), op(c2))
        assert not oracles.scan_tables_equal(op(c1), op(c2))

    @pytest.mark.parametrize("doc,other", [
        (oracles.lo_table(3), oracles.lo_table(4)),
        # one monoid {1, z} with z.z = z, its identity read as 1 or as z
        (IDEMPOTENT, dict(IDEMPOTENT, identities={"G": "z"},
                          compose={"1∘1": "1"})),
        (Z3, oracles.one_object_table(["e", "b", "a"], Z3["compose"])),
    ], ids=["objects", "identities", "hom-sets"])
    def test_tables_apart_before_their_rows_are_unequal(self, doc, other):
        c1, c2 = abstract_from_json(doc), abstract_from_json(other)
        assert not tables_equal(c1, c2) and not tables_equal(c2, c1)
        assert not oracles.scan_tables_equal(c1, c2)

    def test_op_of_a_table_with_a_gap_raises(self):
        # the load refuses the table, so op never meets a missing composite
        with pytest.raises(WorkbenchError, match="table misses"):
            op(abstract_from_json(lo_table_with_gaps(3, 1)))

    # t.t = iC, and t sends u and v to v; the one triple that breaks is
    # (u, t, t): t.(t.u) = v but (t.t).u = u.  It starts at B, the second
    # object, so its rows sit past the offset of hom(A, C).
    OFFSET_TABLE = {
        "objects": ["A", "B", "C"],
        "homs": {"A->A": ["iA"], "B->B": ["iB"], "C->C": ["iC", "t"],
                 "A->B": ["ab"], "A->C": ["ac"], "B->C": ["u", "v"]},
        "identities": {"A": "iA", "B": "iB", "C": "iC"},
        "compose": {"u∘ab": "ac", "v∘ab": "ac", "t∘ac": "ac", "t∘t": "iC",
                    "t∘u": "v", "t∘v": "v"},
    }

    @pytest.mark.parametrize("t_v,associative", [("v", False), ("u", True)],
                             ids=["breaks-at-B", "group-action"])
    def test_flat_offsets_past_the_first_object(self, t_v, associative):
        doc = dict(self.OFFSET_TABLE,
                   compose=dict(self.OFFSET_TABLE["compose"], **{"t∘v": t_v}))
        cat = abstract_from_json(doc)
        assert oracles.brute_associative(cat) == associative
        report = check_axioms(cat)
        assert report.associativity_ok == associative
        assert report.identity_ok and report.all_mono == associative

    @pytest.mark.parametrize("compose", [{"f∘a": "g"}, {"b∘f": "g"}],
                             ids=["right-unit", "left-unit"])
    def test_identity_law_read_from_rows(self, compose):
        cat = abstract_from_json({
            "objects": ["A", "B"],
            "homs": {"A->A": ["a"], "B->B": ["b"], "A->B": ["f", "g"]},
            "identities": {"A": "a", "B": "b"}, "compose": compose})
        assert not check_axioms(cat).identity_ok


class TestColumns:
    """A table's ``pre`` reads a cached transpose of its rows; the composite
    of each s in hom(target v, d) with v is the definition."""

    @staticmethod
    def check_pre(cat):
        empty = 0
        for v in cat.all_morphisms():
            for d in cat.objects:
                pool = cat.hom(cat.target(v), d)
                assert cat.pre(v, d) == tuple(
                    cat.position(cat.compose(s, v)) for s in pool)
                empty += not pool
        return empty

    @settings(max_examples=100)
    @given(random_tables())
    def test_random_tables_and_their_op(self, doc):
        cat = abstract_from_json(doc)
        self.check_pre(cat)
        self.check_pre(op(cat))

    @pytest.mark.parametrize("doc", [Z3, IDEMPOTENT, NON_ASSOCIATIVE,
                                     oracles.one_object_table(["e"], {})],
                             ids=["z3", "idempotent", "non-assoc", "trivial"])
    def test_one_object_tables(self, doc):
        # in the trivial table every flat row in check_axioms has length 1
        cat = abstract_from_json(doc)
        self.check_pre(cat)
        self.check_pre(op(cat))
        assert (check_axioms(cat).associativity_ok
                == oracles.brute_associative(cat))

    def test_empty_pools_read_as_empty(self):
        cat = abstract_from_json(NON_MONO)
        assert self.check_pre(cat) > 0 and self.check_pre(op(cat)) > 0
        assert cat.pre("g", "A") == ()


class TestAssociativityOracle:
    """Associativity by rows of post-composition against the triple scan."""

    @settings(max_examples=150)
    @given(random_tables())
    def test_random_tables_match_the_triple_scan(self, doc):
        cat = abstract_from_json(doc)
        report = check_axioms(cat)
        assert report.associativity_ok == oracles.brute_associative(cat)
        assert report.mono_failures == [w for w in cat.all_morphisms()
                                        if not cat.is_mono(w)]

    @pytest.mark.parametrize("cat", [
        FiniteCategory.from_structures(lo_catalog(4)),
        FiniteCategory.from_structures(graph_catalog(3)),
        op(FiniteCategory.from_structures(lo_catalog(3))),
    ], ids=["lo4", "g3", "op-lo3"])
    def test_catalog_categories_are_associative(self, cat):
        assert oracles.brute_associative(cat)
        assert check_axioms(cat).associativity_ok


CHAINS = lo_catalog(6)
GRAPHS = graph_catalog(4)


@st.composite
def read_orders(draw):
    """A sub-catalog of the chains up to LO6 or the graphs on at most 4
    vertices, and its hom-sets in a random read order."""
    pool = draw(st.sampled_from([CHAINS, GRAPHS]))
    catalog = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5,
                            unique=True))
    catalog.sort(key=pool.index)
    names = [s.name for s in catalog]
    order = draw(st.permutations([(a, b) for a in names for b in names]))
    return catalog, order


class TestReadOnDemand:
    @given(read_orders())
    def test_any_read_order_gives_the_catalog_order_category(self, question):
        catalog, order = question
        ordered = FiniteCategory.from_structures(catalog)
        homs = {(a, b): ordered.hom(a, b)
                for a in ordered.objects for b in ordered.objects}
        lazy = FiniteCategory.from_structures(catalog)
        read = []
        for a, b in order:
            assert lazy.identity(b) == ordered.identity(b)
            assert lazy.hom(a, b) == homs[(a, b)]
            # composites may land in a hom-set not read yet
            for x, y in read:
                if y == a:
                    for f in lazy.hom(x, a):
                        for g in lazy.hom(a, b):
                            assert lazy.compose(g, f) == ordered.compose(g, f)
            read.append((a, b))
        for g, f in oracles.composable_pairs(ordered):
            assert lazy.compose(g, f) == ordered.compose(g, f)
        for (a, b), mids in homs.items():
            embs = enumerate_embeddings(lazy.structure(a), lazy.structure(b))
            assert [lazy.embedding(m).map for m in mids] == [e.map for e in embs]
            assert mids == [f"{a}->{b}#{k}" for k in range(len(mids))]

    def test_outside_id_reads_its_hom_set(self):
        cat = FiniteCategory.from_structures(lo_catalog(4))
        assert cat.compose("LO3->LO4#3", "LO2->LO3#2") == "LO2->LO4#5"
        assert cat.target("LO1->LO2#1") == "LO2"
        with pytest.raises(KeyError):
            cat.morphism("LO4->LO1#0")

    @pytest.fixture
    def reads(self, monkeypatch):
        from ramsey_workbench import category

        reads = []
        real = category.enumerate_embeddings
        monkeypatch.setattr(category, "enumerate_embeddings",
                            lambda a, b: reads.append((a.name, b.name))
                            or real(a, b))
        return reads

    def test_outside_id_reads_only_the_hom_set_it_names(self, reads):
        cat = FiniteCategory.from_structures(lo_catalog(7))
        m = cat.morphism("LO3->LO7#2")
        assert (m.src, m.tgt, m.emb.map) == ("LO3", "LO7", (0, 1, 4))
        assert reads == [("LO3", "LO7")]

    @pytest.mark.parametrize("mid,read", [
        ("LO3->LO7#99", [("LO3", "LO7")]), ("LO3->LO7#x", [("LO3", "LO7")]),
        ("LO9->LO7#0", []), ("LO3->LO7", []), ("LO3#0", []), ("#0", [])])
    def test_id_outside_every_hom_set_raises(self, reads, mid, read):
        cat = FiniteCategory.from_structures(lo_catalog(7))
        with pytest.raises(KeyError):
            cat.morphism(mid)
        assert reads == read

    def test_names_holding_arrows_and_hashes(self, reads):
        # "a->b->c#0" splits two ways; only a->b, c names two objects
        catalog = [linear_order(1, name="a->b"), linear_order(2, name="c"),
                   linear_order(2, name="b#1")]
        cat = FiniteCategory.from_structures(catalog)
        assert cat.target("a->b->c#1") == "c"
        assert cat.embedding("a->b->b#1#0").map == (0,)
        assert cat.source("c->b#1#0") == "c"
        assert reads == [("a->b", "c"), ("a->b", "b#1"), ("c", "b#1")]
        with pytest.raises(KeyError):
            cat.morphism("a->b->c#2")

    def test_unknown_object_has_empty_hom_sets(self):
        cat = FiniteCategory.from_structures(lo_catalog(2))
        assert cat.hom("LO2", "LO99") == []
        assert cat.hom("LO99", "LO99") == []


class TestPositionsAndRows:
    """position(mid) is the index of mid in its hom-set, and post(w, a)
    lists the position of w.f for each f in hom(a, source w)."""

    @pytest.mark.parametrize("cat", [
        FiniteCategory.from_structures(lo_catalog(4)),
        FiniteCategory.from_structures(graph_catalog(3)),
        op(FiniteCategory.from_structures(lo_catalog(3))),
        abstract_from_json({"objects": ["A", "B"],
                            "homs": {"A->A": ["a"], "B->B": ["b", "t"],
                                     "A->B": ["f", "g"]},
                            "identities": {"A": "a", "B": "b"},
                            "compose": {"t∘t": "b", "t∘f": "g", "t∘g": "f"}}),
    ], ids=["lo4", "g3", "op-lo3", "table"])
    def test_rows_index_the_composites(self, cat):
        for w in cat.all_morphisms():
            assert cat.hom(cat.source(w), cat.target(w))[cat.position(w)] == w
            for a in cat.objects:
                into = cat.hom(a, cat.target(w))
                assert cat.post(w, a) == tuple(
                    into.index(cat.compose(w, f))
                    for f in cat.hom(a, cat.source(w)))

    def test_structure_position_is_the_id_suffix(self):
        cat = FiniteCategory.from_structures(graph_catalog(3))
        for mid in cat.all_morphisms():
            assert cat.position(mid) == int(mid.rpartition("#")[2])

    def test_post_reads_two_hom_sets(self, monkeypatch):
        from ramsey_workbench import category

        cat = FiniteCategory.from_structures(lo_catalog(4))
        w = cat.hom("LO2", "LO3")[1]
        calls = []
        real = category.enumerate_embeddings
        monkeypatch.setattr(category, "enumerate_embeddings",
                            lambda a, b: calls.append((a.name, b.name))
                            or real(a, b))
        assert cat.post(w, "LO1") == (0, 2)
        assert sorted(calls) == [("LO1", "LO2"), ("LO1", "LO3")]


class TestValidateOnce:
    def test_checkers_make_no_further_validations(self, monkeypatch):
        from ramsey_workbench.amalgam import wap_check

        calls = []
        validate = Embedding.__post_init__

        def counting(self):
            calls.append(self.map)
            validate(self)

        monkeypatch.setattr(Embedding, "__post_init__", counting)
        cat = FiniteCategory.from_structures(lo_catalog(6))
        list(cat.all_morphisms())
        assert calls   # reading the hom-sets validates what it enumerates
        calls.clear()
        report = check_axioms(cat)
        assert report.all_mono and set(report.locally_finite.values()) == {"HOLDS"}
        assert wap_check(cat).status == "HOLDS"
        assert calls == []


class TestOp:
    def test_involution(self, lo4):
        assert tables_equal(op(op(lo4)), lo4)

    def test_hom_reversal(self, lo4):
        o = op(lo4)
        assert o.hom("LO3", "LO2") == lo4.hom("LO2", "LO3")
        assert o.hom("LO2", "LO3") == []

    def test_op_is_a_pure_table(self, lo4):
        """No embedding survives dualizing: one would point against its
        morphism, from LO3 into LO2."""
        o = op(lo4)
        assert o.source("LO2->LO3#0") == "LO3" and not o.structures
        with pytest.raises(WorkbenchError, match="carries no embedding"):
            o.embedding("LO2->LO3#0")

    def test_mono_epi_swap(self, lo4):
        o = op(lo4)
        for mid in lo4.all_morphisms():
            assert lo4.is_mono(mid) == o.is_epi(mid)
            assert lo4.is_epi(mid) == o.is_mono(mid)

    def test_non_mono_swaps_to_non_epi(self):
        cat = abstract_from_json(NON_MONO)
        o = op(cat)
        assert not cat.is_mono("g") and not o.is_epi("g")
        assert cat.is_epi("g") and o.is_mono("g")
        for mid in cat.all_morphisms():
            assert cat.is_mono(mid) == o.is_epi(mid)
            assert cat.is_epi(mid) == o.is_mono(mid)

    def test_directedness_dualizes(self):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        rep = check_axioms(op(cat))
        # dually directed: common source instead of common target
        assert rep.directed


class TestTableAutomorphisms:
    """On a table, automorphism_ids reads the rows post(f, a) and pre(f, a)
    for one position holding id_a; the compose scan is the definition."""

    @pytest.mark.parametrize("doc,expected", [
        (Z3, ["e", "a", "b"]), (IDEMPOTENT, ["1"]),
        (NON_ASSOCIATIVE, ["1", "w"])], ids=["z3", "idempotent", "non-assoc"])
    def test_one_object_tables(self, doc, expected):
        cat = abstract_from_json(doc)
        assert cat.automorphism_ids("G") == expected
        assert oracles.scan_automorphism_ids(cat, "G") == expected

    def test_the_non_associative_table_is_one(self):
        assert not oracles.brute_associative(abstract_from_json(NON_ASSOCIATIVE))

    @pytest.mark.parametrize("build", [
        lambda: abstract_from_json(oracles.lo_table(5)),
        lambda: op(abstract_from_json(oracles.lo_table(5))),
        lambda: abstract_from_json(oracles.table_dump(
            FiniteCategory.from_structures(graph_catalog(3)))),
        lambda: op(abstract_from_json(oracles.table_dump(
            FiniteCategory.from_structures(graph_catalog(3))))),
    ], ids=["lo5t", "op-lo5t", "g3t", "op-g3t"])
    def test_rows_agree_with_the_compose_scan(self, build):
        cat = build()
        for a in cat.objects:
            assert cat.automorphism_ids(a) == oracles.scan_automorphism_ids(cat, a)


class TestSkeletonize:
    def test_duplicate_copies_collapse(self):
        twin = linear_order(2).relabel((1, 0), name="LO2x")
        cat = FiniteCategory.from_structures(
            [linear_order(2), twin, linear_order(3)])
        skel = skeletonize(cat)
        assert skel.representatives["LO2x"] == "LO2"
        assert skel.representatives["LO2"] == "LO2"
        assert set(skel.representatives.values()) == {"LO2", "LO3"}
        eta = skel.canon_iso["LO2x"]
        assert eta.source == cat.structure("LO2x")
        assert eta.target == cat.structure("LO2")

    def test_already_skeletal(self, lo4):
        skel = skeletonize(lo4)
        assert all(e.is_identity for e in skel.canon_iso.values())

    def test_empty_catalog(self):
        skel = skeletonize(FiniteCategory.from_structures([]))
        assert skel.representatives == {}

    def test_missing_structures_raise(self):
        doc = {
            "objects": ["A"],
            "homs": {"A->A": ["idA"]},
            "compose": {},
            "identities": {"A": "idA"},
        }
        cat = abstract_from_json(doc)
        with pytest.raises(MissingIsoData):
            skeletonize(cat)

    def test_eta_conjugation_preserves_hom_counts(self):
        twin = path_graph(3).relabel((2, 0, 1), name="P3x")
        cat = FiniteCategory.from_structures(
            [path_graph(2, name="P2"), path_graph(3), twin])
        skel = skeletonize(cat)
        for a in cat.objects:
            for b in cat.objects:
                ra, rb = skel.representatives[a], skel.representatives[b]
                assert len(cat.hom(a, b)) == len(cat.hom(ra, rb))


class TestAbstractCategories:
    V_POSET = {
        "objects": ["A", "B", "C"],
        "homs": {
            "A->A": ["idA"], "B->B": ["idB"], "C->C": ["idC"],
            "A->B": ["ab"], "A->C": ["ac"],
        },
        "compose": {},
        "identities": {"A": "idA", "B": "idB", "C": "idC"},
    }

    def test_load_and_compose(self):
        cat = abstract_from_json(self.V_POSET)
        assert cat.compose("ab", "idA") == "ab"
        assert cat.compose("idB", "ab") == "ab"

    def test_not_directed(self):
        cat = abstract_from_json(self.V_POSET)
        report = check_axioms(cat)
        assert not report.directed

    def test_bad_hom_key_rejected(self):
        with pytest.raises(WorkbenchError):
            abstract_from_json({"objects": ["A"], "homs": {"A": ["x"]},
                                "identities": {"A": "x"}})
