import pytest

from ramsey_workbench.catalogs import (complete_graph, empty_graph, graph,
                                       linear_order, lo_catalog, path_graph)
from ramsey_workbench.category import (FiniteCategory, abstract_from_json,
                                       check_axioms, op, skeletonize,
                                       tables_equal)
from ramsey_workbench.errors import MissingIsoData, WorkbenchError
from ramsey_workbench.structures import Embedding

import oracles


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

    def test_composition_matches_embeddings(self, lo4):
        for f in lo4.hom("LO2", "LO3"):
            for g in lo4.hom("LO3", "LO4"):
                gf = lo4.compose(g, f)
                ef, eg = lo4.embedding(f), lo4.embedding(g)
                assert lo4.embedding(gf).map == tuple(eg.map[v] for v in ef.map)

    def test_hom_counts_match_brute_force(self, lo4):
        for a in lo4.objects:
            for b in lo4.objects:
                expected = oracles.brute_embeddings(lo4.structure(a),
                                                    lo4.structure(b))
                assert len(lo4.hom(a, b)) == len(expected)


class TestAxioms:
    def test_embedding_category_all_mono(self, lo4):
        report = check_axioms(lo4, include_local_finiteness=False)
        assert report.all_mono
        assert report.identity_ok and report.associativity_ok

    def test_lo_directed(self, lo4):
        report = check_axioms(lo4, include_local_finiteness=False)
        assert report.directed
        assert all(w == "LO4" or lo4.hom(w, "LO4")
                   for w in report.directed_witnesses.values())

    def test_incompatible_graphs_not_directed(self):
        cat = FiniteCategory.from_structures(
            [graph(2, [(0, 1)], name="K2"), empty_graph(2, name="E2")])
        report = check_axioms(cat, include_local_finiteness=False)
        assert not report.directed
        assert ("K2", "E2") in report.directed_failures

    def test_below_sets_explicit(self, lo4):
        report = check_axioms(lo4, include_local_finiteness=False)
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
        assert calls   # the build validates what it enumerates
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

    def test_mono_epi_swap(self, lo4):
        o = op(lo4)
        for mid in lo4.all_morphisms():
            assert lo4.is_mono(mid) == o.is_epi(mid)
            assert lo4.is_epi(mid) == o.is_mono(mid)

    def test_directedness_dualizes(self):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        rep = check_axioms(op(cat), include_local_finiteness=False)
        # dually directed: common source instead of common target
        assert rep.directed


class TestSkeletonize:
    def test_duplicate_copies_collapse(self):
        twin = linear_order(2).relabel((1, 0), name="LO2x")
        cat = FiniteCategory.from_structures(
            [linear_order(2), twin, linear_order(3)])
        skel = skeletonize(cat)
        assert skel.representatives["LO2x"] == "LO2"
        assert skel.representatives["LO2"] == "LO2"
        assert set(skel.representative_objects) == {"LO2", "LO3"}
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
        report = check_axioms(cat, include_local_finiteness=False)
        assert not report.directed

    def test_bad_hom_key_rejected(self):
        with pytest.raises(WorkbenchError):
            abstract_from_json({"objects": ["A"], "homs": {"A": ["x"]},
                                "identities": {"A": "x"}})
