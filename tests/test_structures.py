import itertools

import pytest
from hypothesis import given, strategies as st

from ramsey_workbench.catalogs import (GRAPH_SIGNATURE, empty_graph, graph,
                                       graph_catalog, linear_order, lo_catalog,
                                       path_graph)
from ramsey_workbench.category import FiniteCategory
from ramsey_workbench.errors import SignatureMismatch, WorkbenchError
from ramsey_workbench.structures import (Embedding, Signature, Structure,
                                         automorphisms, canonical_form,
                                         canonical_key, compose,
                                         enumerate_embeddings, identity,
                                         isomorphic, refinement_partition)

import oracles


def small_graphs(max_n=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if draw(st.booleans())]
        return graph(n, edges)

    return build()


class TestSignatureAndStructure:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(WorkbenchError):
            Signature(relations=(("r", 2), ("r", 1)))
        with pytest.raises(WorkbenchError):
            Signature(relations=(("r", 2),), constants=("r",))

    def test_nonpositive_arity_rejected(self):
        with pytest.raises(WorkbenchError):
            Signature(relations=(("r", 0),))

    def test_out_of_range_tuple_rejected(self):
        with pytest.raises(WorkbenchError):
            Structure.make(GRAPH_SIGNATURE, 2, {"edge": {(0, 5)}})

    def test_constants_total(self):
        sig = Signature(relations=(("r", 1),), constants=("c",))
        s = Structure.make(sig, 2, {"r": {(0,)}}, {"c": 1})
        assert s.constant("c") == 1
        with pytest.raises(KeyError):
            Structure.make(sig, 2, {"r": set()}, {})

    def test_name_is_metadata(self):
        a = linear_order(3, name="x")
        b = linear_order(3, name="y")
        assert a == b


class TestEnumerateEmbeddings:
    def test_lo2_into_lo4_has_six(self):
        embs = enumerate_embeddings(linear_order(2), linear_order(4))
        assert len(embs) == 6
        assert [e.map for e in embs] == oracles.brute_embeddings(
            linear_order(2), linear_order(4))

    def test_contains_identity(self):
        for s in [linear_order(3), path_graph(3)]:
            assert any(e.is_identity for e in enumerate_embeddings(s, s))

    def test_edge_into_empty_graph_is_empty(self):
        assert enumerate_embeddings(graph(2, [(0, 1)]), empty_graph(3)) == []

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            enumerate_embeddings(linear_order(2), path_graph(3))

    def test_lexicographic_order(self):
        embs = enumerate_embeddings(linear_order(2), linear_order(4))
        maps = [e.map for e in embs]
        assert maps == sorted(maps)

    @given(small_graphs(), small_graphs())
    def test_matches_brute_force(self, a, b):
        got = [e.map for e in enumerate_embeddings(a, b)]
        assert got == oracles.brute_embeddings(a, b)

    def test_constants_pin_images(self):
        sig = Signature(relations=(("lt", 2),), constants=("bottom",))
        a = Structure.make(sig, 1, {}, {"bottom": 0})
        table = {(i, j) for i in range(3) for j in range(3) if i < j}
        b = Structure.make(sig, 3, {"lt": table}, {"bottom": 0})
        embs = enumerate_embeddings(a, b)
        assert [e.map for e in embs] == [(0,)]


class TestAutomorphisms:
    def test_lo3_rigid(self):
        assert [e.map for e in automorphisms(linear_order(3))] == [(0, 1, 2)]

    def test_p3_has_two(self):
        auts = automorphisms(path_graph(3))
        assert len(auts) == 2
        assert [e.map for e in auts] == oracles.brute_automorphisms(path_graph(3))

    def test_single_point(self):
        assert len(automorphisms(empty_graph(1))) == 1

    @given(small_graphs())
    def test_group_closure(self, g):
        auts = automorphisms(g)
        maps = {e.map for e in auts}
        for e in auts:
            assert e.inverse().map in maps
            for f in auts:
                assert compose(e, f).map in maps

    def test_subset_of_endomorphisms(self):
        g = path_graph(4)
        endos = {e.map for e in enumerate_embeddings(g, g)}
        assert {e.map for e in automorphisms(g)} <= endos
        assert len(endos) >= 1


class TestEmbeddingAlgebra:
    def test_composition_is_embedding(self):
        e = enumerate_embeddings(linear_order(2), linear_order(3))[1]
        f = enumerate_embeddings(linear_order(3), linear_order(5))[2]
        g = compose(f, e)
        assert g.source == linear_order(2) and g.target == linear_order(5)

    def test_identity_unit(self):
        e = enumerate_embeddings(linear_order(2), linear_order(4))[3]
        assert compose(e, identity(e.source)).map == e.map
        assert compose(identity(e.target), e).map == e.map

    def test_invalid_embedding_rejected(self):
        with pytest.raises(WorkbenchError):
            Embedding(linear_order(2), linear_order(3), (1, 0))
        with pytest.raises(WorkbenchError):
            Embedding(linear_order(2), linear_order(3), (0, 0))


class TestComposeDifferential:
    """Unchecked composites against the validating constructor."""

    @pytest.fixture(scope="class", params=["lo5", "graphs3"])
    def cat(self, request):
        catalog = lo_catalog(5) if request.param == "lo5" else graph_catalog(3)
        return FiniteCategory.from_structures(catalog)

    def test_composites_match_validated_embeddings(self, cat):
        pairs = 0
        for g, f in cat.composable_pairs():
            ef, eg = cat.embedding(f), cat.embedding(g)
            oracle = Embedding(ef.source, eg.target,
                               tuple(eg.map[v] for v in ef.map))
            assert compose(eg, ef) == oracle
            by_scan = [m for m in cat.hom(cat.source(f), cat.target(g))
                       if cat.embedding(m) == oracle]
            assert [cat.compose(g, f)] == by_scan
            pairs += 1
        assert pairs > 0

    def test_non_composable_pairs_raise(self, cat):
        mids = list(cat.all_morphisms())
        for g in mids:
            for f in mids:
                if cat.target(f) == cat.source(g):
                    continue
                with pytest.raises(WorkbenchError):
                    compose(cat.embedding(g), cat.embedding(f))
                with pytest.raises(WorkbenchError):
                    cat.compose(g, f)


class TestCanonicalForm:
    def test_relabelings_of_p3_agree(self):
        variants = [
            graph(3, [(0, 1), (1, 2)]),
            graph(3, [(0, 2), (2, 1)]),
            graph(3, [(1, 0), (0, 2)]),
        ]
        canons = {canonical_form(v)[0] for v in variants}
        assert len(canons) == 1
        assert canons.pop() == oracles.brute_min_relabeling(variants[0])

    def test_already_canonical_gets_identity_witness(self):
        canon, _ = canonical_form(path_graph(3))
        canon2, iso = canonical_form(canon)
        assert canon2 == canon
        assert iso.is_identity

    def test_reversed_chain_matches(self):
        rev = Structure.make(
            linear_order(3).signature, 3,
            {"lt": {(j, i) for i in range(3) for j in range(3) if i < j}})
        assert canonical_form(rev)[0] == canonical_form(linear_order(3))[0]

    def test_witness_is_isomorphism(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3)])
        canon, iso = canonical_form(g)
        assert iso.source == g and iso.target == canon
        assert iso.is_bijective()

    @given(small_graphs())
    def test_matches_permutation_oracle(self, g):
        assert canonical_form(g)[0] == oracles.brute_min_relabeling(g)

    @given(small_graphs())
    def test_idempotent(self, g):
        canon, _ = canonical_form(g)
        again, iso = canonical_form(canon)
        assert again == canon and iso.is_identity

    def test_distinguishes_non_isomorphic(self):
        a = graph(4, [(0, 1), (1, 2), (2, 3)])
        b = graph(4, [(0, 1), (1, 2), (2, 0)])
        assert canonical_form(a)[0] != canonical_form(b)[0]
        assert not isomorphic(a, b)

    def test_constants_break_symmetry(self):
        sig = Signature(relations=(("edge", 2),), constants=("root",))

        def star(center, leaves, root):
            table = set()
            for v in leaves:
                table |= {(center, v), (v, center)}
            return Structure.make(sig, 3, {"edge": table}, {"root": root})

        a = star(1, [0, 2], root=1)
        b = star(0, [1, 2], root=0)
        c = star(0, [1, 2], root=1)
        assert canonical_form(a)[0] == canonical_form(b)[0]
        assert canonical_form(a)[0] != canonical_form(c)[0]


class TestIsomorphismInvariance:
    @given(small_graphs(), st.permutations(range(4)))
    def test_embedding_counts_invariant(self, g, perm):
        perm = tuple(perm[: g.size]) if len(perm) >= g.size else None
        if perm is None or sorted(perm) != list(range(g.size)):
            return
        h = g.relabel(perm)
        a = path_graph(2 if g.size < 3 else 3)
        assert len(enumerate_embeddings(a, g)) == len(enumerate_embeddings(a, h))

    def test_refinement_partition_invariant(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3)])
        h = g.relabel((3, 1, 0, 2))
        assert sorted(refinement_partition(g)) == sorted(refinement_partition(h))

    def test_canonical_key_orders_sparse_first(self):
        assert canonical_key(path_graph(3)) < canonical_key(
            graph(3, [(0, 1), (1, 2), (0, 2)]))
