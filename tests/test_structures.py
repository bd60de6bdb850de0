import functools
import hashlib
import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from ramsey_workbench import catalogs
from ramsey_workbench.catalogs import (GRAPH_SIGNATURE, _certificate,
                                       all_graphs, complete_graph,
                                       empty_graph, graph,
                                       graph_catalog, linear_order, lo_catalog,
                                       path_graph, save_catalog)
from ramsey_workbench.category import FiniteCategory
from ramsey_workbench.errors import SignatureMismatch, WorkbenchError
from ramsey_workbench.structures import (Embedding, Signature, Structure,
                                         _candidates, automorphisms,
                                         canonical_form, canonical_key,
                                         compose, enumerate_embeddings,
                                         identity, refinement_partition)

import oracles


def small_graphs(max_n=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if draw(st.booleans())]
        return graph(n, edges)

    return build()


MIXED_SIGNATURE = Signature(relations=(("r", 2), ("t", 3)), constants=("c",))


@st.composite
def mixed_structures(draw, max_n=6):
    """A binary and a ternary relation, sparse or co-sparse, and a constant."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    elt = st.integers(min_value=0, max_value=n - 1)
    tables = {}
    for name, arity in MIXED_SIGNATURE.relations:
        table = draw(st.sets(st.tuples(*[elt] * arity), max_size=8))
        if draw(st.booleans()):
            table = set(itertools.product(range(n), repeat=arity)) - table
        tables[name] = table
    return Structure.make(MIXED_SIGNATURE, n, tables, {"c": draw(elt)})


@st.composite
def planted_pairs(draw, max_n=5):
    """(a, b) with a the sub-structure of b induced on a drawn subset, listed
    in a drawn order, so that at least one embedding of a into b exists."""
    b = draw(mixed_structures(max_n))
    keep = {b.constant("c")} | draw(st.sets(st.integers(0, b.size - 1)))
    order = draw(st.permutations(sorted(keep)))
    pos = {v: i for i, v in enumerate(order)}
    tables = {name: {tuple(pos[v] for v in t) for t in table
                     if all(v in pos for v in t)}
              for name, table in b.relations}
    return Structure.make(MIXED_SIGNATURE, len(order), tables,
                          {"c": pos[b.constant("c")]}), b


UNARY_SIGNATURE = Signature(relations=(("red", 1), ("blue", 1)))


@st.composite
def unary_structures(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    colored = st.sets(st.integers(0, n - 1)).map(lambda vs: {(v,) for v in vs})
    return Structure.make(UNARY_SIGNATURE, n,
                          {"red": draw(colored), "blue": draw(colored)})


@st.composite
def graph_pairs(draw, max_n=6):
    """A graph and a relabeled copy, with one vertex pair toggled or not."""
    g = draw(small_graphs(max_n))
    perm = draw(st.permutations(range(g.size)))
    edges = {frozenset((perm[u], perm[v])) for u, v in g.rel("edge")}
    if g.size >= 2 and draw(st.booleans()):
        pair = draw(st.sampled_from(list(itertools.combinations(range(g.size), 2))))
        edges ^= {frozenset(pair)}
    return g, graph(g.size, [tuple(e) for e in edges])


def to_networkx(g: Structure) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.size))
    out.add_edges_from(g.rel("edge"))
    return out


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

    @given(mixed_structures(max_n=4), mixed_structures(max_n=5))
    def test_matches_brute_force_on_mixed_structures(self, a, b):
        got = [e.map for e in enumerate_embeddings(a, b)]
        assert got == oracles.brute_embeddings(a, b)

    @given(planted_pairs())
    def test_matches_brute_force_on_planted_pairs(self, pair):
        a, b = pair
        got = [e.map for e in enumerate_embeddings(a, b)]
        assert got and got == oracles.brute_embeddings(a, b)

    @given(unary_structures(), unary_structures())
    def test_matches_brute_force_on_unary_relations(self, a, b):
        got = [e.map for e in enumerate_embeddings(a, b)]
        assert got == oracles.brute_embeddings(a, b)

    def test_matches_brute_force_on_chains(self):
        for m in range(1, 8):
            for n in range(1, m + 1):
                a, b = linear_order(n), linear_order(m)
                got = [e.map for e in enumerate_embeddings(a, b)]
                assert got == oracles.brute_embeddings(a, b), (n, m)
                assert len(got) == math.comb(m, n)


class TestCandidateFilter:
    """The static candidate lists of `enumerate_embeddings`: sound on every
    drawn pair, and exact on chains."""

    @given(planted_pairs())
    def test_images_dominate_in_profile(self, pair):
        a, b = pair
        pa, pb, cands = a.degree_profile, b.degree_profile, _candidates(a, b)
        for f in oracles.brute_embeddings(a, b):
            for x, y in enumerate(f):
                assert all(u <= v for u, v in zip(pa[x], pb[y])), (f, x)
                assert y in cands[x]

    @given(small_graphs(5), small_graphs(5))
    def test_graph_images_are_candidates(self, a, b):
        cands = _candidates(a, b)
        for f in oracles.brute_embeddings(a, b):
            assert all(y in cands[x] for x, y in enumerate(f))

    def test_chains_keep_exactly_the_reachable_levels(self):
        for m in range(1, 13):
            for n in range(1, m + 1):
                assert _candidates(linear_order(n), linear_order(m)) == [
                    list(range(x, x + m - n + 1)) for x in range(n)], (n, m)
        assert all(len(c) == 1 for c in
                   _candidates(linear_order(12), linear_order(12)))

    def test_constants_pin_their_element(self):
        sig = Signature(relations=(("r", 1),), constants=("c", "d"))
        b = Structure.make(sig, 3, {}, {"c": 0, "d": 2})
        assert _candidates(b, b) == [[0], [1], [2]]
        # c and d name one element of a but two of b: nothing embeds
        a = Structure.make(sig, 1, {}, {"c": 0, "d": 0})
        assert _candidates(a, b) == [[]]
        assert enumerate_embeddings(a, b) == []


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


VALIDATION_SIGNATURE = Signature(
    relations=(("u", 1), ("r", 2), ("t", 3)), constants=("c",))


@st.composite
def validation_maps(draw, max_n=6):
    """(a, b, map): a is the sub-structure of b induced on a drawn list of
    elements, the planted embedding, then perhaps with tuples of a toggled,
    and perhaps another map of the same length, not always injective.  The
    list is often shorter than b, so images miss part of the target."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    elt = st.integers(min_value=0, max_value=n - 1)
    b = Structure.make(VALIDATION_SIGNATURE, n, {
        name: draw(st.sets(st.tuples(*[elt] * arity), max_size=10))
        for name, arity in VALIDATION_SIGNATURE.relations}, {"c": draw(elt)})
    order = draw(st.lists(elt, min_size=1, max_size=n, unique=True))
    pos = {v: i for i, v in enumerate(order)}
    tables = {}
    for name, arity in VALIDATION_SIGNATURE.relations:
        table = {tuple(pos[v] for v in t) for t in b.rel(name)
                 if all(v in pos for v in t)}
        inner = st.integers(0, len(order) - 1)
        tables[name] = table ^ draw(st.sets(st.tuples(*[inner] * arity),
                                            max_size=1))
    const = pos.get(b.constant("c"), draw(st.integers(0, len(order) - 1)))
    a = Structure.make(VALIDATION_SIGNATURE, len(order), tables, {"c": const})
    mapping = draw(st.one_of(st.just(tuple(order)),
                             st.lists(elt, min_size=len(order),
                                      max_size=len(order)).map(tuple)))
    return a, b, mapping


class TestValidationDifferential:
    @given(validation_maps())
    def test_embedding_accepts_and_names_what_the_scan_does(self, drawn):
        a, b, mapping = drawn
        try:
            Embedding(a, b, mapping)
            message = None
        except WorkbenchError as exc:
            message = str(exc)
        assert message == oracles.scan_embedding_error(a, b, mapping)


class TestEnumeratedMapsAreChecked:
    """Enumeration hands every map it finds to the validating constructor,
    once, and the bits that check reads leave a structure's value alone."""

    @pytest.mark.parametrize("catalog", [lo_catalog(5), graph_catalog(4)],
                             ids=["lo5", "graphs4"])
    def test_each_map_is_checked_once(self, monkeypatch, catalog):
        checked = []
        check = Embedding.__post_init__

        def counted(self):
            checked.append(self.map)
            check(self)

        monkeypatch.setattr(Embedding, "__post_init__", counted)
        for a, b in itertools.product(catalog, repeat=2):
            checked.clear()
            maps = [e.map for e in enumerate_embeddings(a, b)]
            assert checked == maps, (a, b)

    @pytest.mark.parametrize("build", [lambda: lo_catalog(5),
                                       lambda: graph_catalog(4)],
                             ids=["lo5", "graphs4"])
    def test_each_profile_is_computed_once(self, monkeypatch, build):
        computed = []
        profile = Structure.__dict__["degree_profile"].func

        def counted(self):
            computed.append(self)
            return profile(self)

        cached = functools.cached_property(counted)
        cached.__set_name__(Structure, "degree_profile")
        monkeypatch.setattr(Structure, "degree_profile", cached)
        catalog = build()
        for a, b in itertools.product(catalog, repeat=2):
            enumerate_embeddings(a, b)
        assert len({id(s) for s in computed}) == len(computed)
        assert {id(s) for s in catalog} <= {id(s) for s in computed}

    @pytest.mark.parametrize("build", [
        lambda: lo_catalog(4), lambda: graph_catalog(3),
        lambda: [Structure.make(MIXED_SIGNATURE, 3, {"r": {(0, 1)},
                                                     "t": {(2, 1, 0)}},
                                {"c": 1}, name="M3")]],
        ids=["lo4", "graphs3", "mixed"])
    def test_read_bits_leave_equality_hash_and_bytes(self, tmp_path, build):
        fresh, read = build(), build()
        for s in read:
            for (_, table), (_, ar), bits in zip(
                    s.relations, s.signature.relations, s.membership_bits):
                assert [t for t, bit in zip(itertools.product(
                    range(s.size), repeat=ar), bits) if bit] == sorted(table)
            assert len(s.degree_profile) == s.size
        assert fresh == read
        assert [hash(s) for s in fresh] == [hash(s) for s in read]
        assert (_sha256_of_saved(fresh, tmp_path / "fresh.json")
                == _sha256_of_saved(read, tmp_path / "read.json"))


class TestComposeDifferential:
    """Unchecked composites against the validating constructor."""

    @pytest.fixture(scope="class", params=["lo5", "graphs3"])
    def cat(self, request):
        catalog = lo_catalog(5) if request.param == "lo5" else graph_catalog(3)
        return FiniteCategory.from_structures(catalog)

    def test_composites_match_validated_embeddings(self, cat):
        pairs = 0
        for g, f in oracles.composable_pairs(cat):
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
        assert not oracles.isomorphic(a, b)

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


class TestCanonicalFormContract:
    """Canon and witness against the first least permutation in lex order."""

    def test_every_graph_up_to_four_vertices(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(2 ** len(pairs)):
                g = graph(n, [p for b, p in enumerate(pairs) if mask >> b & 1])
                canon, iso = canonical_form(g)
                want, position = oracles.brute_canonical_form(g)
                assert canon == want and iso.map == position

    @given(mixed_structures())
    def test_structures_with_ternary_relation_and_constant(self, s):
        canon, iso = canonical_form(s)
        want, position = oracles.brute_canonical_form(s)
        assert canon == want and iso.map == position

    @given(graph_pairs())
    def test_equal_forms_exactly_for_vf2_isomorphic_graphs(self, pair):
        g, h = pair
        vf2 = nx.algorithms.isomorphism.GraphMatcher(
            to_networkx(g), to_networkx(h)).is_isomorphic()
        assert (canonical_form(g)[0] == canonical_form(h)[0]) == vf2
        assert oracles.isomorphic(g, h) == vf2

    def test_five_vertex_classes_under_seeded_relabellings(self):
        # the least-sibling and orbit cuts must keep the first least leaf
        # whatever the labelling, so each class is drawn in several
        rng = random.Random(5)
        for g in all_graphs(5):
            for _ in range(3):
                h = g.relabel(tuple(rng.sample(range(5), 5)))
                canon, iso = canonical_form(h)
                want, position = oracles.brute_canonical_form(h)
                assert canon == want and iso.map == position

    @pytest.mark.parametrize("build", [empty_graph, complete_graph])
    def test_symmetric_graph_is_its_own_form(self, build):
        # 9! leaves without automorphism pruning
        g = build(9)
        canon, iso = canonical_form(g)
        assert canon == g and iso.is_identity


@pytest.fixture(scope="module")
def catalog_6():
    return graph_catalog(6)


def _sha256_of_saved(catalog, path) -> str:
    save_catalog(catalog, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCatalogBytes:
    # catalog order and the G{n}_{i} names rest on canonical_key; both pins
    # were taken from the scan over all 2^C(n,2) edge masks
    def test_graph_catalog_5_json_is_pinned(self, tmp_path):
        assert _sha256_of_saved(graph_catalog(5), tmp_path / "g5.json") == (
            "a05b9e4fb2b80013dfc35c721372083d0265a2b57b0c28b4b9085d65984f297f")

    def test_graph_catalog_6_json_is_pinned(self, tmp_path, catalog_6):
        assert _sha256_of_saved(catalog_6, tmp_path / "g6.json") == (
            "1074e3635cb5bc5d05382747b7962b1d6e19302e35516eb1d6a80a67be494710")


def _edge_set(g: Structure) -> frozenset:
    return frozenset((u, v) for u, v in g.rel("edge") if u < v)


class TestGraphGeneration:
    @pytest.mark.parametrize("n", range(7))
    def test_least_mask_representatives_match_the_scan(self, n):
        got = [_edge_set(g) for g in all_graphs(n)]
        assert len(got) == len(set(got))
        assert set(got) == set(oracles.brute_graph_classes(n))

    def test_six_vertices_follow_a000088_and_vf2(self, catalog_6):
        counts = [sum(1 for g in catalog_6 if g.size == n) for n in range(1, 7)]
        assert counts == [1, 2, 4, 11, 34, 156]
        six = [to_networkx(g) for g in catalog_6 if g.size == 6]
        for i, g in enumerate(six):
            for h in six[i + 1:]:
                assert not nx.is_isomorphic(g, h)

    def test_seven_vertices_follow_a000088_and_vf2(self):
        seven = all_graphs(7)
        assert [g.name for g in seven] == [f"G7_{i}" for i in range(1044)]
        by_degrees: dict[tuple, list] = {}
        for g in seven:
            h = to_networkx(g)
            by_degrees.setdefault(tuple(sorted(d for _, d in h.degree())),
                                  []).append(h)
        for same in by_degrees.values():
            for i, g in enumerate(same):
                for h in same[i + 1:]:
                    assert not nx.is_isomorphic(g, h)

    def test_one_extension_per_orbit_bounds_the_certificates(self, monkeypatch):
        # extending every subset of every parent takes 1,306 certificates
        calls = []
        monkeypatch.setattr(catalogs, "_certificate",
                            lambda adj: calls.append(adj) or _certificate(adj))
        assert len(all_graphs(6)) == 156
        assert len(calls) <= 700

    def test_edge_cases(self):
        assert [(g.name, g.size) for g in all_graphs(0)] == [("G0_0", 0)]
        assert [(g.name, g.size) for g in all_graphs(1)] == [("G1_0", 1)]
        with pytest.raises(WorkbenchError):
            all_graphs(-1)


def _rows(g: Structure) -> list[int]:
    """Adjacency rows of a graph: bit u of row v marks the edge {u, v}."""
    rows = [0] * g.size
    for u, v in g.rel("edge"):
        rows[v] |= 1 << u
    return rows


class TestGraphCertificate:
    """``catalogs._certificate`` is complete: equal exactly on isomorphic graphs."""

    @pytest.mark.parametrize("n", range(6))
    def test_equal_certificates_are_the_brute_force_classes(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        groups: dict[int, set] = {}
        for mask in range(1 << len(pairs)):
            g = graph(n, [p for b, p in enumerate(pairs) if mask >> b & 1])
            groups.setdefault(_certificate(_rows(g))[0], set()).add(mask)
        assert ({frozenset(masks) for masks in groups.values()}
                == set(oracles.brute_graph_orbits(n)))

    @given(graph_pairs(max_n=7), st.data())
    def test_equal_certificates_exactly_for_vf2_isomorphic_graphs(self, pair, data):
        g, h = pair
        vf2 = nx.is_isomorphic(to_networkx(g), to_networkx(h))
        same = _certificate(_rows(g))[0] == _certificate(_rows(h))[0]
        assert same == vf2 == (canonical_form(g)[0] == canonical_form(h)[0])
        perm = data.draw(st.permutations(range(g.size)))
        assert (_certificate(_rows(g.relabel(tuple(perm))))[0]
                == _certificate(_rows(g))[0])

    @pytest.mark.parametrize("n", range(6))
    def test_every_automorphism_found_preserves_adjacency(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            rows = _rows(graph(n, [p for b, p in enumerate(pairs) if mask >> b & 1]))
            for gamma in _certificate(rows)[1]:
                assert sorted(gamma) == list(range(n))
                assert all((rows[gamma[v]] >> gamma[u] & 1) == (rows[v] >> u & 1)
                           for u in range(n) for v in range(n))


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
