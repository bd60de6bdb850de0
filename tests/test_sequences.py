import itertools
import random
from collections import Counter

import pytest

from ramsey_workbench import sequences
from ramsey_workbench.catalogs import (complete_graph, empty_graph,
                                       graph_catalog, linear_order,
                                       lo_catalog, path_graph)
from ramsey_workbench.category import FiniteCategory, abstract_from_json
from ramsey_workbench.errors import ShapeMismatch, TruncationOverflow
from ramsey_workbench.sequences import (ColimitResult, TruncatedSequence,
                                        colimit, sequence_from_json,
                                        weak_fraisse_check,
                                        weak_homogeneity_check)
from ramsey_workbench.structures import (Embedding, compose,
                                         enumerate_embeddings, identity)

import oracles
from oracles import (Transformation, all_transformations,
                     compose_transformations, constant_sequence,
                     constant_transformation, equiv_check, find_isomorphic,
                     isomorphic, mediating_morphism, mono_test,
                     ultrahomogeneity_check)


def lo_chain(n, length=None):
    """Initial-segment inclusion chain LO_1 -> ... -> LO_n."""
    objs = [linear_order(i) for i in range(1, n + 1)]
    steps = [Embedding(objs[i], objs[i + 1], tuple(range(i + 1)))
             for i in range(n - 1)]
    return TruncatedSequence(tuple(objs), tuple(steps))


class TestTruncatedSequence:
    def test_bonding_laws(self):
        seq = lo_chain(5)
        for n in range(5):
            assert seq.bonding(n, n).is_identity
            for m in range(n, 5):
                for k in range(m, 5):
                    lhs = compose(seq.bonding(m, k), seq.bonding(n, m))
                    assert lhs == seq.bonding(n, k)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            TruncatedSequence((), ())
        a, b = linear_order(2), linear_order(3)
        e = enumerate_embeddings(a, b)[0]
        with pytest.raises(ShapeMismatch):
            TruncatedSequence((a, b), (enumerate_embeddings(b, b)[0],))
        TruncatedSequence((a, b), (e,))

    def test_bonding_out_of_range(self):
        seq = lo_chain(3)
        with pytest.raises(TruncationOverflow):
            seq.bonding(0, 3)


class TestTransformations:
    def test_constant_transformation_roundtrip(self):
        f = enumerate_embeddings(linear_order(2), linear_order(3))[0]
        t = constant_transformation(f, 3)
        assert t.naturality_holds_everywhere()

    def test_naturality_enforced(self):
        seq = lo_chain(3)
        # component 0 into level 1, component 1 into level 2: squares commute
        Transformation(lo_chain(2), seq, (1, 2),
                       (seq.bonding(0, 1), seq.bonding(1, 2)))
        # a component landing off the bonded image breaks the square
        off = Embedding(linear_order(1), linear_order(2), (1,))
        with pytest.raises(ShapeMismatch):
            Transformation(lo_chain(2), seq, (1, 2), (off, seq.bonding(1, 2)))

    def test_nondecreasing_levels_enforced(self):
        a = linear_order(2)
        seq = constant_sequence(a, 3)
        with pytest.raises(ShapeMismatch):
            Transformation(seq, seq, (1, 0, 0),
                           tuple(identity(a) for _ in range(3)))

    def test_level_map_stays_in_range(self):
        a = linear_order(2)
        seq = constant_sequence(a, 3)
        with pytest.raises(TruncationOverflow):
            Transformation(seq, seq, (0, 1, 5),
                           tuple(identity(a) for _ in range(3)))


class TestEquivalence:
    def test_reflexive(self):
        f = enumerate_embeddings(linear_order(2), linear_order(3))[1]
        t = constant_transformation(f, 3)
        assert equiv_check(t, t).status == "HOLDS"

    def test_distinct_constant_arrows_separate(self):
        embs = enumerate_embeddings(linear_order(2), linear_order(3))
        t1 = constant_transformation(embs[0], 3)
        t2 = constant_transformation(embs[1], 3)
        assert equiv_check(t1, t2).status == "FAILS"

    def test_shifted_presentations_agree(self):
        seq = lo_chain(4)
        src = constant_sequence(linear_order(2), 2)
        e = enumerate_embeddings(linear_order(2), linear_order(2))[0]
        t1 = Transformation(src, seq, (1, 1),
                            (seq.bonding(1, 1).__class__(
                                linear_order(2), linear_order(2), (0, 1)),) * 2)
        t2 = Transformation(src, seq, (1, 2),
                            (Embedding(linear_order(2), linear_order(2), (0, 1)),
                             seq.bonding(1, 2)))
        assert equiv_check(t1, t2).status == "HOLDS"

    def test_small_bound_is_inconclusive(self):
        # equal only from level 2 on; a bound below that leaves it open
        seq = lo_chain(4)
        src = constant_sequence(linear_order(1), 1)
        t1 = Transformation(src, seq, (1,),
                            (Embedding(linear_order(1), linear_order(2), (0,)),))
        t2 = Transformation(src, seq, (1,),
                            (Embedding(linear_order(1), linear_order(2), (1,)),))
        assert equiv_check(t1, t2).status == "FAILS"
        # these two genuinely differ forever (bondings are inclusions)

    def test_exhaustive_congruence_on_constant_sequences(self):
        # the classes of transformations between constant chains are exactly
        # the underlying arrows, and composition is well defined on classes
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
            assert ts_ab and ts_bc
            for t1, t2 in itertools.product(ts_ab, repeat=2):
                verdict = equiv_check(t1, t2)
                expected = "HOLDS" if t1.components[0] == t2.components[0] \
                    else "FAILS"
                assert verdict.status == expected
                assert equiv_check(t2, t1).status == expected
            reps_ab, reps_bc, reps_ac = [], [], []
            composite_class: dict[tuple[int, int], int] = {}
            for u in ts_bc:
                cu = class_of(u, reps_bc)
                for t in ts_ab:
                    ct = class_of(t, reps_ab)
                    comp = class_of(compose_transformations(u, t), reps_ac)
                    key = (cu, ct)
                    assert composite_class.setdefault(key, comp) == comp

    def test_transitive_at_full_bound(self):
        a, b = linear_order(1), linear_order(3)
        ja, jb = constant_sequence(a, 2), constant_sequence(b, 2)
        ts = all_transformations(ja, jb)
        for t1, t2, t3 in itertools.product(ts, repeat=3):
            if (equiv_check(t1, t2).status == "HOLDS"
                    and equiv_check(t2, t3).status == "HOLDS"):
                assert equiv_check(t1, t3).status == "HOLDS"


class TestComposition:
    def test_identity_neutral(self):
        f = enumerate_embeddings(linear_order(2), linear_order(3))[0]
        t = constant_transformation(f, 3)
        ident = constant_transformation(identity(linear_order(2)), 3)
        assert equiv_check(compose_transformations(t, ident), t).status == "HOLDS"

    def test_constant_composition_is_arrow_composition(self):
        f = enumerate_embeddings(linear_order(1), linear_order(2))[0]
        g = enumerate_embeddings(linear_order(2), linear_order(4))[2]
        lhs = compose_transformations(constant_transformation(g, 3),
                                      constant_transformation(f, 3))
        rhs = constant_transformation(compose(g, f), 3)
        assert equiv_check(lhs, rhs).status == "HOLDS"

    def test_associative_up_to_equivalence(self):
        rng = random.Random(11)
        for _ in range(10):
            n1, n2, n3, n4 = (rng.randint(1, 3) for _ in range(4))
            sizes = sorted([n1, n2, n3, n4])
            chains = [constant_sequence(linear_order(s), 2) for s in sizes]
            ts = []
            ok = True
            for lo, hi in zip(chains, chains[1:]):
                pool = all_transformations(lo, hi)
                if not pool:
                    ok = False
                    break
                ts.append(pool[rng.randrange(len(pool))])
            if not ok:
                continue
            t1, t2, t3 = ts
            lhs = compose_transformations(t3, compose_transformations(t2, t1))
            rhs = compose_transformations(compose_transformations(t3, t2), t1)
            assert equiv_check(lhs, rhs).status == "HOLDS"

    def test_shape_mismatch_rejected(self):
        t1 = constant_transformation(identity(linear_order(2)), 3)
        t2 = constant_transformation(identity(linear_order(3)), 3)
        with pytest.raises(ShapeMismatch):
            compose_transformations(t2, t1)


class TestConstantEmbeddingFullness:
    def test_every_transformation_is_a_constant_class(self):
        # between constant chains, each transformation collapses to the
        # single arrow all its components are forced to equal
        a, b = linear_order(2), linear_order(3)
        for n in (2, 3):
            ja, jb = constant_sequence(a, n), constant_sequence(b, n)
            arrows = enumerate_embeddings(a, b)
            for t in all_transformations(ja, jb):
                assert len({c.map for c in t.components}) == 1
                hits = [f for f in arrows
                        if equiv_check(t, Transformation(
                            ja, jb, tuple(0 for _ in range(n)),
                            tuple(f for _ in range(n)))).status == "HOLDS"]
                assert len(hits) == 1


class TestColimit:
    def test_lo_chain_colimit_is_top(self):
        seq = lo_chain(5)
        result = colimit(seq)
        assert isomorphic(result.structure, linear_order(5))
        for n in range(5):
            for m in range(n, 5):
                assert compose(result.cocone[m], seq.bonding(n, m)) == \
                    result.cocone[n]

    def test_single_level(self):
        seq = TruncatedSequence((path_graph(3),), ())
        result = colimit(seq)
        assert result.structure == path_graph(3).relabel((0, 1, 2), name="colim")
        assert result.cocone[0].is_identity

    def test_constant_chain(self):
        seq = constant_sequence(path_graph(3), 4)
        result = colimit(seq)
        assert isomorphic(result.structure, path_graph(3))
        assert result.cocone[0].is_bijective()

    def test_class_names_least_representatives(self):
        seq = lo_chain(3)
        result = colimit(seq)
        assert result.class_names == ((0, 0), (1, 1), (2, 2))

    def test_universality(self):
        seq = lo_chain(4)
        result = colimit(seq)
        target = linear_order(6)
        d = [Embedding(seq.objects[n], target, tuple(range(n + 1)))
             for n in range(4)]
        u = mediating_morphism(seq, result, tuple(d))
        for n in range(4):
            assert compose(u, result.cocone[n]) == d[n]


class TestMonoTest:
    def test_equal_arguments_trivial(self):
        f = constant_transformation(
            enumerate_embeddings(linear_order(2), linear_order(3))[0], 3)
        g = constant_transformation(identity(linear_order(2)), 3)
        report = mono_test(f, g, g)
        assert not report.violation

    def test_separating_arguments_detected(self):
        embs = enumerate_embeddings(linear_order(1), linear_order(2))
        g = constant_transformation(embs[0], 2)
        h = constant_transformation(embs[1], 2)
        f = constant_transformation(identity(linear_order(2)), 2)
        report = mono_test(f, g, h)
        assert report.argument_status == "FAILS"
        assert report.composite_status == "FAILS"
        assert not report.violation

    def test_no_violations_on_randomized_instances(self):
        rng = random.Random(2024)
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
        assert violations == 0

    def test_no_violations_on_growing_chains(self):
        rng = random.Random(7)
        seq = lo_chain(4)
        src = constant_sequence(linear_order(1), 4)
        pool_gh = all_transformations(src, lo_chain(2))
        mid = lo_chain(2)
        pool_f = all_transformations(mid, seq)
        assert pool_gh and pool_f
        for _ in range(50):
            g = pool_gh[rng.randrange(len(pool_gh))]
            h = pool_gh[rng.randrange(len(pool_gh))]
            f = pool_f[rng.randrange(len(pool_f))]
            assert not mono_test(f, g, h).violation


def structure_category(*groups):
    """The embedding category on the structures of the groups, by name."""
    return FiniteCategory.from_structures(
        list({s.name: s for group in groups for s in group}.values()))


def wfcheck(seq, catalog, m_max, k_max):
    """weak_fraisse_check on the category of the chain and the catalog, its
    steps resolved to ids as ``rw seq wfcheck`` resolves them."""
    cat = structure_category(seq.objects, catalog)
    steps = [cat.embedding_id(s.source.name, s.target.name, s.map)
             for s in seq.steps]
    return weak_fraisse_check(cat, [x.name for x in seq.objects], steps,
                              [c.name for c in catalog], m_max, k_max)


def whom(f_struct, catalog):
    """weak_homogeneity_check of F over the catalog, on their category."""
    return weak_homogeneity_check(structure_category(catalog, [f_struct]),
                                  f_struct.name, [c.name for c in catalog])


@pytest.fixture
def row_calls(monkeypatch):
    """Counts of FiniteCategory.pre and .post calls from here on."""
    calls = Counter()

    def counted(name):
        real = getattr(FiniteCategory, name)
        return lambda self, *args: calls.update([name]) or real(self, *args)

    for name in ("pre", "post"):
        monkeypatch.setattr(FiniteCategory, name, counted(name))
    return calls


class TestWeakFraisse:
    def test_each_row_is_read_once(self, row_calls):
        # the chain LO1..LO8 over lo_catalog(8) asks 316 membership
        # questions of 176 distinct rows pre(f.w(n, m), X_k)
        report = wfcheck(lo_chain(8), lo_catalog(8), m_max=7, k_max=7)
        assert report.absorption_witness == \
            oracles.chain_absorption_witnesses(8, 8)
        assert row_calls == {"pre": 176}

    def test_lo_chain_absorbs_catalog(self):
        seq = lo_chain(8)
        report = wfcheck(seq, lo_catalog(4), m_max=7, k_max=7)
        assert report.status == "HOLDS"
        # levels holding a four-chain absorb at themselves; earlier levels
        # must climb to the four-chain level first
        assert report.absorption_witness == {0: 3, 1: 3, 2: 3, 3: 3,
                                             4: 4, 5: 5, 6: 6, 7: 7}

    def test_missing_object_breaks_cofinality(self):
        seq = lo_chain(3)
        report = wfcheck(seq, lo_catalog(5), m_max=2, k_max=2)
        assert report.status == "FAILS"
        assert "LO4" in report.missing_objects

    def test_tight_bounds_inconclusive(self):
        seq = lo_chain(8)
        report = wfcheck(seq, lo_catalog(4), m_max=1, k_max=1)
        assert report.status == "UNKNOWN-AT-BOUND"


G4, LO5 = graph_catalog(4), lo_catalog(5)


class TestHomogeneity:
    def test_complete_graph_is_ultrahomogeneous(self):
        catalog = [empty_graph(1, name="K1"), complete_graph(2), complete_graph(3)]
        report = ultrahomogeneity_check(complete_graph(3), catalog)
        assert report.status == "HOLDS"

    def test_ultrahomogeneous_implies_weakly_homogeneous(self):
        catalog = [empty_graph(1, name="K1"), complete_graph(2)]
        f = complete_graph(3)
        assert ultrahomogeneity_check(f, catalog).status == "HOLDS"
        assert whom(f, catalog).status == "HOLDS"

    def test_rigid_chain_is_not_weakly_homogeneous(self):
        # two copies of the point cannot be exchanged: every automorphism
        # of a finite chain is the identity
        report = whom(linear_order(6), lo_catalog(3))
        assert report.status == "FAILS"
        assert report.failure["A"] == "LO1"

    def test_path_center_end_asymmetry(self):
        catalog = [empty_graph(1, name="K1"), path_graph(2, name="P2")]
        report = whom(path_graph(3), catalog)
        assert report.status == "FAILS"

    def test_empty_catalog_vacuous(self):
        assert whom(path_graph(3), []).status == "HOLDS"

    def test_empty_graph_witnesses_match_oracle(self):
        # E4 has all 24 permutations as automorphisms, so every j: B -> E4
        # is exchangeable and the first B that factors f is the witness
        catalog = graph_catalog(4)
        e4 = find_isomorphic(catalog, empty_graph(4))
        expected = oracles.weak_homogeneity_witnesses(e4, catalog)
        assert None not in [b for _, _, b in expected]
        _assert_matches_oracle(e4, catalog)

    def test_each_row_is_read_once(self, graphs4_category, row_calls):
        # E4 = G4_0: only the four empty graphs embed in it, so Aut(E4)'s 24
        # rows are built for 4 objects A, and each A's first e, its
        # identity, witnesses every f, so pre(e, E4) is read once per A
        cat = graphs4_category
        report = weak_homogeneity_check(cat, "G4_0", cat.objects)
        assert report.status == "HOLDS"
        assert row_calls == {"pre": 4, "post": 96}

    @pytest.mark.parametrize("f_struct", graph_catalog(4, min_n=4),
                             ids=lambda s: s.name)
    def test_four_vertex_graphs_over_smaller_catalog_match_oracle(self, f_struct):
        _assert_matches_oracle(f_struct, graph_catalog(3))

    @pytest.mark.parametrize("f_struct,catalog",
                             [(f, G4) for f in G4] + [(f, LO5) for f in LO5],
                             ids=[f.name for f in G4 + LO5])
    def test_every_catalog_object_matches_oracle(self, f_struct, catalog):
        # the orbit-membership test against the definition, with B ranging
        # over the catalog F comes from, so F itself is always a candidate
        _assert_matches_oracle(f_struct, catalog)


def _assert_matches_oracle(f_struct, catalog, cat=None):
    """The report on cat (default: the structure category) against the
    oracle; ids are read as vertex maps through the structure category."""
    maps = structure_category(catalog, [f_struct])
    report = weak_homogeneity_check(cat or maps, f_struct.name,
                                    [c.name for c in catalog])

    def vertex_map(mid):
        return maps.embedding(mid).map

    expected = oracles.weak_homogeneity_witnesses(f_struct, catalog)
    found = [(w["A"], vertex_map(w["f"]), w["B"]) for w in report.witnesses]
    for w in report.witnesses:
        i = vertex_map(w["i"])
        assert tuple(i[x] for x in vertex_map(w["e"])) == vertex_map(w["f"])
    bare = next((i for i, (_, _, b) in enumerate(expected) if b is None),
                None)
    if bare is None:
        assert report.status == "HOLDS"
        assert found == expected
    else:
        assert report.status == "FAILS"
        assert found == expected[:bare]
        a, f, _ = expected[bare]
        assert (report.failure["A"], vertex_map(report.failure["f"])) == (a, f)


class TestTableRoute:
    """On the compose table of LO1..LOn the checks agree with the oracles
    and with the structure route; the table shares the ``LOa->LOb#k`` ids."""

    def test_weak_fraisse_matches_oracle_and_structure_route(self):
        table = abstract_from_json(oracles.lo_table(8))
        levels = table.objects
        # the initial segment range(i) is the least i-subset of range(i + 1)
        steps = [f"LO{i}->LO{i + 1}#0" for i in range(1, 8)]
        for ceiling in (4, 8):
            report = weak_fraisse_check(table, levels, steps,
                                        levels[:ceiling], m_max=7, k_max=7)
            assert report.absorption_witness == \
                oracles.chain_absorption_witnesses(8, ceiling)
            assert report == wfcheck(lo_chain(8), lo_catalog(ceiling), 7, 7)

    @pytest.mark.parametrize("ceiling", [3, 6])
    def test_weak_homogeneity_matches_oracle(self, ceiling):
        _assert_matches_oracle(linear_order(6), lo_catalog(ceiling),
                               cat=abstract_from_json(oracles.lo_table(6)))


class TestOneHomSetOwner:
    """The weak Fraïssé checks read hom-sets and composites only through
    the category: the structure primitives of ``sequences`` stay unused."""

    def test_checks_never_call_the_structure_primitives(self, monkeypatch):
        e4 = find_isomorphic(G4, empty_graph(4))

        def reports():
            return (wfcheck(lo_chain(8), lo_catalog(4), 7, 7),
                    wfcheck(lo_chain(3), lo_catalog(5), 2, 2),
                    whom(e4, G4), whom(linear_order(6), lo_catalog(3)))

        expected = reports()

        def refuse(*args):
            raise AssertionError("sequences read a hom-set of its own")

        for name in ("enumerate_embeddings", "automorphisms", "compose"):
            monkeypatch.setattr(sequences, name, refuse)
        assert reports() == expected


class TestSequenceJson:
    def test_roundtrip(self):
        catalog = lo_catalog(3)
        doc = {
            "objects": ["LO1", "LO2", "LO3"],
            "bonding": {"0->1": [0], "1->2": [0, 1], "0->2": [0]},
        }
        seq = sequence_from_json(doc, catalog)
        assert seq.length == 3
        assert seq.bonding(0, 2).map == (0,)

    def test_incoherent_bondings_rejected(self):
        catalog = lo_catalog(3)
        doc = {
            "objects": ["LO1", "LO2", "LO3"],
            "bonding": {"0->1": [0], "1->2": [0, 1], "0->2": [1]},
        }
        from ramsey_workbench.errors import WorkbenchError
        with pytest.raises(WorkbenchError):
            sequence_from_json(doc, catalog)
