import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, strategies as st

import ramsey_workbench
from ramsey_workbench import cli
from ramsey_workbench.arrows import CLOCK_EVERY, TIME_OUT
from ramsey_workbench.catalogs import (catalog_to_json, complete_graph,
                                       graph, graph_catalog, linear_order,
                                       lo_catalog, path_graph, save_catalog)
from ramsey_workbench.cli import run
from ramsey_workbench.errors import CorruptCertificate

from oracles import lo_table


@pytest.fixture(scope="module")
def lo_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalogs")
    lo6 = root / "lo6.json"
    save_catalog(lo_catalog(6), lo6)
    lo4 = root / "lo4.json"
    save_catalog(lo_catalog(4), lo4)
    return {"lo6": str(lo6), "lo4": str(lo4), "root": root}


def run_json(argv, out_path):
    code = run(["--out", str(out_path)] + argv)
    with open(out_path, encoding="utf-8") as fh:
        return code, json.load(fh)


class TestArrowCommand:
    def test_holding_instance_exits_zero(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "arrow", "--catalog", lo_paths["lo6"],
                    "--C", "LO6", "--B", "LO3", "--A", "LO2",
                    "-k", "2", "-t", "1"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "HOLDS"
        assert report["certificates"][0]["type"] == "exhaustion"

    def test_failing_instance_exits_one_with_certificate(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "arrow", "--catalog", lo_paths["lo6"],
                    "--C", "LO5", "--B", "LO3", "--A", "LO2",
                    "-k", "2", "-t", "1"])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["certificates"][0]["type"] == "bad-coloring"

    def test_unknown_flag_exits_three(self, lo_paths):
        assert run(["arrow", "--catalog", lo_paths["lo6"], "--frobnicate"]) == 3

    def test_missing_catalog_exits_three(self, tmp_path):
        assert run(["arrow", "--catalog", str(tmp_path / "nope.json"),
                    "--C", "LO6", "--B", "LO3", "--A", "LO2",
                    "-k", "2", "-t", "1"]) == 3

    def test_node_budget_gives_exit_two(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "--budget-nodes", "5",
                    "arrow", "--catalog", lo_paths["lo6"],
                    "--C", "LO6", "--B", "LO3", "--A", "LO2",
                    "-k", "2", "-t", "1"])
        assert code == 2

    @pytest.mark.parametrize("nodes", ["-5", "-1", "2.5", "abc"])
    def test_node_budget_must_be_a_whole_number_not_negative(
            self, lo_paths, tmp_path, monkeypatch, nodes):
        # a negative budget once read as 0: UNKNOWN-AT-BOUND with exit 2
        out = tmp_path / "r.json"
        argv = ["arrow", "--catalog", lo_paths["lo6"], "--C", "LO6",
                "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"]
        assert run(["--out", str(out), "--budget-nodes", nodes] + argv) == 3
        monkeypatch.setenv("RW_BUDGET_NODES", nodes)
        assert run(["--out", str(out)] + argv) == 3
        assert not out.exists()

    def test_node_budget_past_the_float_range_is_accepted(self, lo_paths,
                                                          tmp_path):
        code, report = run_json(
            ["--budget-nodes", "9" * 400, "arrow", "--catalog", lo_paths["lo6"],
             "--C", "LO6", "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"],
            tmp_path / "r.json")
        assert (code, report["config"]["budget_nodes"]) == (0, int("9" * 400))

    def test_lo10_three_colors_fail_within_the_node_budget(self, tmp_path):
        # R(3,3,3) = 17 > 10: a bad coloring exists and must be found
        catalog = tmp_path / "lo10.json"
        save_catalog([linear_order(n) for n in (2, 3, 10)], catalog)
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "--budget-nodes", "200000",
                    "arrow", "--catalog", str(catalog),
                    "--C", "LO10", "--B", "LO3", "--A", "LO2",
                    "-k", "3", "-t", "1"])
        assert code == 1
        assert run(["--out", str(tmp_path / "rep.json"),
                    "replay", str(out)]) == 0

    def test_cnf_export(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        cnf = tmp_path / "bad.cnf"
        run(["--out", str(out), "arrow", "--catalog", lo_paths["lo6"],
             "--C", "LO5", "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1",
             "--cnf", str(cnf)])
        text = cnf.read_text()
        assert any(line.startswith("p cnf ") for line in text.splitlines())


class TestOtherCommands:
    def test_cat_check(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "cat", "check",
                    "--catalog", lo_paths["lo4"]])
        assert code == 0
        report = json.loads(out.read_text())
        detail = report["verdicts"][0]["detail"]
        assert detail["all_mono"] and detail["directed"]

    def test_cat_op(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "cat", "op",
                    "--catalog", lo_paths["lo4"]])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdicts"][0]["involutive"]
        assert report["verdicts"][0]["mono_epi_swap"]

    def test_cat_skeleton(self, tmp_path):
        twin = linear_order(2).relabel((1, 0), name="LO2x")
        path = tmp_path / "dup.json"
        save_catalog([linear_order(2), twin], path)
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "cat", "skeleton",
                    "--catalog", str(path)]) == 0
        report = json.loads(out.read_text())
        assert report["verdicts"][0]["representatives"]["LO2x"] == "LO2"

    def test_degree_interval(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "degree", "--catalog", lo_paths["lo4"],
                    "--A", "LO2", "--kmax", "2", "--bmax", "2"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdicts"][0]["interval"]["upper"] == 1

    def test_amalgam_wap(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "amalgam", "--catalog",
                    lo_paths["lo4"], "--wap"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "HOLDS"
        assert report["certificates"]

    def test_seq_colim(self, lo_paths, tmp_path):
        seq = {"objects": ["LO1", "LO2", "LO3", "LO4"],
               "bonding": {"0->1": [0], "1->2": [0, 1], "2->3": [0, 1, 2]}}
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(seq))
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "seq", "colim",
                    "--catalog", lo_paths["lo4"], "--seq", str(seq_path)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdicts"][0]["size"] == 4

    def test_seq_colim_composes_through_the_structures_module(
            self, lo_paths, tmp_path, monkeypatch):
        # a tracer wraps structures.compose, so it must see every
        # cocone-triangle composition
        from ramsey_workbench import structures
        calls = []
        compose = structures.compose

        def counted(g, f):
            calls.append((g, f))
            return compose(g, f)

        monkeypatch.setattr(structures, "compose", counted)
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(
            {"objects": ["LO1", "LO2", "LO3", "LO4"],
             "bonding": {"0->1": [0], "1->2": [0, 1], "2->3": [0, 1, 2]}}))
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "seq", "colim", "--catalog",
                    lo_paths["lo4"], "--seq", str(seq_path)]) == 0
        report = json.loads(out.read_text())
        triangles = [c for c in report["certificates"]
                     if c["note"].startswith("cocone triangle")]
        assert len(triangles) == 4 * 5 // 2
        assert len(calls) == len(triangles)

    def test_expand_build_and_check(self, tmp_path):
        cat_path = tmp_path / "g.json"
        save_catalog([graph(1, [], name="K1"), graph(2, [(0, 1)], name="K2"),
                      graph(3, [(0, 1), (1, 2)], name="P3")], cat_path)
        degrees_path = tmp_path / "deg.json"
        degrees_path.write_text(json.dumps({"degrees": {"K2": 2}}))
        out = tmp_path / "r.json"
        code = run(["--out", str(out), "expand", "build",
                    "--catalog", str(cat_path), "--degrees", str(degrees_path)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdicts"][0]["fiber_sizes"]["P3"] == 16
        out2 = tmp_path / "r2.json"
        assert run(["--out", str(out2), "expand", "check",
                    "--catalog", str(cat_path),
                    "--degrees", str(degrees_path)]) == 0

    def test_module_entry_point(self, lo_paths, tmp_path):
        """The child imports the package under test, whoever put it on the
        path of this process (PYTHONPATH or pytest's ``pythonpath``)."""
        out = tmp_path / "r.json"
        package_root = os.path.dirname(os.path.dirname(ramsey_workbench.__file__))
        path = os.pathsep.join(filter(None, [package_root,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ramsey_workbench", "--out", str(out),
             "arrow", "--catalog", lo_paths["lo6"], "--C", "LO6",
             "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0


class TestObjectNames:
    """A flag naming no catalog object, or a color bound below 1, is an input
    error, not a verdict."""

    @pytest.mark.parametrize("argv,message", [
        (["arrow", "--C", "LO4", "--B", "LO3", "--A", "NOPE", "-k", "2",
          "-t", "1"], "--A 'NOPE'"),
        (["arrow", "--C", "NOPE", "--B", "LO3", "--A", "LO2", "-k", "2",
          "-t", "1"], "--C 'NOPE'"),
        (["arrow", "--C", "LO4", "--B", "NOPE", "--A", "LO2", "-k", "2",
          "-t", "1"], "--B 'NOPE'"),
        (["degree", "--A", "NOPE"], "--A 'NOPE'"),
        (["arrow", "--C", "LO4", "--B", "LO3", "--A", "LO2", "-k", "0",
          "-t", "1"], "k and t must be positive"),
        (["arrow", "--oracle", "--C", "LO4", "--B", "LO3", "--A", "LO2",
          "-k", "2", "-t", "0"], "k and t must be positive"),
        (["degree", "--A", "LO2", "--kmax", "0"], "k_max must be positive"),
        (["amalgam", "--two-of-k", "3"], "--A is required"),
        (["amalgam", "--two-of-k", "3", "--A", "NOPE"], "--A 'NOPE'"),
        (["amalgam", "--chain"], "--A is required"),
        (["amalgam", "--chain", "--A", "NOPE"], "--A 'NOPE'"),
        (["seq", "colim"], "--seq is required"),
        (["seq", "wfcheck"], "--seq is required"),
        (["seq", "whom"], "--obj is required"),
        (["seq", "whom", "--obj", "NOPE"], "--obj 'NOPE'"),
        (["expand", "orbits"], "--obj is required"),
        (["expand", "orbits", "--obj", "NOPE"], "--obj 'NOPE'"),
    ], ids=["arrow-A", "arrow-C", "arrow-B", "degree-A", "arrow-k-0",
            "oracle-t-0", "degree-kmax-0",
            "two-of-k-no-A", "two-of-k-A", "chain-no-A", "chain-A",
            "colim-no-seq", "wfcheck-no-seq", "whom-no-obj", "whom-obj",
            "orbits-no-obj", "orbits-obj"])
    def test_unknown_object_exits_three(self, lo_paths, tmp_path, capsys,
                                        argv, message):
        out = tmp_path / "r.json"
        argv = argv[:1] + ["--catalog", lo_paths["lo4"]] + argv[1:]
        assert run(["--out", str(out)] + argv) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("modes", [
        ["--wap", "--two-of-k", "3"], ["--wap", "--chain"],
        ["--two-of-k", "3", "--chain"], []],
        ids=["wap-two-of-k", "wap-chain", "two-of-k-chain", "none"])
    def test_amalgam_takes_exactly_one_mode(self, lo_paths, tmp_path, modes):
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "amalgam", "--A", "LO2",
                    "--catalog", lo_paths["lo4"]] + modes) == 3
        assert not out.exists()

    def test_colliding_hom_ids_exit_three(self, tmp_path, capsys):
        path = tmp_path / "arrows.json"
        save_catalog([linear_order(1, name="x"), linear_order(2, name="y->z"),
                      linear_order(1, name="x->y"), linear_order(2, name="z")],
                     path)
        assert run(["cat", "check", "--catalog", str(path)]) == 3
        assert "hom(x, y->z) and hom(x->y, z)" in capsys.readouterr().err


# the refusal of an equality that pays no amalgam its verdict owes, and of an
# owed amalgam that no equality pays
UNOWED_AMALGAM = "nor equalities one for each amalgam"


def _set_field(name, value):
    def doctor(report):
        report["certificates"][0][name] = value
        return report
    return doctor


@pytest.fixture(scope="module")
def replayable(lo_paths):
    """Reports that replay, with bad-coloring, exhaustion, map-equality and
    composition-equality certificates, on structure and table catalogs."""
    root = lo_paths["root"]
    seq = root / "seq.json"
    seq.write_text(json.dumps({"objects": ["LO1", "LO2", "LO3"],
                               "bonding": {"0->1": [0], "1->2": [0, 1]}}))
    lo5t = root / "lo5t.json"
    lo5t.write_text(json.dumps(lo_table(5)))
    questions = {
        "arrow": (["arrow", "--catalog", lo_paths["lo6"], "--C", "LO5", "--B",
                   "LO3", "--A", "LO2", "-k", "2", "-t", "1"], 1),
        "holds": (["arrow", "--catalog", lo_paths["lo6"], "--C", "LO6", "--B",
                   "LO3", "--A", "LO2", "-k", "2", "-t", "1"], 0),
        "degree": (["degree", "--catalog", lo_paths["lo4"], "--A", "LO2",
                    "--kmax", "2", "--bmax", "2"], 0),
        # LO4 < R(3,3): one degree-lower colouring per catalog object
        "degree-lower": (["degree", "--catalog", lo_paths["lo4"], "--A", "LO2",
                          "--kmax", "2", "--bmax", "3"], 0),
        # a passed deadline stops every search: no end, so no certificate
        "degree-unknown": (["--budget-secs", "0", "degree", "--catalog",
                            lo_paths["lo4"], "--A", "LO2"], 2),
        "colim": (["seq", "colim", "--catalog", lo_paths["lo4"],
                   "--seq", str(seq)], 0),
        "wap": (["amalgam", "--wap", "--catalog", lo_paths["lo4"]], 0),
        "wap-abstract": (["amalgam", "--wap", "--abstract", "--catalog",
                          str(lo5t)], 0),
        "two-of-k": (["amalgam", "--two-of-k", "2", "--A", "LO4",
                      "--catalog", lo_paths["lo4"]], 0),
        # a tuple of three extensions of LO2 that no pair in LO6 amalgamates
        "two-of-k-fails": (["amalgam", "--two-of-k", "3", "--A", "LO2",
                            "--catalog", lo_paths["lo6"]], 1),
    }
    reports = {}
    for name, (argv, code) in questions.items():
        reports[name] = root / f"replayable-{name}.json"
        assert run(["--out", str(reports[name])] + argv) == code
    return reports


class TestReplay:
    def test_arrow_fails_report_replays(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        run(["--out", str(out), "arrow", "--catalog", lo_paths["lo6"],
             "--C", "LO5", "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"])
        assert run(["--out", str(tmp_path / "rep.json"),
                    "replay", str(out)]) == 0

    def test_wap_report_replays(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        run(["--out", str(out), "amalgam", "--catalog", lo_paths["lo4"],
             "--wap"])
        assert run(["--out", str(tmp_path / "rep.json"),
                    "replay", str(out)]) == 0
        # an id no hom-set holds is an input error, not a crash
        report = json.loads(out.read_text())
        report["certificates"][0]["lhs"][0] = "LO4->LO1#0"
        out.write_text(json.dumps(report))
        assert run(["replay", str(out)]) == 3

    @pytest.mark.parametrize("unknown,alone", [
        ("nope", False), ("LO1->LO9#0", False), ("nope", True)],
        ids=["nope", "no-hom-set", "one-id-sides"])
    def test_unknown_morphism_is_named(self, replayable, tmp_path, capsys,
                                       unknown, alone):
        report = json.loads(replayable["wap"].read_text())
        cert = report["certificates"][0]
        if alone:       # sides of one id each, which compose nothing
            cert["lhs"] = cert["rhs"] = [unknown]
        else:
            cert["lhs"][0] = unknown
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(report))
        with pytest.raises(CorruptCertificate):
            cli.replay(str(path))
        capsys.readouterr()
        assert run(["replay", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: no morphism {unknown!r}: {cert['note']}\n")

    def test_wap_replay_reads_only_the_named_hom_sets(self, tmp_path,
                                                      monkeypatch):
        from ramsey_workbench import category

        catalog = tmp_path / "lo7.json"
        save_catalog(lo_catalog(7), catalog)
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "amalgam", "--wap",
                    "--catalog", str(catalog)]) == 0
        report = json.loads(out.read_text())
        named = {tuple(mid.rpartition("#")[0].split("->"))
                 for cert in report["certificates"]
                 for mid in cert["lhs"] + cert["rhs"]}
        # and the hom-sets out of each arrow's A', whose pairs the amalgams
        # are tied to: here A' is LO7, so hom(LO7, LO1..LO6) are read empty
        named |= {(w["Aprime"], s.name) for w in report["verdicts"][0]["arrows"]
                  for s in lo_catalog(7)}
        reads = []
        real = category.enumerate_embeddings
        monkeypatch.setattr(category, "enumerate_embeddings",
                            lambda a, b: reads.append((a.name, b.name))
                            or real(a, b))
        assert run(["--out", str(tmp_path / "rep.json"),
                    "replay", str(out)]) == 0
        assert sorted(reads) == sorted(named)
        # ids that name no morphism are input errors
        for bad in ("LO3->LO7#99", "LO9->LO7#0"):
            doctored = json.loads(json.dumps(report))
            doctored["certificates"][0]["lhs"][-1] = bad
            out.write_text(json.dumps(doctored))
            assert run(["replay", str(out)]) == 3

    @pytest.mark.parametrize("build", [
        lambda: graph_catalog(3),
        lambda: [complete_graph(n, name=f"K{n}") for n in range(1, 5)]],
        ids=["graphs3", "K1-K4"])
    def test_wap_amalgams_are_tied_to_their_arrow_and_pair(self, tmp_path,
                                                           capsys, build):
        catalog, out = tmp_path / "c.json", tmp_path / "r.json"
        save_catalog(build(), catalog)
        assert run(["--out", str(out), "amalgam", "--wap",
                    "--catalog", str(catalog)]) == 0
        report = json.loads(out.read_text())
        certificates = report["certificates"]
        doctored = tmp_path / "doctored.json"
        # each still a true equality: only its place ties it to a pair
        swapped = [certificates[1], certificates[0]] + certificates[2:]
        for certs in (certificates[1:], swapped):
            doctored.write_text(json.dumps({**report, "certificates": certs}))
            capsys.readouterr()
            assert run(["replay", str(doctored)]) == 3
            assert UNOWED_AMALGAM in capsys.readouterr().err
        # one arrow per catalog object, each in hom(A, A')
        verdict = report["verdicts"][0]
        arrows = verdict["arrows"]
        for listed in (arrows[:-1], arrows + arrows[-1:],
                       [{**arrows[0], "A": arrows[1]["A"]}] + arrows[1:]):
            doctored.write_text(json.dumps(
                {**report, "verdicts": [{**verdict, "arrows": listed}]}))
            capsys.readouterr()
            assert run(["replay", str(doctored)]) == 3
            assert "amalgamation arrow" in capsys.readouterr().err

    def test_tampered_report_rejected(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        run(["--out", str(out), "arrow", "--catalog", lo_paths["lo6"],
             "--C", "LO5", "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"])
        report = json.loads(out.read_text())
        cert = report["certificates"][0]
        cert["values"] = [0 for _ in cert["values"]]
        out.write_text(json.dumps(report))
        from ramsey_workbench.cli import replay
        with pytest.raises(CorruptCertificate):
            replay(str(out))

    def test_skeleton_report_replays_without_building_the_category(
            self, lo_paths, tmp_path, monkeypatch):
        from ramsey_workbench import category

        out = tmp_path / "r.json"
        assert run(["--out", str(out), "cat", "skeleton",
                    "--catalog", lo_paths["lo4"]]) == 0
        calls = []
        real = category.enumerate_embeddings
        monkeypatch.setattr(category, "enumerate_embeddings",
                            lambda a, b: calls.append((a, b)) or real(a, b))
        assert run(["--out", str(tmp_path / "rep.json"),
                    "replay", str(out)]) == 0
        assert calls == []

    def test_bad_coloring_replays_from_three_hom_sets(self, tmp_path,
                                                      monkeypatch):
        from ramsey_workbench import category

        catalog = tmp_path / "lo8.json"
        save_catalog(lo_catalog(8), catalog)
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "arrow", "--catalog", str(catalog),
                    "--C", "LO8", "--B", "LO3", "--A", "LO2",
                    "-k", "3", "-t", "1"]) == 1
        enumerated = []
        real = category.enumerate_embeddings
        monkeypatch.setattr(category, "enumerate_embeddings",
                            lambda a, b: enumerated.append((a.name, b.name))
                            or real(a, b))
        assert run(["--out", str(tmp_path / "rep.json"),
                    "replay", str(out)]) == 0
        assert sorted(enumerated) == [("LO2", "LO3"), ("LO2", "LO8"),
                                      ("LO3", "LO8")]

    def test_bad_coloring_with_unknown_object_is_corrupt(self, lo_paths,
                                                         tmp_path):
        out = tmp_path / "r.json"
        run(["--out", str(out), "arrow", "--catalog", lo_paths["lo6"],
             "--C", "LO5", "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"])
        report = json.loads(out.read_text())
        report["certificates"][0]["C"] = "LO99"
        out.write_text(json.dumps(report))
        from ramsey_workbench.cli import replay
        with pytest.raises(CorruptCertificate):
            replay(str(out))
        assert run(["replay", str(out)]) == 3

    def test_replay_errors_exit_three(self, tmp_path):
        catalog = tmp_path / "lo4.json"
        save_catalog(lo_catalog(4), catalog)
        out = tmp_path / "r.json"
        run(["--out", str(out), "cat", "skeleton", "--catalog", str(catalog)])
        save_catalog(lo_catalog(3), catalog)
        assert run(["replay", str(out)]) == 3
        orphan = tmp_path / "orphan.json"
        orphan.write_text(json.dumps({"certificates": [
            {"type": "composition-equality", "lhs": ["x"], "rhs": ["x"],
             "note": "no catalog"}]}))
        assert run(["replay", str(orphan)]) == 3

    def test_malformed_structure_catalog_gives_the_loader_message(
            self, tmp_path, capsys):
        # a structure catalog is read as one even when it is malformed: the
        # error names the stray symbol, not a table key such as 'objects'
        catalog = tmp_path / "lo4.json"
        save_catalog(lo_catalog(4), catalog)
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "arrow", "--catalog", str(catalog),
                    "--C", "LO4", "--B", "LO3", "--A", "LO2",
                    "-k", "2", "-t", "1"]) == 1
        doc = json.loads(catalog.read_text())
        lo3 = next(s for s in doc["structures"] if s["name"] == "LO3")
        lo3["relations"] = {"lts": lo3["relations"]["lt"]}
        catalog.write_text(json.dumps(doc))
        report = json.loads(out.read_text())
        report["catalog"]["sha256"] = hashlib.sha256(
            catalog.read_bytes()).hexdigest()
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["replay", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("error: catalog structure LO3 names symbols ['lts'] "
                       "outside the signature\n")

    @pytest.mark.parametrize("base,doctor", [
        ("arrow", _set_field("domain", 3)),
        ("arrow", _set_field("values", None)),
        ("arrow", _set_field("k", "2")),
        ("arrow", lambda report: {**report, "certificates": ["x"]}),
        ("arrow", lambda report: [report]),
        ("colim", _set_field("lhs", 3)),
    ], ids=["domain-int", "values-null", "k-string", "certificate-string",
            "report-list", "map-lhs-int"])
    def test_malformed_report_exits_three(self, replayable, tmp_path, base,
                                          doctor):
        report = json.loads(replayable[base].read_text())
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(doctor(report)))
        assert run(["replay", str(path)]) == 3

    @pytest.mark.parametrize("doctor,code", [
        (lambda cert: cert, 0),
        (lambda cert: {"type": "exhaustion", "kind": "anything-at-all"}, 3),
        (lambda cert: {**cert, "kind": "anything-at-all"}, 3),
        (lambda cert: {**cert, "C": "LO99"}, 3),
        (lambda cert: {**cert, "A": 2}, 3),
    ], ids=["as-written", "bare-kind", "unknown-kind", "unknown-C", "A-int"])
    def test_exhaustion_names_a_known_kind_and_catalog_objects(
            self, replayable, tmp_path, doctor, code):
        for base in ("holds", "degree"):
            report = json.loads(replayable[base].read_text())
            report["certificates"] = [
                doctor(cert) if cert["type"] == "exhaustion" else cert
                for cert in report["certificates"]]
            path = tmp_path / f"{base}.json"
            path.write_text(json.dumps(report))
            assert run(["replay", str(path)]) == code

    def test_certificate_free_report_replays_without_parsing_the_catalog(
            self, tmp_path, monkeypatch):
        from ramsey_workbench import cli

        catalog = tmp_path / "abstract.json"
        catalog.write_text(json.dumps(TWO_OBJECT_DOC))
        reports = [tmp_path / "check.json", tmp_path / "op.json"]
        for out, action in zip(reports, ("check", "op")):
            assert run(["--out", str(out), "cat", action, "--abstract",
                        "--catalog", str(catalog)]) == 0
            assert json.loads(out.read_text())["certificates"] == []
        calls = []
        monkeypatch.setattr(cli, "abstract_from_json",
                            lambda doc: calls.append(doc))
        for out in reports:
            assert run(["--out", str(tmp_path / "rep.json"),
                        "replay", str(out)]) == 0
        assert calls == []

    @pytest.mark.parametrize("base,parses", [
        ("two-of-k-fails", 0), ("check", 0), ("two-of-k", 1), ("wap", 1),
        ("wap-abstract", 1)])
    def test_catalog_is_parsed_on_first_use_only(self, replayable, lo_paths,
                                                 tmp_path, monkeypatch, base,
                                                 parses):
        """A verdict that owes nothing parses no catalog, and one whose
        owed amalgams and their re-checks read it parses it once."""
        path = replayable.get(base)
        if path is None:
            path = tmp_path / "check.json"
            assert run(["--out", str(path), "cat", "check",
                        "--catalog", lo_paths["lo4"]]) == 0
        calls = []
        real = cli._replay_category
        monkeypatch.setattr(cli, "_replay_category",
                            lambda data: calls.append(data) or real(data))
        assert run(["--out", str(tmp_path / "rep.json"),
                    "replay", str(path)]) == 0
        assert len(calls) == parses

    def test_changed_abstract_catalog_still_exits_three(self, tmp_path):
        catalog = tmp_path / "abstract.json"
        catalog.write_text(json.dumps(TWO_OBJECT_DOC))
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "cat", "check", "--abstract",
                    "--catalog", str(catalog)]) == 0
        catalog.write_text(json.dumps(ABSTRACT_DOC))
        assert run(["replay", str(out)]) == 3

    def test_wrong_typed_report_gives_a_short_error_line(self, replayable,
                                                         tmp_path, capsys):
        report = json.loads(replayable["arrow"].read_text())
        path = tmp_path / "listed.json"
        path.write_text(json.dumps([report]))
        capsys.readouterr()
        assert run(["replay", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: report must be dict, not list [{")
        assert err.count("\n") == 1 and len(err) < 100

    @pytest.mark.parametrize("base,doctor", [
        ("holds", lambda text: text.replace('"HOLDS"', '"FAILS"')),
        ("holds", lambda text: json.dumps(dict(json.loads(text), status="FAILS"))),
        ("arrow", lambda text: text.replace('"FAILS"', '"HOLDS"')),
        ("holds", lambda text: json.dumps(
            {**json.loads(text), "verdicts": json.loads(text)["verdicts"] * 2})),
        ("wap", lambda text: text.replace('"HOLDS"', '"FAILS"')),
        ("two-of-k", lambda text: text.replace('"HOLDS"', '"FAILS"')),
        ("two-of-k-fails", lambda text: text.replace('"FAILS"', '"HOLDS"')),
        ("colim", lambda text: text.replace('"HOLDS"', '"FAILS"')),
    ], ids=["holds-all-flipped", "holds-status-flipped", "fails-all-flipped",
            "two-verdicts", "wap-flipped", "two-of-k-flipped",
            "two-of-k-fails-flipped", "colim-flipped"])
    def test_report_must_agree_with_its_verdict(self, replayable, tmp_path,
                                                base, doctor):
        """The status is that of exactly one verdict, and an arrow-holds
        exhaustion sits under HOLDS, an arrow-fails colouring under FAILS,
        and an equality certificate under the HOLDS of its question; a
        two-out-of-k HOLDS owes its pair amalgams."""
        path = tmp_path / "doctored.json"
        path.write_text(doctor(replayable[base].read_text()))
        assert run(["replay", str(path)]) == 3

    @staticmethod
    def _fails_coloring(replayable):
        return json.loads(replayable["arrow"].read_text())["certificates"][0]

    @staticmethod
    def _rekind(report, kind):
        for cert in report["certificates"]:
            cert["kind"] = kind
        return report

    @pytest.mark.parametrize("base,doctor,code", [
        ("degree-lower", lambda report, fails: report, 0),
        ("arrow", lambda report, fails: TestReplay._rekind(
            report, "anything-at-all"), 3),
        ("holds", lambda report, fails: {
            **report, "certificates": report["certificates"]
            + [{**fails, "kind": "degree-lower"}]}, 3),
        ("degree-lower", lambda report, fails: TestReplay._rekind(
            report, "arrow-fails"), 3),
        ("holds", lambda report, fails: TestReplay._rekind(
            report, "degree-upper"), 3),
        ("degree", lambda report, fails: TestReplay._rekind(
            report, "arrow-holds"), 3),
    ], ids=["degree-lower-as-written", "fails-kind-unknown",
            "holds-with-degree-lower", "degree-lower-as-arrow-fails",
            "arrow-holds-as-degree-upper", "degree-upper-as-arrow-holds"])
    def test_certificate_kind_is_bound_to_its_question(
            self, replayable, tmp_path, base, doctor, code):
        """arrow-fails and arrow-holds sit only under an arrow verdict,
        degree-lower and degree-upper only under a degree verdict, and no
        other kind replays."""
        report = json.loads(replayable[base].read_text())
        assert report["certificates"]
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(doctor(report,
                                          self._fails_coloring(replayable))))
        assert run(["replay", str(path)]) == code

    @pytest.mark.parametrize("base,borrowed,fault", [
        ("colim", "wap", UNOWED_AMALGAM), ("colim", "two-of-k", UNOWED_AMALGAM),
        ("wap", "colim", "under a"), ("two-of-k", "colim", "under a"),
        ("holds", "wap", UNOWED_AMALGAM)],
        ids=["colim-wap", "colim-two-of-k", "wap-colim", "two-of-k-colim",
             "holds-wap"])
    def test_equality_certificate_is_bound_to_its_question(
            self, replayable, tmp_path, base, borrowed, fault):
        """A composition-equality sits only where a weak-amalgamation or
        two-out-of-k HOLDS owes it, a map-equality only under a colimit
        HOLDS."""
        report = json.loads(replayable[base].read_text())
        lent = json.loads(replayable[borrowed].read_text())["certificates"]
        report["certificates"] = report["certificates"] + lent[:1]
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(report))
        with pytest.raises(CorruptCertificate, match=fault):
            cli.replay(str(path))
        assert run(["replay", str(path)]) == 3

    @pytest.mark.parametrize("base,keep", [
        # the lower end is refuted at LO1 only, or nowhere at all
        ("degree-lower", lambda cert: cert["kind"] != "degree-lower"
         or cert["C"] == "LO1"),
        ("degree-lower", lambda cert: False),
        ("degree-lower", lambda cert: cert["kind"] != "degree-upper"),
        ("degree", lambda cert: cert["k"] == 1),
    ], ids=["lower-at-LO1-only", "no-certificates", "no-upper",
            "upper-at-k1-only"])
    def test_degree_report_owes_its_certificates(self, replayable, tmp_path,
                                                 base, keep):
        """One degree-lower colouring for each catalog object, and one
        degree-upper exhaustion for each (B, k) of b_range and k_max."""
        report = json.loads(replayable[base].read_text())
        report["certificates"] = [c for c in report["certificates"] if keep(c)]
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(report))
        with pytest.raises(CorruptCertificate, match="one for each bad colouring"):
            cli.replay(str(path))
        assert run(["replay", str(path)]) == 3

    def test_degree_certificate_twice_is_rejected(self, replayable, tmp_path):
        report = json.loads(replayable["degree-lower"].read_text())
        report["certificates"].append(report["certificates"][0])
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(report))
        assert run(["replay", str(path)]) == 3

    @pytest.mark.parametrize("base", ["wap", "wap-abstract", "two-of-k",
                                      "colim", "degree", "degree-lower"])
    def test_reports_as_written_replay(self, replayable, base):
        assert json.loads(replayable[base].read_text())["certificates"]
        assert run(["replay", str(replayable[base])]) == 0

    @staticmethod
    def _verdict(report):
        return report["verdicts"][0]

    @staticmethod
    def _off_catalog(report, name, value, emptied=()):
        """Put one instance object off the catalog, in the verdict and its
        certificate alike, and empty the certificate's named fields."""
        TestReplay._verdict(report)[name] = value
        cert = report["certificates"][0]
        cert.update({name: value}, **{field: [] for field in emptied})

    @staticmethod
    def _keep(report, keep):
        report["certificates"] = [c for c in report["certificates"] if keep(c)]

    @staticmethod
    def _relabel_holds(report, *dropped):
        """The report and its verdict relabelled HOLDS, less dropped keys."""
        report["status"] = TestReplay._verdict(report)["status"] = "HOLDS"
        for key in dropped:
            del report[key]

    @staticmethod
    def _true_equalities(report):
        """A FAILS relabelled HOLDS, with as many pair amalgams as it owes,
        each the true equality id.f = f for f = LO2->LO3#0.  The first
        tuple is three copies of id_LO2, so no pair of it ends either side."""
        TestReplay._relabel_holds(report)
        report["certificates"] = [
            {"type": "composition-equality", "note": "pair amalgam",
             "lhs": ["LO3->LO3#0", "LO2->LO3#0"], "rhs": ["LO2->LO3#0"]}
        ] * cli.WITNESS_CAP

    @staticmethod
    def _k_max_1(report):
        """k_max cut to 1, and the k = 2 upper certificates with it; the
        lower certificate keeps its k = 2."""
        TestReplay._interval(report)["k_max"] = 1
        TestReplay._keep(report, lambda c: c["kind"] == "degree-lower"
                         or c["k"] == 1)

    @pytest.mark.parametrize("base,doctor,fault", [
        # off the catalog every hom-set is empty, so any colouring of the
        # empty domain is bad, and with hom(B, C) empty so is every colouring
        ("arrow", lambda r: TestReplay._off_catalog(
            r, "C", "NOPE", ("domain", "values")),
         "arrow-fails C 'NOPE' is not a catalog object"),
        ("arrow", lambda r: TestReplay._off_catalog(r, "B", "LO9"),
         "arrow-fails B 'LO9' is not a catalog object"),
        ("holds", lambda r: TestReplay._off_catalog(r, "C", "NOPE"),
         "arrow-holds C 'NOPE' is not a catalog object"),
        ("degree-lower", lambda r: TestReplay._keep(
            r, lambda c: c["kind"] != "degree-lower" or c["C"] == "LO1"),
         "kinded certificates are not one for each bad colouring"),
        ("degree-lower", lambda r: TestReplay._keep(
            r, lambda c: c["kind"] != "degree-upper"),
         "kinded certificates are not one for each bad colouring"),
        ("degree", lambda r: TestReplay._interval(r)["catalog"].pop(),
         "the degree interval's catalog is not the report catalog's"),
        ("degree-lower", lambda r: TestReplay._k_max_1(r),
         "the lower certificate's B or k is outside b_range and k_max"),
        # hom(LO2, LO1) is empty, and b_range without LO3 leaves it out
        ("degree-lower", lambda r: TestReplay._interval(r)[
            "lower_certificate"].update(B="LO1"),
         "the lower certificate's B or k is outside b_range and k_max"),
        ("degree-lower", lambda r: TestReplay._interval(r).update(
            b_range=["LO1", "LO2"]),
         "the lower certificate's B or k is outside b_range and k_max"),
        # a claim that would owe 10^9 exhaustions per B builds no list
        ("degree-lower", lambda r: TestReplay._interval(r).update(
            k_max=10 ** 9),
         "kinded certificates are not one for each bad colouring"),
        ("degree", lambda r: r["certificates"][0].update(C="NOPE"),
         "degree-upper C 'NOPE' is not a catalog object"),
        # [1, 1] with no lower certificate, claiming a lower end of 5
        ("degree", lambda r: TestReplay._interval(r).update(lower=5),
         "a lower end of 5 with lower certificate None"),
        ("degree", lambda r: TestReplay._interval(r).update(lower=0),
         "a lower end of 0 with lower certificate None"),
        ("degree-lower", lambda r: TestReplay._interval(r).update(lower=1),
         "a lower end of 1 with lower certificate {'B': 'LO3'"),
        ("degree", lambda r: TestReplay._interval(r).update(upper=0),
         "a degree interval [1, 0]"),
        ("two-of-k", lambda r: r["certificates"].pop(), UNOWED_AMALGAM),
        ("two-of-k", lambda r: TestReplay._verdict(r).update(k=1),
         "a two-out-of-k HOLDS owes one pair amalgam per k-tuple"),
        ("two-of-k-fails", lambda r: TestReplay._relabel_holds(r),
         UNOWED_AMALGAM),
        # off the catalog nothing is owed, so no certificate is needed
        ("two-of-k", lambda r: TestReplay._verdict(r).update(A="NOPE")
         or r["certificates"].clear(), "not 'NOPE' at k = 2"),
        ("degree", lambda r: TestReplay._interval(r).update(object="NOPE")
         or r["certificates"].clear(),
         "interval object 'NOPE' is not a catalog object"),
        ("two-of-k-fails", lambda r: TestReplay._relabel_holds(r, "catalog"),
         "two-out-of-k without a catalog"),
        ("two-of-k-fails", lambda r: TestReplay._true_equalities(r),
         UNOWED_AMALGAM),
        ("degree-unknown", lambda r: r.pop("catalog"),
         "degree-interval without a catalog"),
        ("wap", _set_field("lhs", []),
         "empty composition: amalgamation arrow for LO1"),
        ("wap", _set_field("rhs", ["LO1->LO4#1"]),
         "composition differs: amalgamation arrow for LO1"),
        ("colim", lambda r: r["certificates"][-1]["rhs"].reverse(),
         "maps differ: cocone triangle 2->2"),
        ("arrow", _set_field("type", "frobnicate"),
         "unknown certificate type 'frobnicate'"),
        ("arrow", lambda r: r["certificates"][0]["domain"].reverse(),
         "bad coloring does not replay: arrow-fails"),
        ("arrow", lambda r: r["certificates"][0]["values"].pop(),
         "coloring is not total"),
        ("arrow", lambda r: r["certificates"][0]["values"].append(2),
         "coloring is not total"),
        ("arrow", lambda r: r["certificates"][0]["values"].__setitem__(0, 2),
         "color out of range"),
    ], ids=["fails-C-off-catalog", "fails-B-off-catalog",
            "holds-C-off-catalog", "lower-at-LO1-only", "no-upper-witness",
            "interval-catalog", "lower-k-above-k_max", "lower-B-no-hom",
            "lower-B-off-b_range", "k_max-huge", "upper-C-off-catalog",
            "lower-5-without-certificate", "lower-0-without-certificate",
            "lower-1-with-certificate", "lower-above-upper",
            "two-of-k-amalgam-cut", "two-of-k-k-1", "two-of-k-A-off-catalog",
            "degree-object-off-catalog", "two-of-k-fails-as-holds",
            "two-of-k-without-catalog", "two-of-k-untied-amalgams",
            "degree-without-catalog",
            "empty-composition",
            "composition-differs", "maps-differ", "unknown-type",
            "wrong-domain", "values-short", "values-long",
            "color-out-of-range"])
    def test_refusal_names_its_fault(self, replayable, tmp_path, capsys, base,
                                     doctor, fault):
        """Each doctored report meets one refusal, which the error names.
        A fault in an instance is put in the verdict and its certificates
        together, so the certificates are still the ones the verdict owes."""
        report = json.loads(replayable[base].read_text())
        doctor(report)
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["replay", str(path)]) == 3
        assert fault in capsys.readouterr().err

    @staticmethod
    def _interval(report):
        return report["verdicts"][0]["interval"]

    @pytest.mark.parametrize("base,doctor", [
        # LO6 -> (LO3)^LO2_{2,1} holds (R(3,3) = 6); the LO5 colouring
        # proves nothing about it
        ("arrow", lambda r: TestReplay._verdict(r).update(C="LO6")),
        ("holds", lambda r: TestReplay._verdict(r).update(t=2)),
        ("degree", lambda r: TestReplay._interval(r).update(upper=2)),
        ("degree", lambda r: TestReplay._interval(r).update(object="LO1")),
        ("degree-lower", lambda r: TestReplay._interval(r).update(lower=3)),
        ("degree-lower", lambda r: TestReplay._interval(r)[
            "lower_certificate"].update(B="LO2")),
    ], ids=["fails-C", "holds-t", "degree-upper-raised", "degree-object",
            "degree-lower-raised", "degree-lower-B"])
    def test_certificate_is_bound_to_its_verdicts_instance(
            self, replayable, tmp_path, base, doctor):
        """A certificate must carry the instance its verdict claims: an
        arrow's C, B, A, k and t, the B and k of each (B, k) at the upper
        end, or the lower certificate's B and k one below the lower end."""
        report = json.loads(replayable[base].read_text())
        doctor(report)
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(report))
        with pytest.raises(CorruptCertificate, match="verdict's instance"):
            cli.replay(str(path))
        assert run(["replay", str(path)]) == 3

    @pytest.mark.parametrize("base,doctor", [
        ("arrow", lambda r: TestReplay._verdict(r).update(k="2")),
        ("arrow", lambda r: TestReplay._verdict(r).update(k=True)),
        ("arrow", lambda r: TestReplay._verdict(r).pop("C")),
        ("degree", lambda r: TestReplay._verdict(r).update(interval=[1, 2])),
        ("degree", lambda r: TestReplay._interval(r).update(upper="1")),
        ("degree", lambda r: TestReplay._interval(r).update(k_max="2")),
        ("degree", lambda r: TestReplay._interval(r).update(k_max=2.0)),
        ("degree", lambda r: TestReplay._interval(r).update(b_range="LO2")),
        ("degree", lambda r: TestReplay._interval(r).update(b_range=[2])),
        ("degree-lower", lambda r: TestReplay._interval(r).update(lower="2")),
        ("degree-lower", lambda r: TestReplay._interval(r)[
            "lower_certificate"].update(k="2")),
        ("degree-lower", lambda r: TestReplay._interval(r).update(
            lower_certificate=[])),
        ("degree-lower", lambda r: TestReplay._interval(r).update(
            lower_certificate=None)),
    ], ids=["k-string", "k-bool", "C-missing", "interval-list", "upper-string",
            "k_max-string", "k_max-float", "b_range-string",
            "b_range-int-item", "lower-string", "lower-k-string",
            "lower-cert-list", "lower-cert-null"])
    def test_wrong_typed_verdict_field_exits_three(self, replayable, tmp_path,
                                                   base, doctor):
        report = json.loads(replayable[base].read_text())
        doctor(report)
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(report))
        assert run(["replay", str(path)]) == 3

    def test_empty_report_succeeds(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"certificates": []}))
        from ramsey_workbench.cli import replay
        code, result = replay(str(path))
        assert code == 0 and result["replayed"] == 0

    @pytest.mark.parametrize("k", [3, 9, 10])
    def test_pair_amalgams_are_tied_to_their_tuples(self, tmp_path, capsys, k):
        """Two of any k > 3 extensions of LO1 in LO2 are equal, and an equal
        pair amalgamates.  Past 8 places the capped tuples lead with copies
        of id_LO1, and the report replays as written; with its first
        amalgam moved onto LO1->LO2#1, absent from the first tuple, it
        exits 3."""
        catalog, report = tmp_path / "lo2.json", tmp_path / "r.json"
        save_catalog(lo_catalog(2), catalog)
        assert run(["--out", str(report), "amalgam", "--two-of-k", str(k),
                    "--A", "LO1", "--catalog", str(catalog)]) == 0
        assert run(["replay", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["certificates"][0].update(lhs=["LO2->LO2#0", "LO1->LO2#1"],
                                      rhs=["LO1->LO2#1"])
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["replay", str(report)]) == 3
        assert UNOWED_AMALGAM in capsys.readouterr().err


class TestReadOnDemand:
    @pytest.fixture
    def reads(self, monkeypatch):
        from ramsey_workbench import category

        reads = []
        real = category.enumerate_embeddings
        monkeypatch.setattr(category, "enumerate_embeddings",
                            lambda a, b: reads.append((a.name, b.name))
                            or real(a, b))
        return reads

    def test_arrow_reads_four_hom_sets(self, tmp_path, reads):
        catalog = tmp_path / "lo8.json"
        save_catalog(lo_catalog(8), catalog)
        assert run(["--out", str(tmp_path / "r.json"), "arrow",
                    "--catalog", str(catalog), "--C", "LO8", "--B", "LO3",
                    "--A", "LO2", "-k", "2", "-t", "1"]) == 0
        assert sorted(reads) == [("LO2", "LO3"), ("LO2", "LO8"),
                                 ("LO3", "LO8"), ("LO8", "LO8")]

    def test_skeleton_reads_none(self, tmp_path, reads):
        catalog = tmp_path / "g.json"
        save_catalog([path_graph(3), graph(3, [(0, 2), (2, 1)], name="P3r"),
                      graph(2, [(0, 1)], name="K2")], catalog)
        assert run(["--out", str(tmp_path / "r.json"), "cat", "skeleton",
                    "--catalog", str(catalog)]) == 0
        assert reads == []


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, lo_paths, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["arrow", "--catalog", lo_paths["lo6"], "--C", "LO5",
                "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"]
        run(["--out", str(a)] + argv)
        run(["--out", str(b)] + argv)
        assert a.read_bytes() == b.read_bytes()

    def test_output_path_never_reaches_the_report(self, lo_paths, tmp_path,
                                                  capsys):
        argv = ["cat", "check", "--catalog", lo_paths["lo4"]]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["--out", str(a)] + argv) == 0
        assert run([f"--out={b}"] + argv) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert a.read_text() == b.read_text() == capsys.readouterr().out
        # no abbreviation can smuggle the path into the echo
        assert run(["--ou", str(a)] + argv) == 3

    def test_seed_recorded(self, lo_paths, tmp_path):
        out = tmp_path / "r.json"
        run(["--out", str(out), "--seed", "99", "cat", "check",
             "--catalog", lo_paths["lo4"]])
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 99


@pytest.fixture(scope="module")
def lo8_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("lo8") / "lo8.json"
    save_catalog([linear_order(n) for n in (2, 4, 8)], path)
    return str(path)


# LO8 -> (LO4)^LO2_{3,2} fails, but only after more than CLOCK_EVERY nodes
LO8_ARROW = ["--C", "LO8", "--B", "LO4", "--A", "LO2", "-k", "3", "-t", "2"]


class TestTimeBudget:
    """--budget-secs is one deadline per question, read before each arrow
    search and every CLOCK_EVERY nodes in it; a search it stops is
    UNKNOWN-AT-BOUND and says why."""

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_passed_deadline_gives_exit_two(self, lo8_path, tmp_path,
                                            monkeypatch,
                                            deadline_passes_once_started, via):
        code, full = run_json(["arrow", "--catalog", lo8_path] + LO8_ARROW,
                              tmp_path / "full.json")
        assert code == 1
        assert full["verdicts"][0]["stats"]["nodes"] > CLOCK_EVERY
        budget = ["--budget-secs", "0"] if via == "flag" else []
        if via == "env":
            monkeypatch.setenv("RW_BUDGET_SECS", "0")
        out = tmp_path / "r.json"
        code, report = run_json(budget + ["arrow", "--catalog", lo8_path]
                                + LO8_ARROW, out)
        assert code == 2
        verdict = report["verdicts"][0]
        assert (report["status"], verdict["note"]) == ("UNKNOWN-AT-BOUND",
                                                       TIME_OUT)
        assert verdict["stats"]["nodes"] == CLOCK_EVERY + 1
        assert report["config"]["budget_secs"] == 0
        assert report["certificates"] == []
        assert run(["--out", str(tmp_path / "rep.json"), "replay", str(out)]) == 0

    def test_catalog_load_counts_against_the_deadline(self, lo_paths,
                                                      tmp_path, monkeypatch):
        """The deadline starts when the question does: a load that takes
        longer than the budget leaves no time for the search."""
        real = cli.load_catalog
        monkeypatch.setattr(cli, "load_catalog",
                            lambda path: time.sleep(0.2) or real(path))
        code, report = run_json(
            ["--budget-secs", "0.1", "arrow", "--catalog", lo_paths["lo6"],
             "--C", "LO6", "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"],
            tmp_path / "r.json")
        assert (code, report["verdicts"][0]["note"]) == (2, TIME_OUT)

    @pytest.mark.parametrize("secs", ["-1", "nan", "inf", "abc"])
    def test_budget_must_be_finite_and_not_negative(self, lo_paths, tmp_path,
                                                    monkeypatch, secs):
        # a report holds no NaN or Infinity, which JSON does not have
        out = tmp_path / "r.json"
        argv = ["cat", "check", "--catalog", lo_paths["lo4"]]
        assert run(["--out", str(out), "--budget-secs", secs] + argv) == 3
        monkeypatch.setenv("RW_BUDGET_SECS", secs)
        assert run(["--out", str(out)] + argv) == 3
        assert not out.exists()

    def test_search_done_before_the_first_clock_reading_is_decided(
            self, tmp_path, deadline_passes_once_started):
        # LO10 -> (LO3)^LO2_{3,1} fails in 72 nodes (R(3,3,3) = 17 > 10):
        # the deadline passes once the search has begun, and the search ends
        # before its first clock reading
        catalog = tmp_path / "lo10.json"
        save_catalog([linear_order(n) for n in (2, 3, 10)], catalog)
        out = tmp_path / "r.json"
        code, report = run_json(
            ["--budget-secs", "0", "arrow", "--catalog", str(catalog), "--C",
             "LO10", "--B", "LO3", "--A", "LO2", "-k", "3", "-t", "1"], out)
        assert code == 1
        assert "note" not in report["verdicts"][0]
        assert run(["--out", str(tmp_path / "rep.json"), "replay", str(out)]) == 0

    def test_oracle_ignores_the_deadline(self, lo_paths, tmp_path):
        code, report = run_json(
            ["--budget-secs", "0", "arrow", "--oracle", "--catalog",
             lo_paths["lo6"], "--C", "LO6", "--B", "LO3", "--A", "LO2",
             "-k", "2", "-t", "1"], tmp_path / "r.json")
        assert (code, report["status"]) == (0, "HOLDS")
        assert "note" not in report["verdicts"][0]

    def test_degree_lists_the_stopped_search_and_says_why(self, lo8_path,
                                                          tmp_path):
        argv = ["degree", "--catalog", lo8_path, "--A", "LO2", "--kmax", "3"]
        code, full = run_json(argv, tmp_path / "full.json")
        assert code == 0
        assert full["verdicts"][0]["interval"]["unknowns"] == []
        assert "note" not in full["verdicts"][0]
        out = tmp_path / "r.json"
        code, report = run_json(["--budget-secs", "0"] + argv, out)
        verdict = report["verdicts"][0]
        assert code == 2
        assert verdict["note"] == TIME_OUT
        assert verdict["interval"]["upper"] is None
        # the first search the deadline stops ends the question
        assert verdict["interval"]["unknowns"] == ["LO2:LO2:1:1"]
        assert run(["--out", str(tmp_path / "rep.json"), "replay", str(out)]) == 0

    @pytest.mark.parametrize("argv", [
        ["degree", "--catalog", "lo6", "--A", "LO2", "--kmax", "2",
         "--bmax", "3"],
        ["arrow", "--catalog", "lo6", "--C", "LO6", "--B", "LO3", "--A",
         "LO2", "-k", "2", "-t", "1"]], ids=["degree", "arrow-26-nodes"])
    def test_zero_budget_decides_nothing(self, lo_paths, tmp_path, argv):
        """Each search reads the clock before it starts, so no question of
        short searches is decided once the deadline has passed."""
        argv = [lo_paths[a] if a == "lo6" else a for a in argv]
        assert run_json(argv, tmp_path / "full.json")[0] == 0
        out = tmp_path / "r.json"
        code, report = run_json(["--budget-secs", "0"] + argv, out)
        assert (code, report["status"]) == (2, "UNKNOWN-AT-BOUND")
        assert report["verdicts"][0]["note"] == TIME_OUT
        assert report["certificates"] == []
        assert run(["--out", str(tmp_path / "rep.json"), "replay", str(out)]) == 0


class TestEnvironmentDefaults:
    """RW_* give the defaults of --seed and the budgets, read at every run."""

    CHECK = ["cat", "check", "--catalog"]

    def test_seed_is_read_at_every_run(self, lo_paths, tmp_path, monkeypatch):
        for seed in (7, 8):
            monkeypatch.setenv("RW_SEED", str(seed))
            code, report = run_json(self.CHECK + [lo_paths["lo4"]],
                                    tmp_path / f"r{seed}.json")
            assert (code, report["config"]["seed"]) == (0, seed)

    def test_malformed_seed_exits_three(self, lo_paths, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv("RW_SEED", "abc")
        out = tmp_path / "r.json"
        assert run(["--out", str(out)] + self.CHECK + [lo_paths["lo4"]]) == 3
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value,code,echo", [("", 0, None), ("5", 2, 5)])
    def test_node_budget_from_the_environment(self, lo_paths, tmp_path,
                                              monkeypatch, value, code, echo):
        # LO6 -> (LO3)^LO2_{2,1} holds after 26 nodes
        monkeypatch.setenv("RW_BUDGET_NODES", value)
        result, report = run_json(
            ["arrow", "--catalog", lo_paths["lo6"], "--C", "LO6", "--B", "LO3",
             "--A", "LO2", "-k", "2", "-t", "1"], tmp_path / "r.json")
        assert (result, report["config"]["budget_nodes"]) == (code, echo)

    def test_flags_override_the_environment(self, lo_paths, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("RW_SEED", "7")
        monkeypatch.setenv("RW_BUDGET_NODES", "5")
        code, report = run_json(
            ["--seed", "3", "--budget-nodes", "100000", "arrow", "--catalog",
             lo_paths["lo6"], "--C", "LO6", "--B", "LO3", "--A", "LO2",
             "-k", "2", "-t", "1"], tmp_path / "r.json")
        assert code == 0
        assert report["config"]["seed"] == 3
        assert report["config"]["budget_nodes"] == 100000


def test_parser_is_built_once_per_process(lo_paths, tmp_path, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    out = tmp_path / "r.json"
    for i in range(20):
        argv = (["replay", str(out)] if i % 2 else
                ["cat", "check", "--catalog", lo_paths["lo4"]])
        assert run(["--out", str(out if i % 2 == 0 else tmp_path / "p.json")]
                   + argv) == 0
    assert len(builds) == 1


def _fields(doc, path=()):
    """Paths to every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


LO3_DOC = catalog_to_json(lo_catalog(3))
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


class TestCatalogValidation:
    def _set(self, path, value):
        doc = json.loads(json.dumps(LO3_DOC))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    @pytest.mark.parametrize("path", [
        ("signature",), ("signature", "relations"),
        ("signature", "relations", 0, "name"),
        ("signature", "relations", 0, "arity"), ("structures",),
        ("structures", 1, "name"), ("structures", 1, "size"),
    ], ids=["signature", "relations", "symbol-name", "symbol-arity",
            "structures", "structure-name", "structure-size"])
    def test_missing_field_is_named(self, tmp_path, capsys, path):
        doc = self._set(path, None)
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        catalog = tmp_path / "c.json"
        catalog.write_text(json.dumps(doc))
        assert run(["--out", str(tmp_path / "r.json"), "cat", "check",
                    "--catalog", str(catalog)]) == 3
        assert f"no {path[-1]!r} field" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [
        (("structures", 1, "size"), "2"),
        (("structures", 2, "relations", "lt"), 5),
        (("structures", 0, "size"), -1),
        (("structures", 1, "name"), "LO1"),
    ], ids=["string-size", "int-table", "negative-size", "duplicate-name"])
    def test_malformed_field_exits_three(self, tmp_path, path, value):
        catalog = tmp_path / "c.json"
        catalog.write_text(json.dumps(self._set(path, value)))
        assert run(["cat", "check", "--catalog", str(catalog)]) == 3

    @given(st.sampled_from(list(_fields(LO3_DOC))), JSON_VALUES)
    def test_any_wrong_typed_field_exits_three(self, lo_paths, path, value):
        original = LO3_DOC
        for key in path:
            original = original[key]
        # type() so that a bool never stands in for an int
        assume(type(value) is not type(original))
        catalog = lo_paths["root"] / "mutant.json"
        catalog.write_text(json.dumps(self._set(path, value)))
        assert run(["--out", str(lo_paths["root"] / "mutant-report.json"),
                    "cat", "check", "--catalog", str(catalog)]) == 3

    @pytest.mark.parametrize("field,symbol", [
        ("relations", "edges"), ("constants", "c")], ids=["relation", "constant"])
    def test_symbol_outside_the_signature_exits_three(self, tmp_path, capsys,
                                                      field, symbol):
        # a K2 whose table sat under "edges" once loaded edgeless, so the
        # skeleton put it in one class with E2 and exited 0
        doc = catalog_to_json([graph(2, [], name="E2"),
                               graph(2, [(0, 1)], name="K2")])
        k2 = doc["structures"][1]
        if field == "relations":
            k2["relations"] = {symbol: k2["relations"]["edge"]}
        else:
            k2["constants"] = {symbol: 0}
        catalog = tmp_path / "c.json"
        catalog.write_text(json.dumps(doc))
        assert run(["cat", "skeleton", "--catalog", str(catalog)]) == 3
        err = capsys.readouterr().err
        assert "K2" in err and repr(symbol) in err


ABSTRACT_DOC = {"objects": ["A"], "homs": {"A->A": ["a"]},
                "identities": {"A": "a"}, "compose": {"a∘a": "a"}}
# A -> B by f, with identities a and b
TWO_OBJECT_DOC = {"objects": ["A", "B"],
                  "homs": {"A->A": ["a"], "B->B": ["b"], "A->B": ["f"]},
                  "identities": {"A": "a", "B": "b"},
                  "compose": {"f∘a": "f", "b∘f": "f"}}
# four objects, two of whose names hold "->", with identities only
ARROW_NAMED_DOC = {"objects": ["A", "B->C", "A->B", "C"],
                   "homs": {"A->A": ["a"], "B->C->B->C": ["bc"],
                            "A->B->A->B": ["ab"], "C->C": ["c"]},
                   "identities": {"A": "a", "B->C": "bc", "A->B": "ab",
                                  "C": "c"}}


class TestLoaderValidation:
    """Malformed sequence, abstract-category and degree files exit 3."""

    @pytest.mark.parametrize("objects,bonding", [
        (["LO1", "LO2", "LO3"], {"0->1": "x", "1->2": [0, 1]}),
        (["LO1", "LO2", "LO3"], {"0->one": [0], "1->2": [0, 1]}),
        (["LO1", "LO2", "LO3"], {"0->1": [0], "00->1": [0], "1->2": [0, 1]}),
        (["LO1", "LO2", "LO3"], {"0->1": [0], "1->2": [1, 0]}),
        (["LO1", "LO2", "LO5"], {"0->1": [0], "1->2": [0, 1]}),
        (["LO1", "LO2", "LO3"], {"0->1": ["0"], "1->2": [0, 1]}),
        (["LO1", "LO2", "LO3"], {"0->2": [0], "1->2": [0, 1]}),
        (["LO1", "LO2", "LO3"], {"0->1": [], "1->2": [0, 1]}),
        (["LO1", "LO2", "LO3"], {"0->1": [2], "1->2": [0, 1]}),
    ], ids=["string-map", "non-int-level", "leading-zero", "not-an-embedding",
            "object-not-in-catalog", "string-in-map", "no-first-step",
            "short-map", "map-off-target"])
    def test_malformed_sequence_exits_three(self, lo_paths, tmp_path, objects,
                                            bonding):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"objects": objects,
                                        "bonding": bonding}))
        for action in ("colim", "wfcheck"):
            out = tmp_path / f"{action}.json"
            assert run(["--out", str(out), "seq", action, "--catalog",
                        lo_paths["lo4"], "--seq", str(seq_path)]) == 3
            assert not out.exists()

    @pytest.mark.parametrize("action", ["colim", "wfcheck"])
    def test_sequence_without_objects_is_named(self, lo_paths, tmp_path,
                                               capsys, action):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"bonding": {}}))
        assert run(["--out", str(tmp_path / "r.json"), "seq", action,
                    "--catalog", lo_paths["lo4"], "--seq", str(seq_path)]) == 3
        assert "no 'objects' field" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("homs", {"A->A": 5}),
        ("compose", {"a∘a": ["a"]}),
    ], ids=["int-hom-set", "list-composite"])
    def test_malformed_abstract_category_exits_three(self, tmp_path, field,
                                                     value):
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(dict(ABSTRACT_DOC, **{field: value})))
        assert run(["--out", str(tmp_path / "r.json"), "cat", "check",
                    "--abstract", "--catalog", str(path)]) == 3

    @pytest.mark.parametrize("composite", [5, None, ["a"], {}],
                             ids=["int", "null", "list", "dict"])
    def test_non_string_composite_exits_three(self, tmp_path, capsys,
                                              composite):
        """The loader type-checks a composite before it looks the name up,
        so an unhashable one is refused, not raised as a TypeError."""
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(dict(TWO_OBJECT_DOC, compose={
            "f∘a": composite})))
        assert run(["--out", str(tmp_path / "r.json"), "cat", "check",
                    "--abstract", "--catalog", str(path)]) == 3
        assert ("every composite must be a morphism id string"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("doc,named", [
        ({k: v for k, v in TWO_OBJECT_DOC.items() if k != "objects"},
         "no 'objects' field"),
        ({k: v for k, v in TWO_OBJECT_DOC.items() if k != "homs"},
         "no 'homs' field"),
        ({k: v for k, v in TWO_OBJECT_DOC.items() if k != "identities"},
         "no 'identities' field"),
        (dict(TWO_OBJECT_DOC, identities={"B": "b"}),
         "identity table has no entry for 'A'"),
    ], ids=["objects", "homs", "identities", "identity-of-A"])
    def test_missing_field_is_named(self, tmp_path, capsys, doc, named):
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(doc))
        assert run(["--out", str(tmp_path / "r.json"), "cat", "check",
                    "--abstract", "--catalog", str(path)]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        dict(TWO_OBJECT_DOC,
             homs=dict(TWO_OBJECT_DOC["homs"], **{"A->C": ["x"]})),
        dict(ABSTRACT_DOC, identities={"A": "z"}),
        dict(TWO_OBJECT_DOC, identities={"A": "f", "B": "b"}),
        dict(TWO_OBJECT_DOC, compose={"q∘a": "a"}),
        dict(TWO_OBJECT_DOC, compose={"a∘f": "a"}),
        dict(TWO_OBJECT_DOC, compose={"f∘a": "a"}),
        {"objects": ["A", "A"], "homs": {"A->A": ["i"]},
         "identities": {"A": "i"}},
        dict(TWO_OBJECT_DOC,
             homs=dict(TWO_OBJECT_DOC["homs"], **{"A->B": ["f", "a"]})),
        dict(TWO_OBJECT_DOC, identities={"A": 5, "B": "b"}),
    ], ids=["undeclared-object", "unknown-identity", "identity-off-diagonal",
            "unknown-morphism", "non-composable", "composite-in-wrong-hom-set",
            "repeated-object", "id-in-two-hom-sets", "non-string-identity"])
    @pytest.mark.parametrize("action", ["check", "op"])
    def test_bad_reference_in_abstract_category_exits_three(
            self, tmp_path, doc, action):
        """Positions are trusted past the loader, so references are
        checked there: each defect exits 3 on every route."""
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(doc))
        assert run(["--out", str(tmp_path / "r.json"), "cat", action,
                    "--abstract", "--catalog", str(path)]) == 3

    @pytest.mark.parametrize("argv", [
        ["cat", "check"], ["cat", "op"], ["amalgam", "--wap"],
        ["amalgam", "--two-of-k", "3", "--A", "LO2"],
        ["amalgam", "--chain", "--A", "LO1"],
    ], ids=["cat-check", "cat-op", "wap", "two-of-k", "chain"])
    def test_table_missing_a_composite_exits_three(self, tmp_path, capsys,
                                                   argv):
        """lo_table(5) without its last five non-identity composites is no
        category: every table route refuses it at load, naming one of them."""
        doc = lo_table(5)
        ids = set(doc["identities"].values())
        dropped = [key for key in doc["compose"]
                   if not ids & set(key.split("∘"))][-5:]
        path = tmp_path / "gappy.json"
        path.write_text(json.dumps(dict(doc, compose={
            key: mid for key, mid in doc["compose"].items()
            if key not in dropped})))
        out = tmp_path / "r.json"
        assert run(["--out", str(out)] + argv
                   + ["--abstract", "--catalog", str(path)]) == 3
        err = capsys.readouterr().err
        assert any("misses {!r} . {!r}".format(*key.split("∘")) in err
                   for key in dropped)
        assert not out.exists()

    def test_object_names_may_hold_the_hom_separator(self, tmp_path):
        """Each hom key has one split into two declared objects.  With
        identities only, the axioms hold but the four objects have no common
        extension; a morphism from each other object into A makes the table
        directed."""
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(ARROW_NAMED_DOC))
        argv = ["--abstract", "--catalog", str(path)]
        code, report = run_json(["cat", "check"] + argv, tmp_path / "r.json")
        detail = report["verdicts"][0]["detail"]
        assert (code, report["status"]) == (1, "FAILS")
        assert sorted(detail["below_sets"]) == sorted(ARROW_NAMED_DOC["objects"])
        assert detail["identity_ok"] and detail["associativity_ok"]
        assert not detail["directed"]
        assert run_json(["cat", "op"] + argv, tmp_path / "op.json")[0] == 0
        path.write_text(json.dumps(dict(ARROW_NAMED_DOC, homs=dict(
            ARROW_NAMED_DOC["homs"], **{"B->C->A": ["p"], "A->B->A": ["q"],
                                        "C->A": ["r"]}))))
        code, report = run_json(["cat", "check"] + argv, tmp_path / "r.json")
        assert (code, report["status"]) == (0, "HOLDS")

    @pytest.mark.parametrize("doc,named", [
        (dict(ARROW_NAMED_DOC, homs=dict(ARROW_NAMED_DOC["homs"],
                                         **{"A->B->C": []})),
         "hom key 'A->B->C' is ambiguous: it reads 'A'->'B->C' and "
         "'A->B'->'C'"),
        (dict(ABSTRACT_DOC, homs={"A->A": ["a∘a"]}, identities={"A": "a∘a"},
              compose={}),
         "morphism id 'a∘a' holds the separator '∘'"),
    ], ids=["ambiguous-hom-key", "composition-separator-in-id"])
    def test_separator_in_a_name_is_refused(self, tmp_path, capsys, doc,
                                            named):
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(doc))
        assert run(["--out", str(tmp_path / "r.json"), "cat", "check",
                    "--abstract", "--catalog", str(path)]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["check", "op"])
    def test_two_object_abstract_category_holds(self, tmp_path, action):
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(TWO_OBJECT_DOC))
        assert run(["--out", str(tmp_path / "r.json"), "cat", action,
                    "--abstract", "--catalog", str(path)]) == 0

    def test_well_formed_abstract_category_loads(self, tmp_path):
        path = tmp_path / "abstract.json"
        path.write_text(json.dumps(ABSTRACT_DOC))
        assert run(["--out", str(tmp_path / "r.json"), "cat", "check",
                    "--abstract", "--catalog", str(path)]) == 0

    @pytest.mark.parametrize("degree", [2.5, "2", True],
                             ids=["float", "string", "bool"])
    def test_non_int_degree_exits_three(self, tmp_path, degree):
        cat_path = tmp_path / "g.json"
        save_catalog([graph(1, [], name="K1"), graph(2, [(0, 1)], name="K2"),
                      path_graph(3)], cat_path)
        degrees_path = tmp_path / "deg.json"
        degrees_path.write_text(json.dumps({"degrees": {"K2": degree}}))
        assert run(["--out", str(tmp_path / "r.json"), "expand", "check",
                    "--catalog", str(cat_path),
                    "--degrees", str(degrees_path)]) == 3


class TestFileErrors:
    """A file flag naming a directory or a path in a missing directory is an
    input error: exit 3 with an ``error:`` line, as a missing file is."""

    @pytest.mark.parametrize("argv", [
        ["--out", "{dir}/no/such/r.json", "cat", "check", "--catalog", "{lo4}"],
        ["--out", "{dir}", "cat", "check", "--catalog", "{lo4}"],
        ["cat", "check", "--catalog", "{dir}"],
        ["arrow", "--catalog", "{lo4}", "--C", "LO4", "--B", "LO3", "--A", "LO2",
         "-k", "2", "-t", "1", "--cnf", "{dir}"],
        ["seq", "colim", "--catalog", "{lo4}", "--seq", "{dir}"],
        ["expand", "check", "--catalog", "{lo4}", "--degrees", "{dir}"],
    ], ids=["out-in-missing-dir", "out-is-dir", "catalog-is-dir", "cnf-is-dir",
            "seq-is-dir", "degrees-is-dir"])
    def test_exits_three_with_an_error_line(self, lo_paths, tmp_path, capsys,
                                            argv):
        argv = [a.format(dir=tmp_path, lo4=lo_paths["lo4"]) for a in argv]
        assert run(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")
