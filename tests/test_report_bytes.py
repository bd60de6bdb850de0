"""Report bytes are a contract: pin one small question per subcommand and action.

Each pin is the sha256 of the report's ``status``, ``verdicts`` and
``certificates`` serialized as ``cli`` serializes a report.  ``command`` and
``catalog.path`` carry temporary paths, so they are left out.  A change that
alters a pin alters what users read; it must say so and update the pin.
"""

import functools
import hashlib
import itertools
import json
import re

import pytest

from ramsey_workbench import FAILS, HOLDS, UNKNOWN, cli
from ramsey_workbench.catalogs import (complete_graph, empty_graph, graph,
                                       graph_catalog, lo_catalog, load_catalog,
                                       path_graph, save_catalog)
from ramsey_workbench.category import FiniteCategory
from ramsey_workbench.cli import run

from oracles import lo_table, scan_arrow_check

# (name, argv with {placeholders}, exit code, sha256)
QUESTIONS = [
    ("cat-check", ["cat", "check", "--catalog", "{lo4}"], 0,
     "47ab4e044085b52f11480d812af3970bc3693a75367f289823a9d7e8343db6b2"),
    ("cat-check-gap", ["cat", "check", "--catalog", "{gap}"], 2,
     "a719f7c57abf2f1d849a0ba26168c4b34b5e8f1253adb28003c570ba67a80ddb"),
    ("cat-check-graphs", ["cat", "check", "--catalog", "{g3}"], 1,
     "07f9bfff22a5caa03b8f3d7b6ab1ee7bdea0f83f4052181340dd9378d6a80818"),
    ("cat-skeleton", ["cat", "skeleton", "--catalog", "{skel}"], 0,
     "83aca388f68cdfd833c3eda1b6320ecdc1c15f926bc54d28216a7210d5f01fe7"),
    ("cat-op", ["cat", "op", "--catalog", "{lo4}"], 0,
     "5f8cb28e9e01270a99158af8ac645094baf198604c31a47d6d8771552a270511"),
    ("arrow", ["arrow", "--catalog", "{lo6}", "--C", "LO5", "--B", "LO3",
               "--A", "LO2", "-k", "2", "-t", "1"], 1,
     "970c5cf078ceb9003ff3949b7340c3d27b99383d53ede9afd3f49498e1a75117"),
    ("arrow-holds", ["arrow", "--catalog", "{lo6}", "--C", "LO6", "--B", "LO3",
                     "--A", "LO2", "-k", "2", "-t", "1"], 0,
     "05ef5f2d7b0055c017a30357c0a68864041d7de2bd06ad6fed84e399ffe35df8"),
    ("arrow-oracle", ["arrow", "--oracle", "--catalog", "{lo6}", "--C", "LO6",
                      "--B", "LO3", "--A", "LO2", "-k", "2", "-t", "1"], 0,
     "d0f8094bb6d02c305dde2b2acf5be8c699941c94b0af5022387523603819cb8c"),
    # the first bad colouring in lex order, at rank 236 of 2^10
    ("arrow-oracle-fails", ["arrow", "--oracle", "--catalog", "{lo6}", "--C",
                            "LO5", "--B", "LO3", "--A", "LO2", "-k", "2",
                            "-t", "1"], 1,
     "d489727a6e4b19aeae18c5d6c7aa505b59d83bdd55790fc71824ff5bd3a541d2"),
    ("arrow-budget", ["--budget-nodes", "5", "arrow", "--catalog", "{lo6}",
                      "--C", "LO6", "--B", "LO3", "--A", "LO2", "-k", "2",
                      "-t", "1"], 2,
     "a73380b1b0e281ec6b51566fa6ee51227fa764cf7f09c9b674d97d17332e68c2"),
    ("degree", ["degree", "--catalog", "{lo4}", "--A", "LO2", "--kmax", "2",
                "--bmax", "2"], 0,
     "6b7f83b863f6cb2abcda5352b3178ad55c792c313a28a3d59f07cb8351ef7af8"),
    # LO4 < R(3,3): t = 1 fails, with one bad colouring per catalog object
    ("degree-lower", ["degree", "--catalog", "{lo4}", "--A", "LO2", "--kmax",
                      "2", "--bmax", "3"], 0,
     "28004d3434ebd31e5a91ed300f9db9d47248b999b851aab3a11d736b1350b10f"),
    ("amalgam-wap", ["amalgam", "--wap", "--catalog", "{lo4}"], 0,
     "d89f581f916835d5415c5589336dac8d1a03bbe0133809fe050190209483eec1"),
    ("amalgam-two-of-k", ["amalgam", "--two-of-k", "3", "--A", "LO2",
                          "--catalog", "{lo6}"], 1,
     "6fbd017060493de065f8aa32bb8710443c2dfe4a1544b418c912b6eff298a3d1"),
    ("amalgam-chain", ["amalgam", "--chain", "--A", "LO1", "--depth", "3",
                       "--catalog", "{lo4}"], 0,
     "4e9859d02a44f5827a8611c0437450b22e1a46ecb3dcd48700a2ee117a3cdb4a"),
    ("seq-colim", ["seq", "colim", "--catalog", "{lo4}", "--seq", "{seq}"], 0,
     "f22edce3c38da39eeafa5b033becb895bdb41a65a9a9ab70fa8520061c638f74"),
    ("seq-wfcheck", ["seq", "wfcheck", "--catalog", "{lo4}", "--seq", "{seq}",
                     "--mmax", "3", "--kmax", "3"], 1,
     "37583540d4c56d8fe650497ad20c359821237e3e44859cb61b54bcb4d9df3efd"),
    ("seq-whom", ["seq", "whom", "--catalog", "{g3}", "--obj", "G3_1"], 0,
     "965ef9d0d4d1dbe2f1d776f6834ba6702fedb3809f5e319fe6cbbf5b54dabc35"),
    ("expand-build", ["expand", "build", "--catalog", "{p3}",
                      "--degrees", "{deg}"], 0,
     "81c124c11bf8aa5c944d055a8bd247716d849f3772bae890877d261f2ddf3a81"),
    ("expand-check", ["expand", "check", "--catalog", "{p3}",
                      "--degrees", "{deg}"], 0,
     "7cafc4ab870ba9830445d2b59b6c1147077d6efaa78746dff513abaee9b909bb"),
    ("expand-check-lo4", ["expand", "check", "--catalog", "{lo4}",
                          "--degrees", "{deg_lo1}"], 0,
     "c8dd71750de32fa4b78053a46a2c794c612379d67084cb705317361c6cdb1cb9"),
    # minimal_theta is the first fiber member: ages over one base are equal
    # or incomparable, so every member's age is inclusion-minimal
    ("expand-orbits", ["expand", "orbits", "--catalog", "{p3}",
                       "--degrees", "{deg}", "--obj", "P3"], 0,
     "2975d7f6eb6d750e2a7de95983ae37215d14c881e725838021c5752a3033330c"),
    ("expand-ep", ["expand", "ep", "--catalog", "{p3}",
                   "--degrees", "{deg}"], 1,
     "60ba2dfe88a69bdd32cf5f24dfbf5af00876d1570b2143bb01a5bb678e65238c"),
    ("cat-check-abstract", ["cat", "check", "--abstract", "--catalog",
                            "{lo5t}"], 0,
     "69555329d71bd0a730ee2f1d025e6938ad35fbb7148b76336e206b42ff411dc2"),
    ("cat-op-abstract", ["cat", "op", "--abstract", "--catalog", "{lo5t}"], 0,
     "f017e5a6bd7de883acef0b51d2edff5f89d46b4506a6bf23037343e6f0ccb662"),
    ("amalgam-wap-abstract", ["amalgam", "--wap", "--abstract", "--catalog",
                              "{lo5t}"], 0,
     "5fc73e48cc0162a960550085557f6a94078b5d60ae0666dd33b67ff234d65d5c"),
    ("amalgam-chain-abstract", ["amalgam", "--chain", "--A", "LO1", "--depth",
                                "3", "--abstract", "--catalog", "{lo5t}"], 0,
     "4e9859d02a44f5827a8611c0437450b22e1a46ecb3dcd48700a2ee117a3cdb4a"),
    ("amalgam-two-of-k-abstract", ["amalgam", "--two-of-k", "3", "--A", "LO2",
                                   "--abstract", "--catalog", "{lo5t}"], 1,
     "8f76f56ba5e1fe4592b78f48bc931c16cb79f48c28ff829738cf217bb5247359"),
    # HOLDS: 6^3 tuples, certificates capped at 200, in tuple order
    ("amalgam-two-of-k-holds", ["amalgam", "--two-of-k", "3", "--A", "G3_0",
                                "--catalog", "{g3}"], 0,
     "bbce27cc3cc30b44b10b00073889561aa2f9da6d9d2fc87275c688b6a2e11ffa"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {}

    def put(key, catalog=None, doc=None):
        path = root / f"{key}.json"
        if catalog is not None:
            save_catalog(catalog, path)
        else:
            path.write_text(json.dumps(doc))
        paths["{" + key + "}"] = str(path)

    put("lo4", lo_catalog(4))
    put("lo6", lo_catalog(6))
    put("skel", [path_graph(3), graph(3, [(0, 2), (2, 1)], name="P3r"),
                 complete_graph(2), graph(2, [(1, 0)], name="K2r"),
                 empty_graph(1)])
    put("g3", graph_catalog(3))
    # local finiteness is UNKNOWN-AT-BOUND on P4 without the edge P2
    put("gap", [empty_graph(1, name="E1"), path_graph(3), path_graph(4)])
    put("p3", [empty_graph(1, name="K1"), complete_graph(2, name="K2"),
               path_graph(3)])
    put("seq", doc={"objects": ["LO1", "LO2", "LO3"],
                    "bonding": {"0->1": [0], "1->2": [0, 1]}})
    put("deg", doc={"degrees": {"K2": 2}})
    put("deg_lo1", doc={"degrees": {"LO1": 3}})
    put("lo5t", doc=lo_table(5))
    return paths


def digest(report: dict, keys=("status", "verdicts", "certificates")) -> str:
    pinned = {k: report[k] for k in keys}
    text = json.dumps(pinned, sort_keys=True, indent=2, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,argv,code,pin", QUESTIONS,
                         ids=[q[0] for q in QUESTIONS])
def test_report_bytes_are_pinned(inputs, tmp_path, name, argv, code, pin):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "--seed", "7"]
               + [inputs.get(tok, tok) for tok in argv]) == code
    assert digest(json.loads(out.read_text(encoding="utf-8"))) == pin


def test_one_parser_answers_every_question_in_any_order(inputs, tmp_path,
                                                       monkeypatch, capsys):
    """The parser is built once per process, so no call may leave state in
    it: the amalgam modes come from a store_const and set_defaults, the
    subparsers from the first positional."""
    monkeypatch.setattr(cli, "_parser", None)
    out = tmp_path / "r.json"

    def ask_all(questions):
        for name, argv, code, pin in questions:
            assert run(["--out", str(out), "--seed", "7"]
                       + [inputs.get(tok, tok) for tok in argv]) == code, name
            assert digest(json.loads(out.read_text(encoding="utf-8"))) == pin, name

    ask_all(QUESTIONS)
    parser = cli._parser
    for argv, code in [(["cat", "check", "--frobnicate"], 3),
                       (["amalgam", "--wap", "--chain", "--catalog", "x"], 3),
                       (["--help"], 0), (["amalgam", "--help"], 0)]:
        assert run(argv) == code
    capsys.readouterr()
    ask_all(reversed(QUESTIONS))
    assert cli._parser is parser


def test_expansions_are_pinned(inputs, tmp_path):
    """``expand build`` writes its expansions beside the verdicts."""
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "expand", "build", "--catalog",
                inputs["{p3}"], "--degrees", inputs["{deg}"]]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert digest(report, ("expansions",)) == (
        "6a9e99ceb3d249c6ff1b0826390ee7925862fbaba4c97201c2d127d4594d8a98")


def _colorings(node):
    """Every dict within a JSON value that holds a colouring: a domain
    together with values."""
    if isinstance(node, dict):
        if "domain" in node and "values" in node:
            yield node
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _colorings(item)


@pytest.fixture(scope="module")
def reports(inputs, tmp_path_factory):
    """Each pinned question's report, asked once and parsed, by name; the
    audits below mutate copies of them."""
    out = tmp_path_factory.mktemp("reports") / "r.json"
    written = {}
    for name, argv, code, pin in QUESTIONS:
        assert run(["--out", str(out), "--seed", "7"]
                   + [inputs.get(tok, tok) for tok in argv]) == code, name
        written[name] = json.loads(out.read_text(encoding="utf-8"))
    return written


def replays(report: dict, path) -> bool:
    """Does ``rw replay`` accept the report, written to path, with exit 0?"""
    path.write_text(json.dumps(report), encoding="utf-8")
    return run(["--out", str(path.with_suffix(".replayed.json")),
                "replay", str(path)]) == 0


def test_evidence_is_stated_once(reports, tmp_path):
    """No verdict of a pinned report holds a colouring: colourings sit only
    in bad-coloring certificates, where replay evaluates them, so no report
    states one twice.  Every pinned report replays as written."""
    for name, report in reports.items():
        assert not list(_colorings(report["verdicts"])), name
        assert replays(report, tmp_path / "r.json"), name

# Each pinned report whose status flip replay still accepts, with the gap in
# certificate coverage that lets the flip through (ROADMAP.md, "Certificate
# coverage").  The list may only shrink.
FLIP = {HOLDS: FAILS, FAILS: HOLDS, UNKNOWN: HOLDS}
FLIP_SURVIVORS = {
    "cat-check": "cat check FAILS owes its failing triple or non-mono pair",
    "cat-check-abstract": "cat check FAILS owes its failing triple or "
                          "non-mono pair",
    "cat-check-gap": "cat check HOLDS owes nothing that replay re-decides",
    "cat-check-graphs": "cat check HOLDS owes nothing that replay re-decides",
    "cat-skeleton": "cat skeleton owes its isomorphism pairs",
    "cat-op": "cat op has no coverage entry",
    "cat-op-abstract": "cat op has no coverage entry",
    "amalgam-chain": "amalgam --chain has no coverage entry",
    "amalgam-chain-abstract": "amalgam --chain has no coverage entry",
    "seq-wfcheck": "seq wfcheck HOLDS owes its cofinality embedding and "
                   "bendings",
    "seq-whom": "seq whom owes witnesses that replay composes",
    "expand-build": "expand build has no coverage entry",
    "expand-check": "expand check has no coverage entry",
    "expand-check-lo4": "expand check has no coverage entry",
    "expand-orbits": "expand orbits has no coverage entry",
    "expand-ep": "expand ep has no coverage entry",
}


def test_status_flips_that_replay_accepts_are_listed(reports, tmp_path):
    """Flip the status of each pinned report and of its verdict, and
    replay it: the flips that still exit 0 are exactly the listed ones."""
    survivors = set()
    for name, report in reports.items():
        flipped = json.loads(json.dumps(report))
        flipped["status"] = flipped["verdicts"][0]["status"] = FLIP[report["status"]]
        if replays(flipped, tmp_path / "flipped.json"):
            survivors.add(name)
    assert survivors == set(FLIP_SURVIVORS)


# Each pinned report that still replays with some one certificate dropped,
# with the gap in certificate coverage that lets the drop through (ROADMAP.md,
# "Certificate coverage").  The list may only shrink.
DROP_SURVIVORS = {
    "seq-colim": "seq colim is informational and owes no cocone triangle",
}


def test_certificate_drops_that_replay_accepts_are_listed(reports, tmp_path):
    """Drop each certificate of each pinned report in turn and replay it:
    the reports with a drop that still exits 0 are exactly the listed
    ones."""
    survivors = set()
    for name, report in reports.items():
        certificates = report["certificates"]
        for i in range(len(certificates)):
            dropped = {**report,
                       "certificates": certificates[:i] + certificates[i + 1:]}
            if replays(dropped, tmp_path / "dropped.json"):
                survivors.add(name)
    assert survivors == set(DROP_SURVIVORS)


# Each (pinned report, verdict field) whose k or t, raised by one in the
# verdict only, replay still accepts, with the gap in certificate coverage
# that lets the shift through (ROADMAP.md, "Certificate coverage").  The list
# may only shrink.
SHIFT_SURVIVORS = {
    ("arrow-budget", "k"): "an UNKNOWN arrow is undecided and owes no "
                           "certificate",
    ("arrow-budget", "t"): "an UNKNOWN arrow is undecided and owes no "
                           "certificate",
    ("amalgam-two-of-k", "k"): "two-of-k FAILS owes its failing tuple",
    ("amalgam-two-of-k-abstract", "k"): "two-of-k FAILS owes its failing "
                                        "tuple",
    # a true claim: every 4-tuple holds a 3-tuple, and the first 200 4-tuples
    # are pool[0] before the first 200 3-tuples, so each amalgam still fits
    ("amalgam-two-of-k-holds", "k"): "two-of-k HOLDS at k holds at k + 1",
}


def test_k_and_t_shifts_that_replay_accepts_are_listed(reports, tmp_path):
    """Raise the k or the t of each pinned report's verdict by one, leaving
    its certificates as they are, and replay it: the shifts that still exit
    0 are exactly the listed ones."""
    survivors = set()
    for name, report in reports.items():
        for field in ("k", "t"):
            if field not in report["verdicts"][0]:
                continue
            shifted = json.loads(json.dumps(report))
            shifted["verdicts"][0][field] += 1
            if replays(shifted, tmp_path / "shifted.json"):
                survivors.add((name, field))
    assert survivors == set(SHIFT_SURVIVORS)


# Each pinned report that still replays with a copy of some one certificate
# appended, with the gap in certificate coverage that lets the copy through
# (ROADMAP.md, "Certificate coverage").  The list may only shrink.
DUPLICATE_SURVIVORS = {
    "seq-colim": "seq colim's map-equalities are uncounted",
}


def test_certificate_duplicates_that_replay_accepts_are_listed(reports,
                                                               tmp_path):
    """Append a copy of each certificate of each pinned report in turn and
    replay it: the reports with a copy that still exits 0 are exactly the
    listed ones, as every other certificate pays one entry its verdict
    owes."""
    survivors = set()
    for name, report in reports.items():
        certificates = report["certificates"]
        if any(replays({**report, "certificates": certificates + [cert]},
                       tmp_path / "duplicated.json") for cert in certificates):
            survivors.add(name)
    assert survivors == set(DUPLICATE_SURVIVORS)


# Each (pinned report, object, new name) whose rename replay still accepts
# although the renamed report claims an arrow that ``scan_arrow_check``
# refutes, with the gap in certificate coverage that lets the rename through
# (ROADMAP.md, "Certificate coverage").  The list may only shrink.
EXHAUSTION_UNCHECKED = ("an arrow HOLDS owes an exhaustion that replay does "
                        "not re-decide")
RENAME_SURVIVORS = {
    (name, old, new): EXHAUSTION_UNCHECKED
    for name in ("arrow-holds", "arrow-oracle")
    for old, new in [("LO6", "LO1"), ("LO6", "LO2"), ("LO6", "LO3"),
                     ("LO6", "LO4"), ("LO6", "LO5"), ("LO3", "LO4"),
                     ("LO3", "LO5"), ("LO3", "LO6")]}
RENAMED = ("arrow", "arrow-holds", "arrow-oracle", "arrow-oracle-fails",
           "arrow-budget", "degree", "degree-lower")
# the status each kind of certificate claims for its instance
CLAIMED = {"arrow-holds": HOLDS, "degree-upper": HOLDS,
           "arrow-fails": FAILS, "degree-lower": FAILS}


def _renamed(node, old: str, new: str):
    """A JSON value with the object name old made new in every string,
    whole or as a part of a morphism id or a ``C:B:k:n`` entry."""
    if isinstance(node, str):
        return re.sub(rf"\b{re.escape(old)}\b", new, node)
    if isinstance(node, list):
        return [_renamed(item, old, new) for item in node]
    if isinstance(node, dict):
        return {key: _renamed(value, old, new) for key, value in node.items()}
    return node


def test_renames_that_replay_accepts_are_listed(reports, tmp_path):
    """Rename one catalog object to another everywhere in the verdict and
    the certificates of each pinned arrow and degree report, and replay it:
    the renames that still exit 0 and claim an arrow status that
    ``scan_arrow_check`` refutes are exactly the listed ones."""
    @functools.cache
    def category(path):
        return FiniteCategory.from_structures(load_catalog(path))

    @functools.cache
    def status(path, c, b, a, k, t):
        return scan_arrow_check(category(path), c, b, a, k, t).status

    survivors = set()
    for name in RENAMED:
        report = reports[name]
        path = report["catalog"]["path"]
        objects = category(path).objects
        for old, new in itertools.permutations(objects, 2):
            renamed = {**report, **_renamed(
                {key: report[key] for key in ("verdicts", "certificates")},
                old, new)}
            if renamed == report or not replays(renamed,
                                                tmp_path / "renamed.json"):
                continue
            if any(status(path, *(cert[x] for x in "CBAkt"))
                   != CLAIMED[cert["kind"]]
                   for cert in renamed["certificates"]):
                survivors.add((name, old, new))
    assert survivors == set(RENAME_SURVIVORS)
