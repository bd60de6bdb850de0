"""The package surface holds only what the package itself reaches.

Static guards over ``src/ramsey_workbench/*.py``, read with ``ast``:

- every public top-level function and class, and every public method of a
  top-level class, is referenced somewhere in the package outside its own
  definition, unless ``ALLOWED_UNREFERENCED`` names it with a reason;
- every module-level import is used in its module, unless its line carries
  ``# noqa: F401`` right under a comment that gives the reason (the check a
  linter's F401 makes; no linter is installed);
- every name such a kept import binds is one that ``perfbench/spans.py``
  wraps in that module, the only reason to keep one, so a kept import
  cannot outlive the benchmark point it serves;
- the checkers (``arrows``, ``amalgam``, ``degrees``, ``expansion``) import
  only ``FiniteCategory`` from ``category``, and from ``structures`` or
  ``catalogs`` only kept imports, so they read their objects through the
  category interface alone;
- every optional parameter of a public top-level function in the checkers
  and ``sequences`` is passed by some call in the package, unless
  ``ALLOWED_UNREFERENCED`` names the function, so no knob serves tests
  alone;
- no dict display maps a key to ``True`` or ``False``, and no function
  binds a local to a bool constant that it never rebinds, so a report
  carries no finding that no input can make false;
- no question in ``cli.QUESTIONS`` returns a verdict constant or a string
  literal as its status, unless ``INFORMATIONAL`` names it with a reason, so a status
  that no input can change is declared as such;
- ``tests/oracles.py`` imports no ``_``-prefixed name from the package but
  ``structures._level_slots``, so the references stay independent of the
  engine's private helpers.

A reference is a name, an attribute or an imported name with the same
identifier, so the guard is coarse: a method counts as reached when any
attribute of that name is read.  An allowed name must stay unreached, so
the allowlist cannot go stale.  Code that only tests call belongs in
``tests/oracles.py``.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramsey_workbench"

ALLOWED_UNREFERENCED = {
    "extract_amalgamable_pair": "the paper's bridge from a failed arrow to an "
                                "amalgamable pair, not yet a command",
    "lo_catalog": "catalog builder for users and tests",
    "path_graph": "catalog builder for users and tests",
    "complete_graph": "catalog builder for users and tests",
    "empty_graph": "catalog builder for users and tests",
    "graph_catalog": "catalog builder for users and tests",
    "save_catalog": "writes the catalog files that every command loads",
}


def modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions(tree):
    """(name, first line, last line) of each public top-level function or
    class and of each public method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def references(tree):
    """(identifier, line) of every name and attribute read in the module and
    of every name it imports; an import counts, since the import guard below
    asks each one to be used or to give its reason."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreached_definitions():
    """module:line name of each public definition that nothing in src/
    references outside the definition itself."""
    trees = modules()
    refs = {name: list(references(tree)) for name, tree in trees.items()}
    out = {}
    for module, tree in trees.items():
        for name, first, last in public_definitions(tree):
            if not any(ident == name
                       and not (other == module and first <= line <= last)
                       for other, pairs in refs.items()
                       for ident, line in pairs):
                out[f"{module}:{first} {name}"] = name
    return out


def test_every_public_definition_is_reached_from_the_package():
    unreached = [where for where, name in unreached_definitions().items()
                 if name not in ALLOWED_UNREFERENCED]
    assert not unreached, (
        f"reached by nothing in src/: {unreached}; move each to "
        f"tests/oracles.py, delete it, or allow it with a reason")


def test_the_allowlist_names_only_unreached_definitions():
    stale = set(ALLOWED_UNREFERENCED) - set(unreached_definitions().values())
    assert not stale, f"allowed but defined nowhere or reached: {sorted(stale)}"


def bound_names(node):
    for alias in node.names:
        if alias.name == "*":
            raise AssertionError("star imports hide what a module uses")
        yield alias.asname or alias.name.split(".")[0]


def module_imports():
    """(module file, import node, kept) for each module-level import but
    ``__future__``; kept means ``# noqa: F401`` under a reason comment."""
    for module, tree in modules().items():
        lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            line = lines[node.lineno - 1]
            above = lines[node.lineno - 2].strip() if node.lineno > 1 else ""
            kept = ("# noqa: F401" in line and above.lstrip("#").strip()
                    and above.startswith("#"))
            yield module, node, bool(kept)


def test_every_module_level_import_is_used():
    used = {module: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for module, tree in modules().items()}
    unused = [f"{module}:{node.lineno} {name}"
              for module, node, kept in module_imports() if not kept
              for name in bound_names(node) if name not in used[module]]
    assert not unused, (f"unused imports: {unused}; a kept one needs "
                        f"'# noqa: F401' under a comment that says why")


def wrapped_points():
    """(module, attribute path) of every point perfbench/spans.py wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, path) for module, path, *_ in spans._points()}


def test_every_kept_import_is_a_wrapped_benchmark_point():
    points = wrapped_points()
    stale = [f"{module}:{node.lineno} {name}"
             for module, node, kept in module_imports() if kept
             for name in bound_names(node)
             if (f"ramsey_workbench.{module.removesuffix('.py')}", name)
             not in points]
    assert not stale, (f"kept imports that perfbench/spans.py does not wrap: "
                       f"{stale}; remove them")


# sequences is exempt: its truncated sequences and colimits are structure
# chains
CHECKERS = ("arrows.py", "amalgam.py", "degrees.py", "expansion.py")


def imported_from(node):
    """(package module, name) for each name an import brings in; the name is
    None when the import binds the module itself."""
    if isinstance(node, ast.Import):
        return [(alias.name, None) for alias in node.names]
    if node.module is None:    # from . import module
        return [(alias.name, None) for alias in node.names]
    return [(node.module, alias.name) for alias in node.names]


def test_checkers_see_only_the_category():
    leaks = []
    for module in CHECKERS:
        text = (PACKAGE / module).read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            kept = "# noqa: F401" in lines[node.lineno - 1]
            for source, name in imported_from(node):
                source = source.removeprefix("ramsey_workbench.")
                if ((source == "category" and name != "FiniteCategory")
                        or (source in ("structures", "catalogs") and not kept)):
                    leaks.append(f"{module}:{node.lineno} {source}.{name}")
    assert not leaks, (f"checkers must read objects through FiniteCategory "
                       f"alone: {leaks}")


# the one private name the references may share: the bit order that
# canonical forms minimize, which brute_canonical_form minimizes too
SHARED_PRIVATE = {("ramsey_workbench.structures", "_level_slots")}


def test_references_import_no_private_name():
    """``tests/oracles.py`` imports no ``_``-prefixed name from the package
    but ``SHARED_PRIVATE``, so a reference cannot lean on the engine's
    private helpers."""
    text = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    private = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for source, name in imported_from(node):
                path = source if name is None else f"{source}.{name}"
                parts = path.split(".")
                if (parts[0] == "ramsey_workbench"
                        and any(part.startswith("_") for part in parts)
                        and (source, name) not in SHARED_PRIVATE):
                    private.append(f"oracles.py:{node.lineno} {path}")
    assert not private, f"references importing private names: {private}"


KNOB_MODULES = CHECKERS + ("sequences.py",)


def optional_parameters(function):
    """(position or None, name) of each parameter with a default; the
    position is None for a keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield i, positional[i].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def passes(call, position, name) -> bool:
    """Whether the call may set the parameter: by keyword, by position, or
    through a * or ** unpacking."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def unpassed_parameters():
    """module:line function(parameter) of each optional parameter of a
    public top-level function in KNOB_MODULES that no call in src/ passes;
    a call is matched by the name or attribute it calls."""
    trees = modules()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = (callee.id if isinstance(callee, ast.Name)
                        else getattr(callee, "attr", None))
                calls.setdefault(name, []).append(node)
    out = []
    for module in KNOB_MODULES:
        for node in trees[module].body:
            if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                    or node.name in ALLOWED_UNREFERENCED):
                continue
            out += [f"{module}:{node.lineno} {node.name}({name})"
                    for position, name in optional_parameters(node)
                    if not any(passes(call, position, name)
                               for call in calls.get(node.name, []))]
    return out


def test_every_optional_parameter_is_passed_from_the_package():
    unpassed = unpassed_parameters()
    assert not unpassed, (
        f"optional parameters no call in src/ passes: {unpassed}; make each "
        f"a module constant that tests monkeypatch, or delete it")


def is_bool_constant(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is bool


def constant_findings():
    """module:line name of each dict display entry whose value is True or
    False, and of each function local that is bound only once, to True or
    False; a name bound in a nested function counts as rebinding it."""
    out = set()
    for module, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                out |= {f"{module}:{value.lineno} {ast.unparse(key)}"
                        for key, value in zip(node.keys, node.values)
                        if key is not None and is_bool_constant(value)}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stores = Counter(n.id for n in ast.walk(node)
                                 if isinstance(n, ast.Name)
                                 and isinstance(n.ctx, ast.Store))
                for bind in ast.walk(node):
                    if (isinstance(bind, (ast.Assign, ast.AnnAssign))
                            and is_bool_constant(bind.value)):
                        targets = (bind.targets if isinstance(bind, ast.Assign)
                                   else [bind.target])
                        out |= {f"{module}:{bind.lineno} {target.id}"
                                for target in targets
                                if isinstance(target, ast.Name)
                                and stores[target.id] == 1}
    return sorted(out)


def test_no_finding_is_a_constant():
    constants = constant_findings()
    assert not constants, (
        f"findings that no input can make false: {constants}; report only "
        f"what some input can make false")


INFORMATIONAL = {
    "_cat_skeleton": "lists representatives; any catalog has a skeleton",
    "_seq_colim": "builds the colimit of a chain, which always exists; "
                  "its map-equality certificates replay the cocone",
    "_expand_build": "lists the fibers of the expansion",
    "_expand_orbits": "lists orbit sizes; equal ages on orbits follow from "
                      "restriction being functorial",
}
VERDICTS = {"HOLDS", "FAILS", "UNKNOWN"}


def constant_statuses():
    """Each function that ``cli.QUESTIONS`` maps to, with the lines where
    it returns a verdict constant or a string literal as its status, the
    second item of the returned tuple."""
    tree = modules()["cli.py"]
    questions = next(
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "QUESTIONS" for t in node.targets))
    names = {entry.elts[0].id for entry in questions.values}
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            out[node.name] = [
                ret.lineno for ret in ast.walk(node)
                if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
                and len(ret.value.elts) > 1
                and ((isinstance(ret.value.elts[1], ast.Name)
                      and ret.value.elts[1].id in VERDICTS)
                     or isinstance(ret.value.elts[1], ast.Constant))]
    assert set(out) == names, f"questions defined outside cli: {names - set(out)}"
    return out


def test_no_question_answers_a_constant_status():
    constant = [f"cli.py:{lines[0]} {name}"
                for name, lines in constant_statuses().items()
                if lines and name not in INFORMATIONAL]
    assert not constant, (
        f"questions whose status no input can change: {constant}; compute the "
        f"status, or list the question in INFORMATIONAL with a reason")


def test_informational_questions_answer_a_constant_status():
    statuses = constant_statuses()
    stale = [name for name in INFORMATIONAL if not statuses.get(name)]
    assert not stale, f"informational but not a constant status: {stale}"
