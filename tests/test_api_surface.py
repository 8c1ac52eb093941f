"""Every public module-level function and class of the library, and every
public method of a public class, has a caller outside the tests:
something in ``src/``, ``scripts/`` or ``bench/`` names it.  A name only tests reach is code the program does not run, so it
is deleted, or kept here with the reason it stays.  Likewise every
defaulted parameter of a public function or method is set by some call
in those files, or kept here with its reason: a default nothing
overrides is a setting the program does not have."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coprox"
PROGRAM = ("src", "scripts", "bench")

KEPT_FOR_TESTS = {
    "cocycle.rectangle": "holonomy rectangle identity the acceptance suite checks",
    "cocycle.distortion_residual": "four-holonomy distortion identity the acceptance "
                                   "suite checks",
    "cocycle.WindowCocycle.at": "per-step reference the conftest folds compare the "
                                "kernel against",
    # the criterion-3 oracles that acceptance cross-checks the witness path against
    "proximal.tits_certify": "criterion-3 oracle: Tits cone certificate",
    "proximal.is_proximal": "criterion-3 oracle: plain proximality",
    "proximal.proximality_defect": "criterion-3 oracle: norm-vs-spectral-radius defect",
    "proximal.certified_defect_bound": "criterion-3 oracle: bound on that defect",
    "proximal.is_eps_proximal": "criterion-3 oracle: the witness verdict alone",
    "synthesis.path_matrix": "raw path matrix the concatenation identities are "
                             "checked against",
}

KEPT_DEFAULTS = {
    "cli.main.argv": "the console entry point reads sys.argv",
    "cocycle.WindowCocycle.at.j": "the per-step reference above steps along the orbit",
}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_nodes():
    """(qualified name, node) of each public function and class, and of
    each public method of a public class, as ``module.Class.method``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield f"{path.stem}.{node.name}.{method.name}", method


def _bound(fn) -> set[str]:
    """Names a function binds in its own scope: its parameters, and the
    names its body assigns, defines or imports (nested scopes excluded)."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _program_nodes(node, local=frozenset()):
    """(node, locally bound) for every node under node: a name read inside
    a function that binds that name (or whose enclosing functions do) is
    the local, not the library's."""
    for child in ast.iter_child_nodes(node):
        scope = local
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = local | _bound(child)
        yield child, local
        yield from _program_nodes(child, scope)


def _program():
    for directory in PROGRAM:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield from _program_nodes(ast.parse(path.read_text()))


def _referenced_names() -> set[str]:
    """Every identifier read as a name or an attribute in the program's
    own files (definitions, import lines and the locals of the function
    reading them do not count)."""
    names = set()
    for node, local in _program():
        if isinstance(node, ast.Name) and node.id not in local:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _calls() -> dict[str, list[tuple[float, set]]]:
    """Per called name, each call's (positional argument count, keyword
    names); a ``*`` argument counts as every position and a ``**`` one as
    every keyword."""
    out = {}
    for node, local in _program():
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id not in local:
            name = fn.id
        elif isinstance(fn, ast.Attribute):
            name = fn.attr
        else:
            continue
        positional = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                      else len(node.args))
        keywords = {k.arg for k in node.keywords}
        out.setdefault(name, []).append((positional, keywords))
    return out


def _defaulted_parameters():
    """(qualified parameter name, function name, position or None for
    keyword-only, parameter name) of every defaulted parameter of a public
    function or method; a method's positions do not count self."""
    for qual, node in _public_nodes():
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if qual.count(".") == 2 else 0
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield f"{qual}.{arg.arg}", node.name, i - skip, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{qual}.{arg.arg}", node.name, None, arg.arg


def _unset_defaults() -> set[str]:
    calls = _calls()

    def is_set(name, position, param):
        return any(param in keywords or None in keywords
                   or (position is not None and count > position)
                   for count, keywords in calls.get(name, []))

    return {qual for qual, name, position, param in _defaulted_parameters()
            if not is_set(name, position, param)}


def test_every_public_name_has_a_program_caller():
    referenced = _referenced_names()
    test_only = sorted(qual for qual, node in _public_nodes()
                       if node.name not in referenced and qual not in KEPT_FOR_TESTS)
    assert not test_only, f"public names no program file uses: {test_only}"


def test_kept_names_still_exist_and_are_test_only():
    # an entry whose name gained a caller, or was deleted, goes from the list
    referenced = _referenced_names()
    defined = dict(_public_nodes())
    assert set(KEPT_FOR_TESTS) <= set(defined)
    assert not {defined[q].name for q in KEPT_FOR_TESTS} & referenced


def test_shadowing_locals_are_not_references():
    tree = ast.parse("def f(dist):\n    at = 1\n    return dist + at + g()\n"
                     "def h():\n    return [at for at in ()]\n")
    read = {n.id for n, local in _program_nodes(tree)
            if isinstance(n, ast.Name) and n.id not in local}
    assert read == {"g"}


def test_every_defaulted_parameter_is_set_by_the_program():
    unset = sorted(_unset_defaults() - set(KEPT_DEFAULTS))
    assert not unset, f"defaulted parameters no program call sets: {unset}"


def test_kept_defaults_still_exist_and_are_unset():
    # an entry whose parameter gained a setter, or was deleted, goes from the list
    defaulted = {qual for qual, *_ in _defaulted_parameters()}
    assert set(KEPT_DEFAULTS) <= defaulted
    assert set(KEPT_DEFAULTS) <= _unset_defaults()
