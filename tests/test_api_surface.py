"""Every public module-level function and class of the library has a
caller outside the tests: something in ``src/``, ``scripts/`` or ``bench/``
names it.  A name only tests reach is code the program does not run, so it
is deleted, or kept here with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coprox"

KEPT_FOR_TESTS = {
    "cocycle.rectangle": "holonomy rectangle identity the acceptance suite checks",
    "cocycle.distortion_residual": "four-holonomy distortion identity the acceptance "
                                   "suite checks",
    # the criterion-3 oracles that acceptance cross-checks the witness path against
    "proximal.tits_certify": "criterion-3 oracle: Tits cone certificate",
    "proximal.is_proximal": "criterion-3 oracle: plain proximality",
    "proximal.proximality_defect": "criterion-3 oracle: norm-vs-spectral-radius defect",
    "proximal.certified_defect_bound": "criterion-3 oracle: bound on that defect",
    "proximal.is_eps_proximal": "criterion-3 oracle: the witness verdict alone",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def _referenced_names() -> set[str]:
    """Every identifier read as a name or an attribute in the program's
    own files (definitions and import lines do not count)."""
    names = set()
    for directory in ("src", "scripts", "bench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_program_caller():
    referenced = _referenced_names()
    test_only = sorted(qual for qual, name in _public_definitions()
                       if name not in referenced and qual not in KEPT_FOR_TESTS)
    assert not test_only, f"public names no program file uses: {test_only}"


def test_kept_names_still_exist_and_are_test_only():
    # an entry whose name gained a caller, or was deleted, goes from the list
    referenced = _referenced_names()
    defined = dict(_public_definitions())
    assert set(KEPT_FOR_TESTS) <= set(defined)
    assert not {defined[q] for q in KEPT_FOR_TESTS} & referenced
