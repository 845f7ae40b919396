"""Guard against regrowth of library surface that nothing runs.

Every name in a liplab module's `__all__` must be referenced somewhere else
in `src/liplab/` (the commands and what they call) or in the acceptance
tests.  A name that only its own unit tests reach fails here, unless the
allowlist below gives the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liplab"

ALLOWED_UNREFERENCED = {
    "load_cover": "reads the .cover files that `liplab micro` writes",
    "cross_power": "the exceptional set of the d >= 2 build (ROADMAP item 7)",
    "product_lemma_check": "the smallness certificate of the d >= 2 build (ROADMAP item 7)",
    "worker_count": "perfbench/run.py prints it on its context line",
}


def _exports_and_references() -> tuple[dict[str, str], set[str]]:
    exported: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (
                isinstance(node, ast.Assign)
                and path.parent == PACKAGE
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                for elt in node.value.elts:
                    exported[elt.value] = path.stem
    return exported, referenced


def test_every_export_is_reached():
    exported, referenced = _exports_and_references()
    assert exported, "no __all__ found under src/liplab"
    unreached = sorted(
        f"{module}.{name}"
        for name, module in exported.items()
        if name not in referenced and name not in ALLOWED_UNREFERENCED
    )
    assert not unreached, f"exported but reached by no command or acceptance test: {unreached}"


def test_allowlist_is_current():
    # an entry whose name is gone or now referenced should leave the list
    exported, referenced = _exports_and_references()
    stale = sorted(n for n in ALLOWED_UNREFERENCED if n not in exported or n in referenced)
    assert not stale, f"allowlist entries no longer needed: {stale}"
