"""No public code that only tests call.

Every public function, class and method in ``src/hlpuf_lab`` must be used,
by name, somewhere in the package or in the benchmark harness's non-test
files: as a Name, an Attribute or an import alias, or, in the harness, as a
string (its span targets name the callables they wrap). The scan matches
names, not objects, so it catches code that nothing but a test reaches; a
test of such code keeps it alive without a caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hlpuf_lab"

# qualified name -> why it stays without a caller
ALLOWED = {
    "run_unforgeability_game": "ROADMAP item 2 wires the game into a command",
    "StoredReplayAdversary": "ROADMAP item 4 wires it into the protocol command",
    "TwoOutcomeMeasurement.probability_a":
        "scalar oracle the split-attack table tests compare against",
}


def _public_definitions(tree: ast.Module) -> list:
    """Qualified names of the module's public functions, classes and methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.extend((f"{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def _used_names() -> set:
    harness = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")]
    used = set()
    for path in [*sorted(PACKAGE.glob("*.py")), *harness]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path in harness:
                used.add(node.value)
    return used


def _definitions() -> dict:
    """{module.qualified name: bare name} over the package."""
    return {f"{path.stem}.{qualified}": name for path in sorted(PACKAGE.glob("*.py"))
            for qualified, name in _public_definitions(ast.parse(path.read_text()))}


def test_every_public_name_has_a_caller_outside_tests():
    used = _used_names()
    unused = [qualified for qualified, name in _definitions().items()
              if name not in used and qualified.split(".", 1)[1] not in ALLOWED]
    assert unused == [], f"public names with no caller outside tests: {unused}"


def test_allowlist_entries_exist_and_are_still_uncalled():
    defined = {q.split(".", 1)[1]: name for q, name in _definitions().items()}
    used = _used_names()
    for qualified in ALLOWED:
        assert qualified in defined, f"{qualified} is gone: drop it from ALLOWED"
        assert defined[qualified] not in used, f"{qualified} has a caller: drop it from ALLOWED"
