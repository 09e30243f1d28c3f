"""No public code, and no keyword parameter, that only tests use.

Every public function, class and method in ``src/hlpuf_lab`` must be used,
by name, somewhere in the package or in the benchmark harness's non-test
files: as a Name, an Attribute or an import alias, or, in the harness, as a
string (its span targets name the callables they wrap). The scan matches
names, not objects, so it catches code that nothing but a test reaches; a
test of such code keeps it alive without a caller.

Every parameter with a default, of a module-level function or a method
(``__init__`` through its class's name), must be passed by some call in the
same files: by keyword, by position, or through ``*`` / ``**`` unpacking.

Both scans match bare names: a method that shares its name with any used
attribute, or with any called function, is not caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hlpuf_lab"

# qualified name -> why it stays without a caller
ALLOWED = {
    "run_unforgeability_game": "ROADMAP item 2 wires the game into a command",
    "StoredReplayAdversary": "ROADMAP item 4 wires it into the protocol command",
}


# qualified name(parameter=) -> why only tests pass it
ALLOWED_KEYWORDS = {
    "mc_extract_rate(prior_bases=)": "only the oracle tests of whole-family priors pass it",
    "run_unforgeability_game(config=)": "ROADMAP item 2's game command will pass it",
    "run_unforgeability_game(return_trial_rates=)":
        "criterion 8 reads the per-trial rates for its paired spread",
    "split_attack_extract(prior_bases=)": "criterion 2's whole-family analysis needs it",
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


def _harness() -> list:
    return [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]


def _used_names() -> set:
    harness = _harness()
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


def _defaulted(fn: ast.FunctionDef, skip: int) -> list:
    """(parameter, position or None if keyword-only) of each parameter with a default;
    positions count from after the first ``skip`` parameters (a method's ``self`` or
    ``cls``)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def _keyword_parameters() -> dict:
    """{qualified name(parameter=): (called name, parameter, position)} over the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                entries = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                entries = [(f"{node.name}.{fn.name}",
                            node.name if fn.name == "__init__" else fn.name, fn, 1)
                           for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for qualified, called, fn, skip in entries:
                for param, position in _defaulted(fn, skip):
                    found[f"{qualified}({param}=)"] = (called, param, position)
    return found


def _passes(call: ast.Call, param: str, position) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position or
                                     any(isinstance(a, ast.Starred) for a in call.args))


def _calls() -> dict:
    """{bare called name: [ast.Call]} over the package and the harness's non-test files."""
    calls = {}
    for path in [*sorted(PACKAGE.glob("*.py")), *_harness()]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def _unpassed_keywords() -> set:
    calls = _calls()
    return {key for key, (called, param, position) in _keyword_parameters().items()
            if not any(_passes(c, param, position) for c in calls.get(called, []))}


def test_every_keyword_parameter_is_passed_outside_tests():
    unpassed = sorted(_unpassed_keywords() - set(ALLOWED_KEYWORDS))
    assert unpassed == [], f"keyword parameters no caller outside tests passes: {unpassed}"


def test_keyword_allowlist_entries_exist_and_are_still_unpassed():
    defined, unpassed = _keyword_parameters(), _unpassed_keywords()
    for key in ALLOWED_KEYWORDS:
        assert key in defined, f"{key} is gone: drop it from ALLOWED_KEYWORDS"
        assert key in unpassed, f"{key} has a caller: drop it from ALLOWED_KEYWORDS"


def test_cli_imports_no_private_name_from_a_sibling_module():
    """The commands reach the other modules through their public names only."""
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
               for alias in node.names if alias.name.startswith("_")]
    assert private == [], f"cli imports private names: {private}"
