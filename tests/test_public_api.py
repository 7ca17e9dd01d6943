"""Every public function and class is reached by the program or the benchmark.

A name in a module's ``__all__`` that only tests call is dead weight unless an
acceptance criterion uses it; those few are listed with their criterion.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "piglm"

CRITERION_ONLY = {
    "p_formula_density": 12,
    "saddlepoint_logpdf": 12,
    "score": 12,
    "tail_comparison": 9,
    "rpd_median": 6,
}


def _names(nodes) -> set:
    """Every name the nodes load, read as an attribute or import."""
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out.update(a.name for a in n.names)
    return out


def _exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_public_definition_has_a_caller():
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    bench = _names(ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py"))
    unreached = []
    for name, tree in sorted(modules.items()):
        exported = _exported(tree)
        elsewhere = bench.union(*(_names([t]) for m, t in modules.items() if m != name))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported
                    and node.name not in CRITERION_ONLY):
                # a reference in its own module counts, outside its own body
                seen = elsewhere | _names(n for n in tree.body if n is not node)
                if node.name not in seen:
                    unreached.append(f"{name}.{node.name}")
    assert not unreached, f"public, but called only by tests: {unreached}"


def test_criterion_only_names_are_used_by_their_criterion():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    criteria = {int(node.name.split("_")[2]): node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")}
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")]
    for name, number in CRITERION_ONLY.items():
        body = criteria[number]
        # a criterion may reach the name through a module-level helper it calls
        reached = _names([body]) | _names(h for h in helpers if h.name in _names([body]))
        assert name in reached, (name, number)
