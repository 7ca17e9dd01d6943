"""Every public function, class and class member is reached by the program or the benchmark.

A function is reached by a call, an import or a ``pg.<name>`` reference; a
class by any reference to its name.

A name in a module's ``__all__`` that only tests call is dead weight unless an
acceptance criterion uses it; those few are listed with their criterion. The
same holds for the methods, properties and dataclass fields of public classes,
where a few diagnostics that only a reader of the result needs are listed too.
A defaulted parameter or dataclass field that no call in the program or the
benchmark sets is a setting only tests change; those few are listed with the
reason they stay.
"""

import ast
import collections
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

CRITERION_ONLY_MEMBERS = {
    "ScaleEstimates.phi_mom": 8,
    "ScaleEstimates.phi_eql": 8,
    "ScaleEstimates.phi_dev": 8,
}

# Diagnostics and result values that the program sets for whoever reads a
# result, not for a later step of the chain.
DIAGNOSTIC_MEMBERS = {
    "GridPosterior.mass": "the normalizer: joint / mass is the grid's normalized density",
    "GridPosterior.edge_mass": "how much marginal mass the grid bounds cut off",
    "MixtureModel1D.stages": "every number of components the mixture fit tried",
    "MixtureStage.start_iters": "how long each EM start of a stage ran",
    "MixtureStage.n_barred": "how many EM starts of a stage the BIC bar stopped",
    "ReplicationReport.failure_counts": "why the failed replicates failed",
}


# Defaulted parameters of public functions and defaulted fields of public
# dataclasses that no call in the program or the benchmark sets.
SETTINGS = {
    "wald_pvalue.beta0": "the null value in the test's definition",
    "wald_pvalue.dof": "the t-reference p that the jeffreys pi equals",
    "pi_value_from_grid.beta0": "the null value in the pi-value's definition",
    "ReplicationConfig.analyses": "the Bayes replication route of ROADMAP item 4",
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


def _references(nodes) -> set:
    """Every name the nodes call, import or read as ``pg.<name>``.

    A function reached only as an attribute of the same name (``fit.deviance``
    against ``glm.deviance``) is not reached."""
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Call):
                func = n.func
                out.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
            elif isinstance(n, ast.ImportFrom):
                out.update(a.name for a in n.names)
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id == "pg"):
                out.add(n.attr)
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
    bench = [ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")]
    unreached = []
    for name, tree in sorted(modules.items()):
        exported = _exported(tree)
        others = bench + [t for m, t in modules.items() if m != name]
        elsewhere = {ast.FunctionDef: _references(others), ast.ClassDef: _names(others)}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported
                    and node.name not in CRITERION_ONLY):
                # a reference in its own module counts, outside its own body
                reach = _references if isinstance(node, ast.FunctionDef) else _names
                seen = elsewhere[type(node)] | reach(n for n in tree.body if n is not node)
                if node.name not in seen:
                    unreached.append(f"{name}.{node.name}")
    assert not unreached, f"public, but called only by tests: {unreached}"


def _attribute_reads(nodes) -> collections.Counter:
    """How often the nodes read each name as an attribute, ``obj.name``."""
    return collections.Counter(n.attr for top in nodes for n in ast.walk(top)
                               if isinstance(n, ast.Attribute))


def _members(cls: ast.ClassDef):
    """(name, node) of each method, property and annotated field of a class body."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _unreached_members() -> set:
    """Members of public classes that no source module or benchmark file reads.

    Members are matched by name, so a member whose name another class also
    uses (``sample``, ``family``) counts as reached."""
    trees = [ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.name != "__init__.py"]
    reads = _attribute_reads(trees + [ast.parse(p.read_text())
                                      for p in (ROOT / "perfbench").glob("*.py")])
    unreached = set()
    for tree in trees:
        exported = _exported(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported:
                for name, node in _members(cls):
                    # a read inside the member's own body does not count
                    if reads[name] <= _attribute_reads([node])[name]:
                        unreached.add(f"{cls.name}.{name}")
    return unreached


def test_every_public_member_has_a_reader():
    listed = set(CRITERION_ONLY_MEMBERS) | set(DIAGNOSTIC_MEMBERS)
    unreached = _unreached_members()
    unlisted, stale = sorted(unreached - listed), sorted(listed - unreached)
    assert not unlisted, f"public, but read only by tests: {unlisted}"
    assert not stale, f"listed, but read by the program: {stale}"


def test_criterion_only_names_are_used_by_their_criterion():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    criteria = {int(node.name.split("_")[2]): node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")}
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")]
    listed = [*CRITERION_ONLY.items(),
              *((member.split(".")[1], number) for member, number in CRITERION_ONLY_MEMBERS.items())]
    for name, number in listed:
        body = criteria[number]
        # a criterion may reach the name through a module-level helper it calls
        reached = _names([body]) | _names(h for h in helpers if h.name in _names([body]))
        assert name in reached, (name, number)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def _defaulted(tree):
    """(owner, name, position) of each defaulted parameter of a public function and
    each defaulted field of a public dataclass; position is None for keyword-only."""
    exported = _exported(tree)
    for node in tree.body:
        if getattr(node, "name", None) not in exported:
            continue
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, a in enumerate(positional[first:], first):
                yield node.name, a.arg, i
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    yield node.name, a.arg, None
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield node.name, f.target.id, i


def _settings_set(nodes):
    """What the nodes' calls set: (callee, keyword) and (callee, position) pairs,
    the callees given ``*`` or ``**`` arguments, and the keywords passed to
    ``dataclasses.replace``."""
    pairs, everything, replaced = set(), set(), set()
    for top in nodes:
        for n in ast.walk(top):
            if not isinstance(n, ast.Call):
                continue
            callee = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
            if callee == "replace":
                replaced.update(k.arg for k in n.keywords)
            if any(isinstance(a, ast.Starred) for a in n.args) or any(
                    k.arg is None for k in n.keywords):
                everything.add(callee)
            pairs.update((callee, i) for i in range(len(n.args)))
            pairs.update((callee, k.arg) for k in n.keywords)
    return pairs, everything, replaced


def _unset_settings() -> set:
    """Defaulted parameters and fields that no call in the program or the benchmark sets."""
    trees = [ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.name != "__init__.py"]
    bench = [ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")]
    pairs, everything, replaced = _settings_set(trees + bench)
    return {f"{owner}.{name}" for tree in trees for owner, name, i in _defaulted(tree)
            if owner not in everything and (owner, name) not in pairs
            and (owner, i) not in pairs and name not in replaced}


def test_every_setting_is_set_by_a_caller():
    unset = _unset_settings()
    unlisted, stale = sorted(unset - set(SETTINGS)), sorted(set(SETTINGS) - unset)
    assert not unlisted, f"a default that only tests change: {unlisted}"
    assert not stale, f"listed, but set by the program: {stale}"
