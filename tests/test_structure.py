"""Structural guards on the package source, read with ``ast`` only.

* Every public top-level function or class of ``src/spintorus`` is reached
  from ``perfbench/``, the acceptance suite or the package's module-level
  code, following the definitions that use it, or it is on ``KEPT`` with the
  reason it stays.  A helper of live code counts as used; a helper that only
  dead code calls does not.
* No module-level import of ``src/spintorus`` goes unused.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spintorus"

# Public names that nothing reaches, and why they stay.  What they use counts
# as reached.
KEPT = {
    "dyadic.modulation_block": "reference filter that the modulation-norm tests sum against",
    "fieldio.load_trajectory": "reads back what solve writes",
    "nonlinear.difference_expansion":
        "the only executable check that the audited difference weights expand F(u1) - F(u2)",
    "norms.block_norm":
        "one solution-space block by its definition; a reference in the solution-norm tests",
    "solver.kg_energy": "energy of the linear Klein-Gordon flow, whose conservation is tested",
    "spectral.derivative_monomial":
        "a field's derivative by its definition; the reference for the batched Bernstein ratios",
    "spectral.forward_fourier": "field-level transform that tests sample and check fields with",
    "spectral.inverse_fourier": "field-level transform that tests sample and check fields with",
    "spectral.plane_wave": "test constructor of single-mode fields",
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> dict:
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(tree: ast.Module) -> list:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n.name for n in tree.body if isinstance(n, kinds) and not n.name.startswith("_")]


def _package_module(module: str | None, level: int, in_package: bool) -> str | None:
    """Submodule that an import target names ("" for the package), or None."""
    if level == 1 and in_package:
        return module or ""
    if level == 0 and module is not None and module.split(".")[0] == "spintorus":
        return ".".join(module.split(".")[1:])
    return None


def _import_map(tree: ast.Module, in_package: bool) -> tuple[dict, dict]:
    """Local names bound to package objects: name -> (module, object), and
    name -> package submodule for imported modules."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _package_module(node.module, node.level, in_package)
            for alias in node.names if target is not None else ():
                local = alias.asname or alias.name
                if target == "":
                    modules[local] = alias.name
                else:
                    names[local] = (target, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "spintorus" and len(parts) == 2 and alias.asname:
                    modules[alias.asname] = parts[1]
    return names, modules


def _uses(node, names: dict, modules: dict) -> set:
    """(module, object) pairs that the code under ``node`` reads."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            found.add(names[sub.id])
        elif isinstance(sub, ast.Attribute):
            base = sub.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.add((modules[base.id], sub.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id == "spintorus"):
                found.add((base.attr, sub.attr))
        elif isinstance(sub, ast.alias) and sub.name in names:
            found.add(names[sub.name])
    return found


def _reached(kept=()) -> set:
    """Top-level package objects reached from perfbench, the acceptance suite,
    module-level package code and the ``kept`` names, following definitions
    transitively: a helper counts when live code calls it, not when dead code
    does."""
    roots = {tuple(name.split(".")) for name in kept}
    edges = {}
    for mod, tree in _modules().items():
        names, modules = _import_map(tree, True)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] = (mod, node.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                edges[(mod, node.name)] = _uses(node, names, modules)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _uses(node, names, modules)
    external = sorted((ROOT / "perfbench").rglob("*.py"))
    external.append(ROOT / "tests" / "test_acceptance.py")
    for path in external:
        tree = _parse(path)
        roots |= _uses(tree, *_import_map(tree, False))
    seen, todo = set(), list(roots)
    while todo:
        item = todo.pop()
        if item not in seen:
            seen.add(item)
            todo.extend(edges.get(item, ()))
    return {f"{mod}.{name}" for mod, name in seen}


def test_every_public_name_has_a_user_or_a_reason():
    defined = {f"{mod}.{name}" for mod, tree in _modules().items()
               for name in _public_definitions(tree)}
    unused = sorted(defined - _reached(KEPT) - set(KEPT))
    assert not unused, f"public names nothing reaches and KEPT does not list: {unused}"
    reached = _reached()
    stale = sorted(name for name in KEPT if name not in defined or name in reached)
    assert not stale, f"KEPT entries that are gone or now reached: {stale}"


def _bound_names(node) -> list:
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if node.module == "__future__":
        return []
    return [a.asname or a.name for a in node.names]


def test_no_unused_module_imports():
    problems = []
    for name, tree in _modules().items():
        imported = [n for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for n in _bound_names(node)]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:  # re-exports listed in __all__
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= {elt.value for elt in node.value.elts}
        problems += [f"{name}: {n}" for n in imported if n not in used]
    assert not problems, f"unused module-level imports: {problems}"
