"""Structural guards on the package source, read with ``ast`` only.

Live code is the package's modules, ``perfbench/`` and the acceptance suite.

* Every public top-level function or class of ``src/spintorus`` is reached
  from ``perfbench/``, the acceptance suite or the package's module-level
  code, following the definitions that use it, or it is on ``KEPT`` with the
  reason it stays.  A helper of live code counts as used; a helper that only
  dead code calls does not.
* Every public method and property of a package class is read as an
  attribute (``x.name``) somewhere in live code, or it is on ``KEPT`` as
  ``module.Class.member``.  Reads are matched by name only, so a member that
  shares its name with one read elsewhere (``copy``) passes, but a read
  whose base is a module name bound by an import (``np.zeros``) does not
  count; ``__post_init__`` and operator dunders are not checked.
* Every defaulted parameter of a top-level package function is passed, by
  keyword or by position, by at least one live call, unless the function is
  on ``KEPT``: a default that no caller overrides is a constant.  The same
  holds for the defaulted parameters of a public method of a package class,
  whose calls ``x.name(...)`` are matched by the method's name only, and for
  the defaulted public fields of a package dataclass, which a live call may
  also set through ``dataclasses.replace``, or live code by assigning the
  attribute (matched by name only).
* Every private top-level function or class of ``src/spintorus`` is named
  by package code outside its own definition (matched by name only), so a
  helper that only tests call does not stay in the package.
* No module-level import of ``src/spintorus`` goes unused.
"""

import ast
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spintorus"
EXTERNAL = sorted((ROOT / "perfbench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Public names that nothing reaches, and why they stay.  What they use counts
# as reached.
KEPT = {
    "fieldio.load_trajectory": "reads back what solve writes",
    "solver.kg_energy": "energy of the linear Klein-Gordon flow, whose conservation is tested",
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules(package: pathlib.Path) -> dict:
    return {p.stem: _parse(p) for p in sorted(package.glob("*.py"))}


def _public_definitions(tree: ast.Module) -> list:
    return [n.name for n in tree.body if isinstance(n, DEFINITIONS) and not n.name.startswith("_")]


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


def _live_files(package: pathlib.Path, external: list) -> list:
    """(module or None, tree, names, modules) for every file of live code; a
    package module's names include its own top-level definitions."""
    out = []
    for mod, tree in _modules(package).items():
        names, modules = _import_map(tree, True)
        names.update({n.name: (mod, n.name) for n in tree.body if isinstance(n, DEFINITIONS)})
        out.append((mod, tree, names, modules))
    for path in external:
        tree = _parse(path)
        out.append((None, tree, *_import_map(tree, False)))
    return out


def _resolve(node, names: dict, modules: dict):
    """(module, object) that a Name or Attribute node names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            return (modules[base.id], node.attr)
        if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                and base.value.id == "spintorus"):
            return (base.attr, node.attr)
    return None


def _uses(node, names: dict, modules: dict) -> set:
    """(module, object) pairs that the code under ``node`` reads."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias) and sub.name in names:
            found.add(names[sub.name])
        else:
            found.add(_resolve(sub, names, modules))
    return found - {None}


def _reached(package: pathlib.Path, external: list, kept=()) -> set:
    """Top-level package objects reached from the external files, module-level
    package code and the ``kept`` names, following definitions transitively:
    a helper counts when live code calls it, not when dead code does."""
    roots = {tuple(name.split(".")) for name in kept}
    edges = {}
    for mod, tree, names, modules in _live_files(package, external):
        if mod is None:
            roots |= _uses(tree, names, modules)
            continue
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                edges[(mod, node.name)] = _uses(node, names, modules)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _uses(node, names, modules)
    seen, todo = set(), list(roots)
    while todo:
        item = todo.pop()
        if item not in seen:
            seen.add(item)
            todo.extend(edges.get(item, ()))
    return {f"{mod}.{name}" for mod, name in seen}


def _unread_members(package: pathlib.Path, external: list) -> list:
    """Public methods and properties of package classes that live code never
    reads as an attribute, as "module.Class.member"; a read from an imported
    module (``np.zeros``) is not a read of a member."""
    read = set()
    for _, tree, _, modules in _live_files(package, external):
        imported = set(modules).union(*(_bound_names(n) for n in ast.walk(tree)
                                        if isinstance(n, ast.Import)))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and not (isinstance(node.value, ast.Name) and node.value.id in imported)}
    return sorted(f"{mod}.{cls.name}.{fn.name}"
                  for mod, tree in _modules(package).items()
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, FUNCTIONS) and not fn.name.startswith("_")
                  and fn.name not in read)


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
        for d in (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list))


def _defaulted(node) -> list:
    """(name, position) of each defaulted parameter of a function, or of each
    defaulted public field of a dataclass (its position among the fields);
    the position is None for a keyword-only parameter."""
    if isinstance(node, ast.ClassDef):
        fields = [n for n in node.body
                  if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        return [(f.target.id, i) for i, f in enumerate(fields)
                if f.value is not None and not f.target.id.startswith("_")]
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _unset_parameters(package: pathlib.Path, external: list, kept=()) -> list:
    """Defaulted parameters of top-level package functions that no live call
    passes, as "module.function(parameter)", the same for public methods of
    package classes, as "module.Class.method(parameter)", and defaulted
    public fields of package dataclasses that no live call sets and no live
    code assigns as an attribute, as "module.Class.field"; names on ``kept``
    are skipped.  A method call ``x.name(...)`` counts for every method of
    that name, with its first parameter bound.  A ``*`` or ``**`` argument
    counts as passing every parameter it could fill, and
    ``dataclasses.replace`` sets its keywords on every dataclass."""
    parsed = _modules(package)
    targets = {(mod, node.name): node for mod, tree in parsed.items()
               for node in tree.body if isinstance(node, FUNCTIONS) or _is_dataclass(node)}
    methods = {}  # method name -> [(label, node)]
    for mod, tree in parsed.items():
        for cls in tree.body:
            for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(fn, FUNCTIONS) and not fn.name.startswith("_"):
                    methods.setdefault(fn.name, []).append((f"{mod}.{cls.name}.{fn.name}", fn))
    passed, stored, replaced = set(), set(), set()
    for _, tree, names, modules in _live_files(package, external):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            keywords = {k.arg for k in node.keywords}  # None stands for **
            if ast.unparse(node.func) in ("replace", "dataclasses.replace"):
                replaced |= keywords
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_positional = math.inf if starred else len(node.args)
            called = []  # (target, definition, parameters bound before the arguments)
            target = _resolve(node.func, names, modules)
            if target in targets:
                called.append((target, targets[target], 0))
            if isinstance(node.func, ast.Attribute):
                called += [(label, fn, 1) for label, fn in methods.get(node.func.attr, ())]
            for target, definition, bound in called:
                for name, position in _defaulted(definition):
                    if (name in keywords or None in keywords
                            or (position is not None and position - bound < n_positional)):
                        passed.add((target, name))
    unset = []
    for (mod, name), node in targets.items():
        for param, _ in _defaulted(node):
            if ((mod, name), param) in passed:
                continue
            if isinstance(node, ast.ClassDef):
                label = f"{mod}.{name}.{param}"
                if param not in stored | replaced and label not in kept:
                    unset.append(label)
            elif f"{mod}.{name}" not in kept:
                unset.append(f"{mod}.{name}({param})")
    unset += [f"{label}({param})" for same_name in methods.values()
              for label, fn in same_name if label not in kept
              for param, _ in _defaulted(fn) if (label, param) not in passed]
    return sorted(unset)


def _unnamed_private_helpers(package: pathlib.Path) -> list:
    """Private top-level functions and classes that no package code names
    outside their own definition, as "module.name"."""
    parsed = _modules(package)
    named = {}  # name -> ids of the package nodes that name it
    for tree in parsed.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, set()).add(id(node))
    return sorted(f"{mod}.{node.name}" for mod, tree in parsed.items() for node in tree.body
                  if isinstance(node, DEFINITIONS) and node.name.startswith("_")
                  and not named.get(node.name, set()) - {id(n) for n in ast.walk(node)})


def test_every_public_name_has_a_user_or_a_reason():
    defined = {f"{mod}.{name}" for mod, tree in _modules(PACKAGE).items()
               for name in _public_definitions(tree)}
    unused = sorted(defined - _reached(PACKAGE, EXTERNAL, KEPT) - set(KEPT))
    assert not unused, f"public names nothing reaches and KEPT does not list: {unused}"
    reached = _reached(PACKAGE, EXTERNAL)
    stale = sorted(name for name in KEPT if name.count(".") == 1
                   and (name not in defined or name in reached))
    assert not stale, f"KEPT entries that are gone or now reached: {stale}"


def test_every_public_member_is_read_or_has_a_reason():
    unread = _unread_members(PACKAGE, EXTERNAL)
    missing = [m for m in unread if m not in KEPT]
    assert not missing, f"members live code never reads and KEPT does not list: {missing}"
    stale = sorted(name for name in KEPT if name.count(".") == 2 and name not in unread)
    assert not stale, f"KEPT members that are gone or now read: {stale}"


def test_every_private_helper_is_named_by_package_code():
    unnamed = _unnamed_private_helpers(PACKAGE)
    assert not unnamed, f"private helpers no package code outside them names: {unnamed}"


def test_every_default_is_passed_by_a_live_call():
    unset = _unset_parameters(PACKAGE, EXTERNAL, KEPT)
    assert not unset, f"defaulted parameters no live call passes: {unset}"


SYNTHETIC = '''
from dataclasses import dataclass


@dataclass
class Limits:
    size: int
    label: str = ""
    strict: bool = False


class Box:
    def used(self, offset=0):
        return 1 + offset

    def unread(self):
        return 2

    def resized(self, size=1):
        return size


def scale(x, factor=2.0, shift=0.0):
    return factor * _half(2.0 * x) + shift


def _half(x):
    return x / 2.0


def _tested_only(x):
    return _tested_only(x - 1) if x else 0


TOTAL = scale(Box().used()) + Box().resized(2)
LIMITS = Limits(3, "three")
'''


def test_rules_report_a_synthetic_package(tmp_path):
    package = tmp_path / "spintorus"
    package.mkdir()
    (package / "box.py").write_text(SYNTHETIC)
    callers = [tmp_path / "by_module.py", tmp_path / "by_name.py"]
    callers[0].write_text("")
    # a module's attribute of the same name is not a read of the member
    callers[1].write_text("import numpy as np\n\nnp.unread\n")
    assert _unread_members(package, callers) == ["box.Box.unread"]
    # a private helper that only names itself is reported; one a package
    # function calls is not
    assert _unnamed_private_helpers(package) == ["box._tested_only"]
    # label and Box.resized's size are set by position; nothing sets strict
    # or Box.used's offset
    assert _unset_parameters(package, callers) == [
        "box.Box.used(offset)", "box.Limits.strict", "box.scale(factor)", "box.scale(shift)"]
    kept = {"box.scale": "exempt", "box.Limits.strict": "exempt", "box.Box.used": "exempt"}
    assert _unset_parameters(package, callers, kept=kept) == []
    # the same code with a live reader and live callers, by position and
    # keyword, and a live attribute assignment
    callers[0].write_text("from spintorus import box\n\nbox.Box().unread()\nbox.scale(1.0, 3.0)\n"
                          "box.LIMITS.strict = True\nbox.Box().used(1)\n")
    callers[1].write_text("from spintorus.box import scale\n\nscale(1.0, shift=1.0)\n")
    assert _unread_members(package, callers) == []
    assert _unset_parameters(package, callers) == []


def _bound_names(node) -> list:
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if node.module == "__future__":
        return []
    return [a.asname or a.name for a in node.names]


def test_no_unused_module_imports():
    problems = []
    for name, tree in _modules(PACKAGE).items():
        imported = [n for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for n in _bound_names(node)]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:  # re-exports listed in __all__
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= {elt.value for elt in node.value.elts}
        problems += [f"{name}: {n}" for n in imported if n not in used]
    assert not problems, f"unused module-level imports: {problems}"
