"""Every public module-level name of the pipeline modules is reached.

A name defined at the top level of degenera.perms, graphs, certify or
frobenius (a function, a class or an assigned constant, not an import) must
be used by another module of the package, by its own module outside its
definition, by a `from degenera... import` in a bench/*.py file, or by the
README's "Library use" example.  Names are matched through the syntax tree,
so a bench function that shares a name with a package function does not
count as a use of it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "degenera"
CHECKED = ("perms", "graphs", "certify", "frobenius")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined(tree):
    """Public top-level definitions: name -> the node that binds it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return {name: node for name, node in out.items() if not name.startswith("_")}


def used_names(node):
    """Names a subtree reads, as bare names, attributes or imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def imported_from_degenera(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("degenera")
        for alias in node.names
    }


def library_use_example():
    """The python block under the README's "Library use" heading, parsed."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return ast.parse(block)


def unreached():
    """The checked names that nothing reaches, and how many were checked."""
    trees = {path.stem: parse(path) for path in PACKAGE.glob("*.py")}
    outside = set()
    for path in (ROOT / "bench").glob("*.py"):
        outside |= imported_from_degenera(parse(path))
    outside |= used_names(library_use_example())
    missing, checked = [], 0
    for module in CHECKED:
        tree = trees[module]
        others = set().union(
            *(used_names(t) for name, t in trees.items() if name != module)
        )
        for name, node in defined(tree).items():
            checked += 1
            own = set().union(
                *(used_names(top) for top in tree.body if top is not node)
            )
            if name not in others | own | outside:
                missing.append("%s.%s" % (module, name))
    return missing, checked


def test_every_public_name_is_reached():
    missing, checked = unreached()
    assert missing == []
    assert checked > 40
