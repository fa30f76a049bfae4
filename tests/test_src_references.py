"""Every top-level function and class in ``src/mvnet`` is used by the package,
its command line entry point or the acceptance tests, or is on a keep-list
that gives its reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvnet"

# Names nothing above uses, each with the reason it stays.
KEEP = {
    "augment_features": "perfbench/layers.py wraps it",
    "attention_scores": "perfbench/layers.py wraps it",
    "attention_weights": "perfbench/layers.py wraps it",
    "select": "perfbench/layers.py wraps it",
    "mean_scalars": "perfbench/layers.py wraps it",
    "sum_all": "the gradient tests and demo 02 build losses with it",
}
# The mvn command: [project.scripts] runs mvnet.cli:main.
ENTRY_POINT = "main"


def definitions(tree):
    """The top-level function and class statements of a module."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def used_names(node):
    """Names that ``node`` reads, as bare names or attributes; an import
    binds a name without reading it, so it adds none."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_every_definition_is_used_or_kept():
    defined = set()
    used = used_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = definitions(tree)
        defined.update(node.name for node in own)
        # A definition's own body does not count as a use of it.
        for statement in tree.body:
            names = used_names(statement)
            if statement in own:
                names.discard(statement.name)
            used |= names
    unused = defined - used - {ENTRY_POINT}
    assert unused == set(KEEP), (
        "unused and not kept: " + ", ".join(sorted(unused - set(KEEP)))
        + "; kept but used or gone: " + ", ".join(sorted(set(KEEP) - unused)))
