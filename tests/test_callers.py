"""``src/varprec`` holds only what the library runs.

Every public top-level function and class, and every public method, has a
caller outside the tests: a reference elsewhere in ``src/`` (outside its
own definition), in ``demos/`` or in ``perfbench/``.  A routine that only
tests call belongs in ``tests/oracles.py``.  A function or class whose name
starts with an underscore belongs to its module: no other module imports it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: public names kept without a caller, each with its reason
ALLOWED = {
    "optimizer.plan_from_csv": "reads back a plan CSV; the README documents it",
    "graph.ExprGraph.load_jsonl": "reads back a graph's JSON lines; the README documents it",
    "ebfp.EbfpParams.min_block_exp": "the lower end of the documented geometry; "
                                     "encode and apply inline its value",
}


def definitions(tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def references(tree) -> Counter:
    """How often the tree names each identifier: as a name, an attribute,
    an imported name, or a string whose last dotted part it is."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value.rsplit(".", 1)[-1]] += 1
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "varprec").glob("*.py"))}
    in_src = sum(map(references, trees.values()), Counter())
    outside = sum((references(ast.parse(p.read_text()))
                   for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))),
                  Counter())
    uncalled = set()
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            # a reference inside the definition itself (recursion) is no caller
            if not outside[name] and in_src[name] <= references(node)[name]:
                uncalled.add(f"{module}.{qualname}")
    assert sorted(uncalled - ALLOWED.keys()) == []


def test_no_module_imports_a_private_routine_of_another():
    # graph's op-kind aliases (_ADD ... _SQRT) are assignments, not routines
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "varprec").glob("*.py"))}
    private = {module: {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
               for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module if node.level else node.module.rpartition("varprec.")[2]
                found += [f"{module} imports {source}.{alias.name}" for alias in node.names
                          if alias.name in private.get(source, ())]
    assert found == []
