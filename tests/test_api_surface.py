"""No API surface in src/ that only tests use.

Every top-level name that a module of src/selcls defines must be read
somewhere outside its own definition: in src/selcls, in tools/, or in the
non-test code of perfbench/. A name counts as read where it appears as a
name, an attribute or a string other than a docstring (perfbench labels
functions by ``"module.name"`` strings).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although no program code reads it
ALLOWED = {
    "__init__.__version__": "the package's version, for its users",
    "datasets.bayes_posterior": "the exact class posterior, which only "
                                "tests read today; the oracle-referenced "
                                "risks of ROADMAP item 19 make a command "
                                "call it",
}


def defined_names(stmt) -> list:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)]


def read_names(tree) -> set:
    """The names, attributes and string words that ``tree`` mentions; a
    string such as "nn.network_forward" gives each of its dotted parts.
    Docstrings and other bare strings mention nothing."""
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)}
    words = set()
    for node in ast.walk(tree):
        if id(node) in bare:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(node.value.replace(".", " ").split())
    return words


def program_files():
    yield from sorted((ROOT / "src" / "selcls").glob("*.py"))
    yield from sorted((ROOT / "tools").glob("*.py"))
    yield from (p for p in sorted((ROOT / "perfbench").glob("*.py"))
                if not p.name.startswith("test_"))


def unread_names() -> list:
    """``module.name`` for each top-level name of src/selcls that nothing
    but its own definition reads."""
    parsed = {path: ast.parse(path.read_text(), str(path))
              for path in program_files()}
    # words read per (file, top-level statement index)
    reads = {(path, i): read_names(stmt)
             for path, tree in parsed.items()
             for i, stmt in enumerate(tree.body)}
    unread = []
    for path, tree in parsed.items():
        if path.parent.name != "selcls":
            continue
        for i, stmt in enumerate(tree.body):
            for name in defined_names(stmt):
                if not any(name in words for where, words in reads.items()
                           if where != (path, i)):
                    unread.append(f"{path.stem}.{name}")
    return unread


def test_every_top_level_name_is_read_by_program_code():
    assert [n for n in unread_names() if n not in ALLOWED] == []


def test_allow_list_holds_only_unread_names():
    assert sorted(ALLOWED) == sorted(set(unread_names()) & set(ALLOWED))
