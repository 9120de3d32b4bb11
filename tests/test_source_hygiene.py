"""Source hygiene: no unused imports, no unreferenced definitions or constants, no stale README facts.

The project has no linter, so these checks read the ``ast`` of every module
under ``src/seqpen``. The package ``__init__`` modules only re-export names
and are exempt.
"""

import ast
import dataclasses
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "seqpen"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_used():
    unused = []
    for path in MODULES:
        tree = _parse(path)
        used = _used_names(tree)
        unused += [f"{path.relative_to(SRC)}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []


def test_every_private_module_level_definition_is_referenced():
    unreferenced = []
    for path in MODULES:
        tree = _parse(path)
        used = _used_names(tree)
        defined = (
            node.name
            for node in tree.body
            if isinstance(node, DEFINITIONS) and node.name.startswith("_")
        )
        unreferenced += [f"{path.relative_to(SRC)}: {name}" for name in defined if name not in used]
    assert unreferenced == []


def _users() -> dict:
    """Text of every file that may name a library definition.

    The package ``__init__`` modules are left out: re-exporting a name is not a use.
    """
    paths = [
        path
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        if not (path.name == "__init__.py" and SRC in path.parents)
    ]
    return {path: path.read_text(encoding="utf-8") for path in paths + [ROOT / "README.md"]}


def _code_names(tree, skip=None) -> set:
    """Names and attribute names that the code in ``tree`` reads outside the statement ``skip``.

    Comments and docstrings are not code, so naming a definition there is not a use.
    """
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skipped
    }


def _unused_public(kinds, names_of):
    """``module: name`` for every public module-level name that no code and no README sentence uses.

    ``names_of(node)`` lists the names a statement of one of ``kinds`` binds;
    the statement itself is not a use of them.
    """
    users = _users()
    readme = users.pop(ROOT / "README.md")
    read = {path: _code_names(_parse(path)) for path in users}
    unused = []
    for path in MODULES:
        tree = _parse(path)
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            own = _code_names(tree, skip=node)
            for name in names_of(node):
                others = any(name in names_read for other, names_read in read.items() if other != path)
                if name not in own and not others and not re.search(rf"\b{name}\b", readme):
                    unused.append(f"{path.relative_to(SRC)}: {name}")
    return unused


def test_every_public_module_level_definition_is_referenced():
    assert _unused_public(DEFINITIONS, lambda node: [node.name] if not node.name.startswith("_") else []) == []


def _constants(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    # one statement may bind several constants: A, B = 1, 2
    names = [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
    return list(filter(CONSTANT.fullmatch, names))


def test_every_public_module_level_constant_is_read():
    assert _unused_public((ast.Assign, ast.AnnAssign), _constants) == []


def test_readme_oracle_section_names_exactly_the_oracle_fields_of_a_problem():
    from seqpen import FiniteSumProblem

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("Problems are described by a `FiniteSumProblem`")
    section = readme[start : readme.index("A batch oracle wins", start)]
    named = set(re.findall(r"`((?:batch|sample)_\w+)[`(]", section))
    fields = {field.name for field in dataclasses.fields(FiniteSumProblem) if "Callable" in str(field.type)}
    assert named == fields


def test_readme_states_the_evaluation_chunk_size():
    from seqpen.problems import SPLIT_CHUNK

    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert re.findall(r"evaluated in chunks of (\d+) rows", readme) == [str(SPLIT_CHUNK)]


def test_readme_states_the_whole_split_gradient_chunk_size():
    from seqpen.problems import SPLIT_CHUNK

    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert re.findall(r"gradients over a whole split \(.*?\) run in chunks of (\d+) rows", readme) == [str(SPLIT_CHUNK)]
