"""Every name the package defines is read somewhere: a top-level function,
class or constant of ``src/gcq``, or a method of one of its classes, is
named again besides its definition, in ``src``, ``tests``, ``scripts`` or
``perfbench``.  A name nobody reads is code to delete, and a top-level
definition only tests read belongs in ``tests/``."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcq"
READERS = ("src", "tests", "scripts", "perfbench")


def top_level(node: ast.stmt) -> list[str]:
    """The names a module statement defines: a function, a class or constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def definitions(tree: ast.Module) -> list[str]:
    """The module's top-level functions, classes and constants, and the
    methods of its top-level classes."""
    out = []
    for node in tree.body:
        out += top_level(node)
        if isinstance(node, ast.ClassDef):
            out += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return out


def exempt(module: str, name: str) -> bool:
    """Dunders, which Python calls, and the command handlers that
    ``cli.main`` looks up by name."""
    return (name.startswith("__") and name.endswith("__")
            or module == "cli" and name.startswith("cmd_"))


def words_in(readers) -> Counter:
    """How often each word occurs in the Python files under ``readers``."""
    return Counter(word for reader in readers for path in (ROOT / reader).rglob("*.py")
                   for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))


def test_every_definition_is_named_elsewhere():
    words = words_in(READERS)
    defined = {path.stem: definitions(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(PACKAGE.glob("*.py"))}
    sites = Counter(name for names in defined.values() for name in names)
    unread = sorted(f"{module}.{name}" for module, names in defined.items()
                    for name in set(names)
                    if not exempt(module, name) and words[name] <= sites[name])
    assert unread == []


# top-level definitions only tests read that stay in the package, and why
TEST_ONLY = {"genchor.session_chain": "a planned benchmark input: m sessions in a row, "
                                      "on which the run bound is exact"}


def test_every_top_level_definition_is_read_by_the_program():
    """Read by ``scripts``, ``perfbench``, or ``src`` outside the definition
    itself (so a recursive call does not count, nor does an import)."""
    words = words_in(("scripts", "perfbench"))
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = top_level(node)
            words.update({n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                          if isinstance(n, (ast.Name, ast.Attribute))} - set(names))
            defined += [(path.stem, name) for name in names]
    unread = sorted(f"{module}.{name}" for module, name in defined
                    if not exempt(module, name) and not words[name])
    assert unread == sorted(TEST_ONLY)
