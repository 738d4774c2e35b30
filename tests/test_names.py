"""Every name the package defines is read somewhere: a top-level function,
class or constant of ``src/gcq``, or a method of one of its classes, is
named again besides its definition, in ``src``, ``tests``, ``scripts`` or
``perfbench``.  A name nobody reads is code to delete."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcq"
READERS = ("src", "tests", "scripts", "perfbench")


def definitions(tree: ast.Module) -> list[str]:
    """The module's top-level functions, classes and constants, and the
    methods of its top-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def exempt(module: str, name: str) -> bool:
    """Dunders, which Python calls, and the command handlers that
    ``cli.main`` looks up by name."""
    return (name.startswith("__") and name.endswith("__")
            or module == "cli" and name.startswith("cmd_"))


def test_every_definition_is_named_elsewhere():
    words = Counter()
    for reader in READERS:
        for path in (ROOT / reader).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = {path.stem: definitions(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(PACKAGE.glob("*.py"))}
    sites = Counter(name for names in defined.values() for name in names)
    unread = sorted(f"{module}.{name}" for module, names in defined.items()
                    for name in set(names)
                    if not exempt(module, name) and words[name] <= sites[name])
    assert unread == []
