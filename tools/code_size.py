"""Count the modules, code-only lines and public names of a package.

    python tools/code_size.py src/liqshock

A code-only line holds a token other than a comment, outside module,
class and function docstrings.  Public names are read with ``ast`` from
each module's ``__all__``, without importing it.  Each module's line
gives its code-only lines, then its public names; below it, a module
lists the ``_``-prefixed names it takes from another module of the
package (``from .x import _y``, or ``x._y`` after ``from . import x``):
the decisions that two modules share.  Public methods are the
methods and properties without a leading underscore that the exported
classes define, counted and then listed by name, one line per class
that has any.  Exits 1 when two modules export one name:
``from .x import *`` would keep only the last.
"""
import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (ast.Module, ast.ClassDef, *FUNCS)


def private(name):
    return name.startswith("_") and not name.startswith("__")


def shared(tree):
    """Sorted "module._name" of the private names ``tree`` takes from a
    sibling module, imported by name or read off the imported module."""
    imports = [n for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.level]
    modules = {a.asname or a.name: a.name
               for n in imports if n.module is None for a in n.names}
    found = {f"{n.module}.{a.name}" for n in imports if n.module
             for a in n.names if private(a.name)}
    found |= {f"{modules[n.value.id]}.{n.attr}" for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and private(n.attr)
              and isinstance(n.value, ast.Name) and n.value.id in modules}
    return sorted(found)


paths = sorted(Path(sys.argv[1]).glob("*.py"))
total, methods, owners = 0, {}, {}
for path in paths:
    tree = ast.parse(path.read_text())
    doc = {n for node in ast.walk(tree) if isinstance(node, DEFS)
           and ast.get_docstring(node, clean=False) is not None
           for n in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    with path.open("rb") as f:
        code = {n for tok in tokenize.tokenize(f.readline)
                if tok.type not in SKIP
                for n in range(tok.start[0], tok.end[0] + 1)} - doc
    total += len(code)
    names = [name for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in node.targets)
             for name in ast.literal_eval(node.value)]
    print(f"{path.name:16} {len(code):6,} {len(names):4}")
    taken = shared(tree)
    if taken:
        print(f"  takes {', '.join(taken)}")
    for name in names:
        owners.setdefault(name, []).append(path.name)
    for c in tree.body:
        if isinstance(c, ast.ClassDef) and c.name in names:
            methods[c.name] = [f.name for f in c.body if isinstance(f, FUNCS)
                               and not f.name.startswith("_")]
print(f"{'total':16} {total:6,}\nmodules {len(paths)}\n"
      f"public names {len(owners)}\n"
      f"public methods {sum(map(len, methods.values()))}")
for name, defined in methods.items():
    if defined:
        print(f"  {name}: {', '.join(defined)}")
clashes = {n: m for n, m in owners.items() if len(m) > 1}
for name, modules in sorted(clashes.items()):
    print(f"{name} is exported by {', '.join(modules)}", file=sys.stderr)
sys.exit(1 if clashes else 0)
