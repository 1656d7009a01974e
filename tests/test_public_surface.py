"""Every public function, class, method and module-level name of simpow is
used by the program.

A public name must be referred to somewhere other than its own
definition: in the package itself (the CLI included) or in the benchmark
under bench/.  Tests do not count, so API that only its own tests reach
fails here; imports and assignments do not count either, so a name
imported or assigned and never read fails too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "simpow").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def public_definitions(tree: ast.Module):
    """(qualified name, bare name) of the public top-level functions,
    classes and assigned names and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a variable read or an attribute access uses; definitions,
    assignments and imports bind names without using them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used():
    used = set()
    for path in USERS:
        used |= referenced_names(ast.parse(path.read_text(), str(path)))
    unused = [
        f"{path.name}: {qualified}"
        for path in SOURCES
        for qualified, name in public_definitions(ast.parse(path.read_text(), str(path)))
        if name not in used
    ]
    assert not unused, f"public API that nothing in src/simpow or bench/ uses: {unused}"



def test_numpy_free_modules_do_not_load_numpy():
    # the package re-exports nothing, so importing spectra (and the scalar
    # module it builds on) loads only what those modules import
    code = "import sys, simpow.spectra; assert 'numpy' not in sys.modules, 'numpy loaded'"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
