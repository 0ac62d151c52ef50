"""Every module-level function and class of ``src/weylkit``, and every method, is used by the library.

A definition is used when another top-level statement of some module of
``src/weylkit`` reads its name or cites it in a docstring (a ``:func:`` or
``:class:`` reference), or when the benchmark's tracer spans it
(``SPANNED`` in ``perfbench/tracer.py``).  A method other than a dunder is
used when code outside its own body reads its name as an attribute or cites
it, or when README.md names it as ``Class.method``.  ``__init__`` is not
scanned: an export is no use.  A reference version that only the tests call
belongs in ``oracles.py``.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylkit"


def spanned() -> dict:
    """SPANNED of the tracer, read from its source: module name -> function names."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (value,) = (s.value for s in tree.body if isinstance(s, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SPANNED" for t in s.targets))
    return ast.literal_eval(value)


CITE = re.compile(r":(?:func|class):`[~.]?(?:\w+\.)*(\w+)`")


def read_names(node) -> set:
    """Every name and attribute that ``node`` reads, and every name its strings cite."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.update(CITE.findall(n.value))
    return names


def unused_definitions(src=SRC, spans=None) -> list:
    """``module.name`` of each module-level function or class that nothing else in ``src`` reads."""
    spans = spanned() if spans is None else spans
    statements = [(p.stem, s) for p in sorted(src.glob("*.py")) if p.name != "__init__.py"
                  for s in ast.parse(p.read_text()).body]
    reads = [read_names(s) for _, s in statements]
    unused = []
    for i, (module, s) in enumerate(statements):
        if not isinstance(s, (ast.FunctionDef, ast.ClassDef)) or s.name in spans.get(module, ()):
            continue
        if not any(s.name in r for j, r in enumerate(reads) if j != i):
            unused.append(f"{module}.{s.name}")
    return unused


def attribute_reads(node) -> collections.Counter:
    """How often ``node`` reads each attribute name, and cites each name in its strings."""
    reads = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            reads[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            reads.update(CITE.findall(n.value))
    return reads


def unused_methods(src=SRC, readme=None) -> list:
    """``module.Class.method`` of each method, not a dunder, that nothing in ``src`` outside its body
    reads as an attribute or cites, and that ``readme`` (README.md by default) does not name."""
    readme = (ROOT / "README.md").read_text() if readme is None else readme
    trees = [(p.stem, ast.parse(p.read_text())) for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    reads = sum((attribute_reads(tree) for _, tree in trees), collections.Counter())
    unused = []
    for module, tree in trees:
        for c in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            for f in c.body:
                if not isinstance(f, ast.FunctionDef) or re.fullmatch(r"__\w+__", f.name):
                    continue
                if reads[f.name] == attribute_reads(f)[f.name] and f"{c.name}.{f.name}" not in readme:
                    unused.append(f"{module}.{c.name}.{f.name}")
    return unused


def test_every_definition_in_src_is_used_by_the_library():
    unused = unused_definitions()
    assert not unused, f"nothing in src/ uses {unused}; a test-only reference belongs in oracles.py"


def test_the_scan_names_a_definition_only_the_tests_would_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def spanned():\n    return used()\n\n\n"
        "def cited():\n    pass\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
        "class Unread:\n    \"\"\"Built by :func:`cited`.\"\"\"\n\n"
        "    def used(self):\n        return Unread()\n")
    (tmp_path / "__init__.py").write_text("from .a import Unread, recursive\n")
    assert unused_definitions(tmp_path, {"a": ("spanned",)}) == ["a.recursive", "a.Unread"]
    assert unused_definitions(tmp_path, {}) == ["a.spanned", "a.recursive", "a.Unread"]


def test_every_method_in_src_is_read_by_the_library():
    unused = unused_methods()
    assert not unused, f"nothing in src/ reads {unused}; a test-only reference belongs in oracles.py"


def test_the_scan_names_a_method_only_the_tests_would_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def read(self):\n        return self.cited()\n\n"
        "    def cited(self):\n        \"\"\"See :func:`A.documented`.\"\"\"\n\n"
        "    def documented(self):\n        pass\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n"
        "    def named(self):\n        pass\n\n"
        "    def unread(self):\n        pass\n\n\n"
        "def f(a):\n    return a.read()\n")
    (tmp_path / "__init__.py").write_text("def g(a):\n    return a.unread()\n")
    assert unused_methods(tmp_path, "`A.named`") == ["a.A.recursive", "a.A.unread"]
    assert unused_methods(tmp_path, "") == ["a.A.recursive", "a.A.named", "a.A.unread"]
