#!/usr/bin/env python
"""Dependency-free API-reference generator (the CI docs job's drift check).

Extracts public classes and functions — with their docstrings — from the
documented packages (``repro.serving``, ``repro.core``, ``repro.nn``,
``repro.evalbench``, ``repro.sim``, ``repro.constrained``, ``repro.traffic``,
``repro.verilog``)
and renders one markdown page per package under
``docs/api/``.  Pure ``ast``: nothing is imported, so generation is
deterministic, side-effect-free and needs no third-party packages (the same
philosophy as ``scripts/check_docs.py``).

Conventions:

* a name is public iff it does not start with ``_`` (dataclass fields and
  module attributes are covered by the class/module docstrings, which are
  rendered in full);
* classes and module-level functions get their full docstring; methods get
  their signature plus the docstring's first paragraph (summaries stay
  scannable — the full text lives in the source, one click away);
* light Sphinx-role cleanup (``:class:`~repro.x.Y``` → ```Y```) so pages read
  as plain markdown;
* every page carries a "generated" banner and is validated by
  ``scripts/check_docs.py`` like any hand-written page (single H1, balanced
  fences, nav-complete).

Usage:

    python scripts/gen_api_docs.py            # (re)write docs/api/*.md
    python scripts/gen_api_docs.py --check    # exit 1 if docs/api/ is stale

CI runs ``--check`` in the docs job, so the reference cannot drift from the
code: change a docstring, regenerate, commit both.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
API_DIR = REPO / "docs" / "api"

#: Packages rendered, in nav order: one docs/api/<name>.md page each.
PACKAGES = ["serving", "core", "nn", "evalbench", "sim", "constrained", "traffic", "verilog"]

BANNER = (
    "<!-- Generated by scripts/gen_api_docs.py — do not edit by hand.\n"
    "     Edit the docstrings in src/repro/ and re-run the script. -->"
)

#: ``:class:`~repro.serving.ServingEngine``` → ```ServingEngine``` (tail only
#: when the target was ``~``-shortened, full dotted path otherwise).
_ROLE_RE = re.compile(r":[a-zA-Z]+:`(~?)([^`<>]+?)`")


def _clean_roles(text: str) -> str:
    """Rewrite Sphinx cross-reference roles as plain markdown code spans."""

    def replace(match: re.Match) -> str:
        target = match.group(2)
        if match.group(1) == "~":
            target = target.rsplit(".", 1)[-1]
        return f"`{target}`"

    text = _ROLE_RE.sub(replace, text)
    # RST double-backtick literals render fine in markdown, but single
    # backticks are the idiom; normalise so pages look uniform.
    return re.sub(r"``([^`]+)``", r"`\1`", text)


def _escape_headings(text: str) -> str:
    """Stop docstring lines from being parsed as page headings."""
    lines = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        if not in_fence and line.startswith("#"):
            line = "\\" + line
        lines.append(line)
    return "\n".join(lines)


def _docstring(node: ast.AST) -> str:
    raw = ast.get_docstring(node, clean=True) or ""
    return _escape_headings(_clean_roles(raw)).strip()


def _first_paragraph(text: str) -> str:
    """The docstring's summary: everything up to the first blank line."""
    parts = text.split("\n\n", 1)
    return " ".join(parts[0].split()) if parts else ""


def _signature(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    """Render ``name(args) -> ret`` from the AST (defaults included)."""
    args = node.args
    pieces: list[str] = []

    def fmt(arg: ast.arg, default: ast.expr | None) -> str:
        text = arg.arg
        if arg.annotation is not None:
            text += f": {ast.unparse(arg.annotation)}"
            if default is not None:
                return f"{text} = {ast.unparse(default)}"
        elif default is not None:
            return f"{text}={ast.unparse(default)}"
        return text

    positional = list(args.posonlyargs) + list(args.args)
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        pieces.append(fmt(arg, default))
        if args.posonlyargs and index == len(args.posonlyargs) - 1:
            pieces.append("/")
    if args.vararg is not None:
        pieces.append(f"*{args.vararg.arg}")
    elif args.kwonlyargs:
        pieces.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        pieces.append(fmt(arg, default))
    if args.kwarg is not None:
        pieces.append(f"**{args.kwarg.arg}")
    signature = f"{node.name}({', '.join(pieces)})"
    if node.returns is not None:
        signature += f" -> {ast.unparse(node.returns)}"
    return signature


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> list[str]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.append(ast.unparse(target))
    return names


def _render_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef, heading: str, full_doc: bool
) -> list[str]:
    prefix = "async " if isinstance(node, ast.AsyncFunctionDef) else ""
    lines = [f"{heading} `{prefix}{_signature(node)}`", ""]
    doc = _docstring(node)
    if doc:
        lines.extend([doc if full_doc else _first_paragraph(doc), ""])
    return lines


def _render_class(node: ast.ClassDef) -> list[str]:
    bases = [ast.unparse(base) for base in node.bases]
    suffix = f"({', '.join(bases)})" if bases else ""
    lines = [f"### class `{node.name}{suffix}`", ""]
    if "dataclass" in _decorator_names(node):
        lines.extend(["*dataclass*", ""])
    doc = _docstring(node)
    if doc:
        lines.extend([doc, ""])
    for child in node.body:
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_public(child.name) or child.name == "__init__":
            continue  # __init__ args are covered by the class docstring
        decorators = _decorator_names(child)
        label = "*property* " if "property" in decorators else ""
        if "classmethod" in decorators:
            label = "*classmethod* "
        prefix = "async " if isinstance(child, ast.AsyncFunctionDef) else ""
        summary = _first_paragraph(_docstring(child))
        lines.append(f"- {label}`{prefix}{_signature(child)}`" + (f" — {summary}" if summary else ""))
    if lines[-1] != "":
        lines.append("")
    return lines


def _render_module(package: str, path: Path) -> list[str]:
    module = f"repro.{package}" if path.stem == "__init__" else f"repro.{package}.{path.stem}"
    tree = ast.parse(path.read_text())
    lines = [f"## `{module}`", ""]
    doc = _docstring(tree)
    if doc:
        lines.extend([doc, ""])
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            lines.extend(_render_class(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            lines.extend(_render_function(node, heading="### func", full_doc=True))
    return lines


def render_package(package: str) -> str:
    """Render one package's API page (deterministic: sorted module order)."""
    directory = SRC / package
    lines = [f"# API reference: `repro.{package}`", "", BANNER, ""]
    init = directory / "__init__.py"
    modules = sorted(p for p in directory.glob("*.py") if p.name != "__init__.py")
    for path in [init] + modules if init.exists() else modules:
        lines.extend(_render_module(package, path))
    text = "\n".join(lines)
    return re.sub(r"\n{3,}", "\n\n", text).rstrip() + "\n"


def generate() -> dict[str, str]:
    """All pages as ``{filename: content}`` (the unit both modes share)."""
    return {f"{package}.md": render_package(package) for package in PACKAGES}


def main() -> int:
    check = "--check" in sys.argv[1:]
    pages = generate()
    if check:
        problems = []
        for name, content in pages.items():
            path = API_DIR / name
            if not path.is_file():
                problems.append(f"docs/api/{name}: missing (regenerate)")
            elif path.read_text() != content:
                problems.append(f"docs/api/{name}: stale (docstrings changed; regenerate)")
        for path in sorted(API_DIR.glob("*.md")) if API_DIR.is_dir() else []:
            if path.name not in pages:
                problems.append(f"docs/api/{path.name}: orphaned (not generated by this script)")
        if problems:
            for problem in problems:
                print(f"ERROR: {problem}")
            print(f"\n{len(problems)} page(s) out of date - run: python scripts/gen_api_docs.py")
            return 1
        print(f"api docs OK: {len(pages)} pages in sync with src/repro/")
        return 0
    API_DIR.mkdir(parents=True, exist_ok=True)
    for name, content in pages.items():
        (API_DIR / name).write_text(content)
        print(f"wrote docs/api/{name} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
