#!/usr/bin/env python
"""Docs validator (the CI docs job).

mkdocs is not part of the dev environment, so CI validates the docs tree with
this checker instead of ``mkdocs build --strict``. It needs nothing beyond the
package's own runtime dependencies, and enforces the subset of strict-mode
guarantees the docs actually rely on:

* every page listed in ``mkdocs.yml``'s nav exists (and vice versa: every
  markdown file under ``docs/`` is reachable from the nav);
* every page starts with a single H1;
* fenced code blocks are balanced;
* relative markdown links resolve — to an existing docs page/file, and when
  an anchor is given (``page.md#section``), to a real heading on that page;
* repository-relative links out of ``docs/`` (e.g. ``benchmarks/results/``)
  resolve to files or directories that exist;
* every backticked repository path in ``docs/*.md`` or ``README.md``
  (`` `tests/test_x.py` ``, `` `benchmarks/bench_*.py` ``) names a file that
  exists, so deleting a file cannot leave prose pointing at it;
* every bare file name (``medusa.py``, not the tail of a path) in
  ``docs/*.md``, ``README.md`` or a ``src/repro`` docstring or comment is the
  name of some ``.py`` file in the repository, for the same reason;
* code cross-references name something that exists: every fully-qualified
  ``repro.*`` target of a Sphinx role (``:class:`~repro.x.Y```) in a
  ``src/repro`` docstring, and every `` `repro.x.y` `` dotted path in
  ``docs/*.md``, resolves by import + ``getattr`` (dataclass fields and
  annotated instance attributes count).  This is the one check that imports
  the package, which is what lets it follow re-exports.

Exits non-zero with a list of problems; prints a summary otherwise.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import re
import sys
import textwrap
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
SRC = REPO / "src"
MKDOCS = REPO / "mkdocs.yml"

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
#: ``:role:`~repro.x.Y``` or ``:role:`title <repro.x.Y>```; a target may wrap
#: across docstring lines (``~repro.serving.server\n  .AsyncServingEngine``).
ROLE_RE = re.compile(r":(?:mod|class|func|meth|attr|data|exc):`(?:[^`<]*<)?~?(repro\.[\w.\s]+?)>?`")
#: A backticked dotted path in a docs page, e.g. `repro.core.decoding.ntp_step`.
DOTTED_RE = re.compile(r"`(repro(?:\.\w+)+)`")
#: A backticked repository path, e.g. `tests/test_golden.py`, optionally
#: followed by ``::test_name`` or arguments; may be a glob.
REPO_PATH_RE = re.compile(r"`((?:benchmarks|tests|examples|scripts|src)/[^`\s:]+\.(?:py|md|json))\b")
#: A bare file name, e.g. medusa.py: not the tail of a path or of a dotted name.
BARE_NAME_RE = re.compile(r"(?<![\w/.-])([A-Za-z_]\w*\.py)\b")


def slugify(heading: str) -> str:
    """Approximate the mkdocs/GitHub anchor id for a heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"[\s]+", "-", text).strip("-")


def nav_pages() -> list[str]:
    """Markdown paths referenced from mkdocs.yml's nav (no yaml dependency)."""
    pages: list[str] = []
    in_nav = False
    for line in MKDOCS.read_text().splitlines():
        if line.startswith("nav:"):
            in_nav = True
            continue
        if in_nav:
            if line.strip() and not line.startswith((" ", "-", "\t")):
                break
            match = re.search(r":\s*([\w./-]+\.md)\s*$", line)
            if match:
                pages.append(match.group(1))
    return pages


def _declared_attributes(cls: type) -> set[str]:
    """Names a class declares without a class-level value.

    Dataclass fields without a default live only in ``__annotations__``, and
    instance attributes only in ``self.name: T = ...`` assignments.
    """
    names: set[str] = set()
    for klass in cls.__mro__[:-1]:
        names.update(getattr(klass, "__annotations__", {}))
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        except (OSError, TypeError):
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
            ):
                names.add(node.target.attr)
    return names


def resolves(target: str) -> bool:
    """True if the dotted ``repro.*`` path names a module, object or attribute."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        return False
    rest = parts[cut:]
    for index, name in enumerate(rest):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif index == len(rest) - 1 and inspect.isclass(obj):
            return name in _declared_attributes(obj)
        else:
            return False
    return True


def check_references() -> list[str]:
    """Unresolvable ``repro.*`` cross-references in docstrings and docs pages."""
    sys.path.insert(0, str(SRC))
    sources = [(path, ROLE_RE) for path in sorted((SRC / "repro").glob("**/*.py"))]
    sources += [(path, DOTTED_RE) for path in sorted(DOCS.glob("*.md"))]
    problems = []
    for path, pattern in sources:
        targets = {re.sub(r"\s+", "", match) for match in pattern.findall(path.read_text())}
        for target in sorted(targets):
            if not resolves(target):
                problems.append(f"{path.relative_to(REPO)}: unresolved reference {target}")
    return problems


def check_paths() -> list[str]:
    """Backticked repository paths in the docs pages and README that do not exist."""
    problems = []
    for path in [*sorted(DOCS.glob("*.md")), REPO / "README.md"]:
        for target in sorted(set(REPO_PATH_RE.findall(path.read_text()))):
            if "<" in target:  # a placeholder such as results/<bench>.json
                continue
            if not any(REPO.glob(target)):
                problems.append(f"{path.relative_to(REPO)}: missing path {target}")
    return problems


def prose(path: Path) -> str:
    """The docstrings and comments of a Python source file."""
    text = path.read_text()
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    parts = [token.string for token in tokens if token.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            parts.append(ast.get_docstring(node) or "")
    return "\n".join(parts)


def check_bare_names() -> list[str]:
    """Bare ``name.py`` mentions that name no Python file in the repository."""
    known = {path.name for path in REPO.rglob("*.py") if ".git" not in path.parts}
    sources = [(path, path.read_text()) for path in [*sorted(DOCS.glob("*.md")), REPO / "README.md"]]
    sources += [(path, prose(path)) for path in sorted((SRC / "repro").glob("**/*.py"))]
    problems = []
    for path, text in sources:
        for name in sorted(set(BARE_NAME_RE.findall(text)) - known):
            problems.append(f"{path.relative_to(REPO)}: no file named {name}")
    return problems


def check() -> list[str]:
    problems: list[str] = check_references() + check_paths() + check_bare_names()
    doc_files = sorted(DOCS.glob("**/*.md"))
    if not doc_files:
        return ["docs/ contains no markdown files"]

    # Nav completeness (both directions).
    nav = nav_pages()
    if not nav:
        problems.append("mkdocs.yml: no nav pages found")
    for page in nav:
        if not (DOCS / page).is_file():
            problems.append(f"mkdocs.yml: nav references missing page {page}")
    nav_set = set(nav)
    for path in doc_files:
        rel = path.relative_to(DOCS).as_posix()
        if rel not in nav_set:
            problems.append(f"docs/{rel}: not listed in mkdocs.yml nav")

    # Collect headings per page for anchor checks.
    headings: dict[str, set[str]] = {}
    for path in doc_files:
        rel = path.relative_to(DOCS).as_posix()
        anchors = set()
        in_fence = False
        for line in path.read_text().splitlines():
            if line.strip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            match = HEADING_RE.match(line)
            if match:
                anchors.add(slugify(match.group(2)))
        headings[rel] = anchors

    for path in doc_files:
        rel = path.relative_to(DOCS).as_posix()
        text = path.read_text()
        lines = text.splitlines()

        # Exactly one H1, and it comes first.
        h1s = []
        in_fence = False
        for line in lines:
            if line.strip().startswith("```"):
                in_fence = not in_fence
                continue
            if not in_fence and line.startswith("# "):
                h1s.append(line)
        if len(h1s) != 1:
            problems.append(f"docs/{rel}: expected exactly one H1, found {len(h1s)}")
        elif not lines[0].startswith("# "):
            problems.append(f"docs/{rel}: H1 must be the first line")

        # Balanced code fences.
        if sum(1 for line in lines if line.strip().startswith("```")) % 2 != 0:
            problems.append(f"docs/{rel}: unbalanced code fences")

        # Links resolve.
        in_fence = False
        for line in lines:
            if line.strip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                page, _, anchor = target.partition("#")
                if not page:  # same-page anchor
                    if anchor and anchor not in headings[rel]:
                        problems.append(f"docs/{rel}: broken anchor #{anchor}")
                    continue
                resolved = (path.parent / page).resolve()
                if not resolved.exists():
                    problems.append(f"docs/{rel}: broken link {target}")
                    continue
                if anchor:
                    try:
                        link_rel = resolved.relative_to(DOCS).as_posix()
                    except ValueError:
                        link_rel = None
                    if link_rel is not None and anchor not in headings.get(link_rel, set()):
                        problems.append(f"docs/{rel}: broken anchor {target}")
    return problems


def main() -> int:
    problems = check()
    if problems:
        for problem in problems:
            print(f"ERROR: {problem}")
        print(f"\n{len(problems)} problem(s) found")
        return 1
    pages = len(list(DOCS.glob('**/*.md')))
    print(f"docs OK: {pages} pages, nav complete, headings, links, paths, file names and code references valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
