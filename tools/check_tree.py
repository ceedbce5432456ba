#!/usr/bin/env python3
"""Clean-checkout gate: everything the build names must be committed.

A file that exists in a working tree but was never added to git (a stray
.gitignore pattern is enough) builds fine locally and breaks every fresh
clone. This gate fails when

  TREE-1  a source file named in a CMakeLists.txt (add_library,
          add_executable, target_sources, or a call of a CMake function
          that builds `${param}.cpp`) is not tracked;
  TREE-2  a `#include "cpm/..."` in a tracked C/C++ file does not resolve
          to a tracked header under src/<module>/include/.

"Tracked" means `git ls-files` (the index, minus entries deleted from the
work tree) when ROOT is the top of a git work tree; otherwise (e.g. a
`git archive` export) the files on disk, minus every CMake build tree
(a directory below ROOT holding a CMakeCache.txt) with the test fixtures
its runs leave behind.

Usage: tools/check_tree.py [root]
Exit code 0 when clean, 1 when anything is missing.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

SOURCE_EXT = (".c", ".cc", ".cpp", ".h", ".hpp")
BUILTIN_SOURCES = {"add_library", "add_executable", "target_sources"}
CMAKE_KEYWORDS = {"STATIC", "SHARED", "MODULE", "OBJECT", "EXCLUDE_FROM_ALL",
                  "WIN32", "MACOSX_BUNDLE", "PRIVATE", "PUBLIC", "INTERFACE"}
# A command invocation starts its line; its arguments may span lines.
COMMAND = re.compile(r"^[ \t]*([A-Za-z_][A-Za-z0-9_]*)[ \t]*\(([^()]*)\)", re.M)
INCLUDE = re.compile(r'^\s*#\s*include\s+"(cpm/[^"]+)"', re.M)
PUBLIC_HEADER = re.compile(r"^src/[^/]+/include/(cpm/.+)$")


def tracked_files(root: Path) -> set[str]:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() == root.resolve():
            out = subprocess.run(["git", "-C", str(root), "ls-files", "-z"],
                                 capture_output=True, text=True, check=True).stdout
            return {p for p in out.split("\0") if p and (root / p).exists()}
    except (OSError, subprocess.CalledProcessError):
        pass
    print("check_tree: not a git work tree root; checking the files on disk")
    files = set()
    for dirpath, dirnames, filenames in os.walk(root):
        here = Path(dirpath)
        if here != root and "CMakeCache.txt" in filenames:
            dirnames.clear()  # a build tree, not source
            continue
        files.update((here / f).relative_to(root).as_posix() for f in filenames
                     if (here / f).is_file())
    return files


def strip_comments(text: str) -> str:
    # CMake comments run from an unquoted '#' to end of line.
    return "\n".join(re.sub(r'^((?:[^"#]|"[^"]*")*)#.*$', r"\1", line)
                     for line in text.splitlines())


def function_templates(text: str) -> dict[str, list[tuple[int, str]]]:
    """CMake functions of one file -> the (param index, extension) pairs of
    every `${param}.<ext>` their body builds (empty for plain wrappers)."""
    templates: dict[str, list[tuple[int, str]]] = {}
    for m in re.finditer(r"function\s*\(\s*(\w+)([^)]*)\)(.*?)endfunction",
                         text, re.S):
        found = templates.setdefault(m.group(1), [])
        for i, p in enumerate(m.group(2).split()):
            for ext in re.findall(r"\$\{" + p + r"\}(\.\w+)", m.group(3)):
                if ext in SOURCE_EXT:
                    found.append((i, ext))
    return templates


def cmake_sources(text: str, templates: dict[str, list[tuple[int, str]]]
                  ) -> list[str]:
    """Source paths named by one CMakeLists.txt. Calls of the repo's own
    functions count their source-file arguments, plus arg.<ext> where the
    function body builds ${param}.<ext>."""
    sources = []
    for name, raw in COMMAND.findall(text):
        args = raw.split()
        if name in BUILTIN_SOURCES:
            if "ALIAS" in args or "IMPORTED" in args:
                continue
            sources += [a for a in args[1:]
                        if a not in CMAKE_KEYWORDS and a.endswith(SOURCE_EXT)]
        elif name in templates:
            sources += [args[i] + ext for i, ext in templates[name] if i < len(args)]
            sources += [a for a in args if a.endswith(SOURCE_EXT)]
    return sources


def resolve(root: Path, cmake_dir: Path, path: str) -> str | None:
    path = path.strip('"')
    path = path.replace("${CMAKE_CURRENT_SOURCE_DIR}/", "")
    if path.startswith("${CMAKE_SOURCE_DIR}/"):
        return path[len("${CMAKE_SOURCE_DIR}/"):]
    if "$" in path:
        return None  # built from a variable this gate cannot evaluate
    return (cmake_dir / path).relative_to(root).as_posix()


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = tracked_files(root)
    headers = {m.group(1) for f in files if (m := PUBLIC_HEADER.match(f))}
    problems: list[str] = []

    cmakes = {f: strip_comments((root / f).read_text(encoding="utf-8"))
              for f in sorted(files) if Path(f).name == "CMakeLists.txt"}
    templates: dict[str, list[tuple[int, str]]] = {}
    for text in cmakes.values():
        templates.update(function_templates(text))
    for cmake, text in cmakes.items():
        cmake_dir = (root / cmake).parent
        for src in cmake_sources(text, templates):
            rel = resolve(root, cmake_dir, src)
            if rel is not None and rel not in files:
                problems.append(f"{cmake}: [TREE-1] source '{rel}' is not tracked")

    for f in sorted(f for f in files if f.endswith(SOURCE_EXT)):
        text = (root / f).read_text(encoding="utf-8", errors="replace")
        for inc in INCLUDE.findall(text):
            if inc not in headers:
                problems.append(f"{f}: [TREE-2] '#include \"{inc}\"' has no "
                                "tracked header under src/*/include/")

    for p in problems:
        print(p)
    print(f"check_tree: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
