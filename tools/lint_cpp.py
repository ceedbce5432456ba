#!/usr/bin/env python3
"""Repo-convention linter for the C++ sources (the cheap, grep-level
checks clang-tidy does not cover).

Convention rules:

  CONV-1  library code (src/**) must not use rand()/srand(): every random
          draw goes through cpm::RandomStream so replications are
          reproducible and independent.
  CONV-2  library code (src/**) must not write to std::cout/std::cerr:
          libraries return values and throw cpm::Error; only tools/ and
          tests/ talk to streams.
  CONV-3  every header must start its include guard with #pragma once.
  CONV-4  headers must not contain using-namespace directives (they leak
          into every includer).
  CONV-5  library code must not compare doubles with exact == / != —
          interval endpoints, utilisations and delays carry rounding;
          use explicit tolerances or restructure. Comparisons against
          the exact literal 0.0 are allowed (sign tests are well-defined).
  CONV-6  library code must not use assert(): it vanishes under NDEBUG.
          Use cpm::require(), which throws cpm::Error in every build.

Determinism rules (DET): the repo's headline guarantees — byte-identical
sharded sweeps, same-seed cpm-online/v1 timelines, thread-count-invariant
replicate() — die silently when a library path reads ambient state. These
rules ban the ambient-state entry points at the source level:

  DET-1   library code must not use std::random_device: it is a fresh
          entropy source per call, so no two runs can ever agree. Seeds
          come in through configs and flow through cpm::RandomStream.
  DET-2   library code must not read the wall clock (system_clock,
          time(nullptr), gettimeofday, localtime, mktime): results would
          depend on when the run happened. steady_clock is fine — it is
          only valid for durations, which land in provenance sidecars.
  DET-3   library code must not read the environment (getenv): two hosts
          with different environments would compute different results.
          Configuration enters through explicit options structs.
  DET-4   library code must not iterate an unordered_{map,set}: the visit
          order is hash-seed- and libc++-version-dependent, so any
          serialization or float accumulation fed from the loop differs
          across builds. Iterate a sorted std::map/std::set, or sort keys
          first. (Insert/lookup-only use of unordered containers is fine
          and encouraged — only iteration is order-sensitive.)
  DET-5   library code must not format or hash pointer addresses
          (%p, streaming static_cast<void*>, std::hash<T*>,
          reinterpret_cast to uintptr_t): ASLR makes addresses differ
          every run, so any output or key containing one is unstable.

I/O-seam rules (IO): the resilience guarantees — deterministic fault
injection, crash-safe journaled resume, classified retry — only hold if
every artifact read/write in library code flows through the
cpm::FileSystem seam (cpm/common/fs.hpp). RealFileSystem is the single
sanctioned implementation; these rules keep raw I/O from leaking back in:

  IO-1    library code must not open raw file streams or CRT handles
          (std::ofstream/ifstream/fstream, fopen, std::FILE): reads and
          writes go through a FileSystem& so faults can be injected and
          transient errors retried.
  IO-2    library code must not mutate the filesystem directly
          (std::filesystem::rename/remove/remove_all/create_directories/
          copy/resize_file, std::rename): atomic publish and cleanup
          live behind the seam, where crash-safety is proven once.

Both rules exempt the sanctioned seam implementation
(src/common/src/fs.cpp and its header) and apply to src/ only — tools/
and tests/ may talk to the disk directly.

Units rules (UNIT): cpm::units makes dimension mix-ups (rate-for-delay,
W-for-J) unrepresentable, but only where the types are actually used.
These rules flag raw `double` declarations in src/ public headers whose
names carry dimension vocabulary (rate, delay, power, freq, energy,
watts, joules) — the places where `units::Rate`, `units::Seconds`,
`units::Watts`, ... belong. Genuine dimensionless scalars (utilization,
smoothing factors, percentiles) and policy-sanctioned raw containers
(per-tier frequency vectors) carry waivers:

  UNIT-1  dimension-named double PARAMETER in a src/ header.
  UNIT-2  dimension-named double FIELD (or header-scope variable).
  UNIT-3  dimension-named function RETURNING raw double.
  UNIT-4  dimension-named std::vector<double> parameter or field.

Performance rule (PERF): a require() check runs on every call, so its
message must cost nothing until it is thrown:

  PERF-1  library code must not build a require() message with `+`:
          the std::string is allocated and concatenated before the
          condition is tested, on every call. Pass the pieces instead —
          require(cond, "station '", name, "' needs >= 1 server") joins
          them only when it throws. The check spans the whole call, so
          multi-line messages are caught; the report names the line of
          `require(`, which is where a waiver goes.

All rules skip comments and string/char literals (a "std::cout" inside a
doc string is prose, not a violation) — except the %p half of DET-5,
which by nature lives inside format strings and is matched there.

A trailing "// conv-ok: RULE-ID" comment waives that rule for the line
(comma-separate to waive several); every waiver should carry a nearby
comment explaining why the line is sound.

Usage: tools/lint_cpp.py [root] [--format text|sarif] [--out FILE]
                         [--changed-only]
Exit code 0 when clean, 1 when any violation is found.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Source views: strip comments and literals so patterns only see code.
# ---------------------------------------------------------------------------


def source_views(text: str) -> tuple[list[str], list[str]]:
    """Splits `text` into lines rendered in two views:

    * code view: comments AND string/char-literal contents blanked,
    * nocomment view: only comments blanked (literals kept).

    Both views preserve line count and column positions (stripped spans
    become spaces), so reported line numbers match the original file.
    """
    code: list[str] = []
    nocomment: list[str] = []
    code_line: list[str] = []
    nc_line: list[str] = []

    CODE, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = CODE
    raw_delim = ""  # the )delim" terminator of an active raw string
    prev_code_char = ""  # last non-space char emitted in CODE state

    def emit(code_ch: str, nc_ch: str) -> None:
        code_line.append(code_ch)
        nc_line.append(nc_ch)

    def newline() -> None:
        nonlocal code_line, nc_line
        code.append("".join(code_line))
        nocomment.append("".join(nc_line))
        code_line = []
        nc_line = []

    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == LINE_COMMENT:
                state = CODE
            newline()
            i += 1
            continue

        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                emit(" ", " ")
                emit(" ", " ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                emit(" ", " ")
                emit(" ", " ")
                i += 2
                continue
            # Raw string literal: R"delim( ... )delim" (any prefix u8R etc.
            # ends in R). The body is blanked in the code view only.
            if c == '"' and prev_code_char.endswith("R"):
                close = text.find("(", i + 1)
                if close != -1 and close - i <= 17:
                    raw_delim = ")" + text[i + 1 : close] + '"'
                    state = RAW
                    emit('"', '"')
                    i += 1
                    continue
            if c == '"':
                state = STRING
                emit('"', '"')
                i += 1
                continue
            # A single quote opens a char literal only in operator/delimiter
            # context; after an identifier or digit it is a digit separator
            # (1'000'000) or literal suffix and stays plain code.
            if c == "'" and not (prev_code_char and
                                 (prev_code_char.isalnum() or
                                  prev_code_char == "_")):
                state = CHAR
                emit("'", "'")
                i += 1
                continue
            emit(c, c)
            if not c.isspace():
                prev_code_char = c
            i += 1
            continue

        if state == LINE_COMMENT:
            emit(" ", " ")
            i += 1
            continue

        if state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = CODE
                emit(" ", " ")
                emit(" ", " ")
                i += 2
                continue
            emit(" ", " ")
            i += 1
            continue

        if state == STRING:
            if c == "\\" and nxt:
                emit(" ", "\\")
                emit(" ", nxt if nxt != "\n" else " ")
                if nxt == "\n":
                    newline()
                i += 2
                continue
            if c == '"':
                state = CODE
                prev_code_char = '"'
                emit('"', '"')
                i += 1
                continue
            emit(" ", c)
            i += 1
            continue

        if state == CHAR:
            if c == "\\" and nxt:
                emit(" ", " ")
                emit(" ", " ")
                i += 2
                continue
            if c == "'":
                state = CODE
                prev_code_char = "'"
                emit("'", "'")
                i += 1
                continue
            emit(" ", " ")
            i += 1
            continue

        # RAW string body: blanked in code view, kept in nocomment view.
        if text.startswith(raw_delim, i):
            for ch in raw_delim:
                emit(ch if ch in ')"' else " ", ch)
            i += len(raw_delim)
            state = CODE
            prev_code_char = '"'
            continue
        emit(" ", c)
        i += 1

    newline()
    return code, nocomment


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

# (id, applies-to-library-sources-only, headers-only, view, regex, message)
# view: "code" = comments + literal contents stripped, "nocomment" =
# comments stripped but literals kept (for patterns that target format
# strings).
RULES = [
    ("CONV-1", True, False, "code", re.compile(r"\b(?:s?rand)\s*\("),
     "rand()/srand() in library code: use cpm::RandomStream"),
    ("CONV-2", True, False, "code", re.compile(r"\bstd::c(?:out|err)\b"),
     "stream output in library code: return values or throw cpm::Error"),
    ("CONV-4", False, True, "code", re.compile(r"^\s*using\s+namespace\b"),
     "using-namespace in a header leaks into every includer"),
    ("CONV-6", True, False, "code", re.compile(r"(?<![\w.])assert\s*\("),
     "assert() vanishes under NDEBUG: use cpm::require()"),
    ("DET-1", True, False, "code", re.compile(r"(?<!\w)random_device(?!\w)"),
     "std::random_device is fresh entropy per call: seeds must come from "
     "the config and flow through cpm::RandomStream"),
    ("DET-2", True, False, "code", re.compile(
        r"(?<!\w)(?:system_clock|gettimeofday|localtime|mktime)(?!\w)"
        r"|(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock read in library code: results would depend on when the "
     "run happened (steady_clock durations for provenance are fine)"),
    ("DET-3", True, False, "code", re.compile(r"(?<!\w)getenv(?!\w)"),
     "environment read in library code: configuration enters through "
     "explicit options structs, not ambient host state"),
    ("DET-5", True, False, "code", re.compile(
        r"std::hash<[^<>]*\*\s*>"
        r"|static_cast<\s*(?:const\s+)?void\s*\*\s*>"
        r"|reinterpret_cast<\s*(?:std::)?u?intptr_t"),
     "pointer address in an output/key path: ASLR makes it differ every "
     "run"),
    ("DET-5", True, False, "nocomment", re.compile(r"%p(?![\w])"),
     "%p formats a pointer address: ASLR makes it differ every run"),
    ("IO-1", True, False, "code", re.compile(
        r"std::[io]?fstream\b|(?<![\w.])(?:std::)?fopen\s*\(|std::FILE\b"),
     "raw file I/O in library code: route reads/writes through the "
     "cpm::FileSystem seam (cpm/common/fs.hpp) so faults can be injected "
     "and transient errors retried"),
    ("IO-2", True, False, "code", re.compile(
        r"(?:std::filesystem|stdfs|(?<!\w)fs)\s*::\s*"
        r"(?:rename|remove(?:_all)?|create_director(?:y|ies)"
        r"|copy(?:_file)?|resize_file)\b"
        r"|std::rename\s*\("),
     "raw filesystem mutation in library code: atomic publish and cleanup "
     "live behind the cpm::FileSystem seam, where crash-safety is proven "
     "once"),
]

# The seam implementation itself is the one sanctioned home for raw I/O.
IO_SANCTIONED_SUFFIXES = (
    "src/common/src/fs.cpp",
    "src/common/include/cpm/common/fs.hpp",
)

# DET-4 needs file-level context (which identifiers are unordered
# containers), so it is implemented as a dedicated pass below.
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s*[&*]?\s*"
    r"(\w+)\s*(?:[;={(,)]|$)")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*:\s*(?:\w+\.)*(\w+)\s*\)")
BEGIN_CALL = re.compile(r"(?<!\w)(\w+)\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")

DET4_MESSAGE = (
    "iteration over an unordered container: visit order is hash-seed-"
    "dependent, so serialized or accumulated results differ across "
    "builds — iterate a sorted std::map/set or sort the keys first")

# CONV-5: exact ==/!= where either side is a floating-point expression —
# a double literal (1.0, 1e-9, .5). Kept deliberately grep-level: a float
# literal adjacent to ==/!= is the high-signal case.
FLOAT_LITERAL = r"(?<![\w.])(?:\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)(?![\w.])"
FLOAT_EQ = re.compile(
    rf"{FLOAT_LITERAL}\s*[!=]=|[!=]=\s*{FLOAT_LITERAL}")
ZERO_LITERAL = re.compile(
    rf"(?<![\w.])0+\.0*(?:[eE][-+]?\d+)?\s*[!=]=|[!=]=\s*(?<![\w.])0+\.0*(?:[eE][-+]?\d+)?(?![\w.])")
WAIVER = re.compile(r"//\s*conv-ok:\s*([A-Z0-9-]+(?:\s*,\s*[A-Z0-9-]+)*)")

# UNIT-1..4: raw-double declarations with dimension vocabulary in their
# identifier. The name is split on underscores and each token matched
# exactly, so `max_rate` and `delay_bound` fire while `separate` and
# `accelerated` do not. The character after the declarator classifies it:
# '(' opens a function (UNIT-3), ',' / ')' ends a parameter (UNIT-1),
# ';' / '=' / '{' ends a field (UNIT-2). A bare end-of-line is treated as
# a wrapped parameter list (the common clang-format break).
UNIT_VOCAB = frozenset({
    "rate", "rates", "delay", "delays", "power", "powers",
    "freq", "freqs", "frequency", "frequencies",
    "energy", "energies", "watt", "watts", "joule", "joules",
})
DOUBLE_DECL = re.compile(r"(?<![\w:<.>])double\s+(\w+)\s*(.?)")
VECTOR_DOUBLE_DECL = re.compile(
    r"std::vector<\s*double\s*>\s*(?:const\s+)?[&*]?\s*(\w+)\s*(.?)")

UNIT_MESSAGES = {
    "UNIT-1": ("raw double parameter '{name}' carries a dimension: take a "
               "cpm::units quantity (units::Rate, units::Seconds, "
               "units::Watts, ...) or waive a genuine scalar"),
    "UNIT-2": ("raw double field '{name}' carries a dimension: store a "
               "cpm::units quantity or waive a genuine scalar"),
    "UNIT-3": ("'{name}' returns a raw double that carries a dimension: "
               "return a cpm::units quantity or waive a genuine scalar"),
    "UNIT-4": ("'{name}' is a vector<double> with a dimension name: use "
               "std::vector of a cpm::units quantity, or waive it where "
               "the raw-container boundary policy applies"),
}


# Frequency tokens are excluded from the CONTAINER rule only: the repo's
# frequency vectors are normalized DVFS operating points (f / f_base, a
# dimensionless speedup multiplier), the optimizers' decision-variable
# representation. Scalar `double freq`-style declarations still fire.
UNIT_VECTOR_EXEMPT = frozenset({"freq", "freqs", "frequency", "frequencies"})


def dimension_named(name: str, exempt: frozenset = frozenset()) -> bool:
    toks = name.lower().split("_")
    return (any(tok in UNIT_VOCAB for tok in toks)
            and not any(tok in exempt for tok in toks))


def unit_violations(path: Path, lineno: int, code: str) -> list["Violation"]:
    out = []
    for m in VECTOR_DOUBLE_DECL.finditer(code):
        name = m.group(1)
        if dimension_named(name, UNIT_VECTOR_EXEMPT):
            out.append(Violation(path, lineno, "UNIT-4",
                                 UNIT_MESSAGES["UNIT-4"].format(name=name)))
    # Blank vector<double> spans so DOUBLE_DECL cannot re-match inside them.
    scalar_view = VECTOR_DOUBLE_DECL.sub(lambda m: " " * len(m.group(0)),
                                         code)
    for m in DOUBLE_DECL.finditer(scalar_view):
        name, after = m.group(1), m.group(2)
        if not dimension_named(name):
            continue
        if after == "(":
            rule = "UNIT-3"
        elif after in {";", "=", "{"}:
            rule = "UNIT-2"
        else:  # ',' / ')' / wrapped parameter list
            rule = "UNIT-1"
        out.append(Violation(path, lineno, rule,
                             UNIT_MESSAGES[rule].format(name=name)))
    return out

# Registry for SARIF rule metadata: id -> short description.
RULE_HELP = {
    "CONV-1": "No rand()/srand() in library code",
    "CONV-2": "No stream output in library code",
    "CONV-3": "Headers start with #pragma once",
    "CONV-4": "No using-namespace in headers",
    "CONV-5": "No exact ==/!= on doubles in library code",
    "CONV-6": "No assert() in library code",
    "DET-1": "No std::random_device in library code",
    "DET-2": "No wall-clock reads in library code",
    "DET-3": "No environment reads in library code",
    "DET-4": "No iteration over unordered containers in library code",
    "DET-5": "No pointer-address formatting or hashing in library code",
    "IO-1": "No raw file streams/handles in library code — use the "
            "cpm::FileSystem seam",
    "IO-2": "No raw filesystem mutation in library code — use the "
            "cpm::FileSystem seam",
    "PERF-1": "No string concatenation in a require() message",
    "UNIT-1": "Dimension-named double parameters in src/ headers use "
              "cpm::units",
    "UNIT-2": "Dimension-named double fields in src/ headers use cpm::units",
    "UNIT-3": "Dimension-named functions in src/ headers return cpm::units "
              "quantities",
    "UNIT-4": "Dimension-named vector<double> in src/ headers uses "
              "cpm::units (or a boundary-policy waiver)",
}


# PERF-1: the require( call, its argument list split at top-level commas
# in the code view (literal contents are blanked there, so commas and
# parentheses inside messages do not count).
REQUIRE_CALL = re.compile(r"(?<![\w.>])require\s*\(")
PERF1_MESSAGE = (
    "require() message built with '+': the string is allocated on every "
    "call, thrown or not — pass the pieces as extra arguments "
    "(require(cond, \"a '\", name, \"' b\")) so they are joined only on "
    "failure")


def call_arguments(text: str, open_paren: int) -> list[str]:
    """Top-level arguments of the call whose '(' is at `open_paren`."""
    args, depth, start = [], 0, open_paren + 1
    for i in range(open_paren, len(text)):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i])
                return args
        elif c == "," and depth == 1:
            args.append(text[start:i])
            start = i + 1
    return args


def perf1_lines(code_lines: list[str]) -> list[int]:
    """1-based lines of require() calls whose message uses '+'."""
    text = "\n".join(code_lines)
    out = []
    for m in REQUIRE_CALL.finditer(text):
        message = call_arguments(text, m.end() - 1)[1:]
        if any("+" in arg for arg in message):
            out.append(text.count("\n", 0, m.start()) + 1)
    return out


def waived(raw_line: str, rule: str) -> bool:
    """Waivers live in comments, so they are matched on the RAW line."""
    m = WAIVER.search(raw_line)
    return bool(m) and rule in re.split(r"\s*,\s*", m.group(1))


def conv5_violates(line: str) -> bool:
    """True when the line compares a non-zero float literal with == / !=."""
    if not FLOAT_EQ.search(line):
        return False
    # Allow when every float-literal comparison on the line is against 0.0.
    stripped = ZERO_LITERAL.sub("", line)
    return bool(FLOAT_EQ.search(stripped))


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def unordered_names(code_lines: list[str]) -> set[str]:
    """Identifiers declared as unordered containers anywhere in the file."""
    names = set()
    for line in code_lines:
        for m in UNORDERED_DECL.finditer(line):
            names.add(m.group(1))
    return names


def lint_file(path: Path, in_library: bool) -> list[Violation]:
    text = path.read_text(encoding="utf-8")
    is_header = path.suffix == ".hpp"
    raw_lines = text.splitlines()
    code_lines, nocomment_lines = source_views(text)
    violations = []
    if is_header and "#pragma once" not in text:
        violations.append(
            Violation(path, 1, "CONV-3", "header lacks #pragma once"))

    unordered = unordered_names(code_lines) if in_library else set()
    io_sanctioned = path.as_posix().endswith(IO_SANCTIONED_SUFFIXES)

    if in_library:
        violations.extend(
            Violation(path, lineno, "PERF-1", PERF1_MESSAGE)
            for lineno in perf1_lines(code_lines)
            if not waived(raw_lines[lineno - 1], "PERF-1"))

    for lineno, raw in enumerate(raw_lines, start=1):
        code = code_lines[lineno - 1]
        nocomment = nocomment_lines[lineno - 1]
        for rule, library_only, headers_only, view, pattern, message in RULES:
            if library_only and not in_library:
                continue
            if headers_only and not is_header:
                continue
            if rule.startswith("IO-") and io_sanctioned:
                continue
            subject = code if view == "code" else nocomment
            if pattern.search(subject) and not waived(raw, rule):
                violations.append(Violation(path, lineno, rule, message))
        if in_library and conv5_violates(code) and not waived(raw, "CONV-5"):
            violations.append(Violation(
                path, lineno, "CONV-5",
                "exact ==/!= on a double: use a tolerance "
                "(or waive with // conv-ok: CONV-5)"))
        if in_library and unordered and not waived(raw, "DET-4"):
            iterated = {m.group(1) for m in RANGE_FOR.finditer(code)}
            iterated |= {m.group(1) for m in BEGIN_CALL.finditer(code)}
            if iterated & unordered:
                violations.append(Violation(path, lineno, "DET-4",
                                            DET4_MESSAGE))
        if in_library and is_header:
            # UNIT waivers may sit on the declaration line or on the doc
            # comment immediately above it (the house style for fields).
            prev_raw = raw_lines[lineno - 2] if lineno >= 2 else ""
            violations.extend(
                v for v in unit_violations(path, lineno, code)
                if not (waived(raw, v.rule) or waived(prev_raw, v.rule)))
    return violations


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def to_sarif(violations: list[Violation], root: Path) -> dict:
    rules = [{
        "id": rule_id,
        "shortDescription": {"text": short},
        "defaultConfiguration": {"level": "error"},
    } for rule_id, short in sorted(RULE_HELP.items())]
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    results = []
    for v in violations:
        try:
            uri = str(v.path.resolve().relative_to(root.resolve()))
        except ValueError:
            uri = str(v.path)
        results.append({
            "ruleId": v.rule,
            "ruleIndex": rule_index[v.rule],
            "level": "error",
            "message": {"text": v.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": v.line},
                }
            }],
        })
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "lint_cpp",
                    "informationUri":
                        "https://example.invalid/cpm/tools/lint_cpp.py",
                    "rules": rules,
                }
            },
            "results": results,
        }],
    }


def changed_files(root: Path) -> list[Path] | None:
    """Files changed vs. git HEAD (staged, unstaged and untracked), or None
    when git is unavailable — the caller falls back to a full scan."""
    try:
        diff = subprocess.run(
            ["git", "-C", str(root), "diff", "--name-only", "HEAD", "--"],
            capture_output=True, text=True, check=True).stdout
        untracked = subprocess.run(
            ["git", "-C", str(root), "ls-files", "--others",
             "--exclude-standard"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    out = []
    for rel in sorted(set(diff.splitlines()) | set(untracked.splitlines())):
        p = root / rel
        if p.is_file():
            out.append(p)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo-convention and determinism linter for C++ sources")
    parser.add_argument("root", nargs="?", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--changed-only", action="store_true",
                        help="lint only files changed vs. git HEAD (plus "
                             "untracked); falls back to a full scan when "
                             "git is unavailable")
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else Path(__file__).parent.parent
    scopes = (("src", True), ("tools", False), ("tests", False))
    candidates: list[tuple[Path, bool]] = []
    changed = changed_files(root) if args.changed_only else None
    if changed is not None:
        for path in changed:
            if path.suffix not in (".cpp", ".hpp"):
                continue
            rel = path.relative_to(root)
            for top, in_library in scopes:
                if rel.parts and rel.parts[0] == top:
                    candidates.append((path, in_library))
                    break
    else:
        for top, in_library in scopes:
            for path in sorted(root.glob(f"{top}/**/*.[ch]pp")):
                candidates.append((path, in_library))

    violations: list[Violation] = []
    for path, in_library in candidates:
        violations.extend(lint_file(path, in_library))

    if args.format == "sarif":
        report = json.dumps(to_sarif(violations, root), indent=2) + "\n"
    else:
        report = "".join(v.render() + "\n" for v in violations)
        report += f"lint_cpp: {len(violations)} violation(s)\n"
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        if args.format == "text":
            sys.stdout.write(report)
    else:
        sys.stdout.write(report)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
