#!/usr/bin/env python3
"""NOUS invariant linter: repo-specific rules the compilers can't check.

Scans src/ and reports violations of the project's locking and
hygiene contracts (DESIGN.md "Static analysis & locking contracts"):

  R1 guarded-mutex    Every mutex member must have at least one member
                      GUARDED_BY it in the same file, or carry a
                      `// lint: unguarded(reason)` suppression: a mutex
                      that guards nothing is either dead or (worse)
                      guarding something the annotations don't know
                      about.
  R2 annotated-mutex  Outside src/common, mutex members must be the
                      annotated wrappers (AnnotatedMutex /
                      AnnotatedSharedMutex), never raw std::mutex /
                      std::shared_mutex, so Clang's thread-safety
                      analysis sees every lock in the system.
  R3 no-naked-new     No naked `new` / `delete` expressions outside
                      src/common (smart pointers and containers only).
                      Leaky singletons are suppressed with
                      `// lint: new-ok(reason)`.
  R4 unlocked-suffix  Every method named *Unlocked or *Locked (the
                      caller-must-hold-the-lock convention) must
                      declare REQUIRES(...) or REQUIRES_SHARED(...).
  R5 no-cout          No std::cout in src/: library code logs through
                      common/logging.h, binaries write to an explicit
                      stream. Suppress with `// lint: cout-ok(reason)`.
  R6 include-guard    Every header under src/ has an include guard
                      named NOUS_<RELATIVE_PATH>_H_.
  R7 no-build-files   No build artifacts may be tracked by git: no
                      build*/ trees, CMake caches, object/dependency
                      files, or test logs. (PR 3 accidentally checked
                      in ~20k lines of build-review/; this rule keeps
                      that from ever landing again.) Skipped when the
                      root is not a git work tree.
  R8 span-in-handler  Every HTTP endpoint handler in src/server (a
                      `HttpResponse Class::Handle*(...)` definition)
                      must open a NOUS_SPAN / NOUS_SPAN_VAR in its
                      body, so every request path shows up in
                      /api/trace and the per-stage latency histograms.
                      Suppress with `// lint: no-span(reason)`.
  R9 use-count        use_count() may appear only in graph/cow.h: the
                      COW layer is the one place where refcount
                      exactness (use_count()==1 means sole owner) is a
                      valid argument — everywhere else it is a racy
                      smell. Regex fallback for the
                      nous-cow-discipline clang-tidy check
                      (tools/nous-tidy) on GCC-only machines.
                      Suppress with `// lint: use-count-ok(reason)`.
  R10 detach-outside-cow
                      Detach() force-forks a COW chunk (silently
                      un-sharing it from every snapshot) and is
                      allowed only in src/graph/ and the durability
                      serialization layer. Suppress with
                      `// lint: detach-ok(reason)`.
  R11 raw-socket      Raw socket primitives (::send, ::recv,
                      socket(...)) are confined to the two transport
                      layers — src/replication/ and
                      src/server/http_server.cc — so every byte on the
                      wire flows through code that owns deadlines,
                      partial-IO handling, and the NOUS_FAULTS
                      injection points. Suppress with
                      `// lint: socket-ok(reason)`.
  R12 graph-mutation  Direct PropertyGraph mutation (GetOrAddVertex,
                      AddEdge, SetVertexType,
                      SetVertexTopics, AddVertexTerm,
                      SetEdgeConfidence, RebuildDerivedIndexes) is
                      confined to the commit path: src/graph/ itself
                      and the pipeline (src/core/pipeline.cc). Anywhere
                      else a write bypasses the WAL: recovery replays
                      only logged batches through the pipeline, so the
                      recovered KG would no longer be bit-identical to
                      the live one (DESIGN.md §5.10). Suppress with
                      `// lint: graph-mutation-ok(reason)`.

Suppression comments must name a reason; empty parentheses do not
count. Exit status is the number of violations (capped at 125).

Usage: tools/nous_lint.py [--root DIR]
"""

import argparse
import os
import re
import subprocess
import sys

# R7: path patterns that mark a tracked file as a build artifact.
BUILD_ARTIFACT_RE = re.compile(
    r"(^|/)build[^/]*/"            # any build*/ tree at any depth
    r"|(^|/)CMakeCache\.txt$"
    r"|(^|/)CMakeFiles/"
    r"|(^|/)Testing/"              # ctest scratch (LastTest.log etc.)
    r"|\.o(\.d)?$|\.obj$|\.gcda$|\.gcno$"
    r"|(^|/)compile_commands\.json$")

MUTEX_TYPES = r"(?:std::mutex|std::shared_mutex|std::recursive_mutex|" \
              r"std::timed_mutex|AnnotatedMutex|AnnotatedSharedMutex)"
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(" + MUTEX_TYPES + r")\s+(\w+)\s*;")
RAW_MUTEX_TYPES = ("std::mutex", "std::shared_mutex",
                   "std::recursive_mutex", "std::timed_mutex")
NEW_RE = re.compile(r"(?<![\w.>])new\b(?!\s*\()")
DELETE_RE = re.compile(r"(?<![\w.>])delete(?:\s*\[\s*\])?\s+[\w*(]")
SUFFIX_DECL_RE = re.compile(r"\b(\w+(?:Unlocked|Locked))\s*\(")
GUARD_TOKEN_RE = re.compile(r"[^A-Za-z0-9]")

SUPPRESS_RE = {
    "unguarded": re.compile(r"//\s*lint:\s*unguarded\(\s*[^)\s][^)]*\)"),
    "new-ok": re.compile(r"//\s*lint:\s*new-ok\(\s*[^)\s][^)]*\)"),
    "cout-ok": re.compile(r"//\s*lint:\s*cout-ok\(\s*[^)\s][^)]*\)"),
    "no-span": re.compile(r"//\s*lint:\s*no-span\(\s*[^)\s][^)]*\)"),
    "use-count-ok":
        re.compile(r"//\s*lint:\s*use-count-ok\(\s*[^)\s][^)]*\)"),
    "detach-ok": re.compile(r"//\s*lint:\s*detach-ok\(\s*[^)\s][^)]*\)"),
    "socket-ok": re.compile(r"//\s*lint:\s*socket-ok\(\s*[^)\s][^)]*\)"),
    "graph-mutation-ok":
        re.compile(r"//\s*lint:\s*graph-mutation-ok\(\s*[^)\s][^)]*\)"),
}

# R8: an out-of-class endpoint handler definition in src/server.
HANDLER_DEF_RE = re.compile(r"^HttpResponse\s+\w+::(Handle\w*)\s*\(")

# R9/R10: COW-discipline tokens.
USE_COUNT_RE = re.compile(r"\buse_count\s*\(")
DETACH_RE = re.compile(r"(?:\.|->)\s*Detach\s*\(")

# R11: raw socket primitives. `::send`/`::recv` must carry the
# global-scope qualifier (method names like SendAll don't match);
# `socket(...)` is the syscall itself, rejected even unqualified.
RAW_SOCKET_RE = re.compile(
    r"::\s*(?:send|recv)\s*\(|(?<![\w:.>])socket\s*\(")

# R12: PropertyGraph mutators, matched as member calls (`.`/`->`) so
# declarations and same-name wrappers (SetEdgeConfidenceTracked) pass.
GRAPH_MUTATOR_RE = re.compile(
    r"(?:\.|->)\s*(GetOrAddVertex|AddEdge|SetVertexType|"
    r"SetVertexTopics|AddVertexTerm|SetEdgeConfidence|"
    r"RebuildDerivedIndexes)\s*\(")
# The commit path: the graph layer and the pipeline, whose every write
# is replayed from the WAL on recovery.
GRAPH_MUTATION_ALLOWED = ("/src/graph/", "/src/core/pipeline.cc")


def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving line
    structure so reported line numbers match the file."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                # Raw string literal: R"delim( ... )delim"
                m = re.match(r'R"([^(\s\\]{0,16})\(', text[i - 1:i + 20]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    i += len(m.group(1)) + 2
                    continue
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line":
            if c == "\n":
                out.append(c)
                state = "code"
            i += 1
        elif state == "block":
            if c == "\n":
                out.append(c)
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
        elif state in ("str", "chr"):
            if c == "\\":
                i += 2
                continue
            if c == "\n":
                out.append(c)
                state = "code"  # unterminated; bail to code
                i += 1
                continue
            if (state == "str" and c == '"') or \
                    (state == "chr" and c == "'"):
                out.append(c)
                state = "code"
            i += 1
        elif state == "raw":
            if c == "\n":
                out.append(c)
            if text.startswith(raw_delim, i):
                i += len(raw_delim)
                out.append('"')
                state = "code"
                continue
            i += 1
    return "".join(out)


def suppressed(raw_lines, lineno, kind, lookback=2):
    """True when the suppression comment sits on the flagged line or on
    one of the `lookback` lines above it."""
    pattern = SUPPRESS_RE[kind]
    for ln in range(max(1, lineno - lookback), lineno + 1):
        if pattern.search(raw_lines[ln - 1]):
            return True
    return False


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []

    def report(self, path, lineno, rule, message):
        rel = os.path.relpath(path, self.root)
        self.violations.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path):
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        code = strip_comments_and_strings(raw)
        code_lines = code.splitlines()
        in_common = "/src/common/" in path.replace(os.sep, "/")

        self.check_mutex_members(path, raw_lines, code_lines, in_common)
        self.check_naked_new(path, raw_lines, code_lines, in_common)
        self.check_cout(path, raw_lines, code_lines)
        self.check_cow_discipline(path, raw_lines, code_lines)
        self.check_raw_sockets(path, raw_lines, code_lines)
        self.check_graph_mutation(path, raw_lines, code_lines)
        if path.endswith(".h"):
            self.check_locked_suffix(path, code_lines)
            self.check_include_guard(path, code_lines)
        if "/src/server/" in path.replace(os.sep, "/") and \
                not path.endswith(".h"):
            self.check_handler_spans(path, raw_lines, code_lines)

    # R1 + R2
    def check_mutex_members(self, path, raw_lines, code_lines, in_common):
        for lineno, line in enumerate(code_lines, 1):
            m = MUTEX_MEMBER_RE.match(line)
            if m is None:
                continue
            mutex_type, name = m.group(1), m.group(2)
            if mutex_type in RAW_MUTEX_TYPES and not in_common:
                self.report(
                    path, lineno, "annotated-mutex",
                    f"member '{name}' is a raw {mutex_type}; use "
                    "AnnotatedMutex / AnnotatedSharedMutex from "
                    "common/thread_annotations.h so the thread-safety "
                    "analysis sees it")
                continue
            has_guarded_peer = any(
                re.search(r"GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)",
                          other)
                for other in code_lines)
            if not has_guarded_peer and \
                    not suppressed(raw_lines, lineno, "unguarded"):
                self.report(
                    path, lineno, "guarded-mutex",
                    f"mutex member '{name}' has no GUARDED_BY({name}) "
                    "peer; annotate the data it guards or add "
                    "`// lint: unguarded(reason)`")

    # R3
    def check_naked_new(self, path, raw_lines, code_lines, in_common):
        if in_common:
            return
        for lineno, line in enumerate(code_lines, 1):
            if "= delete" in line or "=delete" in line:
                line = re.sub(r"=\s*delete", "", line)
            flagged = None
            if NEW_RE.search(line):
                flagged = "new"
            elif DELETE_RE.search(line):
                flagged = "delete"
            if flagged and not suppressed(raw_lines, lineno, "new-ok"):
                self.report(
                    path, lineno, "no-naked-new",
                    f"naked `{flagged}` outside src/common; use "
                    "std::make_unique / containers, or add "
                    "`// lint: new-ok(reason)` for an intentional leak")

    # R4
    def check_locked_suffix(self, path, code_lines):
        for lineno, line in enumerate(code_lines, 1):
            for m in SUFFIX_DECL_RE.finditer(line):
                name = m.group(1)
                if name in ("Unlocked", "Locked"):
                    continue
                # Gather the declaration until it closes with ; or {.
                decl = line[m.start():]
                extra = lineno
                while ";" not in decl and "{" not in decl and \
                        extra < len(code_lines):
                    decl += " " + code_lines[extra]
                    extra += 1
                # Skip call sites: declarations start the statement or
                # follow a type, calls follow '=', 'return', '.', '->'.
                before = line[:m.start()].rstrip()
                if before.endswith(("=", ".", ">", "(", ",")) or \
                        before.endswith("return"):
                    continue
                if "REQUIRES" not in decl:
                    self.report(
                        path, lineno, "unlocked-suffix",
                        f"'{name}' follows the caller-holds-the-lock "
                        "naming convention but declares no REQUIRES / "
                        "REQUIRES_SHARED capability")

    # R5
    def check_cout(self, path, raw_lines, code_lines):
        for lineno, line in enumerate(code_lines, 1):
            if "std::cout" in line and \
                    not suppressed(raw_lines, lineno, "cout-ok"):
                self.report(
                    path, lineno, "no-cout",
                    "std::cout in library code; use NOUS_LOG or take an "
                    "explicit std::ostream&")

    # R9 + R10 — regex fallback for the nous-cow-discipline clang-tidy
    # check (tools/nous-tidy), so GCC-only environments still enforce
    # the COW write discipline.
    def check_cow_discipline(self, path, raw_lines, code_lines):
        norm = path.replace(os.sep, "/")
        in_cow_header = norm.endswith("graph/cow.h")
        in_cow_layer = "/src/graph/" in norm
        in_serialization = "/src/durability/" in norm
        for lineno, line in enumerate(code_lines, 1):
            if not in_cow_header and USE_COUNT_RE.search(line) and \
                    not suppressed(raw_lines, lineno, "use-count-ok"):
                self.report(
                    path, lineno, "use-count",
                    "use_count() outside graph/cow.h; refcount-exactness "
                    "reasoning is confined to the COW layer — or add "
                    "`// lint: use-count-ok(reason)`")
            if not in_cow_layer and not in_serialization and \
                    DETACH_RE.search(line) and \
                    not suppressed(raw_lines, lineno, "detach-ok"):
                self.report(
                    path, lineno, "detach-outside-cow",
                    "Detach() force-forks a COW chunk out of every "
                    "snapshot; it belongs in src/graph/ or durability "
                    "serialization — or add `// lint: detach-ok(reason)`")

    # R11
    def check_raw_sockets(self, path, raw_lines, code_lines):
        norm = path.replace(os.sep, "/")
        if "/src/replication/" in norm or \
                norm.endswith("/src/server/http_server.cc"):
            return
        for lineno, line in enumerate(code_lines, 1):
            if RAW_SOCKET_RE.search(line) and \
                    not suppressed(raw_lines, lineno, "socket-ok"):
                self.report(
                    path, lineno, "raw-socket",
                    "raw socket primitive outside src/replication/ and "
                    "src/server/http_server.cc; route bytes through "
                    "TcpConn / the HTTP server — or add "
                    "`// lint: socket-ok(reason)`")

    # R12
    def check_graph_mutation(self, path, raw_lines, code_lines):
        norm = path.replace(os.sep, "/")
        if any(part in norm for part in GRAPH_MUTATION_ALLOWED):
            return
        for lineno, line in enumerate(code_lines, 1):
            m = GRAPH_MUTATOR_RE.search(line)
            if m and not suppressed(raw_lines, lineno,
                                    "graph-mutation-ok"):
                self.report(
                    path, lineno, "graph-mutation",
                    f"direct PropertyGraph mutation '{m.group(1)}' "
                    "outside the commit path (src/graph/, "
                    "src/core/pipeline.cc): it bypasses the WAL, so "
                    "recovery would not be bit-identical — or add "
                    "`// lint: graph-mutation-ok(reason)`")

    # R8
    def check_handler_spans(self, path, raw_lines, code_lines):
        """Every `HttpResponse Class::Handle*()` definition must open a
        span (NOUS_SPAN / NOUS_SPAN_VAR) somewhere in its body."""
        for lineno, line in enumerate(code_lines, 1):
            m = HANDLER_DEF_RE.match(line)
            if m is None:
                continue
            if suppressed(raw_lines, lineno, "no-span"):
                continue
            # Walk to the end of the function body by brace matching,
            # starting at the definition line.
            depth = 0
            seen_open = False
            has_span = False
            ln = lineno
            while ln <= len(code_lines):
                body_line = code_lines[ln - 1]
                depth += body_line.count("{") - body_line.count("}")
                if "{" in body_line:
                    seen_open = True
                if seen_open and "NOUS_SPAN" in body_line:
                    has_span = True
                if seen_open and depth <= 0:
                    break
                ln += 1
            if not has_span:
                self.report(
                    path, lineno, "span-in-handler",
                    f"endpoint handler '{m.group(1)}' opens no "
                    "NOUS_SPAN, so its requests are invisible to "
                    "/api/trace; add one or `// lint: no-span(reason)`")

    # R7
    def check_tracked_build_artifacts(self):
        """Rejects build artifacts tracked by git (no-op outside git)."""
        try:
            listing = subprocess.run(
                ["git", "-C", self.root, "ls-files"],
                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return
        if listing.returncode != 0:
            return
        for rel in listing.stdout.splitlines():
            if BUILD_ARTIFACT_RE.search(rel):
                self.violations.append(
                    f"{rel}:1: [no-build-files] build artifact is "
                    "tracked by git; `git rm --cached` it (build*/ is "
                    "gitignored)")

    # R6
    def check_include_guard(self, path, code_lines):
        rel = os.path.relpath(path, os.path.join(self.root, "src"))
        expected = "NOUS_" + GUARD_TOKEN_RE.sub("_", rel).upper() + "_"
        ifndef = None
        for line in code_lines[:30]:
            m = re.match(r"\s*#\s*ifndef\s+(\w+)", line)
            if m:
                ifndef = m.group(1)
                break
        if ifndef != expected:
            got = ifndef if ifndef else "none"
            self.report(path, 1, "include-guard",
                        f"expected include guard {expected}, got {got}")
            return
        if not any(re.match(r"\s*#\s*define\s+" + re.escape(expected), l)
                   for l in code_lines[:30]):
            self.report(path, 1, "include-guard",
                        f"#ifndef {expected} has no matching #define")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print(f"nous_lint: no src/ under {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc", ".cpp")):
                linter.lint_file(os.path.join(dirpath, name))
    linter.check_tracked_build_artifacts()

    for violation in linter.violations:
        print(violation)
    count = len(linter.violations)
    if count == 0:
        print("nous_lint: OK")
    else:
        print(f"nous_lint: {count} violation(s)", file=sys.stderr)
    return min(count, 125)


if __name__ == "__main__":
    sys.exit(main())
