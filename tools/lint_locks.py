#!/usr/bin/env python3
"""Lock-discipline lint: forbid raw standard-library lock primitives.

Every mutex in the tree must be a qhorn::Mutex from
src/util/checked_mutex.h — it carries the Clang thread-safety capability
attributes (so -Wthread-safety sees through them) and the runtime
lock-rank checker (so out-of-order acquisition aborts with both lock
names). A raw std::mutex is invisible to both layers, which is exactly
how an unranked, unannotated lock sneaks back into the codebase.

Usage:
    tools/lint_locks.py [--root DIR]     # lint the tree (default: repo root)
    tools/lint_locks.py --self-test      # prove the lint catches a seeded
                                         # raw-mutex fixture, and passes a
                                         # clean one

Exit status: 0 clean, 1 findings (or a failed self-test), 2 usage error.
"""

import argparse
import pathlib
import re
import sys
import tempfile

# Directories scanned, relative to the repo root.
SCAN_DIRS = ("src", "tests", "bench", "examples")

# Forbidden constructs and the checked replacement to name in the finding.
FORBIDDEN = [
    (re.compile(r"\bstd::recursive_mutex\b"),
     "no replacement: recursive locking is a rank-checker violation by "
     "design — restructure so each mutex is acquired once"),
    (re.compile(r"\bstd::recursive_timed_mutex\b"),
     "no replacement: recursive locking is forbidden by the rank checker"),
    (re.compile(r"\bstd::shared_timed_mutex\b"),
     "qhorn::Mutex (src/util/checked_mutex.h)"),
    (re.compile(r"\bstd::shared_mutex\b"),
     "qhorn::Mutex (src/util/checked_mutex.h)"),
    (re.compile(r"\bstd::timed_mutex\b"),
     "qhorn::Mutex (src/util/checked_mutex.h)"),
    (re.compile(r"\bstd::mutex\b"),
     "qhorn::Mutex (src/util/checked_mutex.h)"),
    (re.compile(r"\bstd::lock_guard\b"),
     "qhorn::MutexLock (src/util/checked_mutex.h)"),
    (re.compile(r"\bstd::unique_lock\b"),
     "qhorn::MutexLock, or qhorn::CondVar::Wait for condition waits"),
    (re.compile(r"\bstd::shared_lock\b"),
     "qhorn::MutexLock (src/util/checked_mutex.h)"),
    (re.compile(r"\bstd::scoped_lock\b"),
     "qhorn::MutexLock — one lock per scope; multi-lock acquisition must "
     "be explicit and rank-ordered"),
    (re.compile(r"\bstd::condition_variable_any\b"),
     "qhorn::CondVar (src/util/checked_mutex.h)"),
    (re.compile(r"\bstd::condition_variable\b"),
     "qhorn::CondVar (src/util/checked_mutex.h)"),
    (re.compile(r"#\s*include\s*<mutex>"),
     "include src/util/checked_mutex.h instead"),
    (re.compile(r"#\s*include\s*<shared_mutex>"),
     "include src/util/checked_mutex.h instead"),
    (re.compile(r"#\s*include\s*<condition_variable>"),
     "include src/util/checked_mutex.h instead"),
]

# Files allowed to use raw primitives, relative to the repo root.
#
#   * checked_mutex.{h,cc} — the wrappers themselves.
#   * continuation_stress_test.cc / service_router_test.cc — test-local
#     bookkeeping mutexes guarding data owned by the test body, not part
#     of the ranked production lock tree; annotating them would add a fake
#     rank for a lock no production path ever touches.
ALLOWLIST = frozenset({
    "src/util/checked_mutex.h",
    "src/util/checked_mutex.cc",
    "tests/continuation_stress_test.cc",
    "tests/service_router_test.cc",
})

SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

LINE_COMMENT = re.compile(r"//.*$")


def strip_comments(text):
    """Removes // and /* */ comments, preserving line numbers."""
    # Block comments: replace every non-newline character so findings in
    # real code keep their line numbers.
    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    return "\n".join(LINE_COMMENT.sub("", line) for line in text.splitlines())


def lint_file(path, rel):
    findings = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"error: cannot read {rel}: {err}", file=sys.stderr)
        return findings
    for lineno, line in enumerate(strip_comments(text).splitlines(), start=1):
        for pattern, replacement in FORBIDDEN:
            match = pattern.search(line)
            if match:
                findings.append((rel, lineno, match.group(0), replacement))
                break  # one finding per line is enough to fail
    return findings


def lint_tree(root):
    findings = []
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if rel in ALLOWLIST:
                continue
            findings.extend(lint_file(path, rel))
    return findings


def report(findings):
    for rel, lineno, token, replacement in findings:
        print(f"{rel}:{lineno}: forbidden lock primitive `{token}` — "
              f"use {replacement}")
    if findings:
        print(f"\nlint_locks: {len(findings)} finding(s). Raw standard "
              "lock primitives bypass both the Clang thread-safety "
              "annotations and the runtime lock-rank checker; use the "
              "checked types from src/util/checked_mutex.h (new files "
              "needing an exemption must be argued into the allowlist in "
              "tools/lint_locks.py).")


def self_test():
    """The lint must flag a seeded raw-mutex fixture and pass a clean one."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        dirty = root / "src" / "dirty.cc"
        dirty.parent.mkdir(parents=True)
        dirty.write_text(
            "#include <mutex>\n"
            "std::mutex mu;\n"
            "void f() { std::lock_guard<std::mutex> lock(mu); }\n"
            "// std::mutex in a comment must NOT be flagged\n",
            encoding="utf-8")
        clean = root / "src" / "clean.cc"
        clean.write_text(
            '#include "src/util/checked_mutex.h"\n'
            'qhorn::Mutex mu("clean", qhorn::LockRank::kMemo);\n'
            "void f() { qhorn::MutexLock lock(&mu); }\n",
            encoding="utf-8")

        findings = lint_tree(root)
        dirty_lines = sorted(lineno for rel, lineno, _, _ in findings
                             if rel == "src/dirty.cc")
        clean_findings = [f for f in findings if f[0] == "src/clean.cc"]
        ok = dirty_lines == [1, 2, 3] and not clean_findings
        if ok:
            print("lint_locks self-test: ok "
                  "(3 seeded findings flagged, clean file passed)")
            return 0
        print("lint_locks self-test FAILED:", file=sys.stderr)
        print(f"  dirty.cc findings on lines {dirty_lines} "
              "(expected [1, 2, 3])", file=sys.stderr)
        print(f"  clean.cc findings: {clean_findings} (expected none)",
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root to lint (default: repo root)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint against seeded fixtures instead "
                             "of the tree")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if not args.root.is_dir():
        print(f"error: no such directory: {args.root}", file=sys.stderr)
        return 2
    findings = lint_tree(args.root.resolve())
    report(findings)
    if not findings:
        print("lint_locks: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
