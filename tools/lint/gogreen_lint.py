#!/usr/bin/env python3
"""Project-specific contract lint for the gogreen tree.

Enforces the cross-cutting contracts that generic tooling (clang-tidy)
cannot express:

  failpoint-registry  Every string literal passed to failpoint::MaybeFail()
                      must appear in the kKnownSites registry in
                      src/util/failpoint.cc, and every registry entry must
                      have at least one call site (no stale entries).
  env-access          Environment access (getenv/setenv/putenv) is confined
                      to src/util/env.cc; everything else goes through
                      gogreen::GetEnvOrEmpty so env reads stay auditable.
  raw-thread          No raw std::thread outside src/util/thread_pool.* —
                      all parallelism goes through the pool so lane ids,
                      shutdown order, and GOGREEN_THREADS stay meaningful.
  naked-new           No naked new/delete expressions outside
                      src/util/arena.h. Owning allocations use
                      make_unique/make_shared/containers; the few
                      intentionally leaked process singletons carry inline
                      suppressions.
  metric-naming       Every literal metric name passed to GetCounter/
                      GetGauge/GetHistogram follows the `<subsystem>.<what>`
                      snake_case scheme AND is listed (backticked) in the
                      DESIGN.md metrics table, so the documented inventory
                      is the emitted inventory. Dynamically-built names
                      (non-literal first argument) are out of scope.
  raw-mutex           No raw std locking primitives (std::mutex,
                      std::shared_mutex, std::condition_variable,
                      lock_guard/unique_lock/scoped_lock/shared_lock)
                      outside src/util/thread_annotations.h — everything
                      locks through the annotated gogreen::Mutex vocabulary
                      so the clang thread-safety build (DESIGN.md §15) sees
                      every acquisition. std::once_flag/call_once are fine.
  deprecated-api      The deleted pre-MineRequest entry points
                      (MineGoverned, MineCompressedGoverned, SetRunContext)
                      must not reappear under their old names — one query
                      is one fpm::MineRequest; governors ride in
                      MineRequest::run_context (internal helpers that bind
                      a context spell it BindRunContext). Neither may the
                      deleted single-cache session (RecyclingSession,
                      RecyclerOptions, MiningPath, MineOutcome, and the
                      core/recycler.h and core/constraints.h headers):
                      serve::MiningService is the one recycling session,
                      fpm::MineResult the one result shape, and the
                      constraint framework lives in fpm/constraints.h.
                      Nor may the per-row-vector weighted slices
                      (WeightedSlice, BuildWeightedSlices,
                      DedupeWeightedOuts, ProjectWeightedSlices,
                      CountFrequentWeighted, TrySingleGroupWeighted):
                      core::FlatSliceDb is the one weighted slice
                      representation.
  orphan-mutex        Every gogreen::Mutex / SharedMutex member must be
                      named by at least one GUARDED_BY / PT_GUARDED_BY in
                      the same file — a mutex that guards nothing is either
                      dead weight or (worse) guarding state the analyzer
                      cannot check. Wait-only mutexes (paired with a
                      CondVar, no guarded payload) carry an inline
                      suppression explaining the pairing.

A violation can be suppressed for one line with a comment on that line or
the line above:

    // gogreen-lint: allow(<rule>)[: rationale]

Usage:
    tools/lint/gogreen_lint.py [--root DIR]
    tools/lint/gogreen_lint.py --self-test

Exits 0 when clean, 1 on violations, 2 on usage/environment errors.
Scans src/, tools/, and bench/ (tests/ may probe synthetic failpoint sites
and spawn threads deliberately, so it is out of scope).
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "tools", "bench")
CXX_EXTENSIONS = (".cc", ".h")

REGISTRY_FILE = os.path.join("src", "util", "failpoint.cc")
DESIGN_FILE = "DESIGN.md"

# Files exempt from a rule (repo-relative, forward slashes).
RULE_EXEMPT = {
    "env-access": {"src/util/env.cc"},
    "raw-thread": {"src/util/thread_pool.h", "src/util/thread_pool.cc"},
    "naked-new": {"src/util/arena.h"},
    # MaybeFail's own definition/declaration and the registry itself.
    "failpoint-registry": {"src/util/failpoint.h", "src/util/failpoint.cc"},
    # The annotated wrappers are the one place raw primitives may live,
    # and their internal Mutex&/std::mutex members are the vocabulary
    # itself, not guarded state.
    "raw-mutex": {"src/util/thread_annotations.h"},
    "orphan-mutex": {"src/util/thread_annotations.h"},
}

SUPPRESS_RE = re.compile(r"gogreen-lint:\s*allow\(([a-z-]+)\)")
MAYBE_FAIL_RE = re.compile(r'MaybeFail\(\s*"([^"]*)"')
KNOWN_SITES_RE = re.compile(
    r"kKnownSites\[\]\s*=\s*\{(.*?)\};", re.DOTALL)
STRING_RE = re.compile(r'"([^"\\]|\\.)*"')

METRIC_GET_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\(\s*"([^"]+)"')
# <subsystem>.<what> in snake_case; at least one dot.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
# Backticked tokens in DESIGN.md; membership set for the metrics table.
# Applied per line: ``` code fences would otherwise flip the pairing
# parity of every inline span after them.
BACKTICK_RE = re.compile(r"`([^`]+)`")

ENV_ACCESS_RE = re.compile(r"\b(?:std::)?(?:getenv|secure_getenv|setenv|"
                           r"putenv|unsetenv)\s*\(")
DEPRECATED_API_RE = re.compile(
    r"\b(?:MineGoverned|MineCompressedGoverned|SetRunContext|"
    r"RecyclingSession|RecyclerOptions|MiningPath\w*|MineOutcome|"
    r"WeightedSlice|BuildWeightedSlices|DedupeWeightedOuts|"
    r"ProjectWeightedSlices|CountFrequentWeighted|TrySingleGroupWeighted)\b")
# Matched with string literals kept (the header name is one).
DEPRECATED_INCLUDE_RE = re.compile(
    r'#\s*include\s*"core/(?:recycler|constraints)\.h"')
RAW_THREAD_RE = re.compile(r"\bstd::thread\b")
NAKED_NEW_RE = re.compile(r"\bnew\b|\bdelete\b")

# Deliberately excludes once_flag/call_once (no capability semantics to
# annotate) — the rest must go through util/thread_annotations.h.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")

# A Mutex/SharedMutex *member* declaration (start of line, optionally
# mutable / namespace-qualified, simple `name;`). References and function
# parameters (`Mutex& mu`) intentionally do not match. The leading
# [^\S\n]* (horizontal whitespace only) keeps the match — and therefore
# the reported line and the one-line suppression window — on the
# declaration's own line even after comments above it are blanked.
MUTEX_MEMBER_RE = re.compile(
    r"^[^\S\n]*(?:mutable\s+)?(?:gogreen::)?(?:Mutex|SharedMutex)[^\S\n]+"
    r"(\w+)[^\S\n]*;",
    re.MULTILINE)
GUARDED_REF_RE = re.compile(r"\b(?:PT_)?GUARDED_BY\(([^)]*)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks comments (and optionally string/char literals) with spaces,
    preserving line structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            start = i
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
            if keep_strings:
                out.append(text[start:i])
            else:
                out.append(quote + " " * max(0, i - start - 2) + quote)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressed_lines(raw_text, rule):
    """Line numbers (1-based) on which `rule` is suppressed: each allow()
    comment covers its own line and the next one."""
    lines = set()
    for num, line in enumerate(raw_text.splitlines(), start=1):
        for m in SUPPRESS_RE.finditer(line):
            if m.group(1) == rule:
                lines.add(num)
                lines.add(num + 1)
    return lines


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def scan_pattern(path, raw_text, rule, regex, message, keep_strings=False):
    """Generic single-regex rule over comment-stripped text."""
    if path in RULE_EXEMPT.get(rule, set()):
        return []
    stripped = strip_comments_and_strings(raw_text, keep_strings=keep_strings)
    if rule == "naked-new":
        # `= delete`d special members and `new`/`delete` inside identifiers
        # are not allocation expressions.
        stripped = re.sub(r"=\s*delete\b", "", stripped)
    suppressed = suppressed_lines(raw_text, rule)
    violations = []
    for m in regex.finditer(stripped):
        line = line_of(stripped, m.start())
        if line in suppressed:
            continue
        violations.append(Violation(path, line, rule, message))
    return violations


def parse_known_sites(registry_text):
    """Extracts the kKnownSites string list from failpoint.cc's text."""
    stripped = strip_comments_and_strings(registry_text, keep_strings=True)
    m = KNOWN_SITES_RE.search(stripped)
    if m is None:
        return None
    return [s.group(0)[1:-1] for s in STRING_RE.finditer(m.group(1))]


def check_failpoints(files, registry_text):
    """Cross-checks MaybeFail call-site literals against kKnownSites."""
    violations = []
    known = parse_known_sites(registry_text)
    if known is None:
        violations.append(Violation(
            REGISTRY_FILE.replace(os.sep, "/"), 1, "failpoint-registry",
            "could not find the kKnownSites registry"))
        return violations
    used = set()
    for path, raw_text in files:
        if path in RULE_EXEMPT["failpoint-registry"]:
            continue
        stripped = strip_comments_and_strings(raw_text, keep_strings=True)
        suppressed = suppressed_lines(raw_text, "failpoint-registry")
        for m in MAYBE_FAIL_RE.finditer(stripped):
            site = m.group(1)
            used.add(site)
            line = line_of(stripped, m.start())
            if site not in known and line not in suppressed:
                violations.append(Violation(
                    path, line, "failpoint-registry",
                    f"failpoint site '{site}' is not in kKnownSites "
                    "(src/util/failpoint.cc)"))
    for site in known:
        if site not in used:
            violations.append(Violation(
                REGISTRY_FILE.replace(os.sep, "/"), 1, "failpoint-registry",
                f"kKnownSites entry '{site}' has no MaybeFail call site "
                "(stale registry entry)"))
    return violations


def check_metric_naming(files, design_text):
    """Literal Get{Counter,Gauge,Histogram} names: naming scheme plus
    DESIGN.md metrics-table membership."""
    documented = set()
    for design_line in design_text.splitlines():
        documented.update(BACKTICK_RE.findall(design_line))
    violations = []
    for path, raw_text in files:
        if path in RULE_EXEMPT.get("metric-naming", set()):
            continue
        stripped = strip_comments_and_strings(raw_text, keep_strings=True)
        suppressed = suppressed_lines(raw_text, "metric-naming")
        for m in METRIC_GET_RE.finditer(stripped):
            name = m.group(1)
            line = line_of(stripped, m.start())
            if line in suppressed:
                continue
            if not METRIC_NAME_RE.match(name):
                violations.append(Violation(
                    path, line, "metric-naming",
                    f"metric name '{name}' does not follow the "
                    "<subsystem>.<what> snake_case scheme"))
            elif name not in documented:
                violations.append(Violation(
                    path, line, "metric-naming",
                    f"metric name '{name}' is not listed in the DESIGN.md "
                    "metrics table"))
    return violations


def check_orphan_mutexes(files):
    """Every Mutex/SharedMutex member must be named by some GUARDED_BY /
    PT_GUARDED_BY expression in the same file."""
    violations = []
    for path, raw_text in files:
        if path in RULE_EXEMPT.get("orphan-mutex", set()):
            continue
        stripped = strip_comments_and_strings(raw_text)
        guarded_tokens = set()
        for m in GUARDED_REF_RE.finditer(stripped):
            guarded_tokens.update(re.findall(r"\w+", m.group(1)))
        suppressed = suppressed_lines(raw_text, "orphan-mutex")
        for m in MUTEX_MEMBER_RE.finditer(stripped):
            name = m.group(1)
            line = line_of(stripped, m.start())
            if line in suppressed or name in guarded_tokens:
                continue
            violations.append(Violation(
                path, line, "orphan-mutex",
                f"mutex '{name}' has no GUARDED_BY/PT_GUARDED_BY field in "
                "this file (guard something, or suppress with a rationale "
                "for a wait-only mutex)"))
    return violations


def run_checks(files, registry_text, design_text=""):
    """All rules over (path, text) pairs; returns the violation list."""
    violations = []
    for path, raw_text in files:
        violations += scan_pattern(
            path, raw_text, "env-access", ENV_ACCESS_RE,
            "environment access outside src/util/env.cc "
            "(use gogreen::GetEnvOrEmpty)")
        violations += scan_pattern(
            path, raw_text, "raw-thread", RAW_THREAD_RE,
            "raw std::thread outside src/util/thread_pool.* "
            "(use the ThreadPool)")
        violations += scan_pattern(
            path, raw_text, "naked-new", NAKED_NEW_RE,
            "naked new/delete outside src/util/arena.h "
            "(use make_unique/containers, or suppress for a deliberate "
            "singleton leak)")
        violations += scan_pattern(
            path, raw_text, "raw-mutex", RAW_MUTEX_RE,
            "raw std locking primitive outside "
            "src/util/thread_annotations.h (use gogreen::Mutex / "
            "MutexLock / CondVar so the thread-safety build sees it)")
        violations += scan_pattern(
            path, raw_text, "deprecated-api", DEPRECATED_API_RE,
            "deleted API name (use the unified fpm::MineRequest entry "
            "point and serve::MiningService; context-binding helpers are "
            "spelled BindRunContext; weighted slices are core::FlatSliceDb)")
        violations += scan_pattern(
            path, raw_text, "deprecated-api", DEPRECATED_INCLUDE_RE,
            "deleted header (use serve/mining_service.h or "
            "fpm/constraints.h)", keep_strings=True)
    violations += check_failpoints(files, registry_text)
    violations += check_metric_naming(files, design_text)
    violations += check_orphan_mutexes(files)
    return violations


def collect_files(root):
    files = []
    for top in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                with open(full, encoding="utf-8") as f:
                    files.append((rel, f.read()))
    return files


def self_test():
    """Verifies every rule both fires on a seeded violation and stays quiet
    on the accepted idiom. Run by ctest (gogreen_lint_self_test)."""
    registry = ('constexpr std::string_view kKnownSites[] = {\n'
                '    "io.read",  // reader\n'
                '    "io.stale",\n'
                '};\n')
    design = ("| `io.counter` | documented counter |\n"
              "| `mine.items_scanned` | documented counter |\n")
    cases = [
        # (rule, file name, content, expect_violation)
        ("env-access", "src/a.cc", 'char* v = std::getenv("X");\n', True),
        ("env-access", "src/a.cc", "// std::getenv in a comment\n", False),
        ("env-access", "src/util/env.cc", 'getenv("X");\n', False),
        ("raw-thread", "src/a.cc", "std::thread t(run);\n", True),
        ("raw-thread", "src/a.cc", "std::this_thread::yield();\n", False),
        ("raw-thread", "src/util/thread_pool.cc", "std::thread t;\n", False),
        ("naked-new", "src/a.cc", "auto* p = new Foo();\n", True),
        ("naked-new", "src/a.cc", "delete p;\n", True),
        ("naked-new", "src/a.cc", "Foo(const Foo&) = delete;\n", False),
        ("naked-new", "src/a.cc",
         "// gogreen-lint: allow(naked-new): leaked singleton\n"
         "auto* p = new Foo();\n", False),
        ("naked-new", "src/a.cc", 'Log("new results, delete none");\n',
         False),
        ("naked-new", "src/util/arena.h", "new (slot) T();\n", False),
        ("failpoint-registry", "src/a.cc",
         'MaybeFail("io.bogus");\n', True),
        ("failpoint-registry", "src/a.cc",
         '// MaybeFail("io.bogus") in a comment\n', False),
        ("metric-naming", "src/a.cc",
         'reg.GetCounter("io.counter");\n', False),
        ("metric-naming", "src/a.cc",
         'reg.GetHistogram("BadName");\n', True),
        ("metric-naming", "src/a.cc",
         'reg.GetCounter("io.undocumented");\n', True),
        ("metric-naming", "src/a.cc",
         "reg.GetCounter(dynamic_name);\n", False),
        ("metric-naming", "src/a.cc",
         '// reg.GetCounter("io.undocumented") in a comment\n', False),
        ("metric-naming", "src/a.cc",
         "// gogreen-lint: allow(metric-naming): probe instrument\n"
         'reg.GetCounter("io.undocumented");\n', False),
        ("deprecated-api", "src/a.cc",
         "auto out = miner->MineGoverned(db, 3, &ctx);\n", True),
        ("deprecated-api", "src/a.cc",
         "miner.SetRunContext(&ctx);\n", True),
        ("deprecated-api", "src/a.cc",
         "auto out = m->MineCompressedGoverned(cdb, 3, &ctx);\n", True),
        ("deprecated-api", "src/a.cc",
         "ctx.BindRunContext(run_ctx_);\n", False),
        ("deprecated-api", "src/a.cc",
         "// SetRunContext in a comment\n", False),
        ("deprecated-api", "src/a.cc",
         "ctx->SetRequestId(id);\n", False),
        ("deprecated-api", "src/a.cc",
         "core::RecyclingSession session(db);\n", True),
        ("deprecated-api", "bench/a.cc",
         "core::RecyclerOptions options;\n", True),
        ("deprecated-api", "tools/a.cc",
         "if (path == MiningPath::kRecycled) {}\n", True),
        ("deprecated-api", "src/a.cc",
         "puts(core::MiningPathName(path));\n", True),
        ("deprecated-api", "src/a.cc",
         "fpm::MineOutcome outcome = Finish();\n", True),
        ("deprecated-api", "src/a.cc",
         '#include "core/recycler.h"\n', True),
        ("deprecated-api", "src/a.cc",
         '#include "core/constraints.h"\n', True),
        ("deprecated-api", "src/a.cc",
         '#include "fpm/constraints.h"\n', False),
        ("deprecated-api", "src/a.cc",
         '#include "core/constrained_mine.h"\n', False),
        ("deprecated-api", "src/a.cc",
         "// core/recycler.h and RecyclingSession in a comment\n", False),
        ("deprecated-api", "src/a.cc",
         "serve::MiningService service(db, id);\n", False),
        ("deprecated-api", "src/a.cc",
         "fpm::MineResult result = Finish();\n", False),
        ("deprecated-api", "src/a.cc",
         "std::vector<WeightedSlice> root = BuildWeightedSlices(sdb);\n",
         True),
        ("deprecated-api", "src/a.cc",
         "DedupeWeightedOuts(&next.outs);\n", True),
        ("deprecated-api", "src/a.cc",
         "auto child = ProjectWeightedSlices(slices, f);\n", True),
        ("deprecated-api", "src/a.cc",
         "ctx.CountFrequentWeighted(slices, &counts);\n", True),
        ("deprecated-api", "bench/a.cc",
         "ctx.TrySingleGroupWeighted(slices, ext, c1, &prefix);\n", True),
        ("deprecated-api", "src/a.cc",
         "const FlatSliceDb child = projector.Project(root, f);\n", False),
        ("deprecated-api", "src/a.cc",
         "ctx.TrySingleGroup(slices, frequent, counts, &prefix);\n", False),
        ("raw-mutex", "src/a.cc", "std::mutex mu_;\n", True),
        ("raw-mutex", "src/a.cc", "std::scoped_lock lock(mu_);\n", True),
        ("raw-mutex", "src/a.cc",
         "std::condition_variable_any cv_;\n", True),
        ("raw-mutex", "src/a.cc", "std::call_once(flag_, Init);\n", False),
        ("raw-mutex", "src/a.cc", "// std::mutex in a comment\n", False),
        ("raw-mutex", "src/util/thread_annotations.h",
         "std::mutex mu_;\n", False),
        ("raw-mutex", "src/a.cc",
         "// gogreen-lint: allow(raw-mutex): interop with C library\n"
         "std::mutex mu_;\n", False),
        ("orphan-mutex", "src/a.cc",
         "Mutex mu_;\nint n_ GUARDED_BY(mu_) = 0;\n", False),
        ("orphan-mutex", "src/a.cc", "Mutex mu_;\nint n_ = 0;\n", True),
        ("orphan-mutex", "src/a.cc",
         "mutable gogreen::SharedMutex map_mu_;\n"
         "Table* table_ PT_GUARDED_BY(map_mu_);\n", False),
        ("orphan-mutex", "src/a.cc",
         "Mutex a_mu_;\nint n_ GUARDED_BY(b_mu_) = 0;\n", True),
        ("orphan-mutex", "src/a.cc",
         "// gogreen-lint: allow(orphan-mutex): wait-only, pairs idle_cv_\n"
         "Mutex idle_mu_;\n", False),
        ("orphan-mutex", "src/a.cc", "void Wake(Mutex& mu);\n", False),
        ("orphan-mutex", "src/util/thread_annotations.h",
         "Mutex mu_;\n", False),
    ]
    failures = []
    for rule, path, content, expect in cases:
        base = [(path, content),
                ("src/b.cc", 'MaybeFail("io.read");\n'
                             'MaybeFail("io.stale");\n')]
        found = [v for v in run_checks(base, registry, design)
                 if v.rule == rule and v.path == path]
        if bool(found) != expect:
            failures.append(
                f"rule {rule} on {path!r}: expected "
                f"{'a violation' if expect else 'clean'}, got "
                f"{[str(v) for v in found] or 'clean'}")
    # Stale-entry detection: registry lists a site nobody calls.
    stale = [v for v in run_checks([("src/b.cc", 'MaybeFail("io.read");\n')],
                                   registry, design)
             if v.rule == "failpoint-registry"]
    if not any("io.stale" in v.message for v in stale):
        failures.append("stale kKnownSites entry not reported")
    if failures:
        for f in failures:
            print("self-test FAILED:", f, file=sys.stderr)
        return 1
    print(f"gogreen_lint self-test: {len(cases) + 1} cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up "
                             "from this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own test cases and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    registry_path = os.path.join(root, REGISTRY_FILE)
    if not os.path.isfile(registry_path):
        print(f"error: {registry_path} not found (wrong --root?)",
              file=sys.stderr)
        return 2
    with open(registry_path, encoding="utf-8") as f:
        registry_text = f.read()
    design_path = os.path.join(root, DESIGN_FILE)
    if not os.path.isfile(design_path):
        print(f"error: {design_path} not found (wrong --root?)",
              file=sys.stderr)
        return 2
    with open(design_path, encoding="utf-8") as f:
        design_text = f.read()

    violations = run_checks(collect_files(root), registry_text, design_text)
    for v in sorted(violations, key=lambda v: (v.path, v.line)):
        print(v)
    if violations:
        print(f"gogreen_lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("gogreen_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
