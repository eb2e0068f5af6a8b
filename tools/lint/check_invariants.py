#!/usr/bin/env python3
"""Repo-invariant linter: enforces the standing constraints that generic
static analysis cannot express. Run from anywhere:

    python3 tools/lint/check_invariants.py [REPO_ROOT]

Registered as the `repo_invariants` CTest (so CMake-target drift fails every
tier-1 run) and as a step of the `static-analysis` CI job. Exit status: 0
when every invariant holds, 1 with file:line diagnostics otherwise.

Checks
------
1. cmake-registration: every buildable source file is named in its
   directory's CMakeLists.txt target list. An unregistered .cc silently
   drops out of the build — tests stop running without failing, library
   code stops compiling without anyone noticing (a standing ROADMAP
   constraint previously enforced by nothing).
2. gate-pairs: every google-benchmark bench over an eval/plan/service/
   snapshot hot path registers BM_Substrate* benches whose suffixes form
   complete (new, baseline) pairs known to tools/check_substrate_gate.py's
   PAIRINGS table — a bench without a gate pair measures but never gates.
3. hot-path-containers: no std::map / std::unordered_map in the hot-path
   directories (src/eval, src/store) outside the documented allowlist; the
   flat-hash / bucket-queue substrate exists precisely to keep node-scale
   lookups off those structures (PR 1/2 measured 1.2–9x).
4. frozen-api-const: the frozen read-API classes (GraphStore,
   BoundOntology) expose only const member functions — the compile-time
   face of the frozen-store thread-safety contract that lets QueryService
   share one store across workers without locks.
5. annotated-locking: src/service/ and src/common/cancel.h use the
   capability-annotated wrappers (common/mutex.h, common/atomics.h), never
   raw std::mutex / std::lock_guard / std::condition_variable /
   std::atomic — raw primitives are invisible to -Wthread-safety, so one
   raw lock would punch a silent hole in the capability analysis.
6. lifetime-bound-coverage: every public view-returning method (span /
   string_view / const-ref / const-pointer / auto-iterator return) of the
   zero-copy seam classes (LIFETIME_SEAM below) carries
   OMEGA_LIFETIME_BOUND. One unannotated accessor re-opens the
   dangling-view hole the annotations exist to close — and Clang stays
   silent about exactly the call sites flowing through it.
7. mapped-file-ownership: the MappedFile type is referenced only inside
   src/snapshot/ (its owners: Dataset and SnapshotReader). Everything else
   reaches mapped bytes through Dataset's lifetime-bounded accessors, so
   epoch hot-swap (PR 5) can retire a mapping knowing no pointer to it
   survives outside the snapshot layer.
8. borrow-justification: ConstArray::Borrowed / StringTable::Borrowed /
   OidSet::BorrowSortedUnique call sites in src/ outside the snapshot
   layer carry a `// borrow-ok:` comment within the five preceding lines
   explaining who owns the storage and why it outlives the view. Borrowing
   is meant to be rare and deliberate; an unjustified borrow is either a
   bug or missing its safety argument.
9. steady-clock-only: no std::chrono::system_clock /
   high_resolution_clock anywhere under src/. Every duration the obs
   layer reports (queue wait, exec time, swap/drain, span timestamps)
   must come from steady_clock — a wall-clock measurement goes backwards
   under NTP adjustment and high_resolution_clock is an alias for
   whichever clock the library picked (common/timer.h static_asserts the
   same constraint; this closes the workaround of timing around Timer).
10. no-dark-counters: every field of the stats structs that feed the
    observability surfaces (EvaluatorStats, ClassAggregate, ServiceStats)
    is named in at least one render/exposition source — EXPLAIN ANALYZE's
    per-operator rendering, ServiceStats::ToString, the service's
    metrics-registry wiring, or the shell. A counter that is accumulated
    but never rendered is a dark counter: it costs hot-path work and
    tells nobody anything. The field parser is exercised by a
    seeded-violation self-test in main() so a silently broken parser
    cannot turn this check into a no-op PASS.
11. endpoint-docs: every admin HTTP route registered in src/net (a
    `Route("/path", ...)` call) is documented in README.md by its literal
    path. An endpoint that exists but is documented nowhere is invisible
    to operators — exactly the failure mode an ops plane exists to
    prevent. The route extractor is covered by the same seeded-violation
    self-test discipline as check 10.
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

# --- configuration -----------------------------------------------------------

# check 2: bench files are "hot-path" when they include any of these.
HOT_PATH_INCLUDE = re.compile(r'#include\s+"(?:eval|plan|service|snapshot)/')

# check 3: documented exemptions, path -> justification (kept next to the
# rule so an allowlist entry can't outlive its reason).
HOT_PATH_CONTAINER_ALLOWLIST = {
    "src/eval/tuple_dictionary.h":
        "cold overflow lane behind the dense bucket window (documented)",
    "src/eval/tuple_dictionary.cc":
        "cold overflow lane behind the dense bucket window (documented)",
    "src/store/label_dictionary.h":
        "build/intern index; reads go through the frozen table",
    "src/store/label_dictionary.cc":
        "build/intern index; reads go through the frozen table",
    "src/store/graph_builder.h":
        "build phase only; never touched while serving",
    "src/store/graph_builder.cc":
        "build phase only; never touched while serving",
}

# check 4: file -> classes whose public API must be all-const.
FROZEN_READ_API = {
    "src/store/graph_store.h": ["GraphStore"],
    "src/ontology/ontology.h": ["BoundOntology"],
}

# check 5: raw concurrency primitives banned in these files/dirs (the
# annotated wrappers in common/mutex.h + common/atomics.h replace them).
# src/obs joined the scope in PR 9: the metrics registry and trace recorder
# sit on every hot path, so their locking must be visible to
# -Wthread-safety like the service's. src/net joined in PR 10: the admin
# server's listener/handler-pool handoff is lock-and-condvar machinery of
# exactly the kind the capability analysis exists to check.
ANNOTATED_LOCKING_SCOPE = ["src/service", "src/common/cancel.h", "src/obs",
                           "src/net"]
RAW_PRIMITIVE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(?:_any)?|"
    r"atomic(?:_flag)?\s*<|atomic_)")

# check 6: file -> seam classes whose public view-returning methods must be
# OMEGA_LIFETIME_BOUND. Adding a view-returning API to one of these classes
# without its bound is a lint error by design (see ROADMAP standing
# constraints); extend this table when a new class joins the borrow seam.
LIFETIME_SEAM = {
    "src/common/const_array.h": ["ConstArray"],
    "src/store/string_table.h": ["StringTable"],
    "src/store/oid_set.h": ["OidSet"],
    "src/store/graph_store.h": ["CsrAdjacency", "GraphStore"],
    "src/store/label_dictionary.h": ["LabelDictionary"],
    "src/snapshot/mapped_file.h": ["MappedFile"],
    "src/snapshot/dataset.h": ["Dataset"],
    # The index structures may borrow their arrays from a mapped snapshot,
    # which puts them on the same seam as the store.
    "src/index/reachability_index.h": ["LabelReachability",
                                       "ReachabilityIndex"],
    "src/index/distance_sketch.h": ["DistanceSketch"],
    "src/index/index_manager.h": ["IndexManager"],
}

# check 6: a declaration whose return type looks like a borrowed view. auto
# is included because the seam's auto-returning members are all iterator
# accessors (begin/end) into borrowed storage.
VIEW_RETURN = re.compile(
    r"^(?:std::span\s*<|std::string_view\b|auto\b|"
    r"const\s+[\w:]+(?:\s*<[^()]*?>)?\s*[*&])")

# check 7: MappedFile may be named only under this directory.
MAPPED_FILE_HOME = "src/snapshot"

# check 8: borrow factories whose call sites need a borrow-ok comment, and
# the scopes exempt from the requirement, path-prefix -> justification.
BORROW_CALL = re.compile(r"::(?:Borrowed|BorrowSortedUnique)\s*\(")
BORROW_SITE_EXEMPT = {
    "src/snapshot/":
        "the snapshot layer is the borrow seam's home: it wires section "
        "spans into stores the owning Dataset keeps alive by construction",
    "src/store/graph_builder.cc":
        "GraphBuilder::Finalize borrows between members of the GraphStore "
        "it is assembling; they expire together",
    "src/store/graph_builder.h":
        "GraphBuilder::Finalize borrows between members of the GraphStore "
        "it is assembling; they expire together",
    "src/store/oid_set.cc":
        "holds the out-of-line definition of BorrowSortedUnique itself",
}

# check 9: wall-clock / alias clocks banned under src/ — durations must use
# steady_clock (via common/timer.h) so reported latencies survive NTP steps.
NON_MONOTONIC_CLOCK = re.compile(
    r"std::chrono::(?:system_clock|high_resolution_clock)\b")

# check 10: file -> stats structs whose every field must be reachable from
# an observability surface; and the sources that constitute those surfaces.
DARK_COUNTER_STRUCTS = {
    "src/eval/answer.h": ["EvaluatorStats"],
    "src/service/service_stats.h": ["ClassAggregate", "ServiceStats"],
}
RENDER_SOURCES = [
    "src/plan/plan_node.cc",         # EXPLAIN / EXPLAIN ANALYZE rendering
    "src/service/service_stats.cc",  # ServiceStats::ToString (.stats table)
    "src/service/query_service.cc",  # metrics-registry exposition wiring
    "examples/omega_shell.cpp",      # shell .stats/.metrics/.explain output
]

ERRORS: list[str] = []


def fail(path, line_no, message):
    ERRORS.append(f"{path}:{line_no}: {message}")


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments and string literals, preserving line
    structure so reported line numbers stay meaningful."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = None
            out.append(c)
        i += 1
    return "".join(out)


# --- check 1: CMake registration --------------------------------------------

def check_cmake_registration(root: Path):
    """Every source file must be spelled out in its CMakeLists.txt."""
    rules = [
        # (source glob root, pattern, CMakeLists, how the file is named there)
        ("src", "**/*.cc", "src/CMakeLists.txt", "relative"),
        ("reference", "*.cc", "reference/CMakeLists.txt", "name"),
        ("tests", "*.cc", "tests/CMakeLists.txt", "stem"),
        ("bench", "*.cc", "bench/CMakeLists.txt", "stem_or_name"),
        ("tools", "**/*.cc", "tools/CMakeLists.txt", "name_or_rel"),
        ("examples", "*.cpp", "examples/CMakeLists.txt", "stem"),
    ]
    for subdir, pattern, lists_rel, naming in rules:
        lists_path = root / lists_rel
        if not lists_path.exists():
            fail(lists_rel, 1, "missing CMakeLists.txt")
            continue
        registered = strip_cmake_comments(lists_path.read_text())
        tokens = set(re.findall(r"[\w./-]+", registered))
        for src in sorted((root / subdir).glob(pattern)):
            rel = src.relative_to(root)
            if naming == "relative":
                needles = [str(src.relative_to(root / subdir))]
            elif naming == "stem":
                needles = [src.stem]
            elif naming == "stem_or_name":
                needles = [src.stem, src.name]
            elif naming == "name_or_rel":
                # subdirectory targets (tools/fuzz/...) are registered by
                # their path relative to the CMakeLists' directory
                needles = [src.name, str(src.relative_to(root / subdir))]
            else:
                needles = [src.name]
            if not any(n in tokens for n in needles):
                fail(rel, 1,
                     f"not registered in {lists_rel} (a dropped "
                     "registration silently removes it from the build)")


def strip_cmake_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


# --- check 2: substrate gate pairs -------------------------------------------

def load_gate_pairings(root: Path) -> dict[str, str]:
    gate = root / "tools/check_substrate_gate.py"
    tree = ast.parse(gate.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "PAIRINGS":
                    return ast.literal_eval(node.value)
    fail("tools/check_substrate_gate.py", 1, "no PAIRINGS table found")
    return {}


def check_gate_pairs(root: Path):
    pairings = load_gate_pairings(root)
    if not pairings:
        return
    suffixes = set(pairings) | set(pairings.values())
    for bench in sorted((root / "bench").glob("*.cc")):
        text = strip_comments(bench.read_text())
        rel = bench.relative_to(root)
        is_gb = "benchmark::State" in text
        if not (is_gb and HOT_PATH_INCLUDE.search(text)):
            continue
        names = set(re.findall(r"\bBM_Substrate\w+", text))
        if not names:
            fail(rel, 1,
                 "google-benchmark bench over an eval/plan/service/snapshot "
                 "hot path defines no BM_Substrate* gate bench "
                 "(check_substrate_gate.py will never gate it)")
            continue
        paired = 0
        for name in sorted(names):
            suffix = next((s for s in suffixes if name.endswith(s)), None)
            if suffix is None:
                fail(rel, line_of(bench, name),
                     f"{name} has no suffix registered in "
                     "check_substrate_gate.py PAIRINGS")
            elif suffix in pairings:
                twin = name[: -len(suffix)] + pairings[suffix]
                if twin not in names:
                    fail(rel, line_of(bench, name),
                         f"{name} is missing its baseline twin {twin}")
                else:
                    paired += 1
        if paired == 0:
            fail(rel, 1, "no complete (new, baseline) gate pair defined")


def line_of(path: Path, needle: str) -> int:
    for i, line in enumerate(path.read_text().splitlines(), 1):
        if needle in line:
            return i
    return 1


# --- check 3: hot-path container ban -----------------------------------------

def check_hot_path_containers(root: Path):
    banned = re.compile(r"std::(?:unordered_)?map\s*<")
    for hot_dir in ("src/eval", "src/store"):
        for src in sorted((root / hot_dir).glob("**/*")):
            if src.suffix not in (".h", ".cc"):
                continue
            rel = str(src.relative_to(root))
            if rel in HOT_PATH_CONTAINER_ALLOWLIST:
                continue
            stripped = strip_comments(src.read_text())
            for i, line in enumerate(stripped.splitlines(), 1):
                if banned.search(line):
                    fail(rel, i,
                         "std::map/std::unordered_map in a hot-path dir; "
                         "use the flat-hash/bucket-queue substrate "
                         "(common/flat_hash.h, eval/tuple_dictionary.h) or "
                         "add a justified allowlist entry")


# --- check 4: frozen read-API constness --------------------------------------

def class_body(stripped: str, class_name: str) -> tuple[str, int, str] | None:
    """Returns (body, first_line, default_access) of a class/struct
    definition. Tolerates ALL_CAPS attribute macros between the class-key
    and the name (`class OMEGA_OWNER_TYPE MappedFile { ... }`)."""
    m = re.search(rf"\b(class|struct)\s+(?:[A-Z_][A-Z0-9_]*\s+)*"
                  rf"{class_name}\b[^;{{]*{{", stripped)
    if m is None:
        return None
    start = m.end()
    depth = 1
    i = start
    while i < len(stripped) and depth:
        if stripped[i] == "{":
            depth += 1
        elif stripped[i] == "}":
            depth -= 1
        i += 1
    default_access = "public" if m.group(1) == "struct" else "private"
    return (stripped[start:i - 1], stripped.count("\n", 0, start) + 1,
            default_access)


def check_frozen_read_api(root: Path):
    for rel, classes in FROZEN_READ_API.items():
        path = root / rel
        stripped = strip_comments(path.read_text())
        for class_name in classes:
            found = class_body(stripped, class_name)
            if found is None:
                fail(rel, 1, f"frozen read-API class {class_name} not found "
                     "(update FROZEN_READ_API in check_invariants.py)")
                continue
            body, first_line, default_access = found
            for line_no, decl in public_declarations(body, first_line,
                                                     default_access):
                problem = nonconst_method(decl, class_name)
                if problem:
                    fail(rel, line_no,
                         f"{class_name}::{problem} is a non-const public "
                         "member — the frozen-store contract requires a "
                         "const-only read API (see graph_store.h)")


def public_declarations(body: str, first_line: int,
                        default_access: str = "private"):
    """Yields (line, declaration) for each top-level public declaration."""
    access = default_access
    decl, depth, line = [], 0, first_line
    decl_line = line
    for ch in body:
        if ch == "\n":
            line += 1
        if depth == 0 and not decl:
            decl_line = line
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                # inline body ends a declaration
                text = "".join(decl).strip()
                if access == "public" and text:
                    yield decl_line, text + "{}"
                decl = []
                continue
        if depth == 0:
            if ch == ";":
                text = "".join(decl).strip()
                m = re.match(r"\s*(public|private|protected)\s*:\s*(.*)",
                             text, re.S)
                if m:  # access specifier glued to the first declaration
                    access, text = m.group(1), m.group(2).strip()
                if access == "public" and text:
                    yield decl_line, text
                decl = []
            else:
                decl.append(ch)
                joined = "".join(decl)
                m = re.search(r"(public|private|protected)\s*:\s*$", joined)
                if m:
                    access = m.group(1)
                    decl = []
        elif depth == 1 and ch == "{":
            # signature of an inline-bodied member
            text = "".join(decl).strip()
            m = re.match(r"\s*(public|private|protected)\s*:\s*(.*)", text,
                         re.S)
            if m:
                access, text = m.group(1), m.group(2).strip()
            if access == "public" and text:
                yield decl_line, text + "{}"
            decl = []


def nonconst_method(decl: str, class_name: str) -> str | None:
    """Returns the member name when `decl` is a mutating public method."""
    decl = " ".join(decl.split())
    if "(" not in decl:
        return None  # data member (none are public in the checked classes)
    for benign in ("friend ", "using ", "typedef ", "static "):
        if decl.startswith(benign):
            return None
    if "= delete" in decl or "= default" in decl:
        return None
    head = decl.split("(", 1)[0].strip()
    name = head.split()[-1] if head.split() else ""
    name = name.lstrip("*&~")
    if name == class_name or head.endswith("~" + class_name):
        return None  # constructor / destructor
    if "operator=" in decl:
        return None  # copy/move assignment (deleted or defaulted move)
    close = decl.rfind(")")
    trailer = decl[close + 1:] if close >= 0 else ""
    trailer = trailer.replace("{}", " ").strip()
    if re.match(r"const\b", trailer):
        return None
    return name or decl[:40]


# --- check 5: annotated locking scope ----------------------------------------

def check_annotated_locking(root: Path):
    for scope in ANNOTATED_LOCKING_SCOPE:
        path = root / scope
        files = ([path] if path.is_file()
                 else sorted(path.glob("**/*.h")) + sorted(
                     path.glob("**/*.cc")))
        for src in files:
            rel = src.relative_to(root)
            stripped = strip_comments(src.read_text())
            for i, line in enumerate(stripped.splitlines(), 1):
                m = RAW_PRIMITIVE.search(line)
                if m:
                    fail(rel, i,
                         f"raw {m.group(0).rstrip('<').strip()} in annotated "
                         "scope; use common/mutex.h (Mutex/MutexLock/"
                         "SharedMutex/CondVar) or common/atomics.h "
                         "(RelaxedAtomic) so -Wthread-safety can see it")


# --- check 6: lifetime-bound coverage ----------------------------------------

def view_returning(decl: str) -> bool:
    """True when `decl` is a method returning a borrowed view (span /
    string_view / const-ref / const-pointer / auto iterator)."""
    d = " ".join(decl.split())
    if "(" not in d:
        return False  # data member
    for benign in ("friend ", "using ", "typedef "):
        if d.startswith(benign):
            return False
    if "= delete" in d or "= default" in d:
        return False
    # peel prefixes that sit before the return type
    d = re.sub(r"^(?:\[\[[^\]]*\]\]\s*)+", "", d)
    d = re.sub(r"^template\s*<[^;{}]*?>\s*", "", d)
    d = re.sub(r"^(?:static|inline|explicit|virtual|constexpr)\s+", "", d)
    d = re.sub(r"^(?:\[\[[^\]]*\]\]\s*)+", "", d)
    return VIEW_RETURN.match(d) is not None


def check_lifetime_bound_coverage(root: Path):
    for rel, classes in LIFETIME_SEAM.items():
        path = root / rel
        if not path.exists():
            fail(rel, 1, "LIFETIME_SEAM file missing "
                 "(update check_invariants.py)")
            continue
        stripped = strip_comments(path.read_text())
        for class_name in classes:
            found = class_body(stripped, class_name)
            if found is None:
                fail(rel, 1, f"seam class {class_name} not found "
                     "(update LIFETIME_SEAM in check_invariants.py)")
                continue
            body, first_line, default_access = found
            for line_no, decl in public_declarations(body, first_line,
                                                     default_access):
                if not view_returning(decl):
                    continue
                if "OMEGA_LIFETIME_BOUND" not in decl:
                    snippet = " ".join(decl.split())[:60]
                    fail(rel, line_no,
                         f"{class_name} public view-returning method "
                         f"`{snippet}` lacks OMEGA_LIFETIME_BOUND — without "
                         "the bound Clang cannot flag views that outlive "
                         "this object (common/lifetime_annotations.h)")


# --- check 7: MappedFile ownership confinement -------------------------------

def check_mapped_file_ownership(root: Path):
    for src in sorted((root / "src").glob("**/*")):
        if src.suffix not in (".h", ".cc"):
            continue
        rel = str(src.relative_to(root))
        if rel.startswith(MAPPED_FILE_HOME + "/"):
            continue
        stripped = strip_comments(src.read_text())
        for i, line in enumerate(stripped.splitlines(), 1):
            if re.search(r"\bMappedFile\b", line):
                fail(rel, i,
                     "MappedFile referenced outside src/snapshot/ — only "
                     "Dataset/SnapshotReader may own or name the mapping; "
                     "everything else must go through Dataset's "
                     "lifetime-bounded accessors so epoch hot-swap can "
                     "retire mappings safely")


# --- check 8: borrow-site justification --------------------------------------

def check_borrow_justification(root: Path):
    for src in sorted((root / "src").glob("**/*")):
        if src.suffix not in (".h", ".cc"):
            continue
        rel = str(src.relative_to(root))
        if any(rel == p or rel.startswith(p) for p in BORROW_SITE_EXEMPT):
            continue
        original_lines = src.read_text().splitlines()
        stripped = strip_comments(src.read_text())
        for i, line in enumerate(stripped.splitlines(), 1):
            if not BORROW_CALL.search(line):
                continue
            window = original_lines[max(0, i - 6):i]
            if not any("borrow-ok:" in w for w in window):
                fail(rel, i,
                     "borrow factory call without a `// borrow-ok:` "
                     "justification in the five preceding lines — state "
                     "who owns the viewed storage and why it outlives "
                     "the borrow (or route through owned construction)")


# --- check 9: steady-clock only ----------------------------------------------

def check_steady_clock(root: Path):
    for src in sorted((root / "src").glob("**/*")):
        if src.suffix not in (".h", ".cc"):
            continue
        rel = src.relative_to(root)
        stripped = strip_comments(src.read_text())
        for i, line in enumerate(stripped.splitlines(), 1):
            m = NON_MONOTONIC_CLOCK.search(line)
            if m:
                fail(rel, i,
                     f"{m.group(0)} under src/ — durations and span "
                     "timestamps must come from std::chrono::steady_clock "
                     "(use common/timer.h); wall clocks step backwards "
                     "under NTP and high_resolution_clock is an "
                     "unspecified alias")


# --- check 10: no dark counters ----------------------------------------------

def struct_fields(body: str, first_line: int,
                  default_access: str = "public"):
    """Yields (line, name) for each public data member of a struct body."""
    for line_no, decl in public_declarations(body, first_line,
                                             default_access):
        if "(" in decl:
            continue  # method (every stats field is a plain member)
        d = decl.split("=", 1)[0]
        d = re.sub(r"\[[^\]]*\]", "", d).strip()
        parts = d.split()
        if len(parts) >= 2:
            yield line_no, parts[-1]


def check_dark_counters(root: Path):
    rendered = []
    for rel in RENDER_SOURCES:
        path = root / rel
        if not path.exists():
            fail(rel, 1, "RENDER_SOURCES file missing "
                 "(update check_invariants.py)")
            continue
        # Comments are stripped so a commented-out rendering line cannot
        # satisfy the check.
        rendered.append(strip_comments(path.read_text()))
    tokens = set(re.findall(r"\w+", "\n".join(rendered)))
    for rel, structs in DARK_COUNTER_STRUCTS.items():
        path = root / rel
        if not path.exists():
            fail(rel, 1, "DARK_COUNTER_STRUCTS file missing "
                 "(update check_invariants.py)")
            continue
        stripped = strip_comments(path.read_text())
        for struct_name in structs:
            found = class_body(stripped, struct_name)
            if found is None:
                fail(rel, 1, f"stats struct {struct_name} not found "
                     "(update DARK_COUNTER_STRUCTS in check_invariants.py)")
                continue
            body, first_line, default_access = found
            for line_no, field in struct_fields(body, first_line,
                                                default_access):
                if field not in tokens:
                    fail(rel, line_no,
                         f"{struct_name}.{field} is a dark counter — "
                         "accumulated but named in no render/exposition "
                         "source (EXPLAIN ANALYZE, ServiceStats::ToString, "
                         "the metrics wiring, or the shell); render it or "
                         "delete it")


# --- check 11: endpoint docs -------------------------------------------------

# A route registration in the net layer: Route("/path", ...). \s* lets the
# string literal sit on the next line.
ROUTE_REGISTRATION = re.compile(r'\bRoute\(\s*"(/[\w.-]*)"')


def undocumented_routes(stripped: str, readme: str):
    """Yields (line, path) for each registered route whose literal path
    does not appear in the README text."""
    for m in ROUTE_REGISTRATION.finditer(stripped):
        path = m.group(1)
        if path not in readme:
            yield stripped.count("\n", 0, m.start()) + 1, path


def check_endpoint_docs(root: Path):
    readme_path = root / "README.md"
    if not readme_path.exists():
        fail("README.md", 1, "missing README.md (endpoint-docs needs it)")
        return
    readme = readme_path.read_text()
    for src in sorted((root / "src/net").glob("**/*.cc")):
        rel = src.relative_to(root)
        stripped = strip_comments(src.read_text())
        for line_no, path in undocumented_routes(stripped, readme):
            fail(rel, line_no,
                 f"admin route {path} is registered but its path appears "
                 "nowhere in README.md — document every operator-facing "
                 "endpoint (see the Ops plane section)")


def self_test() -> bool:
    """Seeded-violation self-test for check 10: the field parser must pull
    the data members out of a synthetic struct and flag exactly the one
    missing from a synthetic render source. A regression in
    public_declarations/struct_fields would otherwise make the dark-counter
    check vacuously pass on everything."""
    struct_text = strip_comments(
        "struct FakeStats {\n"
        "  uint64_t rendered_field = 0;\n"
        "  uint64_t dark_field = 0;  // seeded violation: never rendered\n"
        "  double per_class[4];\n"
        "  double Ratio() const { return 0; }\n"
        "};\n")
    found = class_body(struct_text, "FakeStats")
    if found is None:
        return False
    body, first_line, default_access = found
    fields = [name for _, name in struct_fields(body, first_line,
                                                default_access)]
    if fields != ["rendered_field", "dark_field", "per_class"]:
        return False
    render_text = ("out += std::to_string(rendered_field);\n"
                   "for (auto& c : per_class) Render(c);\n")
    tokens = set(re.findall(r"\w+", render_text))
    if [f for f in fields if f not in tokens] != ["dark_field"]:
        return False

    # Seeded violation for check 11: the route extractor must find the
    # registration split across lines, skip the commented-out one, and
    # flag exactly the path missing from the synthetic README.
    route_source = strip_comments(
        'server->Route("/documented", "d", handler);\n'
        '// server->Route("/commented-out", "c", handler);\n'
        "server->Route(\n"
        '    "/dark-endpoint", "seeded violation", handler);\n')
    fake_readme = "Endpoints: `/documented` only.\n"
    flagged = list(undocumented_routes(route_source, fake_readme))
    return [path for _, path in flagged] == ["/dark-endpoint"] and (
        flagged[0][0] == 3)


# --- main --------------------------------------------------------------------

def main() -> int:
    if len(sys.argv) > 2:
        print(f"usage: {sys.argv[0]} [REPO_ROOT]", file=sys.stderr)
        return 2
    root = (Path(sys.argv[1]) if len(sys.argv) == 2
            else Path(__file__).resolve().parent.parent.parent)
    if not (root / "ROADMAP.md").exists():
        print(f"ERROR: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    if not self_test():
        print("ERROR: check_invariants.py self-test failed — the "
              "dark-counter field parser no longer flags a seeded "
              "violation; fix the parser before trusting check 10",
              file=sys.stderr)
        return 2

    check_cmake_registration(root)
    check_gate_pairs(root)
    check_hot_path_containers(root)
    check_frozen_read_api(root)
    check_annotated_locking(root)
    check_lifetime_bound_coverage(root)
    check_mapped_file_ownership(root)
    check_borrow_justification(root)
    check_steady_clock(root)
    check_dark_counters(root)
    check_endpoint_docs(root)

    if ERRORS:
        for err in ERRORS:
            print(err, file=sys.stderr)
        print(f"\nFAIL: {len(ERRORS)} invariant violation(s)",
              file=sys.stderr)
        return 1
    print("PASS: cmake-registration, gate-pairs, hot-path-containers, "
          "frozen-api-const, annotated-locking, lifetime-bound-coverage, "
          "mapped-file-ownership, borrow-justification, steady-clock-only, "
          "no-dark-counters, endpoint-docs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
