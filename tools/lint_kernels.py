#!/usr/bin/env python3
"""Static lint gate for SIMT kernel lambdas.

The simulator's memory-safety and race guarantees (docs/static_analysis.md)
only hold for kernel code that goes through the BlockCtx/WarpCtx primitives:
``w.load``/``w.store``, ``blk.ld``/``blk.st``/``blk.shared_ld``/``blk.shared_st``
and the warp atomics.  Raw subscripts on captured device spans, hand-rolled
pointer arithmetic, and host synchronisation objects all bypass both the
event-count accounting and the SimTSan shadow-memory checks, so this script
rejects them before they ever reach a review.

Rules (each can be waived per line with ``// lint-kernels: allow(<rule>)``):

  R1  no-host-sync     -- ``std::atomic``/``std::atomic_ref``/``std::mutex``/
                          lock guards inside a kernel lambda.  Blocks must
                          interact through warp atomics only; a host mutex
                          would serialise what the real GPU runs in parallel
                          and hide races from SimTSan.
  R2  no-pointer-arith -- ``span.data() + k`` arithmetic on a captured span.
                          Pointer arithmetic sidesteps the bounds checks of
                          the checked accessors.
  R3  no-raw-subscript -- ``span[i]`` on a captured or shared-memory span.
                          Use ``blk.ld``/``blk.st`` (global) or
                          ``blk.shared_ld``/``blk.shared_st`` (shared) so OOB
                          and race checking can see the access.  Lane-register
                          C arrays declared inside the lambda are exempt.
  R4  missing-sync     -- a kernel allocates shared memory but never calls
                          ``sync()`` (or a helper documented to sync, e.g.
                          ``sort_in_shared``).  Shared memory without a
                          barrier is almost always a cross-warp race.
  R5  use-compress-store -- a per-lane ``for (l < ...lanes())`` loop that
                          scatters through ``blk.st`` element by element.
                          When the write positions are lane-ordered and
                          consecutive (aggregated fetch_add offsets), the
                          loop is a masked compress-store tile:
                          ``w.compress_store`` (simt/block.hpp).  Waivable
                          where offsets genuinely interleave
                          (non-aggregated global cursors).

Host-scope rules (src/core, src/server and src/baselines .cpp files; R6-R7
check the stream/event discipline StreamSan verifies dynamically,
docs/streamsan.md, R8 the single fault-retry policy, docs/robustness.md):

  R6  stream-tagged-launch -- a ``device.launch(...)`` whose brace-literal
                          LaunchConfig carries no ``.stream`` member.  An
                          untagged launch lands on the default stream even
                          when the surrounding selection runs on a leased
                          one, silently serialising against stream 0 and
                          bypassing the per-stream pool ordering.  Every
                          host-scope launch must thread the pipeline's
                          stream tag (``.stream = cfg.stream`` or
                          ``ctx.stream()``).  Waivable for single-stream
                          baselines that never fan out.
  R7  event-record-without-wait -- a file calls ``record_event()`` but
                          never ``wait_event()``: a recorded fork edge with
                          no matching join in the same module is either
                          dead code or a missing ordering edge (exactly the
                          wait_unrecorded / fork-without-join hazards
                          StreamSan reports at runtime).
  R8  one-retry-policy -- a ``catch`` of ``simt::AllocFault``,
                          ``LaunchFault``, ``SanError`` or
                          ``StreamSanError``.  Faults and sanitizer
                          violations map to a typed Status in exactly one
                          place, ``with_fault_retry`` (core/pipeline.hpp);
                          a second hand-written retry loop drifts from it
                          (a missed exception type escapes the Result
                          channel, a skipped epilogue hides tracker
                          underflows).  Run the step inside
                          ``with_fault_retry`` instead.

Suppressions are themselves forbidden under ``src/core/`` -- the core kernels
define the idiom and must stay exemplary; waivers are for baselines and
utility layers only.

Engines:
  --engine=regex        (default) pure-regex scan, zero dependencies.
  --engine=clang-query  runs AST matchers through ``clang-query`` when the
                        binary exists; falls back to the regex engine with a
                        note otherwise.  CI and the ``lint-kernels`` CMake
                        target use the regex engine so the gate works in a
                        bare container.

Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import fnmatch
import pathlib
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

RULES = {
    "R1": "no-host-sync",
    "R2": "no-pointer-arith",
    "R3": "no-raw-subscript",
    "R4": "missing-sync",
    "R5": "use-compress-store",
    "R6": "stream-tagged-launch",
    "R7": "event-record-without-wait",
    "R8": "one-retry-policy",
}

# Files whose kernel lambdas are subject to the kernel rules (R1-R5).
# Relative to repo root.
KERNEL_SCOPE = [
    "src/core/*_kernel.cpp",
    "src/core/topk.cpp",
    "src/baselines/quickselect.cpp",
    "src/bitonic/*.hpp",
    "src/bitonic/*.cpp",
]

# Host-side code subject to the stream/event discipline and retry rules (R6-R8).
HOST_SCOPE = [
    "src/core/*.cpp",
    "src/server/*.cpp",
    "src/baselines/*.cpp",
]

DEFAULT_SCOPE = KERNEL_SCOPE + HOST_SCOPE

# Suppressions may never appear under these prefixes.
NO_SUPPRESSION_PREFIXES = ("src/core/",)

SUPPRESS_RE = re.compile(r"//\s*lint-kernels:\s*allow\(\s*(R[1-8])\s*\)", re.IGNORECASE)

# A kernel lambda: any capture list followed by a BlockCtx& parameter.
LAMBDA_HEAD_RE = re.compile(r"\[[^\[\]]*\]\s*\(\s*(?:gpusel::)?(?:simt::)?BlockCtx\s*&\s*\w+\s*\)")

# Span-typed identifiers: declarations/parameters plus shared_array results.
SPAN_DECL_RE = re.compile(r"std::span<[^;{}()]*?>\s+(\w+)\s*[,;=)\{]")
SHARED_ARRAY_RE = re.compile(r"(?:auto|std::span<[^;{}]*?>)\s+(\w+)\s*=\s*\w+\.shared_array<")
SUBSPAN_RE = re.compile(r"auto\s+(\w+)\s*=\s*(\w+)\.(?:subspan|first|last)\(")

R1_RE = re.compile(
    r"std::atomic\b|std::atomic_ref\b|\batomic_ref<|std::mutex\b"
    r"|std::lock_guard\b|std::scoped_lock\b|std::unique_lock\b|std::condition_variable\b"
)
R8_RE = re.compile(
    r"\bcatch\s*\(\s*(?:const\s+)?(?:(?:gpusel::)?simt::)?"
    r"(AllocFault|LaunchFault|SanError|StreamSanError)\b")
SYNC_RE = re.compile(r"\b(?:sync|sort_in_shared)\s*\(")
SHARED_ALLOC_RE = re.compile(r"\.shared_array<")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str
    suppressed: bool = False


@dataclass
class FileReport:
    findings: list[Finding] = field(default_factory=list)
    suppressions: list[Finding] = field(default_factory=list)


def scope_match(norm_rel: str, patterns: list[str]) -> bool:
    return any(fnmatch.fnmatch(norm_rel, p) for p in patterns)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_brace_block(text: str, open_idx: int) -> int:
    """Return the offset just past the brace that closes text[open_idx]=='{'."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def split_call_args(clean: str, open_paren: int) -> list[tuple[int, str]]:
    """(offset, text) of each top-level argument of the call at clean[open_paren]=='('."""
    depth = 0
    args: list[tuple[int, str]] = []
    arg_start = open_paren + 1
    for i in range(open_paren, len(clean)):
        c = clean[i]
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
            if depth == 0:
                args.append((arg_start, clean[arg_start:i]))
                return args
        elif c == "," and depth == 1:
            args.append((arg_start, clean[arg_start:i]))
            arg_start = i + 1
    return args


def find_kernel_lambdas(clean: str) -> list[tuple[int, int]]:
    """(body_start, body_end) offsets for every BlockCtx lambda body."""
    bodies = []
    for m in LAMBDA_HEAD_RE.finditer(clean):
        brace = clean.find("{", m.end())
        if brace < 0:
            continue
        # Only whitespace (or nothing) may sit between ')' and '{'.
        if clean[m.end():brace].strip():
            continue
        bodies.append((brace, match_brace_block(clean, brace)))
    return bodies


def span_names(clean: str) -> set[str]:
    names = {m.group(1) for m in SPAN_DECL_RE.finditer(clean)}
    names |= {m.group(1) for m in SHARED_ARRAY_RE.finditer(clean)}
    # Views derived from spans are spans too.
    for _ in range(3):  # fixpoint over short derivation chains
        names |= {m.group(1) for m in SUBSPAN_RE.finditer(clean) if m.group(2) in names}
    return names


def local_array_names(body: str) -> set[str]:
    """C arrays declared inside the lambda (lane registers) -- exempt from R3."""
    decl = re.compile(r"\b(?:\w+(?:::\w+)*(?:<[^;\n]*?>)?)\s+(\w+)\s*\[[^\]]*\]\s*(?:=|;)")
    return {m.group(1) for m in decl.finditer(body)}


def lint_file(path: pathlib.Path, rel: str) -> FileReport:
    text = path.read_text()
    clean = strip_comments_and_strings(text)
    lines = text.splitlines()
    report = FileReport()

    def allowed(rule: str, line_no: int) -> bool:
        """Suppression on the finding line or the line above it."""
        for ln in (line_no, line_no - 1):
            if 1 <= ln <= len(lines):
                m = SUPPRESS_RE.search(lines[ln - 1])
                if m and m.group(1).upper() == rule:
                    return True
        return False

    def emit(rule: str, line_no: int, message: str) -> None:
        f = Finding(rel, line_no, rule, message, suppressed=allowed(rule, line_no))
        if f.suppressed:
            report.suppressions.append(f)
        else:
            report.findings.append(f)

    norm = rel.replace("\\", "/")
    spans = span_names(clean)
    bodies = find_kernel_lambdas(clean) if scope_match(norm, KERNEL_SCOPE) else []

    for start, end in bodies:
        body = clean[start:end]

        # R1: host synchronisation objects.
        for m in R1_RE.finditer(body):
            emit("R1", line_of(clean, start + m.start()),
                 f"host synchronisation primitive `{m.group(0).strip('<')}` inside a kernel "
                 "lambda; blocks may only interact through warp atomics "
                 "(w.atomic_add / w.fetch_add)")

        # R2: pointer arithmetic on captured spans.  __builtin_prefetch
        # arguments are exempt: a prefetch hint is never an architectural
        # access, so it can neither fault nor race.
        for m in re.finditer(r"\b(\w+)\.data\(\)\s*[+\-]", body):
            if m.group(1) in spans:
                prefix = body[max(0, m.start() - 120):m.start()]
                if re.search(r"__builtin_prefetch\s*\([^;]*$", prefix):
                    continue
                emit("R2", line_of(clean, start + m.start()),
                     f"pointer arithmetic on span `{m.group(1)}`; use blk.ld/blk.st or "
                     "w.load/w.store so bounds and races are checked")

        # R3: raw subscript on a span (captured or shared); lambda-local
        # C arrays (lane registers) are exempt.
        locals_ = local_array_names(body)
        for m in re.finditer(r"\b(\w+)\s*\[", body):
            name = m.group(1)
            if name in spans and name not in locals_:
                emit("R3", line_of(clean, start + m.start()),
                     f"raw subscript on span `{name}`; use blk.ld/blk.st (global) or "
                     "blk.shared_ld/blk.shared_st (shared memory)")

        # R5: per-lane scatter loops where a compress-store tile applies.
        # The tell is a store whose arguments index a register tile by the
        # loop variable (``blk.st(out, off[l], elems[l])``); dense column
        # scans that store a scalar accumulator are not scatters.
        for m in re.finditer(
                r"for\s*\(\s*(?:int|auto|std::\w+)\s+(\w+)\s*=[^;)]*;"
                r"\s*\1\s*<\s*[\w.]*lanes\(\)\s*;[^)]*\)", body):
            open_idx = body.find("{", m.end())
            if open_idx < 0 or body[m.end():open_idx].strip():
                continue
            loop_body = body[open_idx:match_brace_block(body, open_idx)]
            var = re.escape(m.group(1))
            if re.search(r"\b\w+\.st\([^;]*\[\s*" + var + r"\s*\]", loop_body):
                emit("R5", line_of(clean, start + m.start()),
                     "per-lane scatter loop writes through blk.st element by element; "
                     "lane-ordered consecutive offsets compress into one tile -- use "
                     "w.compress_store / simd-tier compress_store primitives")

        # R4: shared memory allocated but no barrier in sight.
        alloc = SHARED_ALLOC_RE.search(body)
        if alloc and not SYNC_RE.search(body):
            emit("R4", line_of(clean, start + alloc.start()),
                 "kernel allocates shared memory but never calls sync(); cross-warp "
                 "shared traffic without a barrier is a race")

    if scope_match(norm, HOST_SCOPE):
        # R6: every host-scope launch with a brace-literal config must tag
        # its stream.  Configs passed as named variables are not checked
        # here (StreamSan covers them dynamically).
        for m in re.finditer(r"(?:\.|->)\s*launch\s*\(", clean):
            args = split_call_args(clean, m.end() - 1)
            if len(args) < 2:
                continue
            cfg = args[1][1].strip()
            if cfg.startswith("{") and ".stream" not in cfg:
                emit("R6", line_of(clean, m.start()),
                     "launch config carries no .stream tag; an untagged launch lands "
                     "on the default stream even when the selection runs on a leased "
                     "one -- thread the pipeline's stream (.stream = cfg.stream / "
                     "ctx.stream())")

        # R7: a fork edge recorded with no join in the same module.
        records = list(re.finditer(r"\brecord_event\s*\(", clean))
        if records and not re.search(r"\bwait_event\s*\(", clean):
            emit("R7", line_of(clean, records[0].start()),
                 "record_event() with no matching wait_event() in this module: a "
                 "recorded fork edge that nothing joins is dead code or a missing "
                 "ordering edge (StreamSan reports the runtime counterpart as "
                 "wait_unrecorded / a cross-stream race)")

        # R8: fault and sanitizer exceptions map to a Status in one place.
        for m in R8_RE.finditer(clean):
            emit("R8", line_of(clean, m.start()),
                 f"catch of simt::{m.group(1)} outside with_fault_retry "
                 "(core/pipeline.hpp): run the step inside with_fault_retry so every "
                 "fault and sanitizer violation maps to a Status through one policy")

    # Suppressions are forbidden in the core kernel set.
    if any(norm.startswith(p) for p in NO_SUPPRESSION_PREFIXES):
        for s in report.suppressions:
            report.findings.append(Finding(
                rel, s.line, s.rule,
                f"suppression of {s.rule} is not allowed under src/core/ -- fix the "
                "kernel instead"))
        report.suppressions = []
    return report


def resolve_scope(root: pathlib.Path, explicit: list[str]) -> list[pathlib.Path]:
    if explicit:
        return [pathlib.Path(p) for p in explicit]
    files: list[pathlib.Path] = []
    for pattern in DEFAULT_SCOPE:
        files.extend(f for f in sorted(root.glob(pattern)) if f not in files)
    return files


def run_clang_query(files: list[pathlib.Path]) -> int | None:
    """Best-effort AST pass; returns None when clang-query is unavailable."""
    cq = shutil.which("clang-query")
    if cq is None:
        return None
    matcher = (
        "match declRefExpr(to(varDecl(hasType(cxxRecordDecl(anyOf("
        "hasName('::std::mutex'), hasName('::std::atomic')))))),"
        " hasAncestor(lambdaExpr()))"
    )
    status = 0
    for f in files:
        proc = subprocess.run(
            [cq, "-c", matcher, str(f), "--", "-std=c++20"],
            capture_output=True, text=True, check=False)
        if "0 matches." not in proc.stdout:
            sys.stderr.write(proc.stdout)
            status = 1
    return status


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="files to lint (default: the kernel scope)")
    ap.add_argument("--root", default=None, help="repository root (default: script parent)")
    ap.add_argument("--engine", choices=["regex", "clang-query"], default="regex")
    ap.add_argument("--list-scope", action="store_true", help="print the scoped files and exit")
    args = ap.parse_args(argv)

    root = pathlib.Path(args.root) if args.root else pathlib.Path(__file__).resolve().parent.parent
    files = resolve_scope(root, args.files)
    if args.list_scope:
        for f in files:
            print(f)
        return 0
    missing = [f for f in files if not f.is_file()]
    if missing:
        for f in missing:
            print(f"lint-kernels: error: no such file: {f}", file=sys.stderr)
        return 2

    if args.engine == "clang-query":
        status = run_clang_query(files)
        if status is not None:
            return status
        print("lint-kernels: note: clang-query not found, falling back to regex engine",
              file=sys.stderr)

    total = 0
    suppressed = 0
    for f in files:
        try:
            rel = str(f.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(f)
        report = lint_file(f, rel)
        for v in report.findings:
            print(f"{v.path}:{v.line}: [{v.rule} {RULES[v.rule]}] {v.message}")
            total += 1
        suppressed += len(report.suppressions)

    tail = f" ({suppressed} suppressed)" if suppressed else ""
    if total:
        print(f"lint-kernels: {total} violation(s) in {len(files)} file(s){tail}")
        return 1
    print(f"lint-kernels: OK -- {len(files)} file(s) clean{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
