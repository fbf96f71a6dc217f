#!/usr/bin/env python3
"""parpde-verify: repo-specific communication-correctness and hygiene lint.

A fast, AST-free static pass over src/ that enforces invariants the compiler
cannot (see docs/static-analysis.md for the rule catalogue and how to add a
rule):

  literal-tag      MPI tags must come from the central registry
                   (src/minimpi/tags.hpp); no integer-literal tag arguments
                   in point-to-point calls and no kTag* constants defined
                   outside the registry.
  nondeterminism   kernel/trainer paths that must stay bit-deterministic may
                   not call rand()/srand()/time() or iterate unordered
                   containers.
  span-temporary   telemetry::Span must be a named RAII local; a discarded
                   temporary is destroyed immediately and measures nothing.
  zero-comm        training-phase files (the paper's communication-free
                   training claim) may not contain send/recv/collective
                   calls; pure-compute layers may not include minimpi at all.
  include-hygiene  headers start with #pragma once; no relative-parent or
                   <bits/...> includes; a .cpp's first include is its own
                   header.
  backend-bypass   raw GEMM calls (gemm/gemm_acc/gemm_at/gemm_bt_acc) belong
                   to the kernel files (src/tensor/gemm.*, src/nn/conv_ops.*):
                   a convolution lowered anywhere else is a second fp32
                   lowering that must be kept bit-identical by hand; layers
                   and the fp32 backend call nn::conv2d_*_batched instead.
  metric-catalogue every literal metric name passed to telemetry::counter /
                   gauge / histogram in src/ has a row in a catalogue table
                   of docs/observability.md, and every row names a metric
                   src/ registers; a name built at run time matches a
                   documented <placeholder> form by its literal prefix.
  unbounded-halo-recv
                   inference-phase files may not block forever on halo
                   traffic: every receive on a halo tag must be the bounded
                   recv_for so a lost neighbour degrades the border instead
                   of hanging the rollout. Blocking receives on the
                   registry's rendezvous tag (the field gather) are
                   allowlisted.
  raw-clock        src/ outside util/ may not call std::chrono clocks
                   directly: all timing must flow through
                   telemetry::now_us()/util::WallTimer so cross-rank trace
                   timestamps share one epoch and stay clock-offset
                   correctable (docs/observability.md).
  raw-rank-block   the rollout step loop (src/core/inference.cpp) and the
                   elastic runtime (src/elastic/) may not index partition
                   blocks by the hosting rank: ownership is versioned and
                   migrates on rebalance, so geometry must be derived from
                   the *task* id via the Assignment map —
                   block_of_rank(comm.rank()) silently re-freezes the
                   task==rank identity and breaks adoption.
  serve-steady-alloc
                   the serving layer (src/serve/) promises zero heap
                   allocations per request: allocation primitives (new,
                   make_unique/shared, resize/reserve/push_back/...,
                   std::to_string) are banned outside regions bracketed by
                   `// serve-lint: setup-begin` / `setup-end` comments
                   (construction, calibration, session open).
  lock-held-comm   no blocking send/recv/recv_for/collective while a
                   lock_guard/unique_lock/scoped_lock is live in an enclosing
                   scope: a peer blocked on the same mutex can never complete
                   the matching operation, so one adversarial schedule turns
                   the call into a deadlock (parpde-mc explores exactly those
                   schedules; this rule catches the pattern statically).

Usage:
  tools/parpde_lint.py [--root DIR]   lint the tree (exit 1 on violations)
  tools/parpde_lint.py --self-test    seed one violation per rule in a temp
                                      tree and assert each is caught
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

# --- source sanitizing -------------------------------------------------------

_COMMENT_OR_STRING = re.compile(
    r"""
      //[^\n]*            # line comment
    | /\*.*?\*/           # block comment
    | "(?:\\.|[^"\\\n])*" # string literal
    | '(?:\\.|[^'\\\n])*' # char literal
    """,
    re.VERBOSE | re.DOTALL,
)


_COMMENT_ONLY = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def _blank(m: re.Match) -> str:
    return "".join(c if c == "\n" else " " for c in m.group(0))


def sanitize(text: str) -> str:
    """Replaces comments and string/char literals with spaces, preserving
    offsets and line structure so regex hits map back to real code."""
    return _COMMENT_OR_STRING.sub(_blank, text)


def sanitize_comments(text: str) -> str:
    """Blanks comments but keeps string literals — include directives carry
    their path as a string literal, so include rules scan this view."""
    return _COMMENT_ONLY.sub(_blank, text)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- the Communicator's call surface ----------------------------------------

# The point-to-point members of mpi::Communicator
# (src/minimpi/communicator.hpp) and the free-function collectives
# (src/minimpi/collectives.hpp). Every communication rule below builds its
# pattern from these lists, so a call added to or removed from minimpi is
# edited here once.
BLOCKING_RECV_CALLS = ("recv_value", "recv_into", "recv")
P2P_CALLS = ("send_value", "send", "recv_for") + BLOCKING_RECV_CALLS
COLLECTIVE_CALLS = (
    "allreduce", "allgather", "gather", "bcast", "reduce", "barrier",
)

# The name, optional template arguments, then the call's open paren.
_CALL_TAIL = r"\s*(?:<[^<>()]*>)?\s*\("


def member_call(names) -> str:
    return r"\.\s*(" + "|".join(names) + r")" + _CALL_TAIL


def free_call(names) -> str:
    return r"\b(" + "|".join(names) + r")" + _CALL_TAIL


# --- rule: literal-tag -------------------------------------------------------

_COMM_CALL = re.compile(member_call(P2P_CALLS))
_INT_LITERAL = re.compile(r"[+-]?\d+")
_TAG_CONSTANT = re.compile(r"\bkTag\w*\s*=\s*(?:\(?\s*)?[+-]?\d")

TAG_REGISTRY = os.path.join("src", "minimpi", "tags.hpp")


def split_args(code: str, open_paren: int, max_args: int = 4):
    """Splits the argument list starting at code[open_paren] == '(' into
    top-level arguments. Returns a list of (text, offset) pairs."""
    args = []
    depth = 0
    start = open_paren + 1
    i = open_paren
    while i < len(code):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append((code[start:i], start))
                return args
        elif c == "," and depth == 1:
            args.append((code[start:i], start))
            start = i + 1
            if len(args) >= max_args:
                return args
        i += 1
    return args


def rule_literal_tag(rel: str, code: str, out: list):
    if rel == TAG_REGISTRY.replace(os.sep, "/"):
        return
    for m in _COMM_CALL.finditer(code):
        open_paren = m.end() - 1
        args = split_args(code, open_paren)
        if len(args) < 2:
            continue
        tag_text, tag_offset = args[1]
        if _INT_LITERAL.fullmatch(tag_text.strip()):
            out.append(
                Violation(
                    "literal-tag",
                    rel,
                    line_of(code, tag_offset),
                    f"integer-literal tag {tag_text.strip()} in "
                    f".{m.group(1)}() — use a named range from "
                    "minimpi/tags.hpp",
                )
            )
    for m in _TAG_CONSTANT.finditer(code):
        out.append(
            Violation(
                "literal-tag",
                rel,
                line_of(code, m.start()),
                "tag constant defined outside the central registry "
                "minimpi/tags.hpp",
            )
        )


# --- rule: nondeterminism ----------------------------------------------------

DETERMINISTIC_DIRS = (
    "src/tensor/",
    "src/backend/",
    "src/nn/",
    "src/core/",
    "src/domain/",
    "src/euler/",
    "src/data/",
)

_NONDET_PATTERNS = (
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\b(?:std::)?time\s*\("), "time()"),
    (
        re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b"),
        "unordered container (iteration order is nondeterministic)",
    ),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
)


def rule_nondeterminism(rel: str, code: str, out: list):
    if not rel.startswith(DETERMINISTIC_DIRS):
        return
    for pattern, what in _NONDET_PATTERNS:
        for m in pattern.finditer(code):
            out.append(
                Violation(
                    "nondeterminism",
                    rel,
                    line_of(code, m.start()),
                    f"{what} in a bit-deterministic path — kernels and "
                    "trainers must produce identical results at any "
                    "rank/thread count",
                )
            )


# --- rule: span-temporary ----------------------------------------------------

_SPAN_TEMPORARY = re.compile(r"\btelemetry::Span\s*\(")


def rule_span_temporary(rel: str, code: str, out: list):
    if rel.startswith("src/util/telemetry."):
        return
    for m in _SPAN_TEMPORARY.finditer(code):
        out.append(
            Violation(
                "span-temporary",
                rel,
                line_of(code, m.start()),
                "telemetry::Span temporary is destroyed immediately and "
                "records a zero-length span — bind it to a named local",
            )
        )


# --- rule: zero-comm ---------------------------------------------------------

# Files implementing the paper's communication-free training phase: any
# send/recv here would silently break the headline zero-comm claim.
TRAINING_PHASE_FILES = (
    "src/core/trainer.cpp",
    "src/core/trainer.hpp",
    "src/core/parallel_trainer.cpp",
    "src/core/parallel_trainer.hpp",
)
# Pure-compute layers: may not even include the message-passing substrate.
COMPUTE_ONLY_DIRS = ("src/nn/", "src/tensor/", "src/backend/", "src/data/")

_COMM_USE = re.compile(
    member_call(P2P_CALLS) + "|" + free_call(COLLECTIVE_CALLS)
)
_MINIMPI_INCLUDE = re.compile(r'#\s*include\s+"minimpi/')


def rule_zero_comm(rel: str, code: str, code_includes: str, out: list):
    compute_only = rel.startswith(COMPUTE_ONLY_DIRS)
    if rel in TRAINING_PHASE_FILES or compute_only:
        for m in _COMM_USE.finditer(code):
            out.append(
                Violation(
                    "zero-comm",
                    rel,
                    line_of(code, m.start()),
                    "message-passing call in a training-phase/compute file — "
                    "the paper's scheme trains without communication "
                    "(ROADMAP north-star invariant)",
                )
            )
    if compute_only:
        for m in _MINIMPI_INCLUDE.finditer(code_includes):
            out.append(
                Violation(
                    "zero-comm",
                    rel,
                    line_of(code, m.start()),
                    "minimpi include in a pure-compute layer",
                )
            )


# --- rule: unbounded-halo-recv -----------------------------------------------

# Files on the inference-time communication path. A lost neighbour must
# degrade the border (docs/robustness.md), so these files may only use the
# bounded receives on halo traffic.
INFERENCE_PHASE_FILES = (
    "src/domain/exchange.cpp",
    "src/core/inference.cpp",
)
# Registry tags whose owner implements a rendezvous with a live root (the
# full-field gather); blocking on them is the intended protocol.
ALLOWED_BLOCKING_TAGS = ("kFieldGather",)

_UNBOUNDED_RECV = re.compile(member_call(BLOCKING_RECV_CALLS))


def rule_unbounded_halo_recv(rel: str, code: str, out: list):
    if rel not in INFERENCE_PHASE_FILES:
        return
    for m in _UNBOUNDED_RECV.finditer(code):
        args = split_args(code, m.end() - 1)
        if len(args) >= 2 and any(
            tag in args[1][0] for tag in ALLOWED_BLOCKING_TAGS
        ):
            continue
        out.append(
            Violation(
                "unbounded-halo-recv",
                rel,
                line_of(code, m.start()),
                f"unbounded .{m.group(1)}() in an inference-phase file — a "
                "dead neighbour would hang the rollout forever; use "
                "recv_for with a timeout and degrade the border "
                "(docs/robustness.md)",
            )
        )


# --- rule: raw-clock ---------------------------------------------------------

# Timestamps must share the one telemetry epoch (telemetry::now_us()). A raw
# steady_clock::now() outside util/ bypasses that epoch, so its spans/timers
# cannot be placed on the trace's timeline.
RAW_CLOCK_EXEMPT_PREFIX = "src/util/"

_RAW_CLOCK = re.compile(
    r"\b(steady_clock|high_resolution_clock|system_clock)\s*::\s*now\s*\("
)


def rule_raw_clock(rel: str, code: str, out: list):
    if not rel.startswith("src/") or rel.startswith(RAW_CLOCK_EXEMPT_PREFIX):
        return
    for m in _RAW_CLOCK.finditer(code):
        out.append(
            Violation(
                "raw-clock",
                rel,
                line_of(code, m.start()),
                f"direct {m.group(1)}::now() outside src/util/ — use "
                "telemetry::now_us() or util::WallTimer so timestamps stay "
                "on the one now_us() trace epoch (docs/observability.md)",
            )
        )


# --- rule: backend-bypass ----------------------------------------------------

# The only files allowed to call the raw GEMM entry points: the GEMM itself
# and the convolution lowering every layer and backend shares.
BACKEND_EXEMPT_PREFIXES = (
    "src/tensor/gemm.",
    "src/nn/conv_ops.",
)

# Free-function (or namespace-qualified) calls only: the lookbehind rejects
# `.gemm(` / `->gemm(` member calls and longer identifiers.
_BACKEND_KERNEL_CALL = re.compile(
    r"(?<![\w.>])(gemm|gemm_acc|gemm_at|gemm_bt_acc)\s*\("
)


def rule_backend_bypass(rel: str, code: str, out: list):
    if not rel.startswith("src/") or rel.startswith(BACKEND_EXEMPT_PREFIXES):
        return
    for m in _BACKEND_KERNEL_CALL.finditer(code):
        out.append(
            Violation(
                "backend-bypass",
                rel,
                line_of(code, m.start()),
                f"direct {m.group(1)}() call outside the kernel files — "
                "lower convolutions through nn::conv2d_*_batched "
                "(src/nn/conv_ops.cpp) so training, ConvLSTM and the fp32 "
                "plan keep one lowering",
            )
        )


# --- rule: metric-catalogue --------------------------------------------------

CATALOGUE_DOC = "docs/observability.md"

# The name argument of a registry call: a string literal, optionally wrapped
# in std::string(...); a trailing `+` means the name is completed at run time
# and only its literal prefix is known.
_METRIC_CALL = re.compile(
    r'\btelemetry::(?:counter|gauge|histogram)\s*\(\s*'
    r'(?:std::string\s*\(\s*)?"([^"\\]*)"\s*\)?\s*(\+)?'
)


def registered_metrics(root: str, files: list) -> list:
    """(name, is_prefix, path, line) for every registry call in `files`."""
    found = []
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            code = sanitize_comments(f.read())
        for m in _METRIC_CALL.finditer(code):
            found.append((m.group(1), m.group(2) is not None,
                          rel.replace(os.sep, "/"), line_of(code, m.start())))
    return found


def catalogue_rows(text: str) -> list:
    """(name, line) for every backticked name in the first column of the
    tables under the doc's `## Metric catalogue` heading."""
    rows = []
    in_section = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("## "):
            in_section = line.strip() == "## Metric catalogue"
            continue
        if in_section and line.startswith("|"):
            first = line.split("|")[1]
            rows.extend((name, number) for name in re.findall(r"`([^`]+)`", first))
    return rows


def placeholder_regex(name: str):
    """`comm.tag.<tag>.bytes_sent` -> a regex matching any concrete name."""
    parts = re.split(r"<[^>]*>", name)
    return re.compile(".+".join(re.escape(p) for p in parts))


def rule_metric_catalogue(root: str, files: list, out: list):
    doc_path = os.path.join(root, CATALOGUE_DOC)
    if not os.path.exists(doc_path):
        out.append(Violation("metric-catalogue", CATALOGUE_DOC, 1,
                             "metric catalogue missing"))
        return
    with open(doc_path, encoding="utf-8") as f:
        rows = catalogue_rows(f.read())
    literal = {name for name, _ in rows if "<" not in name}
    forms = [(name, placeholder_regex(name)) for name, _ in rows if "<" in name]
    metrics = registered_metrics(root, files)

    def documented(name: str, is_prefix: bool) -> bool:
        if is_prefix:
            return any(form.startswith(name) for form, _ in forms)
        return name in literal or any(r.fullmatch(name) for _, r in forms)

    for name, is_prefix, rel, line in metrics:
        if not documented(name, is_prefix):
            shown = name + "…" if is_prefix else name
            out.append(Violation(
                "metric-catalogue", rel, line,
                f"metric {shown} has no row in the {CATALOGUE_DOC} catalogue"))
    for name, line in rows:
        if "<" in name:
            regex = placeholder_regex(name)
            live = any(name.startswith(m) if p else bool(regex.fullmatch(m))
                       for m, p, _, _ in metrics)
        else:
            live = any(m == name and not p for m, p, _, _ in metrics)
        if not live:
            out.append(Violation(
                "metric-catalogue", CATALOGUE_DOC, line,
                f"catalogue row {name} names no metric registered in src/"))


# --- rule: raw-rank-block ----------------------------------------------------

# The rollout loop decouples subdomain tasks from ranks (one task per rank
# without elastic, several with it): every partition lookup must be keyed by
# a task id or task coordinates from the Assignment map. A
# `block_of_rank(rank)` / `block_of_rank(comm.rank())` in the loop quietly
# reintroduces the implicit (cx, cy) == rank identity and produces wrong
# geometry the moment one task migrates.
RANK_BLOCK_SCOPE = ("src/core/inference.cpp", "src/elastic/")

_BLOCK_OF_RANK = re.compile(r"\bblock_of_rank\s*\(")
_RANK_VALUE = re.compile(r"\.\s*rank\s*\(|\brank\b")


def rule_raw_rank_block(rel: str, code: str, out: list):
    if not rel.startswith(RANK_BLOCK_SCOPE):
        return
    for m in _BLOCK_OF_RANK.finditer(code):
        args = split_args(code, m.end() - 1)
        if not args or not _RANK_VALUE.search(args[0][0]):
            continue
        out.append(
            Violation(
                "raw-rank-block",
                rel,
                line_of(code, m.start()),
                "partition block indexed by the hosting rank in the "
                "task-keyed rollout loop — ownership migrates on rebalance; "
                "derive geometry "
                "from the task id via the Assignment map "
                "(elastic/assignment.hpp)",
            )
        )


# --- rule: lock-held-comm ----------------------------------------------------

# The transport layer itself (mailbox/collectives implement the blocking
# operations under their own mutexes) and util/ (no communicator access) own
# their locking discipline; everywhere else, holding a lock across a blocking
# communication is a deadlock waiting for the right schedule.
LOCK_COMM_EXEMPT_PREFIXES = ("src/minimpi/", "src/util/", "src/verify/")

_LOCK_DECL = re.compile(
    r"\b(?:std::)?(?:lock_guard|unique_lock|scoped_lock)\s*"
    r"(?:<[^<>;]*>)?\s+(\w+)\s*[({]"
)
_LOCK_RELEASE = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(")
# Blocking operations only: member sends/receives (bounded recv_for included —
# 200ms under a contended lock is still a stall the pool can observe) and the
# free-function collectives, every one a rendezvous.
_LOCKED_COMM_CALL = re.compile(
    member_call(P2P_CALLS) + "|" + free_call(COLLECTIVE_CALLS)
)


def rule_lock_held_comm(rel: str, code: str, out: list):
    if not rel.startswith("src/") or rel.startswith(LOCK_COMM_EXEMPT_PREFIXES):
        return
    events = []
    for i, ch in enumerate(code):
        if ch == "{":
            events.append((i, "open", None))
        elif ch == "}":
            events.append((i, "close", None))
    for m in _LOCK_DECL.finditer(code):
        events.append((m.start(), "lock", m.group(1)))
    for m in _LOCK_RELEASE.finditer(code):
        events.append((m.start(), "release", m.group(1)))
    for m in _LOCKED_COMM_CALL.finditer(code):
        events.append((m.start(), "comm", m.group(1) or m.group(2)))
    events.sort(key=lambda e: e[0])

    depth = 0
    live = []  # (brace depth at declaration, variable name)
    for off, kind, name in events:
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
            live = [(d, n) for d, n in live if d <= depth]
        elif kind == "lock":
            live.append((depth, name))
        elif kind == "release":
            live = [(d, n) for d, n in live if n != name]
        elif kind == "comm" and live:
            out.append(
                Violation(
                    "lock-held-comm",
                    rel,
                    line_of(code, off),
                    f"blocking {name}() while '{live[-1][1]}' is held — a "
                    "schedule where the peer needs the same lock to reach "
                    "its matching call deadlocks; release the lock before "
                    "communicating (parpde-mc hunts exactly these schedules)",
                )
            )


# --- rule: serve-steady-alloc ------------------------------------------------

# The serving layer's request path promises zero heap allocations per request
# (docs/serving.md; enforced dynamically by the counting-allocator test in
# tests/test_serve.cpp). This rule keeps the promise visible in review:
# allocation primitives are banned in src/serve/ except inside regions
# bracketed by `// serve-lint: setup-begin` ... `// serve-lint: setup-end`
# (construction, calibration, session open — the paths that are allowed to
# size buffers once).
SERVE_PREFIX = "src/serve/"

_SERVE_SETUP_BEGIN = re.compile(r"//\s*serve-lint:\s*setup-begin")
_SERVE_SETUP_END = re.compile(r"//\s*serve-lint:\s*setup-end")
_SERVE_ALLOC = re.compile(
    r"\bnew\b"
    r"|\bmake_(?:unique|shared)\s*<"
    r"|\.\s*(?:resize|reserve|push_back|emplace_back|assign|insert|append)"
    r"\s*\("
    r"|\bstd::to_string\s*\("
)


def rule_serve_steady_alloc(rel: str, code: str, raw: str, out: list):
    if not rel.startswith(SERVE_PREFIX):
        return
    begins = [m.start() for m in _SERVE_SETUP_BEGIN.finditer(raw)]
    ends = [m.start() for m in _SERVE_SETUP_END.finditer(raw)]
    if len(begins) != len(ends) or any(b > e for b, e in zip(begins, ends)):
        out.append(
            Violation(
                "serve-steady-alloc",
                rel,
                1,
                "unbalanced serve-lint setup-begin/setup-end markers",
            )
        )
        return
    regions = list(zip(begins, ends))
    for m in _SERVE_ALLOC.finditer(code):
        if any(b <= m.start() < e for b, e in regions):
            continue
        out.append(
            Violation(
                "serve-steady-alloc",
                rel,
                line_of(code, m.start()),
                "heap allocation on a serving steady-state path — the "
                "per-request contract is zero allocations (pre-size in a "
                "`// serve-lint: setup-begin` region instead; "
                "docs/serving.md)",
            )
        )


# --- rule: include-hygiene ---------------------------------------------------

_INCLUDE = re.compile(r'#\s*include\s+(["<][^">]+[">])')


def rule_include_hygiene(rel: str, code_includes: str, raw: str, out: list):
    code = code_includes
    if rel.endswith((".hpp", ".h")):
        for line in raw.splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith(("//", "/*", "*")):
                continue
            if stripped != "#pragma once":
                out.append(
                    Violation(
                        "include-hygiene",
                        rel,
                        1,
                        "header must open with #pragma once before any code",
                    )
                )
            break
    includes = list(_INCLUDE.finditer(code))
    for m in includes:
        target = m.group(1)
        if target.startswith('"../'):
            out.append(
                Violation(
                    "include-hygiene",
                    rel,
                    line_of(code, m.start()),
                    "relative-parent include — include project headers by "
                    "their src/-rooted path",
                )
            )
        if target.startswith("<bits/"):
            out.append(
                Violation(
                    "include-hygiene",
                    rel,
                    line_of(code, m.start()),
                    "non-portable <bits/...> include",
                )
            )
    if rel.endswith(".cpp") and includes:
        own = rel[len("src/"):-len(".cpp")] + ".hpp"
        first = includes[0].group(1)
        if first.strip('"') != own and os.path.basename(own) == os.path.basename(
            first.strip('"<>')
        ):
            out.append(
                Violation(
                    "include-hygiene",
                    rel,
                    line_of(code, includes[0].start()),
                    f'first include should be the matching header "{own}"',
                )
            )


# --- driver ------------------------------------------------------------------

SOURCE_EXTENSIONS = (".hpp", ".h", ".cpp")


def lint_file(root: str, rel: str) -> list:
    path = os.path.join(root, rel)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    code = sanitize(raw)
    code_includes = sanitize_comments(raw)
    rel_posix = rel.replace(os.sep, "/")
    out: list = []
    rule_literal_tag(rel_posix, code, out)
    rule_nondeterminism(rel_posix, code, out)
    rule_span_temporary(rel_posix, code, out)
    rule_zero_comm(rel_posix, code, code_includes, out)
    rule_unbounded_halo_recv(rel_posix, code, out)
    rule_raw_clock(rel_posix, code, out)
    rule_backend_bypass(rel_posix, code, out)
    rule_raw_rank_block(rel_posix, code, out)
    rule_lock_held_comm(rel_posix, code, out)
    rule_serve_steady_alloc(rel_posix, code, raw, out)
    rule_include_hygiene(rel_posix, code_includes, raw, out)
    return out


def lint_tree(root: str) -> list:
    violations = []
    files = []
    src = os.path.join(root, "src")
    for dirpath, _, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            files.append(rel)
            violations.extend(lint_file(root, rel))
    rule_metric_catalogue(root, files, violations)
    return violations


# --- self-test ---------------------------------------------------------------

SEEDED_FILES = {
    # literal-tag: raw tag arguments (a blocking receive into a caller's
    # vector and a bounded receive among them) and a stray registry constant.
    "src/core/bad_tags.cpp": (
        '#include "core/bad_tags.hpp"\n'
        "constexpr int kTagRogue = 9000;\n"
        "void f(parpde::mpi::Communicator& comm) {\n"
        "  comm.send<float>(1, 4242, data);\n"
        "  comm.recv<float>(0, 17);\n"
        "  comm.recv_into<float>(0, 18, &strip);\n"
        "  comm.recv_for<float>(0, 19, std::chrono::milliseconds(10), &out);\n"
        "}\n"
    ),
    # nondeterminism: rand + unordered_map in a kernel path.
    "src/tensor/bad_rng.cpp": (
        '#include "tensor/bad_rng.hpp"\n'
        "#include <unordered_map>\n"
        "int f() {\n"
        "  std::unordered_map<int, int> m;\n"
        "  return rand() + static_cast<int>(time(nullptr));\n"
        "}\n"
    ),
    # span-temporary: discarded RAII span.
    "src/domain/bad_span.cpp": (
        '#include "domain/bad_span.hpp"\n'
        "void f() {\n"
        '  telemetry::Span("halo.exchange", "comm");\n'
        "}\n"
    ),
    # zero-comm: a send and a bounded receive inside the training phase and
    # a minimpi include in nn.
    "src/core/parallel_trainer.cpp": (
        '#include "core/parallel_trainer.hpp"\n'
        "void g(parpde::mpi::Communicator& comm) {\n"
        "  comm.send<float>(0, parpde::mpi::tags::kHalo.base, w);\n"
        "  comm.recv_for<float>(0, parpde::mpi::tags::kHalo.base,\n"
        "                       std::chrono::milliseconds(10), &w);\n"
        "}\n"
    ),
    "src/nn/bad_layer.cpp": (
        '#include "nn/bad_layer.hpp"\n'
        '#include "minimpi/communicator.hpp"\n'
        "void h() {}\n"
    ),
    # unbounded-halo-recv: one blocking halo receive (bad) next to an
    # allowlisted gather receive and a bounded recv_for (both fine).
    # raw-rank-block: two rank-keyed block lookups in the rollout loop file
    # (flagged) next to a task-coordinate lookup and a task-id lookup (both
    # fine).
    "src/core/inference.cpp": (
        '#include "core/inference.hpp"\n'
        "void f(parpde::mpi::Communicator& comm) {\n"
        "  auto bad = comm.recv<float>(1, parpde::mpi::tags::kHalo.base);\n"
        "  auto ok1 = comm.recv<float>(0, parpde::mpi::tags::kFieldGather.base);\n"
        "  std::vector<float> out;\n"
        "  comm.recv_for<float>(1, parpde::mpi::tags::kHalo.base,\n"
        "                       std::chrono::milliseconds(10), &out);\n"
        "}\n"
        "void g(parpde::mpi::Communicator& comm,\n"
        "       const parpde::domain::Partition& partition, int rank) {\n"
        "  auto bad1 = partition.block_of_rank(comm.rank());\n"
        "  auto bad2 = partition.block_of_rank(rank);\n"
        "  auto ok1 = partition.block(t % px, t / px);\n"
        "  auto ok2 = partition.block_of_rank(task);\n"
        "}\n"
    ),
    # backend-bypass: two raw GEMM calls outside the kernel files (one bare,
    # one namespace-qualified) next to the legal layer and backend calls.
    "src/core/bad_bypass.cpp": (
        '#include "core/bad_bypass.hpp"\n'
        "void f() {\n"
        "  gemm(a, b, c, m, n, k);\n"
        "  parpde::gemm_acc(dy, rows, dw, m, n, k);\n"
        "  parpde::nn::conv2d_forward_batched(x, w, bias, pad, y, ws);  // fine\n"
        "  backend.conv_forward_batched(ctx, 0, x, 1, h, w, y);  // fine\n"
        "}\n"
    ),
    # the conv lowering itself owns the raw GEMM calls.
    "src/nn/conv_ops.cpp": (
        '#include "nn/conv_ops.hpp"\n'
        "void g() {\n"
        "  gemm(a, b, c, m, n, k);\n"
        "  gemm_acc(dy, rows, dw, m, n, k);\n"
        "}\n"
    ),
    # metric-catalogue: one undocumented metric (flagged here) and one
    # stale catalogue row (flagged in the doc below), next to documented
    # literal names, a run-time name matched by its placeholder form, and a
    # commented-out registration (all fine).
    "src/core/bad_metric.cpp": (
        '#include "core/bad_metric.hpp"\n'
        "void f(int tag) {\n"
        '  telemetry::counter("core.documented").add(1);\n'
        '  telemetry::gauge("core.also_documented").set(1.0);\n'
        '  telemetry::counter("comm.tag." + std::to_string(tag) + ".sent");\n'
        '  telemetry::histogram("core.undocumented");\n'
        '  // telemetry::counter("core.commented_out");\n'
        "}\n"
    ),
    CATALOGUE_DOC: (
        "# Observability\n\n"
        "## Metric catalogue\n\n"
        "| Name | Meaning |\n"
        "|---|---|\n"
        "| `core.documented` / `core.also_documented` | fine |\n"
        "| `comm.tag.<tag>.sent` | built at run time |\n"
        "| `stale.metric` | no longer registered |\n\n"
        "## Trace schema\n\n"
        "| `not.a.metric` | outside the catalogue, ignored |\n"
    ),
    # raw-clock: two raw chrono clocks outside util/ (each flagged) next to
    # the sanctioned telemetry::now_us() call (not flagged).
    "src/core/bad_clock.cpp": (
        '#include "core/bad_clock.hpp"\n'
        "#include <chrono>\n"
        "long f() {\n"
        "  auto t0 = std::chrono::steady_clock::now();\n"
        "  auto t1 = std::chrono::system_clock::now();\n"
        "  return telemetry::now_us();\n"
        "}\n"
    ),
    # util/ owns the epoch, so it may touch the raw clock.
    "src/util/ok_clock.cpp": (
        '#include "util/ok_clock.hpp"\n'
        "#include <chrono>\n"
        "long g() {\n"
        "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
        "}\n"
    ),
    # lock-held-comm: a send under lock_guard and a collective under
    # unique_lock (both flagged) next to an unlock-before-recv and a
    # scope-closed lock (both fine).
    "src/domain/bad_lock_comm.cpp": (
        '#include "domain/bad_lock_comm.hpp"\n'
        "void f(parpde::mpi::Communicator& comm) {\n"
        "  std::lock_guard<std::mutex> lock(mu);\n"
        "  comm.send<float>(1, parpde::mpi::tags::kHalo.base, data);\n"
        "}\n"
        "void g(parpde::mpi::Communicator& comm) {\n"
        "  std::unique_lock<std::mutex> lock(mu);\n"
        "  lock.unlock();\n"
        "  auto v = comm.recv<float>(0, parpde::mpi::tags::kHalo.base);\n"
        "}\n"
        "void h(parpde::mpi::Communicator& comm) {\n"
        "  {\n"
        "    std::scoped_lock guard(mu);\n"
        "    counter += 1;\n"
        "  }\n"
        "  mpi::barrier(comm);\n"
        "}\n"
        "void k(parpde::mpi::Communicator& comm) {\n"
        "  std::unique_lock<std::mutex> lock(mu);\n"
        "  mpi::barrier(comm);\n"
        "}\n"
    ),
    # code outside the rollout loop (the trainer, say) keeps the
    # task == rank identity on purpose.
    "src/core/ok_rank_block.cpp": (
        '#include "core/ok_rank_block.hpp"\n'
        "void g(parpde::mpi::Communicator& comm,\n"
        "       const parpde::domain::Partition& partition) {\n"
        "  auto block = partition.block_of_rank(comm.rank());\n"
        "}\n"
    ),
    # serve-steady-alloc: a push_back and a bare new on steady-state serving
    # paths (both flagged) next to a resize inside the marked setup region
    # (fine) and an alloc mention in a comment (fine).
    "src/serve/bad_steady_alloc.cpp": (
        '#include "serve/bad_steady_alloc.hpp"\n'
        "// serve-lint: setup-begin\n"
        "Server::Server() {\n"
        "  sessions_.resize(64);\n"
        "}\n"
        "// serve-lint: setup-end\n"
        "void Server::step() {\n"
        "  // pre-sized: no resize here\n"
        "  pending_.push_back(req);\n"
        "  auto* node = new Request();\n"
        "}\n"
    ),
    # include-hygiene: missing pragma once, parent include, bits include.
    "src/util/bad_header.hpp": (
        "#include <vector>\n"
        '#include "../core/config.hpp"\n'
        "#include <bits/stdc++.h>\n"
    ),
    # clean file: must produce no violations.
    "src/util/clean.cpp": (
        '#include "util/clean.hpp"\n'
        "void ok(parpde::mpi::Communicator& comm) {\n"
        "  telemetry::Span span(\"ok\", \"test\");\n"
        "  comm.send<float>(1, parpde::mpi::tags::kHalo.base, data);\n"
        "  // comm.send<float>(1, 999, data);  <- commented out, no finding\n"
        '  const char* s = "comm.recv<float>(0, 123)";\n'
        "  (void)s;\n"
        "}\n"
    ),
}

EXPECTED = {
    "literal-tag": {"src/core/bad_tags.cpp"},
    "nondeterminism": {"src/tensor/bad_rng.cpp"},
    "span-temporary": {"src/domain/bad_span.cpp"},
    "zero-comm": {"src/core/parallel_trainer.cpp", "src/nn/bad_layer.cpp"},
    "unbounded-halo-recv": {"src/core/inference.cpp"},
    "include-hygiene": {"src/util/bad_header.hpp"},
    "backend-bypass": {"src/core/bad_bypass.cpp"},
    "metric-catalogue": {"src/core/bad_metric.cpp", CATALOGUE_DOC},
    "raw-clock": {"src/core/bad_clock.cpp"},
    "raw-rank-block": {"src/core/inference.cpp"},
    "lock-held-comm": {"src/domain/bad_lock_comm.cpp"},
    "serve-steady-alloc": {"src/serve/bad_steady_alloc.cpp"},
}


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="parpde_lint_selftest_") as tmp:
        for rel, content in SEEDED_FILES.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        violations = lint_tree(tmp)
        by_rule: dict = {}
        for v in violations:
            by_rule.setdefault(v.rule, set()).add(v.path)
        failures = []
        for rule, files in EXPECTED.items():
            missing = files - by_rule.get(rule, set())
            if missing:
                failures.append(f"rule {rule}: seeded violations not caught "
                                f"in {sorted(missing)}")
        flagged_clean = [
            str(v) for v in violations if v.path == "src/util/clean.cpp"
        ]
        if flagged_clean:
            failures.append(f"clean file flagged: {flagged_clean}")
        # The literal-tag seed has 5 findings (four calls + one constant).
        literal = [v for v in violations if v.rule == "literal-tag"]
        if len(literal) != 5:
            failures.append(
                f"literal-tag: expected 5 findings, got {len(literal)}"
            )
        # The zero-comm seeds have 3 findings: the send and the bounded
        # receive in the training phase, and the minimpi include in nn.
        zero_comm = [v for v in violations if v.rule == "zero-comm"]
        if len(zero_comm) != 3:
            failures.append(
                f"zero-comm: expected 3 findings, got {len(zero_comm)}"
            )
        # Exactly the blocking halo receive: the allowlisted gather receive
        # and the bounded recv_for in the same seed must not be flagged.
        unbounded = [
            v for v in violations if v.rule == "unbounded-halo-recv"
        ]
        if len(unbounded) != 1:
            failures.append(
                "unbounded-halo-recv: expected exactly 1 finding, got "
                f"{len(unbounded)}"
            )
        # Exactly the two raw clocks: the telemetry::now_us() call on the
        # same seed and the exempt util/ file must not be flagged.
        raw_clock = [v for v in violations if v.rule == "raw-clock"]
        if len(raw_clock) != 2:
            failures.append(
                f"raw-clock: expected exactly 2 findings, got "
                f"{len(raw_clock)}"
            )
        # Exactly the two raw GEMM calls: the layer and backend calls on the
        # same seed and the exempt conv lowering must not be flagged.
        bypass = [v for v in violations if v.rule == "backend-bypass"]
        if len(bypass) != 2:
            failures.append(
                f"backend-bypass: expected exactly 2 findings, got "
                f"{len(bypass)}"
            )
        # Exactly the undocumented metric and the stale row: the documented,
        # placeholder-matched and commented-out names must not be flagged.
        catalogue = [v for v in violations if v.rule == "metric-catalogue"]
        if len(catalogue) != 2:
            failures.append(
                f"metric-catalogue: expected exactly 2 findings, got "
                f"{len(catalogue)}"
            )
        # Exactly the two rank-keyed lookups: the task-coordinate and
        # task-id lookups in the same seed and the file outside the rule's
        # scope must not be flagged.
        rank_block = [v for v in violations if v.rule == "raw-rank-block"]
        if len(rank_block) != 2:
            failures.append(
                f"raw-rank-block: expected exactly 2 findings, got "
                f"{len(rank_block)}"
            )
        # Exactly the held-lock send and the held-lock barrier: the
        # unlock-first and closed-scope functions in the same seed are legal.
        locked = [v for v in violations if v.rule == "lock-held-comm"]
        if len(locked) != 2:
            failures.append(
                f"lock-held-comm: expected exactly 2 findings, got "
                f"{len(locked)}"
            )
        # Exactly the push_back and the new: the marked-region resize and the
        # commented mention in the same seed must not be flagged.
        steady = [v for v in violations if v.rule == "serve-steady-alloc"]
        if len(steady) != 2:
            failures.append(
                f"serve-steady-alloc: expected exactly 2 findings, got "
                f"{len(steady)}"
            )
        if failures:
            print("parpde_lint self-test FAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(
            f"parpde_lint self-test passed: {len(violations)} seeded "
            f"violations caught across {len(EXPECTED)} rules"
        )
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of this script's dir)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the linter catches a tree of seeded violations",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(
            f"parpde_lint: {len(violations)} violation(s); see "
            "docs/static-analysis.md for the rule catalogue",
            file=sys.stderr,
        )
        return 1
    print("parpde_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
