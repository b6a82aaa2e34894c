#!/usr/bin/env python3
"""orbit2_analyze: determinism & concurrency invariant checker for ORBIT-2.

Enforces the repo's bit-exactness contract as named, machine-checked rules
(see docs/ANALYSIS.md for the full catalog and rationale):

  float-accumulator      loop-carried scalar `float` accumulator mutated with
                         `+=`/`-=` (or `x = x + ...`) inside a loop body.
                         Accumulate in double, narrow once (the PR 5 loss
                         bug class).
  threading-outside-core std::thread / std::mutex / std::condition_variable /
                         private pools anywhere except src/core. Everything
                         else must route through kernels::parallel_for /
                         parallel_reduce (the PR 3 contract).
  unordered-iteration    range-for over std::unordered_map/unordered_set in
                         order-sensitive context: the file writes files or
                         hashes, or the loop body accumulates (`+=`).
                         Hash-table iteration order is unspecified.
  nondeterminism-source  std::rand/srand, std::random_device, time-seeded
                         RNG, pointer-to-integer casts (address-as-key).
  intrinsics-outside-simd vector intrinsics or intrinsic headers outside
                         src/core/simd.
  pinned-libm            a libm function the simd tier ports (tanh, exp) called
                         outside src/core/simd: its bits would depend on the
                         host's libm instead of the pinned port.

Repo-hygiene rules (textual in both frontends), each with its own scope:

  pragma-once            every header under src/, tests/, bench/, tools/,
                         examples/ starts with `#pragma once` (first
                         non-comment line).
  no-raw-new             no raw `new` / `delete` expressions under src/;
                         owning allocations go through make_unique /
                         make_shared / containers.
  require-pure           ORBIT2_REQUIRE / ORBIT2_CHECK / ORBIT2_DCHECK
                         conditions carry no side effects (assignment,
                         ++/--, compound assignment), in all five trees.
  core-iwyu              .hpp files directly under src/core, src/tensor and
                         src/train include what they use for a curated set of
                         std:: symbols.

The determinism rules cover src/ only. Explicit file arguments (fixture
mode) run every rule on every file; only the file-kind part of a scope
(headers, .hpp) still applies.

Frontends (--frontend auto|clang|tokens):

  clang    drives `clang++ -fsyntax-only -Xclang -ast-dump=json` per
           translation unit listed in compile_commands.json (no libclang
           needed, just a clang++ binary); findings in headers are
           attributed through the AST's source locations.
  tokens   a conservative lexer-level fallback used when no clang++ is
           installed; analyzes every src/ file directly.

Both frontends feed one rule engine, one suppression mechanism, and one
output format, and agree exactly on the fixture corpus under
tests/analyze/fixtures/ (enforced by ctest).

Suppressions: one per line in tools/orbit2_analyze_suppressions.txt:
    <rule> <path>[:<line>] -- <justification>
The justification is mandatory; a suppression without one is a config error.
Unused suppressions are reported as warnings so the file cannot go stale
silently.

Exit status: 0 = no unsuppressed findings, 1 = unsuppressed findings,
2 = usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import dataclass

RULE_FLOAT_ACC = "float-accumulator"
RULE_THREADING = "threading-outside-core"
RULE_UNORDERED = "unordered-iteration"
RULE_NONDET = "nondeterminism-source"
RULE_INTRINSICS = "intrinsics-outside-simd"
RULE_PINNED_LIBM = "pinned-libm"
RULE_PRAGMA_ONCE = "pragma-once"
RULE_RAW_NEW = "no-raw-new"
RULE_REQUIRE_PURE = "require-pure"
RULE_CORE_IWYU = "core-iwyu"
ALL_RULES = (RULE_FLOAT_ACC, RULE_THREADING, RULE_UNORDERED, RULE_NONDET,
             RULE_INTRINSICS, RULE_PINNED_LIBM, RULE_PRAGMA_ONCE, RULE_RAW_NEW,
             RULE_REQUIRE_PURE, RULE_CORE_IWYU)

# Trees walked by default (repo-relative). The determinism rules look at
# src/ only; the repo-hygiene rules narrow further per rule.
SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples")
CXX_SUFFIXES = (".hpp", ".cpp", ".h")
HEADER_SUFFIXES = (".hpp", ".h")

# Directories whose .hpp files are held to core-iwyu.
IWYU_DIRS = ("src/core", "src/tensor", "src/train")

# Directory (repo-relative, posix) whose files may own threading primitives.
THREADING_HOME = "src/core"

# Directory (repo-relative, posix) whose files may use vector intrinsics.
SIMD_HOME = "src/core/simd"


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str  # repo-relative posix path
    line: int
    message: str

    def key(self):
        return (self.path, self.line, self.rule)


@dataclass
class Suppression:
    rule: str
    path: str
    line: int | None
    justification: str
    source_line: int
    used: bool = False

    def matches(self, finding: Finding) -> bool:
        return (self.rule == finding.rule and self.path == finding.path and
                (self.line is None or self.line == finding.line))


# ---------------------------------------------------------------------------
# Shared lexical helpers
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving offsets/newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("".join(c if c == "\n" else " " for c in text[i:j + 2]))
            i = j + 2
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + (quote if j < n else ""))
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(code: str, offset: int) -> int:
    return code.count("\n", 0, offset) + 1


def match_forward(code: str, start: int, open_ch: str, close_ch: str) -> int:
    """Offset of the bracket closing the one at `start`, or -1."""
    depth = 0
    for i in range(start, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


# ---------------------------------------------------------------------------
# Token frontend: loops, declarations, mutations
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    start: int       # offset of the loop keyword
    body_begin: int  # offset of first body char
    body_end: int    # exclusive
    range_expr: str | None = None
    range_line: int | None = None

    def contains(self, off: int) -> bool:
        return self.body_begin <= off < self.body_end

    def spans(self, off: int) -> bool:
        """Anywhere in the loop including its header (init/cond/range)."""
        return self.start <= off < self.body_end


LOOP_KW_RE = re.compile(r"\b(for|while)\s*\(")
DO_RE = re.compile(r"\bdo\s*\{")

TYPE_KEYWORD_BLACKLIST = frozenset({
    "return", "else", "case", "new", "delete", "throw", "typedef", "using",
    "goto", "break", "continue", "if", "while", "for", "do", "switch",
    "public", "private", "protected", "class", "struct", "enum", "namespace",
    "template", "typename", "operator", "sizeof", "static_assert", "default",
    "co_return", "co_await", "co_yield", "not", "and", "or", "in",
})

DECL_RE = re.compile(
    r"\b(?P<const>const\s+)?"
    r"(?P<type>[A-Za-z_]\w*(?:::\w+)*(?:\s*<[^;{}]*?>)?)"
    r"(?P<ptrref>\s*[&*]+)?"
    r"\s+(?P<name>[A-Za-z_]\w*)\s*(?=[=;{,)]|:[^:])"
)

MUT_RE = re.compile(r"(?<![\w.>])([A-Za-z_]\w*)\s*(\+=|-=)(?!=)")
SELF_ASSIGN_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*(?<![=!<>+\-*/&|^])=(?!=)\s*\1\s*[+\-](?![=+\-])")


def find_loops(code: str) -> list[Loop]:
    loops: list[Loop] = []
    for m in LOOP_KW_RE.finditer(code):
        open_paren = code.find("(", m.end() - 1)
        close_paren = match_forward(code, open_paren, "(", ")")
        if close_paren < 0:
            continue
        # Range-for: a ':' at depth 1 that is not part of '::'.
        range_expr = None
        range_line = None
        depth = 0
        if m.group(1) == "for":
            i = open_paren
            while i <= close_paren:
                c = code[i]
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    depth -= 1
                elif c == ":" and depth == 1:
                    if code[i - 1] != ":" and (i + 1 >= len(code) or
                                               code[i + 1] != ":"):
                        range_expr = code[i + 1:close_paren].strip()
                        range_line = line_of(code, i)
                        break
                    i += 1  # skip second ':' of '::'
                i += 1
        # Body: '{...}' or a single statement up to ';' at depth 0.
        j = close_paren + 1
        while j < len(code) and code[j].isspace():
            j += 1
        if j >= len(code):
            continue
        if code[j] == "{":
            body_end = match_forward(code, j, "{", "}")
            if body_end < 0:
                continue
            loops.append(Loop(m.start(), j + 1, body_end,
                              range_expr, range_line))
        else:
            depth = 0
            k = j
            while k < len(code):
                c = code[k]
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    depth -= 1
                elif c == ";" and depth == 0:
                    break
                k += 1
            loops.append(Loop(m.start(), j, k, range_expr, range_line))
    for m in DO_RE.finditer(code):
        j = code.find("{", m.start())
        body_end = match_forward(code, j, "{", "}")
        if body_end >= 0:
            loops.append(Loop(m.start(), j + 1, body_end))
    return loops


def collect_decls(code: str) -> dict[str, list[tuple[int, str, bool, bool]]]:
    """name -> [(offset, type, is_const, is_ptr_or_ref)] in source order."""
    decls: dict[str, list[tuple[int, str, bool, bool]]] = {}
    for m in DECL_RE.finditer(code):
        type_tok = m.group("type")
        base = type_tok.split("<")[0].split("::")[-1].strip()
        if base in TYPE_KEYWORD_BLACKLIST or type_tok in TYPE_KEYWORD_BLACKLIST:
            continue
        decls.setdefault(m.group("name"), []).append(
            (m.start("name"), type_tok,
             m.group("const") is not None,
             m.group("ptrref") is not None))
    return decls


def innermost_loop(loops: list[Loop], off: int) -> Loop | None:
    best = None
    for lp in loops:
        if lp.contains(off) and (best is None or lp.body_begin > best.body_begin):
            best = lp
    return best


# ---- rule: float-accumulator (tokens) -------------------------------------

def tokens_float_accumulator(path: str, code: str, findings: list[Finding]):
    loops = find_loops(code)
    if not loops:
        return
    decls = collect_decls(code)
    seen_offsets: set[int] = set()
    mutations = [(m.start(1), m.group(1), m.group(2))
                 for m in MUT_RE.finditer(code)]
    mutations += [(m.start(1), m.group(1), "= x +")
                  for m in SELF_ASSIGN_RE.finditer(code)]
    for off, name, op in mutations:
        if off in seen_offsets:
            continue
        loop = innermost_loop(loops, off)
        if loop is None:
            continue
        candidates = [d for d in decls.get(name, []) if d[0] < off]
        if not candidates:
            continue
        d_off, d_type, d_const, d_ptr = candidates[-1]
        if d_type != "float" or d_const or d_ptr:
            continue
        if loop.spans(d_off):
            continue  # declared inside this loop: re-initialized, not carried
        seen_offsets.add(off)
        findings.append(Finding(
            RULE_FLOAT_ACC, path, line_of(code, off),
            f"loop-carried float accumulator `{name}` (`{op}` in loop body); "
            "accumulate in double and narrow once"))


# ---- rule: threading-outside-core (tokens + textual) ----------------------

THREADING_TYPE_RE = re.compile(
    r"\bstd::(thread|jthread|mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any|async|promise|future|"
    r"shared_future|packaged_task|barrier|latch|counting_semaphore|"
    r"binary_semaphore|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
THREADING_INCLUDE_RE = re.compile(
    r"#include\s+<(thread|mutex|condition_variable|future|barrier|latch|"
    r"semaphore|shared_mutex)>")
PRIVATE_POOL_RE = re.compile(r"\bThreadPool\b")


def path_is_threading_home(path: str) -> bool:
    return path.startswith(THREADING_HOME + "/")


def textual_threading_includes(path: str, text: str, findings: list[Finding]):
    """Include-directive detection is textual in BOTH frontends (headers are
    not AST nodes)."""
    if path_is_threading_home(path):
        return
    for m in THREADING_INCLUDE_RE.finditer(text):
        findings.append(Finding(
            RULE_THREADING, path, line_of(text, m.start()),
            f"#include <{m.group(1)}> outside {THREADING_HOME}; "
            "route parallelism through kernels::parallel_for/parallel_reduce"))


def tokens_threading(path: str, code: str, findings: list[Finding]):
    if path_is_threading_home(path):
        return
    for m in THREADING_TYPE_RE.finditer(code):
        findings.append(Finding(
            RULE_THREADING, path, line_of(code, m.start()),
            f"std::{m.group(1)} outside {THREADING_HOME}; "
            "route parallelism through kernels::parallel_for/parallel_reduce"))
    for m in PRIVATE_POOL_RE.finditer(code):
        findings.append(Finding(
            RULE_THREADING, path, line_of(code, m.start()),
            f"private ThreadPool outside {THREADING_HOME}; "
            "use the shared kernel-layer pool"))


# ---- rule: unordered-iteration (tokens) -----------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
ORDER_SENSITIVE_RE = re.compile(
    r"std::ofstream|std::fstream|\bfopen\b|\bfwrite\b|\bfprintf\b|"
    r"\bCrc32\b|\bcrc32\b|std::hash\b|\.write\(|write_pod\b")


def unordered_names(code: str) -> set[str]:
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        close = match_forward(code, m.end() - 1, "<", ">")
        if close < 0:
            continue
        tail = code[close + 1:close + 120]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", tail)
        if dm:
            names.add(dm.group(1))
    return names


def tokens_unordered_iteration(path: str, text: str, code: str,
                               findings: list[Finding]):
    names = unordered_names(code)
    file_sensitive = ORDER_SENSITIVE_RE.search(code) is not None
    for loop in find_loops(code):
        if loop.range_expr is None:
            continue
        expr = loop.range_expr
        direct = "unordered_" in expr
        named = any(re.search(rf"(?<![\w.>]){re.escape(n)}\b", expr)
                    for n in names)
        if not (direct or named):
            continue
        body = code[loop.body_begin:loop.body_end]
        accumulates = "+=" in body
        if not (file_sensitive or accumulates):
            continue
        why = ("file writes files/hashes" if file_sensitive
               else "loop body accumulates")
        findings.append(Finding(
            RULE_UNORDERED, path, loop.range_line or line_of(code, loop.start),
            "range-for over unordered container in order-sensitive context "
            f"({why}); iterate a sorted view or justify order-independence"))


# ---- rule: nondeterminism-source (tokens + textual) -----------------------

NONDET_PATTERNS = (
    (re.compile(r"\bstd::rand\b|(?<![\w:])\brand\s*\("),
     "std::rand is a nondeterministic/global-state RNG; use the seeded "
     "orbit2 Rng"),
    (re.compile(r"\bsrand\s*\("),
     "srand seeds global RNG state; use the seeded orbit2 Rng"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is entropy-seeded; runs become irreproducible"),
    (re.compile(r"(?<![\w:])\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)|"
                r"\bstd::time\s*\("),
     "wall-clock seed; runs become irreproducible"),
    (re.compile(r"reinterpret_cast<\s*(?:std::)?uintptr_t\s*>"),
     "pointer-to-integer cast (address-as-key): addresses vary run to run"),
    (re.compile(r"std::hash<[^>]*\*\s*>"),
     "hashing a pointer keys on addresses, which vary run to run"),
)
CHRONO_SEED_RE = re.compile(
    r"^.*(?:system_clock|steady_clock|high_resolution_clock)::now.*"
    r"(?:seed|rng|engine|mt19937).*$|"
    r"^.*(?:seed|rng|engine|mt19937).*"
    r"(?:system_clock|steady_clock|high_resolution_clock)::now.*$",
    re.IGNORECASE | re.MULTILINE)


def tokens_nondeterminism(path: str, code: str, findings: list[Finding]):
    for pattern, message in NONDET_PATTERNS:
        for m in pattern.finditer(code):
            findings.append(Finding(RULE_NONDET, path,
                                    line_of(code, m.start()), message))


def textual_chrono_seed(path: str, code: str, findings: list[Finding]):
    """Clock value flowing into something seed/RNG-named on one line.
    Textual in BOTH frontends (plain clock reads for timing are fine)."""
    for m in CHRONO_SEED_RE.finditer(code):
        findings.append(Finding(
            RULE_NONDET, path, line_of(code, m.start()),
            "clock-derived RNG seed; runs become irreproducible"))


# ---- rule: intrinsics-outside-simd (textual) ------------------------------

INTRIN_INCLUDE_RE = re.compile(
    r"#include\s+<(immintrin\.h|x86intrin\.h|x86gprintrin\.h|"
    r"[a-z0-9]+mmintrin\.h|avx[a-z0-9]*intrin\.h|arm_neon\.h|arm_sve\.h)>")
INTRIN_TOKEN_RE = re.compile(
    r"\b(__m(?:64|128|256|512)[dhi]?\b|"
    r"_mm(?:256|512)?_[a-z0-9_]+|"
    r"(?:float|poly|int|uint)(?:8|16|32|64)x(?:1|2|4|8|16)(?:x[2-4])?_t\b|"
    r"v[a-z][a-z0-9]*q_[fsu](?:8|16|32|64)\b)")


def path_is_simd_home(path: str) -> bool:
    return path.startswith(SIMD_HOME + "/")


def textual_intrinsics(path: str, code: str, findings: list[Finding]):
    """Vector intrinsics are confined to src/core/simd/ so every other layer
    goes through the dispatched simd::Ops table (one scalar reference, one
    bit-exactness test surface, one place the determinism contract lives).
    Textual in BOTH frontends: intrinsics typically hide behind #if blocks
    the AST never enters."""
    if path_is_simd_home(path):
        return
    for m in INTRIN_INCLUDE_RE.finditer(code):
        findings.append(Finding(
            RULE_INTRINSICS, path, line_of(code, m.start()),
            f"#include <{m.group(1)}> outside {SIMD_HOME}; add a microkernel "
            "to the simd::Ops table instead of open-coding intrinsics"))
    for m in INTRIN_TOKEN_RE.finditer(code):
        findings.append(Finding(
            RULE_INTRINSICS, path, line_of(code, m.start()),
            f"vector intrinsic token `{m.group(1)}` outside {SIMD_HOME}; "
            "route through the dispatched simd::Ops table"))


# libm functions with a bit-exact port in src/core/simd/scalar_ref.hpp. A
# call anywhere else would tie results (and every golden) to the host's libm.
PINNED_LIBM_FUNCS = ("tanh", "exp")
# `std::tanh` in any use, or an unqualified / `::`-qualified call `tanh(`,
# each with the C float/long double suffixes (likewise exp). `x.tanh(` and
# `p->exp(` are member calls, not libm; `expm1`, `exp2` and `exp_f32` are
# other names.
_PINNED_LIBM_NAME = "(?:" + "|".join(PINNED_LIBM_FUNCS) + ")[fl]?"
PINNED_LIBM_RE = re.compile(
    rf"\bstd\s*::\s*({_PINNED_LIBM_NAME})\b|"
    rf"(?<![\w.>])({_PINNED_LIBM_NAME})\s*\(")


def textual_pinned_libm(path: str, code: str, findings: list[Finding]):
    """The simd tier carries bit-exact ports of these libm functions, so
    results do not depend on which libm the host links. Textual in both
    frontends, like intrinsics-outside-simd."""
    if path_is_simd_home(path):
        return
    for m in PINNED_LIBM_RE.finditer(code):
        name = m.group(1) or m.group(2)
        findings.append(Finding(
            RULE_PINNED_LIBM, path, line_of(code, m.start()),
            f"libm `{name}` outside {SIMD_HOME}; its bits depend on the "
            "host's libm — call the simd::Ops primitive built on the pinned "
            "port in scalar_ref.hpp"))


# ---- repo-hygiene rules (textual) ------------------------------------------

# Curated std symbol -> required include map for core-iwyu.
CORE_IWYU = {
    "std::array": "<array>",
    "std::atomic": "<atomic>",
    "std::condition_variable": "<condition_variable>",
    "std::deque": "<deque>",
    "std::exception_ptr": "<exception>",
    "std::function": "<functional>",
    "std::initializer_list": "<initializer_list>",
    "std::int64_t": "<cstdint>",
    "std::uint64_t": "<cstdint>",
    "std::uint32_t": "<cstdint>",
    "std::uint16_t": "<cstdint>",
    "std::uintptr_t": "<cstdint>",
    "std::size_t": "<cstddef>",
    "std::memcpy": "<cstring>",
    "std::mutex": "<mutex>",
    "std::ostringstream": "<sstream>",
    "std::runtime_error": "<stdexcept>",
    "std::shared_ptr": "<memory>",
    "std::span": "<span>",
    "std::string": "<string>",
    "std::thread": "<thread>",
    "std::unique_ptr": "<memory>",
    "std::vector": "<vector>",
}

CHECK_MACROS = ("ORBIT2_REQUIRE", "ORBIT2_CHECK", "ORBIT2_DCHECK")

# Side effects inside a condition: ++/--, compound assignment, or plain
# assignment (an `=` not part of ==, !=, <=, >=).
SIDE_EFFECT_RE = re.compile(
    r"(\+\+|--|"
    r"[+\-*/%&|^]=|<<=|>>=|"
    r"(?<![=!<>+\-*/%&|^=])=(?![=]))")


def textual_pragma_once(path: str, code: str, findings: list[Finding]):
    for line_no, line in enumerate(code.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped != "#pragma once":
            findings.append(Finding(
                RULE_PRAGMA_ONCE, path, line_no,
                "first non-comment line must be `#pragma once`"))
        return
    findings.append(Finding(RULE_PRAGMA_ONCE, path, 1,
                            "header has no `#pragma once`"))


def textual_raw_new(path: str, code: str, findings: list[Finding]):
    for m in re.finditer(r"\bnew\b", code):
        # `operator new` defines an allocation function (the debug_check
        # alloc-counting hooks) and `#include <new>` names the header;
        # neither is a raw new *expression*.
        prefix = code[:m.start()].rstrip()
        if prefix.endswith("operator") or prefix.endswith("<"):
            continue
        findings.append(Finding(
            RULE_RAW_NEW, path, line_of(code, m.start()),
            "raw `new` — use std::make_unique/make_shared or a container"))
    for m in re.finditer(r"\bdelete\b", code):
        # `= delete` declarations and `operator delete` definitions are
        # idiomatic and allowed.
        prefix = code[:m.start()].rstrip()
        if prefix.endswith("=") or prefix.endswith("operator"):
            continue
        findings.append(Finding(
            RULE_RAW_NEW, path, line_of(code, m.start()),
            "raw `delete` — ownership must be RAII-managed"))


def first_macro_argument(code: str, open_paren: int) -> tuple[str, int]:
    """(first argument text, its offset) for the call opening at
    `open_paren`."""
    depth = 0
    begin = open_paren + 1
    for i in range(open_paren, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return code[begin:i], begin
        elif c == "," and depth == 1:
            return code[begin:i], begin
    return code[begin:], begin


def textual_require_pure(path: str, code: str, findings: list[Finding]):
    """The check macros evaluate their condition once (core/error.hpp), but
    a side-effecting condition reads as load-bearing and breaks under builds
    that compile checks out."""
    for macro in CHECK_MACROS:
        for m in re.finditer(rf"\b{macro}\s*\(", code):
            arg, begin = first_macro_argument(code, m.end() - 1)
            effect = SIDE_EFFECT_RE.search(arg)
            if effect:
                findings.append(Finding(
                    RULE_REQUIRE_PURE, path,
                    line_of(code, begin + effect.start()),
                    f"{macro} condition contains a side effect "
                    f"(`{effect.group(0)}`); hoist it out of the check"))


def textual_core_iwyu(path: str, text: str, code: str,
                      findings: list[Finding]):
    includes = set(re.findall(r"#include\s+(<[^>]+>)", text))
    for symbol, header in CORE_IWYU.items():
        m = re.search(re.escape(symbol) + r"\b", code)
        if m and header not in includes:
            findings.append(Finding(
                RULE_CORE_IWYU, path, line_of(code, m.start()),
                f"uses {symbol} but does not include {header}"))


def textual_hygiene(path: str, text: str, code: str, findings: list[Finding],
                    anywhere: bool):
    """The repo-hygiene rules, each over its own scope; `anywhere` (fixture
    mode) drops the directory part of each scope."""
    if path.endswith(HEADER_SUFFIXES):
        textual_pragma_once(path, code, findings)
    if anywhere or path.startswith("src/"):
        textual_raw_new(path, code, findings)
    textual_require_pure(path, code, findings)
    if path.endswith(".hpp") and (
            anywhere or path.rpartition("/")[0] in IWYU_DIRS):
        textual_core_iwyu(path, text, code, findings)


def analyze_file_tokens(path: str, text: str) -> list[Finding]:
    code = strip_comments_and_strings(text)
    findings: list[Finding] = []
    tokens_float_accumulator(path, code, findings)
    textual_threading_includes(path, code, findings)
    textual_intrinsics(path, code, findings)
    textual_pinned_libm(path, code, findings)
    tokens_threading(path, code, findings)
    tokens_unordered_iteration(path, text, code, findings)
    tokens_nondeterminism(path, code, findings)
    textual_chrono_seed(path, code, findings)
    return findings


# ---------------------------------------------------------------------------
# Clang JSON-AST frontend
# ---------------------------------------------------------------------------

CLANG_CANDIDATES = (
    "clang++", "clang++-20", "clang++-19", "clang++-18", "clang++-17",
    "clang++-16", "clang++-15", "clang++-14", "clang++-13", "clang++-12",
    "clang++-11", "clang++-10",
)


def find_clang() -> str | None:
    for name in CLANG_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


# -m* (target feature) and -ffp-contract flags are kept so the clang
# frontend can parse the src/core/simd/ vector TUs under the same target
# features they build with.
KEEP_FLAG_RE = re.compile(
    r"^(-I|-isystem|-D|-U|-std=|-include|-m|-ffp-contract)")


def clang_args_from_entry(entry: dict) -> list[str]:
    if "arguments" in entry:
        raw = list(entry["arguments"])
    else:
        raw = shlex.split(entry.get("command", ""))
    kept: list[str] = []
    i = 1  # skip compiler
    while i < len(raw):
        arg = raw[i]
        if arg in ("-I", "-isystem", "-D", "-U", "-include"):
            if i + 1 < len(raw):
                kept += [arg, raw[i + 1]]
            i += 2
            continue
        if KEEP_FLAG_RE.match(arg):
            kept.append(arg)
        i += 1
    if not any(a.startswith("-std=") for a in kept):
        kept.append("-std=c++20")
    return kept


def run_clang_ast(clang: str, args: list[str], source: str,
                  cwd: str | None) -> dict | None:
    cmd = [clang, "-fsyntax-only", "-w", "-Xclang", "-ast-dump=json",
           *args, source]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                              timeout=300)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if not proc.stdout:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


class AstWalker:
    """Walks a clang JSON AST in serialization order, replaying the dump's
    differential source-location encoding, and applies the AST-level rules.

    Findings are attributed to repo-relative paths; nodes located in files
    outside `accept` (e.g. system headers) update location state but emit
    nothing.
    """

    LOOP_KINDS = frozenset(
        {"ForStmt", "WhileStmt", "DoStmt", "CXXForRangeStmt"})

    def __init__(self, accept: dict[str, str], file_texts: dict[str, str]):
        # accept: absolute real path -> repo-relative posix path
        self.accept = accept
        self.file_texts = file_texts
        self.cur_file: str | None = None
        self.cur_line: int = 0
        self.loop_stack: list[str] = []
        self.decl_frames: dict[str, tuple[str, ...]] = {}
        self.decl_types: dict[str, str] = {}
        self.findings: list[Finding] = []

    # -- location replay ----------------------------------------------------

    def _apply_loc(self, loc) -> None:
        if not isinstance(loc, dict):
            return
        if "spellingLoc" in loc or "expansionLoc" in loc:
            self._apply_loc(loc.get("spellingLoc"))
            self._apply_loc(loc.get("expansionLoc"))
            return
        if "file" in loc:
            self.cur_file = loc["file"]
        if "line" in loc:
            self.cur_line = loc["line"]

    def _here(self) -> tuple[str | None, int]:
        if self.cur_file is None:
            return None, self.cur_line
        try:
            real = os.path.realpath(self.cur_file)
        except OSError:
            return None, self.cur_line
        return self.accept.get(real), self.cur_line

    def _emit(self, rule: str, message: str, where=None) -> None:
        path, line = where if where is not None else self._here()
        if path is not None:
            self.findings.append(Finding(rule, path, line, message))

    # -- traversal ----------------------------------------------------------

    def walk(self, node) -> None:
        if not isinstance(node, dict) or not node.get("kind"):
            return
        self._apply_loc(node.get("loc"))
        here = self._here()
        rng = node.get("range")
        if isinstance(rng, dict):
            self._apply_loc(rng.get("begin"))
            begin_here = self._here()
            self._apply_loc(rng.get("end"))
            end_line = self.cur_line
        else:
            begin_here = here
            end_line = here[1]
        if node.get("loc") is None:
            here = begin_here

        kind = node["kind"]
        self._visit(node, kind, here, begin_here, end_line)

        if kind in self.LOOP_KINDS:
            self.loop_stack.append(node.get("id", f"loop@{id(node)}"))
            for child in node.get("inner", ()):
                self.walk(child)
            self.loop_stack.pop()
        else:
            for child in node.get("inner", ()):
                self.walk(child)

    # -- rule hooks ---------------------------------------------------------

    def _visit(self, node, kind, here, begin_here, end_line) -> None:
        if kind in ("VarDecl", "ParmVarDecl", "FieldDecl"):
            nid = node.get("id")
            qual = node.get("type", {}).get("qualType", "")
            if nid:
                self.decl_frames[nid] = tuple(self.loop_stack)
                self.decl_types[nid] = qual
            self._check_threading_type(qual, here)
            if "random_device" in qual:
                self._emit(RULE_NONDET,
                           "std::random_device is entropy-seeded; runs "
                           "become irreproducible", here)
        elif kind in ("CXXConstructExpr", "CXXTemporaryObjectExpr"):
            qual = node.get("type", {}).get("qualType", "")
            if "random_device" in qual:
                self._emit(RULE_NONDET,
                           "std::random_device is entropy-seeded; runs "
                           "become irreproducible", here)
        elif kind == "CompoundAssignOperator":
            if node.get("opcode") in ("+=", "-="):
                self._check_float_accumulator(node, here, node.get("opcode"))
        elif kind == "BinaryOperator":
            if node.get("opcode") == "=":
                self._check_self_assign(node, here)
        elif kind == "DeclRefExpr":
            ref = node.get("referencedDecl", {})
            if (ref.get("kind") == "FunctionDecl" and
                    ref.get("name") in ("rand", "srand", "time")):
                msg = {
                    "rand": "std::rand is a nondeterministic/global-state "
                            "RNG; use the seeded orbit2 Rng",
                    "srand": "srand seeds global RNG state; use the seeded "
                             "orbit2 Rng",
                    "time": "wall-clock seed; runs become irreproducible",
                }[ref["name"]]
                self._emit(RULE_NONDET, msg, here)
        elif kind in ("CXXReinterpretCastExpr", "CStyleCastExpr"):
            if node.get("castKind") == "PointerToIntegral":
                self._emit(RULE_NONDET,
                           "pointer-to-integer cast (address-as-key): "
                           "addresses vary run to run", here)
        elif kind == "CXXForRangeStmt":
            self._check_unordered_range(node, here)

    def _check_threading_type(self, qual: str, here) -> None:
        path = here[0]
        if path is None or path_is_threading_home(path):
            return
        m = THREADING_TYPE_RE.search(qual)
        if m:
            self._emit(RULE_THREADING,
                       f"std::{m.group(1)} outside {THREADING_HOME}; route "
                       "parallelism through kernels::parallel_for/"
                       "parallel_reduce", here)
        elif re.search(r"\bThreadPool\b", qual):
            self._emit(RULE_THREADING,
                       f"private ThreadPool outside {THREADING_HOME}; use "
                       "the shared kernel-layer pool", here)

    @staticmethod
    def _unwrap(node):
        while isinstance(node, dict) and node.get("kind") in (
                "ImplicitCastExpr", "ParenExpr"):
            inner = node.get("inner", ())
            if not inner:
                return node
            node = inner[0]
        return node

    def _float_lhs_decl(self, node) -> str | None:
        """DeclRefExpr id if LHS is a non-const float scalar variable."""
        inner = node.get("inner", ())
        if not inner:
            return None
        lhs = self._unwrap(inner[0])
        if not isinstance(lhs, dict) or lhs.get("kind") != "DeclRefExpr":
            return None
        ref = lhs.get("referencedDecl", {})
        if ref.get("kind") not in ("VarDecl", "ParmVarDecl"):
            return None
        qual = ref.get("type", {}).get("qualType", "")
        if qual != "float":
            return None
        return ref.get("id")

    def _loop_carried(self, decl_id: str | None) -> bool:
        if decl_id is None or not self.loop_stack:
            return False
        frames = self.decl_frames.get(decl_id)
        if frames is None:
            return False  # decl never seen (e.g. extern): stay conservative
        stack = tuple(self.loop_stack)
        return len(frames) < len(stack) and stack[:len(frames)] == frames

    def _check_float_accumulator(self, node, here, op) -> None:
        decl_id = self._float_lhs_decl(node)
        if self._loop_carried(decl_id):
            self._emit(RULE_FLOAT_ACC,
                       f"loop-carried float accumulator (`{op}` in loop "
                       "body); accumulate in double and narrow once", here)

    def _check_self_assign(self, node, here) -> None:
        decl_id = self._float_lhs_decl(node)
        if decl_id is None or not self._loop_carried(decl_id):
            return
        inner = node.get("inner", ())
        if len(inner) < 2:
            return
        rhs = self._unwrap(inner[1])
        if not isinstance(rhs, dict) or rhs.get("kind") != "BinaryOperator":
            return
        if rhs.get("opcode") not in ("+", "-"):
            return
        rhs_inner = rhs.get("inner", ())
        if not rhs_inner:
            return
        first = self._unwrap(rhs_inner[0])
        if (isinstance(first, dict) and first.get("kind") == "DeclRefExpr" and
                first.get("referencedDecl", {}).get("id") == decl_id):
            self._emit(RULE_FLOAT_ACC,
                       "loop-carried float accumulator (`x = x + ...` in "
                       "loop body); accumulate in double and narrow once",
                       here)

    def _subtree_has_unordered(self, node, depth=0) -> bool:
        if not isinstance(node, dict) or depth > 12:
            return False
        qual = node.get("type", {}).get("qualType", "")
        if "unordered_map" in qual or "unordered_set" in qual:
            return True
        return any(self._subtree_has_unordered(c, depth + 1)
                   for c in node.get("inner", ()))

    def _check_unordered_range(self, node, here) -> None:
        path, line = here
        if path is None:
            return
        inner = list(node.get("inner", ()))
        if not inner:
            return
        body = inner[-1]
        head = inner[:-1]
        if not any(self._subtree_has_unordered(c) for c in head):
            return
        text = self.file_texts.get(path)
        if text is None:
            return
        code = strip_comments_and_strings(text)
        file_sensitive = ORDER_SENSITIVE_RE.search(code) is not None
        accumulates = False
        brange = body.get("range") if isinstance(body, dict) else None
        if isinstance(brange, dict):
            b0 = brange.get("begin", {}).get("line", line)
            b1 = brange.get("end", {}).get("line", b0)
            lines = text.splitlines()
            snippet = "\n".join(lines[max(0, b0 - 1):b1])
            accumulates = "+=" in snippet
        if file_sensitive or accumulates:
            why = ("file writes files/hashes" if file_sensitive
                   else "loop body accumulates")
            self._emit(RULE_UNORDERED,
                       "range-for over unordered container in "
                       f"order-sensitive context ({why}); iterate a sorted "
                       "view or justify order-independence", here)


def analyze_clang(clang: str, tus: list[tuple[str, list[str], str | None]],
                  accept: dict[str, str], file_texts: dict[str, str],
                  warn) -> tuple[list[Finding], list[str]]:
    """tus: (abs source, clang args, cwd). Returns (findings, failed TUs)."""
    findings: list[Finding] = []
    failed: list[str] = []
    for source, args, cwd in tus:
        ast = run_clang_ast(clang, args, source, cwd)
        if ast is None:
            failed.append(source)
            warn(f"clang frontend failed on {source}; "
                 "falling back to token frontend for this TU")
            continue
        walker = AstWalker(accept, file_texts)
        walker.walk(ast)
        findings.extend(walker.findings)
    return findings, failed


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def load_suppressions(path: pathlib.Path) -> list[Suppression]:
    suppressions: list[Suppression] = []
    for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "--" not in line:
            raise SystemExit(
                f"{path}:{lineno}: suppression missing `-- justification` "
                "(justifications are mandatory)")
        head, _, justification = line.partition("--")
        justification = justification.strip()
        if not justification:
            raise SystemExit(
                f"{path}:{lineno}: empty justification (justifications are "
                "mandatory)")
        parts = head.split()
        if len(parts) != 2:
            raise SystemExit(
                f"{path}:{lineno}: expected `<rule> <path>[:<line>] -- "
                "<justification>`")
        rule, target = parts
        if rule not in ALL_RULES:
            raise SystemExit(
                f"{path}:{lineno}: unknown rule '{rule}' "
                f"(known: {', '.join(ALL_RULES)})")
        line_no: int | None = None
        if re.search(r":\d+$", target):
            target, _, num = target.rpartition(":")
            line_no = int(num)
        suppressions.append(
            Suppression(rule, target, line_no, justification, lineno))
    return suppressions


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def repo_files(root: pathlib.Path, explicit: list[str]) -> list[pathlib.Path]:
    if explicit:
        files = [pathlib.Path(f).resolve() for f in explicit]
        for f in files:
            if not f.is_file():
                raise SystemExit(f"orbit2_analyze: no such file: {f}")
        return files
    if not (root / "src").is_dir():
        raise SystemExit(f"orbit2_analyze: {root} has no src/ — wrong --root?")
    return sorted(p for top in SOURCE_DIRS for p in (root / top).rglob("*")
                  if p.suffix in CXX_SUFFIXES)


def load_compile_commands(build_dir: pathlib.Path):
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        return None
    try:
        return json.loads(db_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir containing compile_commands.json "
                             "(clang frontend)")
    parser.add_argument("--frontend", choices=("auto", "clang", "tokens"),
                        default="auto")
    parser.add_argument("--suppressions", default=None,
                        help="suppression file (default: "
                             "tools/orbit2_analyze_suppressions.txt under "
                             "--root; 'none' disables)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write all findings (incl. suppressed) as JSON")
    parser.add_argument("--show-suppressed", action="store_true")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="run the embedded frontend self-tests and exit")
    parser.add_argument("files", nargs="*",
                        help="analyze only these files (fixture mode); "
                             "default: every C++ file under <root>/{"
                             + ",".join(SOURCE_DIRS) + "}")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0
    if args.selftest:
        return run_selftest()

    root = pathlib.Path(args.root).resolve()
    warn = lambda msg: print(f"orbit2_analyze: warning: {msg}",  # noqa: E731
                             file=sys.stderr)

    files = repo_files(root, args.files)
    rel_of: dict[str, str] = {}
    file_texts: dict[str, str] = {}
    for f in files:
        real = os.path.realpath(f)
        try:
            rel = f.relative_to(root).as_posix()
        except ValueError:
            rel = f.name  # fixture outside root: bare name
        rel_of[real] = rel
        file_texts[rel] = f.read_text(encoding="utf-8")

    clang = find_clang()
    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if clang else "tokens"
    if frontend == "clang" and not clang:
        print("orbit2_analyze: --frontend clang but no clang++ found",
              file=sys.stderr)
        return 2
    print(f"orbit2_analyze: frontend={frontend}", file=sys.stderr)

    findings: list[Finding] = []
    for rel, text in file_texts.items():
        textual_hygiene(rel, text, strip_comments_and_strings(text), findings,
                        anywhere=bool(args.files))
    # The determinism rules: every explicit file, else src/ only.
    token_files = [f for f in files
                   if args.files or rel_of[os.path.realpath(f)].startswith(
                       "src/")]

    if frontend == "clang":
        tus: list[tuple[str, list[str], str | None]] = []
        if args.files:
            tus = [(os.path.realpath(f), ["-std=c++20"], None)
                   for f in files if f.suffix == ".cpp"]
        else:
            db = load_compile_commands(
                pathlib.Path(args.build_dir) if args.build_dir else root)
            if db is None:
                print("orbit2_analyze: clang frontend needs "
                      "compile_commands.json (pass -p <build-dir>; configure "
                      "with CMAKE_EXPORT_COMPILE_COMMANDS=ON)",
                      file=sys.stderr)
                return 2
            src_prefix = os.path.realpath(root / "src") + os.sep
            for entry in db:
                src = os.path.realpath(
                    os.path.join(entry.get("directory", "."), entry["file"]))
                if src.startswith(src_prefix):
                    tus.append((src, clang_args_from_entry(entry),
                                entry.get("directory")))
        clang_findings, failed = analyze_clang(
            clang, tus, rel_of, file_texts, warn)
        findings.extend(clang_findings)
        # Textual sub-rules still run over every file in scope; full token
        # analysis only for TUs clang could not parse.
        failed_reals = {os.path.realpath(f) for f in failed}
        for f in token_files:
            rel = rel_of[os.path.realpath(f)]
            text = file_texts[rel]
            code = strip_comments_and_strings(text)
            if os.path.realpath(f) in failed_reals:
                findings.extend(analyze_file_tokens(rel, text))
            else:
                textual_threading_includes(rel, code, findings)
                textual_intrinsics(rel, code, findings)
                textual_pinned_libm(rel, code, findings)
                textual_chrono_seed(rel, code, findings)
        token_files = []

    for f in token_files:
        rel = rel_of[os.path.realpath(f)]
        findings.extend(analyze_file_tokens(rel, file_texts[rel]))

    # Dedupe (clang attributes header findings once per including TU).
    unique: dict[tuple, Finding] = {}
    for finding in findings:
        unique.setdefault(finding.key(), finding)
    findings = sorted(unique.values(), key=Finding.key)

    # Suppressions.
    if args.suppressions == "none":
        suppressions: list[Suppression] = []
    else:
        supp_path = (pathlib.Path(args.suppressions) if args.suppressions
                     else root / "tools" / "orbit2_analyze_suppressions.txt")
        suppressions = (load_suppressions(supp_path)
                        if supp_path.is_file() else [])

    unsuppressed: list[Finding] = []
    suppressed: list[tuple[Finding, Suppression]] = []
    for finding in findings:
        hit = next((s for s in suppressions if s.matches(finding)), None)
        if hit is not None:
            hit.used = True
            suppressed.append((finding, hit))
        else:
            unsuppressed.append(finding)

    for finding in unsuppressed:
        print(f"{finding.path}:{finding.line}: {finding.rule}: "
              f"{finding.message}")
    if args.show_suppressed:
        for finding, supp in suppressed:
            print(f"{finding.path}:{finding.line}: {finding.rule}: "
                  f"[suppressed: {supp.justification}]")
    for supp in suppressions:
        if not supp.used:
            warn(f"unused suppression (line {supp.source_line}): "
                 f"{supp.rule} {supp.path}"
                 f"{':' + str(supp.line) if supp.line else ''}")

    if args.json_out:
        payload = {
            "frontend": frontend,
            "findings": [
                {"rule": f.rule, "path": f.path, "line": f.line,
                 "message": f.message,
                 "suppressed": any(s.matches(f) for s in suppressions)}
                for f in findings],
        }
        pathlib.Path(args.json_out).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(f"orbit2_analyze: {len(unsuppressed)} unsuppressed finding(s), "
          f"{len(suppressed)} suppressed", file=sys.stderr)
    return 1 if unsuppressed else 0


# ---------------------------------------------------------------------------
# Embedded self-tests (cover the clang AST walker without a clang install)
# ---------------------------------------------------------------------------

SELFTEST_TOKEN_CASES = [
    # (name, source, expected [(rule, line)])
    ("float_acc_bad", """\
float narrow_sum(const float* xs, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    acc += xs[i];
  }
  return acc;
}
""", [(RULE_FLOAT_ACC, 4)]),
    ("float_acc_good_double", """\
float stable_sum(const float* xs, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += xs[i];
  return static_cast<float>(acc);
}
""", []),
    ("float_acc_good_reinit", """\
void per_iter(float* ys, const float* xs, int n) {
  for (int i = 0; i < n; ++i) {
    float s = 0.0f;
    s += xs[i];
    ys[i] = s;
  }
}
""", []),
    ("float_acc_self_assign", """\
float f(const float* xs, int n) {
  float total = 0.0f;
  int i = 0;
  while (i < n) {
    total = total + xs[i];
    ++i;
  }
  return total;
}
""", [(RULE_FLOAT_ACC, 5)]),
    ("threading_bad", """\
#include <thread>
void worker() {
  std::mutex m;
}
""", [(RULE_THREADING, 1), (RULE_THREADING, 3)]),
    ("unordered_bad", """\
#include <cstdio>
#include <unordered_map>
void dump(const std::unordered_map<int, float>& table, void* out) {
  for (const auto& kv : table) {
    std::fprintf((std::FILE*)out, "%d\\n", kv.first);
  }
}
""", [(RULE_UNORDERED, 4)]),
    ("unordered_good_membership", """\
#include <unordered_map>
bool has(const std::unordered_map<int, float>& m, int k) {
  return m.find(k) != m.end();
}
""", []),
    ("nondet_bad", """\
#include <cstdlib>
int roll() { return std::rand() % 6; }
""", [(RULE_NONDET, 2)]),
    ("intrinsics_bad", """\
#include <immintrin.h>
float first_lane(const float* p) {
  __m256 v = load8(p);
  return lane0(v);
}
""", [(RULE_INTRINSICS, 1), (RULE_INTRINSICS, 3)]),
    ("intrinsics_bad_neon", """\
#include <arm_neon.h>
void twice(float* p) {
  float32x4_t v = vld1q_f32(p);
  vst1q_f32(p, vaddq_f32(v, v));
}
""", [(RULE_INTRINSICS, 1), (RULE_INTRINSICS, 3), (RULE_INTRINSICS, 4)]),
    ("intrinsics_good_dispatch", """\
namespace simd { struct Ops { void (*scale_f32)(float*, float, long); }; }
const simd::Ops& ops();
void scale(float* y, float a, long n) { ops().scale_f32(y, a, n); }
""", []),
    ("pinned_libm_bad", """\
#include <cmath>
float a(float x) { return std::tanh(x); }
float b(float x) { return tanhf(x); }
float c(double x) { return ::tanh(x); }
float d(float x) { return std::exp(x); }
float e(float x) { return expf(x); }
""", [(RULE_PINNED_LIBM, 2), (RULE_PINNED_LIBM, 3), (RULE_PINNED_LIBM, 4),
      (RULE_PINNED_LIBM, 5), (RULE_PINNED_LIBM, 6)]),
    ("pinned_libm_good", """\
float tanh_ref(float x);
float exp_ref(float x);
float a(float x) { return tanh_ref(x) + exp_ref(x); }  // not std::exp(x)
float b(float x) { return std::expm1(x) + std::exp2(x); }
""", []),
]

# A hand-written clang-style JSON AST for:
#   1 float g(const float* xs, int n) {
#   2   float acc = 0.0f;
#   3   for (int i = 0; i < n; ++i) {
#   4     acc += xs[i];
#   5   }
#   6   return acc;
#   7 }
# including the differential location encoding (later locs omit `file`, and
# omit `line` when unchanged).
SELFTEST_AST = {
    "id": "0x1", "kind": "TranslationUnitDecl", "loc": {}, "range": {},
    "inner": [{
        "id": "0x2", "kind": "FunctionDecl",
        "loc": {"offset": 6, "file": "selftest.cpp", "line": 1, "col": 7},
        "range": {"begin": {"offset": 0, "col": 1},
                  "end": {"offset": 120, "line": 7, "col": 1}},
        "name": "g", "type": {"qualType": "float (const float *, int)"},
        "inner": [
            {"id": "0x3", "kind": "ParmVarDecl",
             "loc": {"line": 1, "col": 21},
             "range": {"begin": {"col": 8}, "end": {"col": 21}},
             "name": "xs", "type": {"qualType": "const float *"}},
            {"id": "0x4", "kind": "ParmVarDecl",
             "loc": {"col": 29},
             "range": {"begin": {"col": 25}, "end": {"col": 29}},
             "name": "n", "type": {"qualType": "int"}},
            {"kind": "CompoundStmt",
             "range": {"begin": {"col": 32}, "end": {"line": 7, "col": 1}},
             "inner": [
                 {"kind": "DeclStmt",
                  "range": {"begin": {"line": 2, "col": 3},
                            "end": {"col": 19}},
                  "inner": [
                      {"id": "0x5", "kind": "VarDecl",
                       "loc": {"col": 9},
                       "range": {"begin": {"col": 3}, "end": {"col": 15}},
                       "name": "acc", "type": {"qualType": "float"},
                       "init": "c",
                       "inner": [{"kind": "FloatingLiteral",
                                  "range": {"begin": {"col": 15},
                                            "end": {"col": 15}},
                                  "type": {"qualType": "float"},
                                  "value": "0"}]}]},
                 {"kind": "ForStmt",
                  "range": {"begin": {"line": 3, "col": 3},
                            "end": {"line": 5, "col": 3}},
                  "inner": [
                      {"kind": "DeclStmt",
                       "range": {"begin": {"line": 3, "col": 8},
                                 "end": {"col": 17}},
                       "inner": [{"id": "0x6", "kind": "VarDecl",
                                  "loc": {"col": 12},
                                  "range": {"begin": {"col": 8},
                                            "end": {"col": 16}},
                                  "name": "i", "type": {"qualType": "int"}}]},
                      {}, {},
                      {"kind": "UnaryOperator",
                       "range": {"begin": {"col": 28}, "end": {"col": 30}},
                       "opcode": "++",
                       "inner": [{"kind": "DeclRefExpr",
                                  "range": {"begin": {"col": 30},
                                            "end": {"col": 30}},
                                  "type": {"qualType": "int"},
                                  "referencedDecl": {
                                      "id": "0x6", "kind": "VarDecl",
                                      "name": "i",
                                      "type": {"qualType": "int"}}}]},
                      {"kind": "CompoundStmt",
                       "range": {"begin": {"col": 33},
                                 "end": {"line": 5, "col": 3}},
                       "inner": [
                           {"kind": "CompoundAssignOperator",
                            "range": {"begin": {"line": 4, "col": 5},
                                      "end": {"col": 15}},
                            "type": {"qualType": "float"}, "opcode": "+=",
                            "inner": [
                                {"kind": "DeclRefExpr",
                                 "range": {"begin": {"col": 5},
                                           "end": {"col": 5}},
                                 "type": {"qualType": "float"},
                                 "referencedDecl": {
                                     "id": "0x5", "kind": "VarDecl",
                                     "name": "acc",
                                     "type": {"qualType": "float"}}},
                                {"kind": "ArraySubscriptExpr",
                                 "range": {"begin": {"col": 12},
                                           "end": {"col": 15}},
                                 "type": {"qualType": "const float"},
                                 "inner": []}]}]}]},
                 {"kind": "ReturnStmt",
                  "range": {"begin": {"line": 6, "col": 3},
                            "end": {"col": 10}},
                  "inner": [{"kind": "DeclRefExpr",
                             "range": {"begin": {"col": 10},
                                       "end": {"col": 10}},
                             "type": {"qualType": "float"},
                             "referencedDecl": {"id": "0x5",
                                                "kind": "VarDecl",
                                                "name": "acc",
                                                "type": {
                                                    "qualType": "float"}}}]}]
             }]}]}


def run_selftest() -> int:
    failures = 0
    for name, source, expected in SELFTEST_TOKEN_CASES:
        got = sorted({(f.rule, f.line)
                      for f in analyze_file_tokens(name + ".cpp", source)})
        want = sorted(set(expected))
        if got != want:
            print(f"selftest[tokens/{name}]: got {got}, want {want}",
                  file=sys.stderr)
            failures += 1

    # Clang walker over the canned AST: selftest.cpp is "in the repo".
    accept = {os.path.realpath("selftest.cpp"): "selftest.cpp"}
    walker = AstWalker(accept, {"selftest.cpp": ""})
    walker.walk(SELFTEST_AST)
    got = sorted({(f.rule, f.line) for f in walker.findings})
    want = [(RULE_FLOAT_ACC, 4)]
    if got != want:
        print(f"selftest[clang/canned-ast]: got {got}, want {want}",
              file=sys.stderr)
        failures += 1

    if failures:
        print(f"orbit2_analyze selftest: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print("orbit2_analyze selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
