#!/usr/bin/env python3
"""MathCtx-bypass lint: no raw floating-point arithmetic in kernel bodies.

Every simulated kernel must route its floating-point work through MathCtx
(per-op counted/injectable calls, or the fenced span helpers / canonical()
for bit-identical fast paths). A raw `+`/`-`/`*`/`/` or std::fma over element
values inside a kernel body silently under-reports the perf counters and --
worse -- escapes the fault-injection surface the paper's results depend on.

Engine: if clang-query is on PATH it is tried first as a cross-check; its
absence or failure falls back to (and never weakens) the regex AST-lite pass
below, which is the authoritative gate:

  1. kernel bodies are the lambda bodies with a BlockCtx parameter inside
     `.launch(` / `.launch_async(` call spans;
  2. comments and string literals are blanked (line structure preserved);
  3. every binary arithmetic operator in a body is flagged when either
     operand carries *double evidence* -- declared double / double* /
     std::vector<double> / SharedArray<double> in the file, a floating
     literal, or a `.max_value()` chain;
  4. index arithmetic is allowed: operators inside `[...]` subscripts,
     operands ending in `.data()` (pointer arithmetic), integer
     static_cast<...>(...) spans, and `math.canonical(...)` spans (the
     documented fast-path idiom);
  5. `std::fma(`/`std::fmaf(` in a body is always flagged;
  6. a line containing `aabft-lint: allow` is exempt (use for counted
     bound/compare arithmetic that is deliberately outside MathCtx).

Exit status: 0 clean, 1 findings, 2 internal error.
`--self-test` additionally requires the seeded fixture under
tests/lint_fixtures/ to FAIL the lint (guarding the lint itself).
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

LAUNCH_RE = re.compile(r"\.launch(?:_async)?\s*\(")
LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*\(\s*(?:[\w:]+::)?BlockCtx\s*&\s*\w*\s*\)\s*"
    r"(?:mutable\s*)?(?:noexcept\s*)?\{"
)
ALLOW_MARK = "aabft-lint: allow"
FLOAT_LIT_RE = re.compile(r"^\d+\.\d*(?:[eE][-+]?\d+)?$|^\d+[eE][-+]?\d+$|^\d*\.\d+$")
DOUBLE_DECL_RES = [
    re.compile(r"\bdouble\s*[&*]?\s*(\w+)"),
    re.compile(r"\bstd::vector<double>\s*[&*]?\s*(\w+)"),
    re.compile(r"\bSharedArray<double>\s+(\w+)"),
]
INT_CAST_RE = re.compile(
    r"\bstatic_cast<\s*(?:std::)?(?:u?int(?:8|16|32|64)?_t|int|long|unsigned"
    r"|size_t|ptrdiff_t)\s*>\s*\("
)
CANONICAL_RE = re.compile(r"\bmath\s*\.\s*canonical\s*\(")
STD_FMA_RE = re.compile(r"\bstd::fmaf?\s*\(")
ATOM_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:")


def blank_comments_and_strings(text: str) -> str:
    """Replace comments and string/char literals with spaces, keeping offsets
    and newlines so findings report real line numbers. Allow-marks inside
    comments are honoured before blanking (see scan_file)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            while i < n - 1 and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n - 1:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def balanced_span(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Index one past the matching close bracket, or len(text) if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def kernel_bodies(clean: str):
    """Yield (start, end) spans of BlockCtx lambda bodies inside launch calls."""
    for launch in LAUNCH_RE.finditer(clean):
        call_open = clean.index("(", launch.start())
        call_end = balanced_span(clean, call_open, "(", ")")
        lam = LAMBDA_RE.search(clean, call_open, call_end)
        if lam is None:
            continue
        body_open = lam.end() - 1
        yield body_open + 1, balanced_span(clean, body_open, "{", "}") - 1


def double_idents(clean: str) -> set[str]:
    names: set[str] = set()
    for decl_re in DOUBLE_DECL_RES:
        names.update(m.group(1) for m in decl_re.finditer(clean))
    return names


def exempt_spans(clean: str, start: int, end: int):
    """Spans inside the body where arithmetic is index/fast-path idiom."""
    spans = []
    for regex in (CANONICAL_RE, INT_CAST_RE):
        for m in regex.finditer(clean, start, end):
            open_pos = clean.index("(", m.end() - 1)
            spans.append((open_pos, balanced_span(clean, open_pos, "(", ")")))
    return spans


def left_atom(clean: str, pos: int) -> str:
    """Postfix-expression text ending just before `pos` (operand of a binary
    op), walking back over identifiers, member access and balanced )/]."""
    i = pos - 1
    while i >= 0 and clean[i].isspace():
        i -= 1
    end = i + 1
    while i >= 0:
        c = clean[i]
        if c in ")]":
            opener = "(" if c == ")" else "["
            depth = 0
            while i >= 0:
                if clean[i] == c:
                    depth += 1
                elif clean[i] == opener:
                    depth -= 1
                    if depth == 0:
                        break
                i -= 1
            i -= 1
        elif c in ATOM_CHARS:
            i -= 1
        elif c == ">" and i > 0 and clean[i - 1] == "-":
            i -= 2
        else:
            break
    return clean[i + 1 : end].strip()


def right_atom(clean: str, pos: int) -> str:
    """Postfix-expression text starting at/after `pos`."""
    i = pos
    n = len(clean)
    while i < n and clean[i].isspace():
        i += 1
    start = i
    while i < n:
        c = clean[i]
        if c in "([":
            i = balanced_span(clean, i, c, ")" if c == "(" else "]")
        elif c in ATOM_CHARS:
            i += 1
        elif c == "-" and i + 1 < n and clean[i + 1] == ">":
            i += 2
        else:
            break
    return clean[start:i].strip()


def is_double_atom(atom: str, doubles: set[str]) -> bool:
    if not atom:
        return False
    if ".max_value()" in atom:
        return True
    if atom.endswith(".data()"):
        return False  # pointer arithmetic over a tile/row base is index math
    if FLOAT_LIT_RE.match(atom):
        return True
    root = re.match(r"[A-Za-z_]\w*", atom)
    if root is None:
        return False
    name = root.group(0)
    if name not in doubles:
        return False
    # The bare variable or an element access of it (x, x[i]); method-call
    # chains on a double-typed name don't exist in this codebase.
    rest = atom[root.end():]
    return rest == "" or (rest.startswith("[") and rest.endswith("]"))


def scan_file(path: Path):
    """Return findings [(line, message)] for one source file."""
    text = path.read_text(encoding="utf-8")
    # A mark exempts its own line and the following one, so it can trail the
    # flagged expression or sit in a comment directly above it.
    allow_lines: set[int] = set()
    for i, line in enumerate(text.splitlines()):
        if ALLOW_MARK in line:
            allow_lines.update({i + 1, i + 2})
    clean = blank_comments_and_strings(text)
    doubles = double_idents(clean)
    findings = []

    def lineno(pos: int) -> int:
        return clean.count("\n", 0, pos) + 1

    for body_start, body_end in kernel_bodies(clean):
        exempt = exempt_spans(clean, body_start, body_end)

        def is_exempt(pos: int) -> bool:
            return any(lo <= pos < hi for lo, hi in exempt)

        for m in STD_FMA_RE.finditer(clean, body_start, body_end):
            line = lineno(m.start())
            if line not in allow_lines and not is_exempt(m.start()):
                findings.append(
                    (line, "raw std::fma in kernel body (use math.fma / "
                           "math.faulty_fma / math.accumulate_panel)")
                )

        depth = 0  # subscript depth: index arithmetic inside [...] is fine
        i = body_start
        while i < body_end:
            c = clean[i]
            if c == "[":
                depth += 1
            elif c == "]":
                depth = max(0, depth - 1)
            elif c in "+-*/" and depth == 0 and not is_exempt(i):
                prev = clean[i - 1]
                nxt = clean[i + 1] if i + 1 < len(clean) else ""
                # Binary only: previous non-space must end an operand; skip
                # ++/--/->/=-style and compound-assign second chars.
                j = i - 1
                while j >= body_start and clean[j].isspace():
                    j -= 1
                binary = j >= body_start and (clean[j].isalnum()
                                              or clean[j] in "_)]")
                if c in "+-" and (nxt == c or prev == c):  # ++ / -- halves
                    binary = False
                if c == "-" and nxt == ">":
                    binary = False
                if c == "*" and prev == "*":  # e.g. double** decl
                    binary = False
                if binary:
                    op_end = i + 2 if nxt == "=" else i + 1  # compound assign
                    left = left_atom(clean, i)
                    right = right_atom(clean, op_end)
                    if c in "*&" and left in ("double", "float"):
                        binary = False  # pointer declaration, not arithmetic
                if binary:
                    if is_double_atom(left, doubles) or is_double_atom(
                        right, doubles
                    ):
                        line = lineno(i)
                        if line not in allow_lines:
                            findings.append(
                                (line,
                                 f"raw `{clean[i:op_end]}` over double operands "
                                 f"in kernel body ({left or '?'} "
                                 f"{clean[i:op_end]} {right or '?'}) -- route "
                                 "through MathCtx")
                            )
            i += 1
    return findings


def try_clang_query(files) -> bool:
    """Best-effort clang-query cross-check. Returns True if it ran (its
    findings are advisory; the regex pass remains the gate)."""
    binary = shutil.which("clang-query")
    if binary is None:
        return False
    matcher = (
        "match binaryOperator(anyOf(hasOperatorName(\"+\"), "
        "hasOperatorName(\"*\")), hasType(realFloatingPointType()), "
        "hasAncestor(lambdaExpr()))"
    )
    try:
        subprocess.run(
            [binary, "-c", matcher, *map(str, files), "--", "-std=c++20"],
            capture_output=True, timeout=120, check=False,
        )
        return True
    except (OSError, subprocess.TimeoutExpired):
        return False


def default_targets(root: Path) -> list[Path]:
    """src/ kernel sources — every layer, including serve/ and fleet/ (they
    host no kernels themselves but relay fault plans into launches) — plus
    the tools/ and bench/ drivers (both launch kernels and must go through
    MathCtx like everything else). The fused online-checking kernels
    (abft/fused_gemm.cpp: light encoders, fused_encode_matmul and its
    k-panel screen) are covered by the same glob; the screen's coarse
    bound/compare arithmetic is deliberately outside MathCtx and carries
    per-line `aabft-lint: allow` marks with bulk-counted totals, so any new
    unannotated raw FP there still fails the lint."""
    return (sorted((root / "src").rglob("*.cpp"))
            + sorted((root / "tools").glob("*.cpp"))
            + sorted((root / "bench").glob("*.cpp")))


def run(root: Path, files=None) -> list[str]:
    targets = files if files is not None else default_targets(root)
    messages = []
    for path in targets:
        for line, msg in scan_file(path):
            rel = path.relative_to(root) if path.is_relative_to(root) else path
            messages.append(f"{rel}:{line}: {msg}")
    return messages


def list_waivers(root: Path, targets) -> list[str]:
    """Every `aabft-lint: allow` mark in the scanned set, as `file:line`
    entries (with the waived line's text for review)."""
    entries = []
    for path in targets:
        rel = path.relative_to(root) if path.is_relative_to(root) else path
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
            if ALLOW_MARK in line:
                entries.append(f"{rel}:{i}: {line.strip()}")
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--self-test", action="store_true",
                        help="also require the seeded fixture to fail")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print every `aabft-lint: allow` mark as "
                             "file:line and exit")
    parser.add_argument("--waiver-baseline", type=Path, default=None,
                        help="with --list-waivers: fail (exit 1) if the "
                             "waiver count exceeds the count recorded in "
                             "this baseline file")
    parser.add_argument("files", nargs="*", type=Path,
                        help="specific files to scan (default: src/**/*.cpp + tools/*.cpp)")
    args = parser.parse_args()
    root = args.root.resolve()

    if args.list_waivers:
        waivers = list_waivers(root, args.files or default_targets(root))
        for entry in waivers:
            print(entry)
        print(f"lint_mathctx: {len(waivers)} waiver(s)")
        if args.waiver_baseline is not None:
            try:
                budget = int(args.waiver_baseline.read_text().split()[0])
            except (OSError, ValueError, IndexError):
                print(f"lint_mathctx: unreadable waiver baseline "
                      f"{args.waiver_baseline}")
                return 2
            if len(waivers) > budget:
                print(f"lint_mathctx: waiver count {len(waivers)} exceeds the "
                      f"checked-in budget {budget} -- new `{ALLOW_MARK}` "
                      "marks need review; if legitimate, raise "
                      f"{args.waiver_baseline} in the same change")
                return 1
            print(f"lint_mathctx: within waiver budget ({budget})")
        return 0

    if try_clang_query(args.files or default_targets(root)):
        print("lint_mathctx: clang-query cross-check ran (advisory)")

    messages = run(root, args.files or None)
    for msg in messages:
        print(msg)
    if messages:
        print(f"lint_mathctx: {len(messages)} finding(s)")
        return 1

    if args.self_test:
        fixture = root / "tests" / "lint_fixtures" / "raw_fp_kernel.cpp"
        if not fixture.is_file():
            print(f"lint_mathctx: missing fixture {fixture}")
            return 2
        fixture_findings = scan_file(fixture)
        if not fixture_findings:
            print("lint_mathctx: SELF-TEST FAILED -- seeded raw-FP fixture "
                  "passed the lint")
            return 2
        print(f"lint_mathctx: self-test ok (fixture raised "
              f"{len(fixture_findings)} finding(s))")

    print("lint_mathctx: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
