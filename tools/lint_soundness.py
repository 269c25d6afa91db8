#!/usr/bin/env python3
"""Numerical-soundness lint: static guard for the certificate contract.

The serving runtime's value proposition is that every answer is either
produced inside a *certified* region or routed to a trusted fallback — and a
certificate is only as trustworthy as the float comparisons that consult it.
A NaN-blind `<` chain silently certifies a corrupted observation; an interval
endpoint computed with round-to-nearest arithmetic can shrink an enclosure by
one ulp and void the containment proof.  This tool is the sibling of
tools/lint_determinism.py for the numerical/API contracts: it scans C++
sources for the patterns that historically break certificate soundness.
Like its sibling it is a heuristic reviewer, not a compiler: findings point
at code that needs either a rewrite onto the sanctioned helpers or an
explicit, justified waiver.

Rules
-----
raw-endpoint-arith      (src/verify only)  Interval/box constructions
                        (`return {...}` / `return Interval(...)` / brace
                        initialisations) whose endpoints are computed with
                        raw `+ - * /` arithmetic on `lo_`/`hi_`/`.lo()`/
                        `.hi()` values.  Endpoint arithmetic must flow
                        through verify::outward() so round-to-nearest error
                        can never shrink an enclosure.  Exact operations
                        (negation, min/max, clamp, copies) are not flagged.
nan-blind-compare       (verify/serve/sys)  A certificate-decision predicate
                        (function named *certified*/*contains*/*inside*/
                        *intersects*/*overlap*/*valid*/*member*/*is_safe*
                        returning bool) that compares doubles without any
                        std::isfinite/std::isnan guard.  `a < lo || a > hi`
                        style exclusion chains are NaN-blind: every
                        comparison is false for NaN, so the garbage state
                        falls through to "certified".  Either guard with
                        std::isfinite or write the comparison in the
                        accepting direction (`a >= lo && a <= hi`, where NaN
                        fails closed) and waive with the justification.
narrowing-bound         `float` anywhere in the library: bound-carrying
                        values are double end to end; a narrowing
                        conversion quietly discards the outward rounding
                        that makes enclosures sound.
magic-tolerance         (verify/serve)  A bare scientific-notation literal
                        with a negative exponent (1e-12, 2.5e-9, ...)
                        outside verify/tolerances.h.  Tolerances are policy:
                        they live in the named-constant header where their
                        magnitude is justified once, not sprinkled inline.
missing-nodiscard       (headers)  A function declaration returning `bool`,
                        `std::future<...>`, or a result struct (type named
                        *Result/*Counters/*Outcome/*Report/*Stats) without
                        [[nodiscard]].  A dropped status bool or future is
                        a swallowed failure on the serving path.
implicit-single-arg-ctor (headers)  A constructor callable with a single
                        argument that is not marked `explicit` (copy/move
                        constructors and allowlisted intentional implicit
                        lifts exempt — currently verify::Interval's scalar
                        lift, which templated dynamics rely on).

Waivers
-------
A finding is suppressed by a justified waiver on the same line or the line
directly above:

    // SNDLINT-ALLOW(<rule>): <reason>

The reason is mandatory; an empty reason or an unknown rule name is itself
an error.  Waivers that no longer suppress anything are reported as stale
(warning only, so heuristic tweaks do not break the build).

Usage
-----
    lint_soundness.py [--self-test] [--list-rules] [paths...]  (default: src)

Exit status 0 = clean, 1 = unsuppressed findings or malformed waivers,
2 = usage/self-test failure.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass

RULES = {
    "raw-endpoint-arith": "interval endpoint computed with raw arithmetic; "
    "route the bounds through verify::outward() so rounding cannot shrink "
    "the enclosure",
    "nan-blind-compare": "certificate predicate compares doubles with no "
    "isfinite guard; NaN falls through exclusion-style chains as "
    "'certified' — guard or compare in the accepting direction",
    "narrowing-bound": "float narrows a bound-carrying double and discards "
    "the outward rounding; bounds are double end to end",
    "magic-tolerance": "bare numeric tolerance; name it in "
    "src/verify/tolerances.h where its magnitude is justified",
    "missing-nodiscard": "status/future/result return can be silently "
    "dropped; declare the function [[nodiscard]]",
    "implicit-single-arg-ctor": "single-argument constructor invites silent "
    "conversions; mark it explicit (or allowlist an intentional lift)",
}

# The one sanctioned home for numeric tolerance constants.
TOLERANCE_HEADER = "verify/tolerances.h"

# Intentional implicit single-argument constructors: class -> why.
IMPLICIT_CTOR_ALLOWLIST = {
    # Scalar lifting double -> Interval is the ergonomic contract the
    # scalar-templated dynamics (src/sys/*.h instantiated on Interval)
    # depend on; making it explicit would break `x * 2.0 + offset` flows.
    "Interval",
}

CPP_SUFFIXES = (".cpp", ".h", ".hpp", ".cc", ".cxx", ".inc")
HEADER_SUFFIXES = (".h", ".hpp")

ALLOW_RE = re.compile(r"SNDLINT-ALLOW\(([^)]*)\)\s*(?::\s*(.*?))?\s*(?:\*/.*)?$")

# Accessors/members that carry interval bounds.
ENDPOINT = (r"(?:lo_(?!\w)|hi_(?!\w)|\.lo\(\)|\.hi\(\)|\.lo\[[^\]]*\]|"
            r"\.hi\[[^\]]*\])")
# Endpoint token immediately combined with a binary arithmetic operator.
ENDPOINT_OP_RE = re.compile(ENDPOINT + r"\s*[-+*/]" + r"(?![-+*/=>])")
OP_ENDPOINT_RE = re.compile(r"([-+*/])\s*" + ENDPOINT)

PREDICATE_NAME_RE = re.compile(
    r"certified|contains|intersects|overlap|inside|valid|member|is_safe")
# Relational comparison, excluding <<, >>, ->, <=> and template-ish `<>`.
COMPARISON_RE = re.compile(r"(?<![<>\-=&|])[<>]=?(?![<>=])")

RESULT_STRUCT = (r"(?:[A-Za-z_]\w*::)*"
                 r"[A-Za-z_]\w*(?:Result|Counters|Outcome|Report|Stats)")
NODISCARD_DECL_RE = re.compile(
    r"^(?P<lead>\s*)(?P<quals>(?:friend\s+|virtual\s+|static\s+|constexpr\s+|"
    r"inline\s+)*)"
    r"(?P<ret>bool|std::future\s*<[^;{}]*>|" + RESULT_STRUCT + r")"
    r"\s+(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE)

CLASS_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
                      r"(?::[^{;]*)?\{")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    detail: str


@dataclass
class Allow:
    line: int
    rule: str
    reason: str
    used: bool = False


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure."""
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
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append("%s%s" % (quote, quote))
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_allows(lines: list[str]) -> tuple[dict[int, Allow], list[Finding]]:
    """Parses SNDLINT-ALLOW waivers (before comment stripping)."""
    allows: dict[int, Allow] = {}
    errors: list[Finding] = []
    for lineno, line in enumerate(lines, start=1):
        if "SNDLINT-ALLOW" not in line:
            continue
        match = ALLOW_RE.search(line)
        if not match:
            errors.append(Finding("", lineno, "malformed-allow",
                                  "SNDLINT-ALLOW must look like "
                                  "// SNDLINT-ALLOW(<rule>): <reason>"))
            continue
        rule, reason = match.group(1).strip(), (match.group(2) or "").strip()
        if rule not in RULES:
            errors.append(Finding("", lineno, "malformed-allow",
                                  f"unknown rule '{rule}' in SNDLINT-ALLOW "
                                  f"(known: {', '.join(sorted(RULES))})"))
            continue
        if not reason:
            errors.append(Finding("", lineno, "malformed-allow",
                                  f"SNDLINT-ALLOW({rule}) carries no reason; "
                                  "a justification is mandatory"))
            continue
        allows[lineno] = Allow(lineno, rule, reason)
    return allows, errors


def line_of(offsets: list[int], pos: int) -> int:
    """1-based line number of character offset `pos` (offsets sorted)."""
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def match_forward(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index just past the matching close for the opener at text[start]."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# --- raw-endpoint-arith -----------------------------------------------------

# Interval/box construction sites whose contents carry bounds: returned
# brace/ctor expressions and brace initialisations of elements.
CONSTRUCTION_RE = re.compile(
    r"return\s*(?:Interval\s*)?[({]|=\s*(?:Interval\s*)?\{")


def endpoint_arith_positions(extent: str) -> list[int]:
    """Offsets of raw endpoint arithmetic inside a construction extent."""
    hits = []
    for m in ENDPOINT_OP_RE.finditer(extent):
        hits.append(m.start())
    for m in OP_ENDPOINT_RE.finditer(extent):
        # Skip unary operators (negation, dereference, address-of):
        # operator preceded (ignoring spaces) by an opener, comma, another
        # operator, or nothing.
        j = m.start(1) - 1
        while j >= 0 and extent[j] in " \t\n":
            j -= 1
        if m.group(1) in "-*+" and (j < 0 or extent[j] in "{(,=<>+-*/&|"):
            continue
        hits.append(m.start())
    return sorted(set(hits))


def scan_endpoint_arith(path: str, text: str, offsets: list[int],
                        findings: list[Finding]) -> None:
    for m in CONSTRUCTION_RE.finditer(text):
        open_pos = m.end() - 1
        open_ch = text[open_pos]
        close_ch = "}" if open_ch == "{" else ")"
        end = match_forward(text, open_pos, open_ch, close_ch)
        extent = text[open_pos:end]
        for rel in endpoint_arith_positions(extent):
            findings.append(Finding(
                path, line_of(offsets, open_pos + rel), "raw-endpoint-arith",
                "raw lo/hi arithmetic escapes into a constructed bound; "
                "wrap the endpoints in verify::outward()"))


# --- nan-blind-compare ------------------------------------------------------

PREDICATE_DEF_RE = re.compile(
    r"\bbool\s+(?:[A-Za-z_]\w*::)*(?P<name>[A-Za-z_]\w*)\s*"
    r"\((?P<params>[^;{}]*)\)\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?"
    r"\{")


def scan_nan_blind(path: str, text: str, offsets: list[int],
                   findings: list[Finding]) -> None:
    for m in PREDICATE_DEF_RE.finditer(text):
        if not PREDICATE_NAME_RE.search(m.group("name")):
            continue
        body_start = m.end() - 1
        body_end = match_forward(text, body_start, "{", "}")
        body = text[body_start:body_end]
        # Loop-counter comparisons in for-headers are not bound decisions;
        # blank them so `for (i = 0; i < n; ++i)` alone never flags.
        chars = list(body)
        for fm in re.finditer(r"\bfor\s*\(", body):
            header_end = match_forward(body, fm.end() - 1, "(", ")")
            for k in range(fm.start(), header_end):
                if chars[k] != "\n":
                    chars[k] = " "
        body = "".join(chars)
        # Blank template-ids (`static_cast<int>`, `std::vector<...>`): their
        # angle brackets are not comparisons.  Two passes for one nesting
        # level.
        for _ in range(2):
            body = re.sub(r"(?<=\w)<[^<>=;()&|]*>", lambda mm: " " * len(mm.group(0)), body)
        if not COMPARISON_RE.search(body):
            continue
        if re.search(r"\bisfinite\b|\bisnan\b", body):
            continue
        findings.append(Finding(
            path, line_of(offsets, m.start()), "nan-blind-compare",
            f"certificate predicate '{m.group('name')}' compares with no "
            "isfinite/isnan guard; NaN input may fall through as certified"))


# --- implicit-single-arg-ctor -----------------------------------------------

def split_top_level(params: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in params:
        if ch in "<({[":
            depth += 1
        elif ch in ">)}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def scan_implicit_ctors(path: str, text: str, offsets: list[int],
                        findings: list[Finding]) -> None:
    for cm in CLASS_RE.finditer(text):
        name = cm.group(1)
        body_start = cm.end() - 1
        body_end = match_forward(text, body_start, "{", "}")
        body = text[body_start:body_end]
        ctor_re = re.compile(r"^(?P<lead>[ \t]*)(?:constexpr[ \t]+)?" +
                             re.escape(name) + r"\s*\(", re.MULTILINE)
        for m in ctor_re.finditer(body):
            open_pos = body_start + m.end() - 1
            close = match_forward(text, open_pos, "(", ")")
            params = split_top_level(text[open_pos + 1:close - 1])
            if not params or params == ["void"]:
                continue
            first = re.sub(r"\s+", " ", params[0])
            if re.fullmatch(r"(?:const )?" + re.escape(name) + r"\s*&&?(?:\s*\w+)?",
                            first):
                continue  # copy/move constructor
            if len(params) > 1 and not all("=" in p for p in params[1:]):
                continue  # needs two or more arguments
            if name in IMPLICIT_CTOR_ALLOWLIST:
                continue
            findings.append(Finding(
                path, line_of(offsets, body_start + m.start("lead")),
                "implicit-single-arg-ctor",
                f"constructor '{name}({first}{', ...' if len(params) > 1 else ''})' "
                "is callable with one argument but not explicit"))


# --- missing-nodiscard ------------------------------------------------------

def scan_missing_nodiscard(path: str, text: str, lines: list[str],
                           offsets: list[int],
                           findings: list[Finding]) -> None:
    for m in NODISCARD_DECL_RE.finditer(text):
        lineno = line_of(offsets, m.start("ret"))
        before = text[offsets[lineno - 1]:m.start("ret")]
        prev = lines[lineno - 2] if lineno >= 2 else ""
        if "[[nodiscard]]" in before or "[[nodiscard]]" in prev:
            continue
        # `= delete` / `= default` declarations carry no discardable value.
        stmt_end = text.find(";", m.end())
        stmt = text[m.end():stmt_end if stmt_end >= 0 else m.end() + 200]
        if "= delete" in stmt or "= default" in stmt:
            continue
        findings.append(Finding(
            path, lineno, "missing-nodiscard",
            f"'{m.group('name')}' returns {m.group('ret').split('<')[0].strip()} "
            "but is not [[nodiscard]]"))


# --- file scan --------------------------------------------------------------

def scan_file(path: str, rel: str, raw: str) -> tuple[list[Finding], int]:
    lines = raw.splitlines()
    allows, allow_errors = collect_allows(lines)
    for err in allow_errors:
        err.path = path

    text = strip_comments_and_strings(raw)
    offsets = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            offsets.append(i + 1)

    findings: list[Finding] = []
    rel_posix = rel.replace(os.sep, "/")
    in_verify = "verify/" in rel_posix or rel_posix.startswith("verify")
    in_cert_surface = in_verify or any(
        seg in rel_posix for seg in ("serve/", "sys/"))
    is_header = rel_posix.endswith(HEADER_SUFFIXES)

    if in_verify and not rel_posix.endswith(TOLERANCE_HEADER.split("/")[-1]):
        scan_endpoint_arith(path, text, offsets, findings)

    if in_cert_surface:
        scan_nan_blind(path, text, offsets, findings)
        if not rel_posix.endswith(TOLERANCE_HEADER.split("/")[-1]):
            for m in re.finditer(r"\b\d+(?:\.\d*)?[eE]-\d+\b", text):
                findings.append(Finding(
                    path, line_of(offsets, m.start()), "magic-tolerance",
                    f"bare tolerance literal '{m.group(0)}'"))

    for m in re.finditer(r"\bfloat\b", text):
        findings.append(Finding(
            path, line_of(offsets, m.start()), "narrowing-bound",
            "'float' narrows bound-carrying doubles"))

    if is_header:
        scan_missing_nodiscard(path, text, lines, offsets, findings)
        scan_implicit_ctors(path, text, offsets, findings)

    # Apply waivers: same line or the line directly above the finding.
    unsuppressed: list[Finding] = []
    for finding in findings:
        allow = allows.get(finding.line) or allows.get(finding.line - 1)
        if allow is not None and allow.rule == finding.rule:
            allow.used = True
            continue
        unsuppressed.append(finding)

    stale = 0
    for allow in allows.values():
        if not allow.used:
            print(f"{path}:{allow.line}: warning: stale "
                  f"SNDLINT-ALLOW({allow.rule}) suppresses nothing",
                  file=sys.stderr)
            stale += 1

    return unsuppressed + allow_errors, stale


def lint_paths(paths: list[str]) -> int:
    findings: list[Finding] = []
    files = []
    for root_path in paths:
        if os.path.isfile(root_path):
            files.append((root_path, os.path.basename(root_path)))
            continue
        for dirpath, _, filenames in os.walk(root_path):
            for filename in sorted(filenames):
                if filename.endswith(CPP_SUFFIXES):
                    full = os.path.join(dirpath, filename)
                    files.append((full, os.path.relpath(full, root_path)))
    for full, rel in sorted(files):
        with open(full, encoding="utf-8", errors="replace") as handle:
            raw = handle.read()
        file_findings, _ = scan_file(full, rel, raw)
        findings.extend(file_findings)

    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        rule_help = RULES.get(finding.rule, "")
        print(f"{finding.path}:{finding.line}: [{finding.rule}] "
              f"{finding.detail}" + (f" — {rule_help}" if rule_help else ""))
    if findings:
        print(f"\nlint_soundness: {len(findings)} finding(s). Fix onto the "
              "sound helpers or add `// SNDLINT-ALLOW(<rule>): <reason>`.")
        return 1
    print(f"lint_soundness: clean ({len(files)} files).")
    return 0


# --- self-test --------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, rel-path, source, expected rule names after waivers)
    ("raw endpoint arithmetic in returned bounds flagged",
     "verify/interval.cpp",
     "Interval Interval::inflate(double r) const {\n"
     "  return {lo_ - r, hi_ + r};\n}\n",
     ["raw-endpoint-arith", "raw-endpoint-arith"]),
    ("outward-routed endpoints are fine",
     "verify/interval.cpp",
     "Interval Interval::inflate(double r) const {\n"
     "  return outward(lo_ - r, hi_ + r);\n}\n",
     []),
    ("exact min/max endpoints are fine",
     "verify/interval.cpp",
     "Interval Interval::hull(const Interval& o) const {\n"
     "  return {std::min(lo_, o.lo_), std::max(hi_, o.hi_)};\n}\n",
     []),
    ("unary negation of endpoints is fine",
     "verify/interval.cpp",
     "Interval Interval::operator-() const { return {-hi_, -lo_}; }\n",
     []),
    ("brace-initialised box slice with endpoint arithmetic flagged",
     "verify/interval.cpp",
     "void f(IBox& sub, const IBox& box, double w, std::size_t k) {\n"
     "  sub[0] = {box[0].lo() + k * w, box[0].lo() + (k + 1) * w};\n}\n",
     ["raw-endpoint-arith", "raw-endpoint-arith"]),
    ("waived box slice is fine",
     "verify/interval.cpp",
     "void f(IBox& sub, const IBox& box, double w, std::size_t k) {\n"
     "  // SNDLINT-ALLOW(raw-endpoint-arith): shared faces; last slice pinned\n"
     "  sub[0] = {box[0].lo() + k * w, box[0].hi()};\n}\n",
     []),
    ("endpoint arithmetic outside verify/ is not in scope",
     "core/metrics.cpp",
     "double f(const Interval& x) { return x.lo() + 1.0; }\n",
     []),
    ("NaN-blind exclusion chain in predicate flagged",
     "serve/safety_monitor.cpp",
     "bool SafetyMonitor::certified(const la::Vec& s) const {\n"
     "  for (std::size_t d = 0; d < s.size(); ++d)\n"
     "    if (s[d] < lo[d] || s[d] > hi[d]) return false;\n"
     "  return true;\n}\n",
     ["nan-blind-compare"]),
    ("isfinite-guarded predicate is fine",
     "serve/safety_monitor.cpp",
     "bool SafetyMonitor::certified(const la::Vec& s) const {\n"
     "  for (std::size_t d = 0; d < s.size(); ++d)\n"
     "    if (!std::isfinite(s[d])) return false;\n"
     "  for (std::size_t d = 0; d < s.size(); ++d)\n"
     "    if (s[d] < lo[d] || s[d] > hi[d]) return false;\n"
     "  return true;\n}\n",
     []),
    ("accepting-direction predicate still needs a waiver",
     "verify/interval.h",
     "class Interval {\n public:\n"
     "  // SNDLINT-ALLOW(nan-blind-compare): accepting direction, NaN fails\n"
     "  [[nodiscard]] bool contains(double x) const noexcept {\n"
     "    return lo_ <= x && x <= hi_;\n  }\n"
     " private:\n  double lo_ = 0.0;\n  double hi_ = 0.0;\n};\n",
     []),
    ("loop-counter comparisons alone do not flag a predicate",
     "verify/interval.cpp",
     "bool box_contains(const IBox& box, const la::Vec& p) {\n"
     "  for (std::size_t i = 0; i < box.size(); ++i)\n"
     "    if (!box[i].contains(p[i])) return false;\n"
     "  return true;\n}\n",
     []),
    ("NaN-blind domain check before an int cast flagged",
     "verify/invariant.cpp",
     "bool overlap_range(const IBox& box, std::vector<int>& k) const {\n"
     "  if (box[0].lo() < lo || box[0].hi() > hi) return false;\n"
     "  k[0] = static_cast<int>(std::floor(box[0].lo() / w));\n"
     "  return true;\n}\n",
     ["nan-blind-compare"]),
    ("template angle brackets are not comparisons",
     "verify/invariant.cpp",
     "bool InvariantResult::contains(const la::Vec& p) const {\n"
     "  const int k = static_cast<int>(std::floor(p[0]));\n"
     "  return member[static_cast<std::size_t>(k)] != 0;\n}\n",
     []),
    ("non-predicate comparisons are not in scope",
     "verify/reach.cpp",
     "bool widest(const IBox& b) { return b[0].width() > b[1].width(); }\n",
     []),
    ("float narrows bounds",
     "la/matrix.h",
     "struct M { std::vector<double> d; };\n"
     "static float shrink(double x) { return static_cast<float>(x); }\n",
     ["narrowing-bound", "narrowing-bound"]),
    ("bare tolerance literal flagged in verify",
     "verify/interval.cpp",
     "bool close(double a, double b) { return std::abs(a - b) < 1e-9; }\n",
     ["magic-tolerance"]),
    ("named tolerance from the header is fine",
     "verify/interval.cpp",
     "bool close(double a, double b) {\n"
     "  return std::abs(a - b) < kOutwardEps;\n}\n",
     []),
    ("tolerance literals outside verify/serve are not in scope",
     "nn/optimizer.cpp",
     "constexpr double kAdamEps = 1e-8;\n",
     []),
    ("bool return without nodiscard flagged in header",
     "util/mutex.h",
     "class Mutex {\n public:\n  bool try_lock() { return true; }\n};\n",
     ["missing-nodiscard"]),
    ("nodiscard bool return is fine",
     "util/mutex.h",
     "class Mutex {\n public:\n"
     "  [[nodiscard]] bool try_lock() { return true; }\n};\n",
     []),
    ("future return without nodiscard flagged",
     "serve/controller_server.h",
     "class S {\n public:\n"
     "  std::future<la::Vec> submit(const std::string& n, la::Vec s);\n};\n",
     ["missing-nodiscard"]),
    ("result-struct return without nodiscard flagged",
     "rl/ppo.h",
     "class Trainer {\n public:\n  PpoStats train(Env& env);\n};\n",
     ["missing-nodiscard"]),
    ("bool data member is not a declaration of interest",
     "serve/controller_server.h",
     "struct S {\n  bool stopping_ GUARDED_BY(mutex_) = false;\n"
     "  bool draining = false;\n};\n",
     []),
    ("deleted operator returning bool is fine",
     "util/mutex.h",
     "struct S {\n  bool operator()(const S&) const = delete;\n};\n",
     []),
    ("implicit single-arg constructor flagged",
     "control/lqr_controller.h",
     "class LqrController {\n public:\n"
     "  LqrController(la::Matrix gain, std::string label = \"lqr\");\n};\n",
     ["implicit-single-arg-ctor"]),
    ("explicit single-arg constructor is fine",
     "control/lqr_controller.h",
     "class LqrController {\n public:\n"
     "  explicit LqrController(la::Matrix gain, std::string l = \"lqr\");\n};\n",
     []),
    ("copy and move constructors are fine",
     "util/thread_pool.h",
     "class ThreadPool {\n public:\n"
     "  ThreadPool(const ThreadPool&) = delete;\n"
     "  ThreadPool(ThreadPool&&) = delete;\n};\n",
     []),
    ("two-argument constructor is fine",
     "sys/system.h",
     "struct Box {\n  Box(la::Vec lower, la::Vec upper);\n};\n",
     []),
    ("allowlisted scalar lift is fine",
     "verify/interval.h",
     "class Interval {\n public:\n  constexpr Interval(double point);\n};\n",
     []),
    ("waiver with unknown rule is an error",
     "verify/interval.cpp",
     "// SNDLINT-ALLOW(no-such-rule): because\nint x;\n",
     ["malformed-allow"]),
    ("waiver without reason is an error",
     "util/mutex.h",
     "class M {\n public:\n"
     "  // SNDLINT-ALLOW(missing-nodiscard)\n"
     "  bool try_lock() { return true; }\n};\n",
     ["malformed-allow", "missing-nodiscard"]),
    ("patterns inside comments and strings are ignored",
     "verify/interval.cpp",
     "// return {lo_ - r, hi_ + r}; and 1e-12 and float\n"
     "const char* s = \"float 1e-12\";\n",
     []),
]


def self_test() -> int:
    failures = 0
    for name, rel, source, expected in SELF_TEST_CASES:
        found, _ = scan_file("<self-test>", rel, source)
        got = sorted(f.rule for f in found)
        if got != sorted(expected):
            print(f"self-test FAILED: {name}\n  expected {sorted(expected)}"
                  f"\n  got      {got}", file=sys.stderr)
            failures += 1
    if failures:
        return 2
    print(f"lint_soundness: self-test passed "
          f"({len(SELF_TEST_CASES)} cases).")
    return 0


def main(argv: list[str]) -> int:
    args = argv[1:]
    if "--list-rules" in args:
        for rule, help_text in sorted(RULES.items()):
            print(f"{rule}: {help_text}")
        return 0
    if "--self-test" in args:
        return self_test()
    paths = [a for a in args if not a.startswith("-")] or ["src"]
    return lint_paths(paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
