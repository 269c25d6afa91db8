#!/usr/bin/env python3
"""Determinism lint: static guard for the bitwise-determinism contract.

The library promises bitwise-identical results for ANY worker/shard/batch
configuration (README "Determinism"); that contract survives only while every
parallel floating-point reduction goes through the fixed-tree helpers
(util::chunked_reduce / util::chunked_for / nn::ChunkedGradReducer), every
random draw comes from an explicitly seeded util::Rng stream, and no result
depends on unordered-container iteration order or racy atomic FP updates.
This tool scans C++ sources for the patterns that historically break those
guarantees.  It is a heuristic reviewer, not a compiler: findings point at
code that needs either a rewrite onto the sanctioned helpers or an explicit,
justified waiver.

Rules
-----
raw-parallel-dispatch   Direct ThreadPool::parallel_for call outside the
                        substrate (util/thread_pool.*) and the sanctioned
                        reducers.  Such call sites carry the full
                        determinism burden themselves (per-unit RNG streams,
                        disjoint writes, no shared FP accumulation) and must
                        say why they are sound.
fp-accumulate-parallel  Compound assignment (+=, -=, *=, /=) or ++/-- on a
                        variable captured from outside the body of a lambda
                        handed to parallel_for/run_chunks/chunked_for/
                        submit, or run as a std::thread body (the raw
                        dispatch vector of the serving tier: MPMC
                        dispatcher threads draining try_pop loops).  A
                        shared accumulator mutated from parallel bodies is
                        both a data race and a scheduling-dependent FP
                        reduction — MPMC pop order is scheduling-dependent
                        by construction.
rng-source              Nondeterministic randomness: std::random_device,
                        rand()/srand(), <random> engines, or time-derived
                        seeds outside util/rng (the one sanctioned RNG).
unordered-iteration     Iteration over a std::unordered_{map,set} variable.
                        Bucket order is implementation-defined; results fed
                        from such loops are not reproducible.  (Lookups are
                        fine; only iteration is flagged.)
atomic-fp               std::atomic<float/double/...>.  Atomic FP
                        read-modify-write makes the accumulation order equal
                        to the scheduling order.
host-dispatch           A CPU-feature query (__builtin_cpu_supports,
                        __builtin_cpu_init, __get_cpuid, getauxval(AT_HWCAP*))
                        or ISA code (a gnu::target or
                        __attribute__((target(...))) function, #pragma GCC
                        target, an <*intrin.h> include) outside
                        la/kernels.cpp and the .inc files it includes.
                        Choosing code by the host's instruction set is safe
                        only where tests pin every path to the same bits,
                        and that file's are the ones that do (test_la runs
                        each instantiation by name).  It is also the one
                        file the build compiles with -ffp-contract=off: in
                        C++, GCC fuses a*b + c into an fma inside any
                        FMA-enabled function, so vector code anywhere else
                        could change trained bits silently.

Waivers
-------
A finding is suppressed by a justified waiver on the same line or the line
directly above:

    // DETLINT-ALLOW(<rule>): <reason>

The reason is mandatory; an empty reason or an unknown rule name is itself
an error.  Waivers that no longer suppress anything are reported as stale
(warning only, so heuristic tweaks do not break the build).

Usage
-----
    lint_determinism.py [--self-test] [paths...]   (default path: src)

Exit status 0 = clean, 1 = unsuppressed findings or malformed waivers,
2 = usage/self-test failure.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass

RULES = {
    "raw-parallel-dispatch": "direct parallel_for outside the deterministic "
    "substrate; use util::chunked_reduce/chunked_for or justify the call",
    "fp-accumulate-parallel": "compound update of a captured variable inside "
    "a parallel body; use util::chunked_reduce / nn::ChunkedGradReducer",
    "rng-source": "nondeterministic randomness source; use util::Rng with a "
    "derived seed (util::derive_seed)",
    "unordered-iteration": "iteration over an unordered container feeds "
    "bucket order into results; iterate a sorted/fixed-order view instead",
    "atomic-fp": "atomic floating-point accumulates in scheduling order; "
    "use util::chunked_reduce",
    "host-dispatch": "CPU-feature query or ISA code outside la/kernels.cpp "
    "and its .inc files; pick ISA paths there, where -ffp-contract=off "
    "holds and tests pin each path to the same bits",
}

# Files that implement the sanctioned machinery and may use the raw tools.
PARALLEL_SUBSTRATE = ("util/thread_pool.h", "util/thread_pool.cpp",
                      "nn/grad_reduce.h")
RNG_SUBSTRATE = ("util/rng.h", "util/rng.cpp")
# The one translation unit that may ask the host which instructions it runs
# or compile code for them: this file and the .inc files it includes.
HOST_DISPATCH_FILE = "la/kernels.cpp"

HOST_QUERY_RE = re.compile(
    r"\b(?:__builtin_cpu_supports|__builtin_cpu_init|__get_cpuid\w*)\s*\(|"
    r"\bgetauxval\s*\(\s*AT_HWCAP\w*")
ISA_CODE_RE = re.compile(
    r"\bgnu::target\b|"
    r"\b__attribute__\s*\(\(\s*(?:__target__|target)\s*\(|"
    r"#\s*pragma\s+GCC\s+target\b|"
    r"#\s*include\s*<\s*\w*intrin\.h\s*>")
INC_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+\.inc)"')


def dispatch_files(kernels_raw: str | None) -> set[str]:
    """HOST_DISPATCH_FILE plus the .inc files its text includes."""
    files = {HOST_DISPATCH_FILE}
    if kernels_raw is not None:
        files.update(INC_INCLUDE_RE.findall(kernels_raw))
    return files

CPP_SUFFIXES = (".cpp", ".h", ".hpp", ".cc", ".cxx", ".inc")

ALLOW_RE = re.compile(r"DETLINT-ALLOW\(([^)]*)\)\s*(?::\s*(.*?))?\s*(?:\*/.*)?$")

# C++ keywords that the declaration heuristic must not mistake for types.
NON_TYPE_KEYWORDS = {
    "return", "if", "while", "for", "else", "case", "throw", "new", "delete",
    "goto", "break", "continue", "do", "switch", "sizeof", "typedef", "using",
    "co_return", "co_await", "co_yield", "not",
}


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
    """Parses DETLINT-ALLOW waivers (before comment stripping)."""
    allows: dict[int, Allow] = {}
    errors: list[Finding] = []
    for lineno, line in enumerate(lines, start=1):
        if "DETLINT-ALLOW" not in line:
            continue
        match = ALLOW_RE.search(line)
        if not match:
            errors.append(Finding("", lineno, "malformed-allow",
                                  "DETLINT-ALLOW must look like "
                                  "// DETLINT-ALLOW(<rule>): <reason>"))
            continue
        rule, reason = match.group(1).strip(), (match.group(2) or "").strip()
        if rule not in RULES:
            errors.append(Finding("", lineno, "malformed-allow",
                                  f"unknown rule '{rule}' in DETLINT-ALLOW "
                                  f"(known: {', '.join(sorted(RULES))})"))
            continue
        if not reason:
            errors.append(Finding("", lineno, "malformed-allow",
                                  f"DETLINT-ALLOW({rule}) carries no reason; "
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


def declared_in(extent: str, name: str) -> bool:
    """Heuristic: `name` is declared (or is a parameter) inside `extent`."""
    pattern = re.compile(
        r"(?:^|[\s(,;{])((?:const\s+)?[A-Za-z_][\w:]*(?:<[^<>;]*>)?)"
        r"\s*[&*]?\s+[&*]?" + re.escape(name) + r"\s*[=;,)({:]")
    for match in pattern.finditer(extent):
        type_token = match.group(1).replace("const ", "").strip()
        if type_token.split("<")[0] not in NON_TYPE_KEYWORDS:
            return True
    return False


COMPOUND_RE = re.compile(
    r"(?<![<>+\-*/=!])"
    r"(?P<chain>[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*"
    r"(?P<op>\+=|-=|\*=|/=)(?!=)")
INCDEC_RE = re.compile(
    r"(?:(?:\+\+|--)\s*(?P<pre>[A-Za-z_]\w*)\b(?!\s*[\.\->\[]))|"
    r"(?:\b(?P<post>[A-Za-z_]\w*)\s*(?:\+\+|--))")


def scan_parallel_extents(path: str, text: str, offsets: list[int],
                          findings: list[Finding]) -> None:
    # A std::thread constructor is a parallel extent too: the serving
    # tier's dispatcher threads drain lock-free MPMC queues in
    # hand-rolled loops, and anything they accumulate into captured state
    # folds in scheduling (pop) order.
    for call in re.finditer(r"(?:\b(?:parallel_for|run_chunks|chunked_for|"
                            r"submit)|std::thread(?:\s+[A-Za-z_]\w*)?)"
                            r"\s*\(", text):
        call_open = call.end() - 1
        call_close = match_forward(text, call_open, "(", ")")
        args = text[call_open:call_close]
        body_rel = args.find("{")
        if body_rel < 0:
            continue  # no lambda literal among the arguments
        body_start = call_open + body_rel
        body_end = match_forward(text, body_start, "{", "}")
        extent = text[body_start:body_end]
        for m in COMPOUND_RE.finditer(extent):
            chain = m.group("chain")
            base = re.split(r"\.|->", chain)[0]
            if declared_in(extent, base):
                continue
            findings.append(Finding(
                path, line_of(offsets, body_start + m.start()),
                "fp-accumulate-parallel",
                f"'{chain} {m.group('op')}' updates captured '{base}' from a "
                "parallel body"))
        for m in INCDEC_RE.finditer(extent):
            name = m.group("pre") or m.group("post")
            if declared_in(extent, name):
                continue
            findings.append(Finding(
                path, line_of(offsets, body_start + m.start()),
                "fp-accumulate-parallel",
                f"increment/decrement of captured '{name}' from a parallel "
                "body"))


def unordered_container_names(text: str) -> list[tuple[str, int]]:
    names = []
    for m in re.finditer(r"std::unordered_(?:map|set)\s*<", text):
        open_angle = m.end() - 1
        depth = 0
        i = open_angle
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = text[i + 1:i + 200]
        name_match = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*(?:[;={(]|$)",
                              tail)
        if name_match:
            names.append((name_match.group(1), i + 1))
    return names


def scan_file(path: str, rel: str, raw: str,
              isa_files: set[str] | None = None) -> tuple[list[Finding], int]:
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

    in_parallel_substrate = rel_posix.endswith(PARALLEL_SUBSTRATE)
    in_rng_substrate = rel_posix.endswith(RNG_SUBSTRATE)

    if not in_parallel_substrate:
        for m in re.finditer(r"(?:\.|->)\s*parallel_for\s*\(", text):
            findings.append(Finding(
                path, line_of(offsets, m.start()), "raw-parallel-dispatch",
                "direct ThreadPool::parallel_for call; determinism "
                "(per-unit RNG streams, disjoint writes) rests on this call "
                "site alone"))
        scan_parallel_extents(path, text, offsets, findings)

    if not in_rng_substrate:
        rng_patterns = [
            (r"std::random_device", "std::random_device"),
            (r"\bsrand\s*\(", "srand()"),
            (r"(?<![\w:])rand\s*\(\s*\)", "rand()"),
            (r"std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
             r"ranlux\w+|knuth_b)\b", "a <random> engine"),
            (r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)", "time()-derived seed"),
        ]
        for pattern, label in rng_patterns:
            for m in re.finditer(pattern, text):
                findings.append(Finding(
                    path, line_of(offsets, m.start()), "rng-source",
                    f"{label} outside util/rng"))
        for m in re.finditer(r"(?:system_clock|steady_clock|"
                             r"high_resolution_clock)\b[^\n]*", text):
            line_text = text[offsets[line_of(offsets, m.start()) - 1]:
                             offsets[line_of(offsets, m.start()) - 1] +
                             len(lines[line_of(offsets, m.start()) - 1])]
            if re.search(r"seed|[Rr]ng|random", line_text):
                findings.append(Finding(
                    path, line_of(offsets, m.start()), "rng-source",
                    "clock-derived randomness seed"))

    for name, decl_pos in unordered_container_names(text):
        for m in re.finditer(
                r"for\s*\([^;()]*:\s*[&*]?(?:\w+(?:\.|->))*" +
                re.escape(name) + r"\b", text):
            findings.append(Finding(
                path, line_of(offsets, m.start()), "unordered-iteration",
                f"range-for over unordered container '{name}'"))
        for m in re.finditer(r"\b" + re.escape(name) +
                             r"\s*(?:\.|->)\s*(?:begin|cbegin)\s*\(", text):
            findings.append(Finding(
                path, line_of(offsets, m.start()), "unordered-iteration",
                f"iterator walk over unordered container '{name}'"))
        del decl_pos

    for m in re.finditer(r"std::atomic\s*<\s*(?:float|double|long\s+double)"
                         r"\s*>", text):
        findings.append(Finding(
            path, line_of(offsets, m.start()), "atomic-fp",
            "std::atomic over a floating-point type"))

    allowed = isa_files if isa_files is not None else dispatch_files(None)
    if not any(rel_posix.endswith(f) for f in allowed):
        for m in HOST_QUERY_RE.finditer(text):
            findings.append(Finding(
                path, line_of(offsets, m.start()), "host-dispatch",
                f"'{m.group(0).rstrip('( ')}' queries the host CPU outside "
                f"{HOST_DISPATCH_FILE}"))
        for m in ISA_CODE_RE.finditer(text):
            findings.append(Finding(
                path, line_of(offsets, m.start()), "host-dispatch",
                f"'{m.group(0).rstrip('( ')}' compiles ISA code outside "
                f"{HOST_DISPATCH_FILE} and its .inc files"))

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
                  f"DETLINT-ALLOW({allow.rule}) suppresses nothing",
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
    sources = {}
    for full, rel in sorted(files):
        with open(full, encoding="utf-8", errors="replace") as handle:
            sources[(full, rel)] = handle.read()
    kernels_raw = next((raw for (_, rel), raw in sources.items()
                        if rel.replace(os.sep, "/").endswith(
                            HOST_DISPATCH_FILE)), None)
    isa_files = dispatch_files(kernels_raw)
    for (full, rel), raw in sources.items():
        file_findings, _ = scan_file(full, rel, raw, isa_files)
        findings.extend(file_findings)

    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        rule_help = RULES.get(finding.rule, "")
        print(f"{finding.path}:{finding.line}: [{finding.rule}] "
              f"{finding.detail}" + (f" — {rule_help}" if rule_help else ""))
    if findings:
        print(f"\nlint_determinism: {len(findings)} finding(s). Rewrite onto "
              "the deterministic helpers or add "
              "`// DETLINT-ALLOW(<rule>): <reason>`.")
        return 1
    print(f"lint_determinism: clean ({len(files)} files).")
    return 0


# --- self-test --------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, source, expected rule names after waivers[, scanned as])
    ("raw parallel_for flagged",
     "void f(util::ThreadPool* p){ p->parallel_for(n, body); }",
     ["raw-parallel-dispatch"]),
    ("raw parallel_for waived",
     "void f(util::ThreadPool* p){\n"
     "  // DETLINT-ALLOW(raw-parallel-dispatch): per-job RNG streams\n"
     "  p->parallel_for(n, body);\n}",
     []),
    ("waiver without reason is an error",
     "// DETLINT-ALLOW(raw-parallel-dispatch)\np->parallel_for(n, b);\n",
     ["malformed-allow", "raw-parallel-dispatch"]),
    ("waiver with unknown rule is an error",
     "// DETLINT-ALLOW(no-such-rule): because\nint x;\n",
     ["malformed-allow"]),
    ("captured accumulator in parallel body",
     "double sum = 0;\n"
     "pool.parallel_for(n, [&](std::size_t i) {\n"
     "  sum += value(i);\n"
     "});\n",
     ["raw-parallel-dispatch", "fp-accumulate-parallel"]),
    ("extent-local accumulator is fine",
     "util::chunked_for(pool, n, grain, [&](std::size_t i) {\n"
     "  double local = 0;\n"
     "  local += value(i);\n"
     "  out[i] = local;\n"
     "});\n",
     []),
    ("captured counter increment in parallel body",
     "util::run_chunks(pool, chunks, [&](std::size_t c) {\n"
     "  ++hits;\n"
     "});\n",
     ["fp-accumulate-parallel"]),
    ("loop variable increments are fine",
     "util::run_chunks(pool, chunks, [&](std::size_t c) {\n"
     "  for (std::size_t i = lo; i < hi; ++i) out[i] = f(i);\n"
     "});\n",
     []),
    ("member chain accumulation is attributed to the base",
     "pool.submit([&] {\n"
     "  stats.total += 1.0;\n"
     "});\n",
     ["fp-accumulate-parallel"]),
    # MPMC raw-dispatch fixtures: a dispatcher thread draining a lock-free
    # ring is a parallel extent — pop order is scheduling-dependent,
    # so captured accumulation there is exactly the nondeterministic FP
    # fold the serving tier must not contain.
    ("mpmc dispatcher thread accumulating captured state",
     "std::thread dispatcher([&] {\n"
     "  Request request;\n"
     "  while (shard.queue.try_pop(request)) {\n"
     "    total_energy += request.energy;\n"
     "  }\n"
     "});\n",
     ["fp-accumulate-parallel"]),
    ("mpmc dispatcher draining into per-request slots is fine",
     "std::thread dispatcher([&] {\n"
     "  Request request;\n"
     "  while (shard.queue.try_pop(request)) {\n"
     "    double local = score(request);\n"
     "    local += request.bias;\n"
     "    out[request.slot] = local;\n"
     "  }\n"
     "});\n",
     []),
    ("mpmc dispatcher metric increment needs a justified waiver",
     "std::thread dispatcher([&] {\n"
     "  Request request;\n"
     "  while (shard.queue.try_pop(request)) {\n"
     "    // DETLINT-ALLOW(fp-accumulate-parallel): relaxed monotonic "
     "metric, never feeds a result\n"
     "    ++popped;\n"
     "  }\n"
     "});\n",
     []),
    ("random_device flagged",
     "std::random_device rd;\n",
     ["rng-source"]),
    ("mt19937 flagged",
     "std::mt19937 gen(42);\n",
     ["rng-source"]),
    ("time-seeded flagged",
     "auto seed = time(nullptr);\n",
     ["rng-source"]),
    ("steady_clock without rng context is fine",
     "auto t0 = std::chrono::steady_clock::now();\n",
     []),
    ("clock as seed flagged",
     "rng.seed(std::chrono::steady_clock::now().time_since_epoch()"
     ".count());\n",
     ["rng-source"]),
    ("unordered iteration flagged",
     "std::unordered_map<std::string, int> table;\n"
     "for (const auto& kv : table) use(kv);\n",
     ["unordered-iteration"]),
    ("unordered lookup is fine",
     "std::unordered_map<std::string, int> table;\n"
     "auto it = table.find(key);\n",
     []),
    ("atomic double flagged",
     "std::atomic<double> acc{0.0};\n",
     ["atomic-fp"]),
    ("atomic integer is fine",
     "std::atomic<std::uint64_t> count{0};\n",
     []),
    ("patterns inside comments and strings are ignored",
     "// std::random_device in a comment\n"
     "const char* s = \"std::atomic<double>\";\n",
     []),
    # CPU-feature queries: only la/kernels.cpp may choose code by the host
    # ISA.  A case may name the file it is scanned as (default
    # self_test.cpp).
    ("cpu feature query flagged",
     "if (__builtin_cpu_supports(\"avx2\")) fast(); else slow();\n",
     ["host-dispatch"]),
    ("cpuid and auxv hwcap queries flagged",
     "__builtin_cpu_init();\n"
     "unsigned a, b, c, d;\n"
     "__get_cpuid_count(7, 0, &a, &b, &c, &d);\n"
     "const auto caps = getauxval(AT_HWCAP2);\n",
     ["host-dispatch", "host-dispatch", "host-dispatch"]),
    ("other auxv entries are fine",
     "const auto page = getauxval(AT_PAGESZ);\n",
     []),
    ("cpu feature query waived",
     "// DETLINT-ALLOW(host-dispatch): picks a logging format, never a "
     "result\n"
     "const bool wide = __builtin_cpu_supports(\"avx512f\");\n",
     []),
    ("cpu feature query in the kernels file is allowed",
     "static const bool ok = [] {\n"
     "  __builtin_cpu_init();\n"
     "  return __builtin_cpu_supports(\"avx512f\") != 0;\n"
     "}();\n",
     [], "la/kernels.cpp"),
    # ISA code: a target attribute lets GCC fuse a*b + c into an fma in
    # that function, so it belongs in the -ffp-contract=off file.
    ("target attributes, target pragma and intrinsics header flagged",
     "#include <immintrin.h>\n"
     "[[gnu::target(\"avx512f\")]] void adam(double* p);\n"
     "__attribute__((target(\"avx2,fma\"))) void axpy(double* y);\n"
     "#pragma GCC target(\"avx2\")\n",
     ["host-dispatch", "host-dispatch", "host-dispatch", "host-dispatch"]),
    ("ISA code waived",
     "// DETLINT-ALLOW(host-dispatch): integer-only popcount, no FP math\n"
     "[[gnu::target(\"popcnt\")]] int count(unsigned long x);\n",
     []),
    ("ISA code in the kernels file is allowed",
     "#include <immintrin.h>\n"
     "[[gnu::target(\"avx512f\")]] void gemm_nt_avx512();\n",
     [], "la/kernels.cpp"),
    ("ISA code in an .inc the kernels file includes is allowed",
     "template <class V>\n"
     "COCKTAIL_LANES_TARGET void f();\n"
     "[[gnu::target(\"avx512f\")]] void g();\n",
     [], "la/tanh_lanes.inc"),
    ("ISA code in an .inc the kernels file does not include is flagged",
     "[[gnu::target(\"avx512f\")]] void g();\n",
     ["host-dispatch"], "la/stray.inc"),
]

# The kernels file the self-test's ISA cases are scanned against.
SELF_TEST_KERNELS = '#include "la/tanh_lanes.inc"\n'


def self_test() -> int:
    failures = 0
    for name, source, expected, *rel in SELF_TEST_CASES:
        found, _ = scan_file("<self-test>", rel[0] if rel else "self_test.cpp",
                             source, dispatch_files(SELF_TEST_KERNELS))
        got = sorted(f.rule for f in found)
        if got != sorted(expected):
            print(f"self-test FAILED: {name}\n  expected {sorted(expected)}"
                  f"\n  got      {got}", file=sys.stderr)
            failures += 1
    if failures:
        return 2
    print(f"lint_determinism: self-test passed "
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
