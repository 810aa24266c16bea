#!/usr/bin/env python3
"""Repo-invariant linter: cheap, dependency-free checks for rules that
neither the compiler nor clang-tidy can see, wired into ctest (and CI)
as `lint.invariants`.

Checked invariants:

  1. Metric naming: every name registered through
     MetricsRegistry::counter/gauge/histogram starts with `mmlpt_`;
     counters end `_total`; histograms end with a unit token
     (`_seconds`, `_probes`, `_channels`, `_bytes`); gauges do neither.
     Label keys used at registration sites stay within the small
     vocabulary the dashboards key on.

  2. CLI option tables (tools/cli_common.cpp): every long flag has its
     row in exactly one *_option_table() (--socket alone has two: mmlptd
     listens on it, mmlpt_client connects to it), every flag a table
     documents is consumed by a Flags parse call somewhere under tools/,
     and no tools/*.cpp holds a literal option row (a string literal
     opening with "  --x" or "  -6"): every usage row comes from a table, so usage
     text and parser cannot drift apart and a flag reads the same in
     every tool.

  3. Frame-type completeness: the FrameType enumerators in
     src/daemon/protocol.h and the cases of is_known_frame_type() in
     src/daemon/protocol.cpp are exactly the same set, so a new frame
     kind cannot be added without teaching the skip/refuse logic about
     it.

  4. Include-guard hygiene: every header under src/ and tools/ opens
     with the canonical `#ifndef MMLPT_<PATH>_H` guard derived from its
     path (so guards cannot collide) and defines it on the next
     preprocessor line.

  5. Atomics discipline: every `memory_order_relaxed` use carries a
     justification — a comment mentioning "relaxed" on the same line or
     within the three lines above. Relaxed is correct surprisingly
     rarely; the comment is the reviewer's handle on *why* it is here.

Exit status: 0 clean, 1 violations (each printed as file:line: rule:
message), 2 internal error (e.g. a parsed file moved).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

VIOLATIONS: list[str] = []


def violation(path: Path, line: int, rule: str, message: str) -> None:
    rel = path.relative_to(REPO)
    VIOLATIONS.append(f"{rel}:{line}: {rule}: {message}")


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def source_files(*roots: str, suffixes: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        base = REPO / root
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                files.append(path)
    return files


# ---- 1. metric naming ---------------------------------------------------

METRIC_CALL = re.compile(
    r"\b(counter|gauge|histogram)\s*\(\s*\"([^\"]+)\"", re.S
)
HISTOGRAM_UNITS = ("_seconds", "_probes", "_channels", "_bytes")
ALLOWED_LABEL_KEYS = {"transport", "scope", "outcome"}
LABEL_KEY = re.compile(r"\{\{\s*\"([a-z0-9_]+)\"")


def check_metric_naming() -> None:
    for path in source_files("src", "tools", suffixes=(".cpp", ".h")):
        text = path.read_text()
        for match in METRIC_CALL.finditer(text):
            kind, name = match.group(1), match.group(2)
            at = line_of(text, match.start())
            if not re.fullmatch(r"mmlpt_[a-z0-9_]+", name):
                violation(path, at, "metric-naming",
                          f"{kind} name '{name}' must match mmlpt_[a-z0-9_]+")
                continue
            if kind == "counter" and not name.endswith("_total"):
                violation(path, at, "metric-naming",
                          f"counter '{name}' must end in _total")
            if kind == "histogram" and not name.endswith(HISTOGRAM_UNITS):
                violation(path, at, "metric-naming",
                          f"histogram '{name}' must end in a unit token "
                          f"{HISTOGRAM_UNITS}")
            if kind == "gauge" and name.endswith("_total"):
                violation(path, at, "metric-naming",
                          f"gauge '{name}' must not end in _total "
                          "(reserved for counters)")
        # Label keys appear in obs::Labels declarations and inline in
        # registration calls; trace-event args reuse the same brace
        # syntax and are exempt, so only scan those two contexts.
        label_regions: list[tuple[int, str]] = []
        for match in re.finditer(r"obs::Labels[^;]*;", text, re.S):
            label_regions.append((match.start(), match.group(0)))
        for match in METRIC_CALL.finditer(text):
            end = text.find(";", match.start())
            label_regions.append((match.start(), text[match.start():end]))
        for start, region in label_regions:
            for match in LABEL_KEY.finditer(region):
                key = match.group(1)
                if key not in ALLOWED_LABEL_KEYS:
                    violation(path, line_of(text, start + match.start()),
                              "metric-labels",
                              f"label key '{key}' is outside the allowed "
                              f"set {sorted(ALLOWED_LABEL_KEYS)}")


# ---- 2. CLI option tables ----------------------------------------------

OPTION_TABLE = re.compile(
    r"(\w+_option_table)\s*\(\)\s*\{(.*?)\n\}", re.S
)
TABLE_ENTRY = re.compile(r"\{\s*\"([^\"]+)\"")
LONG_FLAG = re.compile(r"--([a-z0-9][a-z0-9-]*)")
PARSE_CALL = re.compile(
    r"\b(?:get|get_int|get_uint|get_double|get_bool|has)\s*\(\s*\"([a-z0-9-]+)\""
)


# Flags that mean different things in different tools, one row each.
PER_TOOL_FLAGS = {"socket"}
LITERAL_OPTION_ROW = re.compile(r'"  -(?:-[a-z]|[0-9])')


def check_option_tables() -> None:
    cli_common = REPO / "tools" / "cli_common.cpp"
    text = cli_common.read_text()

    parsed_flags: set[str] = set()
    for path in source_files("tools", suffixes=(".cpp", ".h")):
        parsed_flags.update(PARSE_CALL.findall(path.read_text()))

    tables = OPTION_TABLE.findall(text)
    if not tables:
        violation(cli_common, 1, "option-tables",
                  "found no *_option_table() definitions — the parser "
                  "in this linter needs updating")
        return
    seen: dict[str, tuple[str, int]] = {}
    for table_name, body in tables:
        offset = text.find(body)
        for entry in TABLE_ENTRY.finditer(body):
            spec = entry.group(1)
            at = line_of(text, offset + entry.start())
            flags = LONG_FLAG.findall(spec)
            if not flags:
                violation(cli_common, at, "option-tables",
                          f"{table_name}: entry '{spec}' documents no "
                          "--long-flag")
                continue
            for flag in flags:
                first = seen.get(flag)
                if first and (first[0] == table_name
                              or flag not in PER_TOOL_FLAGS):
                    violation(cli_common, at, "option-tables",
                              f"{table_name}: --{flag} already has a row "
                              f"in {first[0]} (line {first[1]})")
                seen.setdefault(flag, (table_name, at))
                if flag not in parsed_flags:
                    violation(cli_common, at, "option-tables",
                              f"{table_name}: --{flag} is documented but "
                              "no Flags::get*/has call consumes it")

    for path in source_files("tools", suffixes=(".cpp",)):
        source = path.read_text()
        for match in LITERAL_OPTION_ROW.finditer(source):
            violation(path, line_of(source, match.start()), "option-tables",
                      "literal option row: add an OptionSpec to a "
                      "*_option_table() in tools/cli_common.cpp instead")


# ---- 3. frame-type completeness ----------------------------------------

ENUMERATOR = re.compile(r"\bk([A-Z][A-Za-z0-9]*)\s*=\s*\d+")
KNOWN_CASE = re.compile(r"case\s+FrameType::k([A-Z][A-Za-z0-9]*)\s*:")


def check_frame_types() -> None:
    header = REPO / "src" / "daemon" / "protocol.h"
    source = REPO / "src" / "daemon" / "protocol.cpp"
    header_text = header.read_text()
    enum_match = re.search(
        r"enum class FrameType[^{]*\{(.*?)\};", header_text, re.S
    )
    if not enum_match:
        violation(header, 1, "frame-types", "cannot find enum FrameType")
        return
    enumerators = set(ENUMERATOR.findall(enum_match.group(1)))

    source_text = source.read_text()
    known_match = re.search(
        r"bool is_known_frame_type[^{]*\{(.*?)\n\}", source_text, re.S
    )
    if not known_match:
        violation(source, 1, "frame-types",
                  "cannot find is_known_frame_type()")
        return
    cases = set(KNOWN_CASE.findall(known_match.group(1)))

    for missing in sorted(enumerators - cases):
        violation(source, line_of(source_text, known_match.start()),
                  "frame-types",
                  f"FrameType::k{missing} is not listed in "
                  "is_known_frame_type() — receivers would treat a "
                  "legitimate frame kind as unknown")
    for stale in sorted(cases - enumerators):
        violation(source, line_of(source_text, known_match.start()),
                  "frame-types",
                  f"is_known_frame_type() lists FrameType::k{stale}, "
                  "which the enum does not define")


# ---- 4. include guards --------------------------------------------------


def expected_guard(path: Path) -> str:
    rel = path.relative_to(REPO)
    parts = list(rel.parts)
    if parts[0] == "src":
        parts = parts[1:]  # src/ is the include root
    stem = "_".join(parts)
    stem = re.sub(r"\.h$", "", stem)
    return "MMLPT_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H"


def check_include_guards() -> None:
    for path in source_files("src", "tools", suffixes=(".h",)):
        text = path.read_text()
        guard = expected_guard(path)
        ifndef = re.search(r"^#ifndef\s+(\S+)", text, re.M)
        if not ifndef:
            violation(path, 1, "include-guard",
                      f"header has no #ifndef include guard (want {guard})")
            continue
        if ifndef.group(1) != guard:
            violation(path, line_of(text, ifndef.start()), "include-guard",
                      f"guard is {ifndef.group(1)}, canonical form for "
                      f"this path is {guard}")
            continue
        define = re.search(
            rf"^#define\s+{re.escape(guard)}\b", text, re.M
        )
        if not define:
            violation(path, line_of(text, ifndef.start()), "include-guard",
                      f"#ifndef {guard} is not followed by a matching "
                      "#define")


# ---- 5. relaxed atomics need justification ------------------------------

RELAXED = "memory_order_relaxed"


def check_relaxed_atomics() -> None:
    for path in source_files("src", "tools", suffixes=(".cpp", ".h")):
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            if RELAXED not in line:
                continue
            window = lines[max(0, index - 3): index + 1]
            justified = any(
                "relaxed" in text.split("//", 1)[1].lower()
                for text in window
                if "//" in text
            )
            if not justified:
                violation(path, index + 1, "relaxed-atomics",
                          "memory_order_relaxed without a justifying "
                          "comment (mention 'relaxed' on the line or "
                          "within 3 lines above)")


def main() -> int:
    check_metric_naming()
    check_option_tables()
    check_frame_types()
    check_include_guards()
    check_relaxed_atomics()
    if VIOLATIONS:
        for entry in VIOLATIONS:
            print(entry)
        print(f"lint_invariants: {len(VIOLATIONS)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except OSError as error:
        print(f"lint_invariants: internal error: {error}", file=sys.stderr)
        sys.exit(2)
