"""The detlint rule catalogue.

Every rule is a predicate over the comment/string-blanked code view of
one file (see ``source.py``).  Rules are gated per module class:

* ``deterministic`` — ``src/battery``, ``src/power``, ``src/core``,
  ``src/dynamo``, ``src/sim``, ``src/reliability``, ``src/trace``: the
  modules whose outputs feed the golden artifacts.  All rules apply.
* ``infra`` — ``src/util``, ``src/obs``: support code that may keep
  thread-local scratch or iterate unordered containers for lookups,
  but must still never smuggle wall clock, entropy, library-defined
  samplers, environment knobs, or unmanaged threads into the
  simulation (only ``TraceSpan`` reads a clock, under an audited
  suppression).

Findings are (rule, line, message, snippet) tuples; the engine applies
suppressions afterwards so unused ``allow`` comments can be reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .source import SourceFile

DETERMINISTIC_MODULES = (
    "battery",
    "power",
    "core",
    "dynamo",
    "sim",
    "reliability",
    "trace",
)
INFRA_MODULES = ("util", "obs")

DETERMINISTIC = "deterministic"
INFRA = "infra"


@dataclass(frozen=True)
class Finding:
    rule: str
    line: int
    message: str
    snippet: str


@dataclass(frozen=True)
class Rule:
    name: str
    classes: tuple[str, ...]
    summary: str
    check: Callable[[SourceFile], list[Finding]]


def _line_findings(src: SourceFile, rule: str, pattern: re.Pattern,
                   message: str) -> list[Finding]:
    findings = []
    for i, line in enumerate(src.code_lines):
        if pattern.search(line):
            findings.append(Finding(rule=rule, line=i + 1, message=message,
                                    snippet=src.lines[i].strip()))
    return findings


# -- unordered-container ---------------------------------------------

_UNORDERED_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\b")


def _check_unordered(src: SourceFile) -> list[Finding]:
    return _line_findings(
        src, "unordered-container", _UNORDERED_RE,
        "std::unordered_* in a deterministic module: iteration order "
        "follows hash-bucket layout. Use std::map/std::set, or justify "
        "a keyed-lookup-only use with an allow() comment.")


# -- wall-clock ------------------------------------------------------

_WALL_CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\bstd::time\s*\("
    r"|(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\b(?:localtime|gmtime)(?:_r)?\s*\(")


def _check_wall_clock(src: SourceFile) -> list[Finding]:
    return _line_findings(
        src, "wall-clock", _WALL_CLOCK_RE,
        "wall-clock read: simulated results must be a function of the "
        "event queue's virtual time only. Span-only timing may carry "
        "an allow() comment.")


# -- entropy ---------------------------------------------------------

_ENTROPY_RE = re.compile(
    r"\bstd::random_device\b"
    r"|\bstd::s?rand\s*\("
    r"|(?<![\w:])s?rand\s*\("
    r"|\bgetentropy\s*\("
    r"|\bgetrandom\s*\(")


def _check_entropy(src: SourceFile) -> list[Finding]:
    return _line_findings(
        src, "entropy", _ENTROPY_RE,
        "entropy source: all randomness must flow through util::Rng "
        "seeded from the scenario config so runs replay bit-identically.")


# -- env-read --------------------------------------------------------

_ENV_READ_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")


def _check_env_read(src: SourceFile) -> list[Finding]:
    return _line_findings(
        src, "env-read", _ENV_READ_RE,
        "environment read: a knob outside the scenario config and the "
        "command line can change what runs without showing in any "
        "artifact. Make it an option, or justify the read with an "
        "allow() comment.")


# -- thread-local ----------------------------------------------------

_THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")


def _check_thread_local(src: SourceFile) -> list[Finding]:
    return _line_findings(
        src, "thread-local", _THREAD_LOCAL_RE,
        "thread_local state in a deterministic module: values become a "
        "function of thread scheduling, which --threads must not "
        "influence.")


# -- raw-thread ------------------------------------------------------

_RAW_THREAD_RE = re.compile(
    r"\bstd::(?:thread|jthread)\b"
    r"|#\s*include\s*<(?:thread|pthread\.h)>"
    r"|\bpthread_create\s*\("
    r"|\.detach\s*\(\s*\)")


def _check_raw_thread(src: SourceFile) -> list[Finding]:
    return _line_findings(
        src, "raw-thread", _RAW_THREAD_RE,
        "raw thread: parallelism must go through util::ThreadPool / "
        "parallelFor, whose reduction order is deterministic.")


# -- std-distribution ------------------------------------------------

_STD_DISTRIBUTION_RE = re.compile(
    r"\bstd::\w+_distribution\b"
    r"|\bstd::generate_canonical\b"
    r"|\bstd::shuffle\b")


def _check_std_distribution(src: SourceFile) -> list[Finding]:
    return _line_findings(
        src, "std-distribution", _STD_DISTRIBUTION_RE,
        "standard-library sampler: the algorithms behind "
        "std::*_distribution, std::generate_canonical and std::shuffle "
        "are implementation-defined, so the bytes would follow the "
        "library. Draw through util::Rng / util::SeededStream, whose "
        "samplers are repo-owned.")


# -- pointer-sort-key ------------------------------------------------

_LAMBDA_INTRO_RE = re.compile(r"\[[^\[\]]*\]\s*\(([^()]*)\)")
_PTR_PARAM_RE = re.compile(
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*\s*(?:const\s+)?(\w+)\s*$")
_STD_LESS_PTR_RE = re.compile(r"\bstd::less\s*<[^<>]*\*\s*>")


def _check_pointer_sort_key(src: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    code = src.code
    for m in _STD_LESS_PTR_RE.finditer(code):
        line = code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            rule="pointer-sort-key", line=line,
            message="std::less over a pointer type: ordering follows "
                    "allocation addresses, which vary run to run.",
            snippet=src.lines[line - 1].strip()))
    for m in _LAMBDA_INTRO_RE.finditer(code):
        params = [p.strip() for p in m.group(1).split(",") if p.strip()]
        if len(params) != 2:
            continue
        names = []
        for p in params:
            pm = _PTR_PARAM_RE.search(p)
            if pm:
                names.append(pm.group(1))
        if len(names) != 2:
            continue
        located = _lambda_body(code, m.end())
        if located is None:
            continue
        body_start, body = located
        a, b = re.escape(names[0]), re.escape(names[1])
        compare = re.compile(
            rf"(?<![\w.>]){a}\s*(?:[<>]=?)\s*{b}(?!\w)"
            rf"|(?<![\w.>]){b}\s*(?:[<>]=?)\s*{a}(?!\w)")
        for bm in compare.finditer(body):
            line = code.count("\n", 0, body_start + bm.start()) + 1
            findings.append(Finding(
                rule="pointer-sort-key", line=line,
                message="comparator orders by raw pointer value: sort "
                        "results follow allocation addresses. Compare "
                        "through the pointees' fields (with a stable id "
                        "tiebreak) instead.",
                snippet=src.lines[line - 1].strip()))
    return findings


def _lambda_body(code: str, start: int) -> tuple[int, str] | None:
    """Return (start index, text) of the brace-balanced body of the
    lambda whose parameter list ends just before *start* (skipping
    specifiers/trailing return type), or None when no body opens
    within the next 200 chars."""
    n = len(code)
    i = start
    while i < n and code[i] != "{":
        if i - start > 200 or code[i] == ";":
            return None
        i += 1
    if i >= n:
        return None
    depth = 0
    j = i
    while j < n:
        if code[j] == "{":
            depth += 1
        elif code[j] == "}":
            depth -= 1
            if depth == 0:
                return i, code[i:j + 1]
        j += 1
    return i, code[i:]


# -- catalogue -------------------------------------------------------

RULES: tuple[Rule, ...] = (
    Rule("unordered-container", (DETERMINISTIC,),
         "iteration over std::unordered_{map,set} (hash-bucket order)",
         _check_unordered),
    Rule("wall-clock", (DETERMINISTIC, INFRA),
         "wall-clock reads outside span-only code",
         _check_wall_clock),
    Rule("entropy", (DETERMINISTIC, INFRA),
         "entropy sources bypassing the seeded util::Rng",
         _check_entropy),
    Rule("std-distribution", (DETERMINISTIC, INFRA),
         "std::*_distribution / generate_canonical / shuffle "
         "(library-defined algorithms)",
         _check_std_distribution),
    Rule("env-read", (DETERMINISTIC, INFRA),
         "getenv / secure_getenv (environment knobs)",
         _check_env_read),
    Rule("pointer-sort-key", (DETERMINISTIC, INFRA),
         "sort keys/comparators over raw pointer values",
         _check_pointer_sort_key),
    Rule("thread-local", (DETERMINISTIC,),
         "thread_local state in deterministic modules",
         _check_thread_local),
    Rule("raw-thread", (DETERMINISTIC, INFRA),
         "raw std::thread / detached threads bypassing util::ThreadPool",
         _check_raw_thread),
)

RULES_BY_NAME = {rule.name: rule for rule in RULES}


def rules_for_class(module_class: str) -> list[Rule]:
    return [rule for rule in RULES if module_class in rule.classes]
