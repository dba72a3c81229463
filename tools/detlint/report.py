"""JSON report rendering and baseline checking for detlint.

The committed baseline (``tools/detlint_baseline.json``) pins the
tree's audited state: zero findings, plus the exact multiset of
``allow()`` suppressions per (file, rule), each with the reasons its
comments give (recorded for review; only the counts are checked).  CI fails when a new
finding appears *or* when a suppression is added/removed without the
baseline being updated alongside it — suppressions are part of the
review surface, not an escape hatch.
"""

from __future__ import annotations

import json
from collections import Counter

from . import SCHEMA
from .rules import RULES


def build_report(results, notes, engine: str) -> dict:
    findings = [f for r in results for f in r.findings]
    suppressions = [s for r in results for s in r.suppressions]
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))
    suppressions.sort(key=lambda s: (s["file"], s["line"], s["rule"]))
    return {
        "schema": SCHEMA,
        "engine": engine,
        "rules": [{"name": r.name, "classes": list(r.classes),
                   "summary": r.summary} for r in RULES],
        "files_scanned": len(results),
        "finding_count": len(findings),
        "suppression_count": len(suppressions),
        "findings": findings,
        "suppressions": suppressions,
        "notes": notes,
    }


def baseline_from_report(report: dict) -> dict:
    counts = Counter((s["file"], s["rule"]) for s in report["suppressions"])
    reasons: dict[tuple[str, str], set[str]] = {}
    for s in report["suppressions"]:
        reasons.setdefault((s["file"], s["rule"]), set()).add(s["reason"])
    return {
        "schema": SCHEMA + "-baseline",
        "finding_count": 0,
        "suppressions": [
            {"file": file, "rule": rule, "count": count,
             "reasons": sorted(reasons[(file, rule)])}
            for (file, rule), count in sorted(counts.items())
        ],
    }


def check_baseline(report: dict, baseline: dict) -> list[str]:
    """Return human-readable mismatches (empty when clean)."""
    problems = []
    if report["finding_count"] != 0:
        problems.append(
            f"{report['finding_count']} finding(s) present; the baseline "
            "requires a clean tree")
    current = Counter((s["file"], s["rule"]) for s in report["suppressions"])
    pinned = Counter({(s["file"], s["rule"]): s["count"]
                      for s in baseline.get("suppressions", [])})
    for key in sorted(set(current) | set(pinned)):
        have, want = current.get(key, 0), pinned.get(key, 0)
        if have != want:
            file, rule = key
            problems.append(
                f"{file}: {have} allow({rule}) suppression(s), baseline "
                f"pins {want} — update tools/detlint_baseline.json with "
                "--update-baseline if this is intentional")
    return problems


def render_text(report: dict, verbose: bool = False) -> str:
    lines = []
    for f in report["findings"]:
        lines.append(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
        if f.get("snippet"):
            lines.append(f"    {f['snippet']}")
    if verbose:
        for s in report["suppressions"]:
            lines.append(
                f"{s['file']}:{s['line']}: suppressed [{s['rule']}] -- "
                f"{s['reason']}")
    lines.append(
        f"detlint: {report['files_scanned']} file(s), "
        f"{report['finding_count']} finding(s), "
        f"{report['suppression_count']} audited suppression(s)"
        f" [engine={report['engine']}]")
    return "\n".join(lines)


def write_json(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
