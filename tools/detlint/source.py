"""Comment/string-aware source model for detlint.

Rules must not fire on banned identifiers that only appear inside
comments, string literals, or character literals ("the doc that says
'never use rand()'" is not a violation).  ``SourceFile`` therefore
keeps two parallel views of every file:

* ``text``  — the raw bytes, for snippets and suppression comments;
* ``code``  — the same length/line structure with every comment and
  string/char literal blanked to spaces, for the rules to match on.

It also parses the two detlint comment directives:

* ``// detlint: allow(<rule>) -- <reason>``  suppresses findings of
  ``<rule>`` on the same line, or — when the comment is alone on its
  line — on the next non-blank code line, with any comment lines in
  between continuing the reason.  The reason is mandatory.
* ``// detlint: expect(<rule>)``  marks the line as an expected
  finding; used only by the fixture corpus under ``--selftest``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


# A line may carry several directives (fixtures pair a deliberately
# malformed allow() with the expect() that asserts its diagnosis), so
# all three patterns are applied with finditer.  An allow reason runs
# to the next `//` or end of line.
_ALLOW_RE = re.compile(
    r"//\s*detlint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*\)"
    r"(?:\s*--\s*((?:(?!//).)*))?"
)
_EXPECT_RE = re.compile(r"//\s*detlint:\s*expect\(\s*([A-Za-z0-9_-]+)\s*\)")
_DIRECTIVE_RE = re.compile(r"//\s*detlint:\s*(\w+)")


@dataclass
class Suppression:
    """One parsed ``allow`` directive."""

    rule: str
    line: int          # line the directive suppresses (1-based)
    comment_line: int  # line the comment itself sits on
    reason: str
    used: bool = False


@dataclass
class SourceFile:
    path: str
    text: str
    code: str = ""
    lines: list[str] = field(default_factory=list)        # raw lines
    code_lines: list[str] = field(default_factory=list)   # blanked lines
    suppressions: list[Suppression] = field(default_factory=list)
    expects: list[tuple[int, str]] = field(default_factory=list)
    # Lines carrying a malformed directive (allow without a reason,
    # unknown verb): reported as findings of the `bad-directive` rule.
    bad_directives: list[tuple[int, str]] = field(default_factory=list)

    @classmethod
    def load(cls, path: str) -> "SourceFile":
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        return cls.parse(path, text)

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        src = cls(path=path, text=text)
        src.code = _blank_non_code(text)
        src.lines = text.split("\n")
        src.code_lines = src.code.split("\n")
        src._parse_directives()
        return src

    # -- suppression queries ------------------------------------------

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        for sup in self.suppressions:
            if sup.rule == rule and sup.line == line:
                return sup
        return None

    def unused_suppressions(self) -> list[Suppression]:
        return [s for s in self.suppressions if not s.used]

    # -- internals ----------------------------------------------------

    def _parse_directives(self) -> None:
        for i, raw in enumerate(self.lines):
            line_no = i + 1
            # Directives live in real comments; the blanked view tells
            # us where code ends on this line.
            code_part = self.code_lines[i] if i < len(self.code_lines) else ""
            verbs = [m.group(1) for m in _DIRECTIVE_RE.finditer(raw)]
            if not verbs:
                continue
            expects = list(_EXPECT_RE.finditer(raw))
            allows = list(_ALLOW_RE.finditer(raw))
            for em in expects:
                self.expects.append((line_no, em.group(1)))
            for am in allows:
                reason = (am.group(2) or "").strip()
                if not reason:
                    self.bad_directives.append(
                        (line_no,
                         "allow() without a reason — write "
                         "'// detlint: allow(<rule>) -- <why this is safe>'"))
                    continue
                target = line_no
                if not code_part.strip():
                    # Comment-only line: suppress the next non-blank
                    # code line; plain comment lines before it continue
                    # the reason.
                    for j in range(i + 1, len(self.code_lines)):
                        if self.code_lines[j].strip():
                            target = j + 1
                            break
                        more = self.lines[j].strip()
                        if (more.startswith("//")
                                and not _DIRECTIVE_RE.search(more)):
                            reason += " " + more[2:].strip()
                self.suppressions.append(
                    Suppression(rule=am.group(1), line=target,
                                comment_line=line_no, reason=reason))
            for verb in verbs:
                if verb not in ("allow", "expect"):
                    self.bad_directives.append(
                        (line_no, f"unknown detlint directive '{verb}'"))
            # Verbs that named allow/expect but failed their full
            # syntax (e.g. `allow()` with no rule) are also malformed.
            if verbs.count("expect") > len(expects):
                self.bad_directives.append(
                    (line_no, "malformed expect() directive"))
            if verbs.count("allow") > len(allows):
                self.bad_directives.append(
                    (line_no, "malformed allow() directive — write "
                              "'// detlint: allow(<rule>) -- <reason>'"))


def _blank_non_code(text: str) -> str:
    """Return *text* with comments and string/char literals replaced by
    spaces, preserving length and newlines exactly."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and nxt == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:  # blank the closing */
                out[j] = " "
                out[j + 1] = " "
                j += 2
            i = j
        elif c == '"' and _raw_string_at(text, i):
            i = _blank_raw_string(text, out, i)
        elif c in ('"', "'"):
            quote = c
            out[i] = " "
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    if text[j] != "\n":
                        out[j] = " "
                    if text[j + 1] != "\n":
                        out[j + 1] = " "
                    j += 2
                    continue
                if text[j] == "\n":
                    break  # unterminated; stop at line end
                out[j] = " "
                j += 1
            if j < n and text[j] == quote:
                out[j] = " "
                j += 1
            i = j
        else:
            i += 1
    return "".join(out)


def _raw_string_at(text: str, i: int) -> bool:
    """True when the ``"`` at *i* opens a raw string literal R"...( ."""
    return i > 0 and text[i - 1] == "R" and (
        i < 2 or not (text[i - 2].isalnum() or text[i - 2] == "_"))


def _blank_raw_string(text: str, out: list[str], i: int) -> int:
    """Blank a raw string literal starting at the ``"`` at *i*; return
    the index just past its closing quote."""
    n = len(text)
    j = i + 1
    while j < n and text[j] != "(":
        j += 1
    delim = text[i + 1:j]
    closer = ")" + delim + '"'
    end = text.find(closer, j)
    if end == -1:
        end = n - len(closer)
    stop = min(n, end + len(closer))
    for k in range(i, stop):
        if text[k] != "\n":
            out[k] = " "
    return stop
