"""The rule API of ``repro lint``: findings, rules, per-file context.

Every invariant the project enforces by convention — CounterRNG-only
randomness, kernel/oracle pairing, multiprocessing confined to the
worker module, stable checkpoint payloads — is expressed as a
:class:`Rule` with a stable id (``R001``...).  A rule inspects parsed source (``ast`` trees, never
regexes over code) and emits :class:`Finding` records; the engine in
:mod:`repro.analysis.engine` applies inline suppressions and formats
the survivors.

Suppressions
------------
A finding is silenced by a comment on the offending line::

    value = time.perf_counter()   # repro-lint: disable=R001 -- why...

or by a standalone comment directly above it (for lines with no room)::

    # repro-lint: disable=R001 -- wall-clock stats, injectable in tests
    value = time.perf_counter()

Several ids may be given (``disable=R001,R006``).  Text after the ids
is the justification — the project requires one, though the tool does
not parse it.  Every suppression must actually silence something: a
suppression that matches no finding is itself reported as ``R000``
(unused suppression), so stale escapes cannot accumulate.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

#: Pseudo-rule id for unused suppressions (cannot itself be disabled).
UNUSED_SUPPRESSION = "R000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<file>-file)?\s*=\s*"
    r"(?P<ids>R\d{3}(?:\s*,\s*R\d{3})*)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str           # project-root-relative, posix separators
    line: int           # 1-based
    rule: str           # "R001"
    message: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Suppression:
    """One ``# repro-lint: disable=...`` comment occurrence."""

    path: str
    comment_line: int       # where the comment physically sits
    target_line: int | None  # line it silences (None = whole file)
    rules: tuple[str, ...]
    used: set[str] = field(default_factory=set)


class FileInfo:
    """A parsed source file plus its suppression table."""

    def __init__(self, path: Path, rel: str, source: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.lines = source.splitlines()
        self.suppressions: list[Suppression] = []
        self._scan_suppressions()

    # -- suppression handling -------------------------------------------------

    def _scan_suppressions(self) -> None:
        comments: list[tuple[int, str, bool]] = []  # (line, text, standalone)
        try:
            for token in tokenize.generate_tokens(StringIO(self.source)
                                                  .readline):
                if token.type == tokenize.COMMENT:
                    standalone = token.string == token.line.strip()
                    comments.append((token.start[0], token.string,
                                     standalone))
        except tokenize.TokenError:      # pragma: no cover - ast parsed OK
            return
        for line, text, standalone in comments:
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            rules = tuple(part.strip()
                          for part in match.group("ids").split(","))
            if match.group("file"):
                target = None
            elif standalone:
                target = self._next_code_line(line)
            else:
                target = line
            self.suppressions.append(
                Suppression(self.rel, line, target, rules))

    def _next_code_line(self, after: int) -> int:
        for offset, text in enumerate(self.lines[after:], start=after + 1):
            stripped = text.strip()
            if stripped and not stripped.startswith("#"):
                return offset
        return after     # trailing comment: degenerate, matches nothing

    def suppressed(self, finding: Finding) -> bool:
        """Whether a suppression covers the finding (marks it used)."""
        hit = False
        for sup in self.suppressions:
            if finding.rule not in sup.rules:
                continue
            if sup.target_line is None or sup.target_line == finding.line:
                sup.used.add(finding.rule)
                hit = True
        return hit

    def unused_suppressions(self) -> list[Finding]:
        out = []
        for sup in self.suppressions:
            for rule in sup.rules:
                if rule in sup.used:
                    continue
                scope = ("the file" if sup.target_line is None
                         else f"line {sup.target_line}")
                out.append(Finding(
                    self.rel, sup.comment_line, UNUSED_SUPPRESSION,
                    f"unused suppression: {rule} reports nothing on "
                    f"{scope} — remove the comment"))
        return out


class Rule:
    """Base class: one named, suppressible project invariant.

    Subclasses set the class attributes and override :meth:`check_file`
    (called once per package file) and/or :meth:`check_project` (called
    once, after every file, for cross-file invariants).
    """

    rule_id: str = "R???"
    title: str = ""
    rationale: str = ""

    def check_file(self, info: FileInfo, ctx) -> list[Finding]:
        return []

    def check_project(self, ctx) -> list[Finding]:
        return []

    def finding(self, info_or_rel, line: int, message: str) -> Finding:
        rel = (info_or_rel.rel if isinstance(info_or_rel, FileInfo)
               else str(info_or_rel))
        return Finding(rel, line, self.rule_id, message)
