"""The ``repro lint`` runner: collect, parse, check, report.

The runner walks every ``*.py`` under the configured package root,
parses it once, hands the trees to each registered rule, applies the
inline-suppression table and reports the surviving findings.  It is
deliberately dependency-free and fast (a full run over this package is
well under a second of CPU plus one short subprocess for the registry
inspection pass) so CI can gate on it before any test lane starts.

Configuration lives in the repository's ``pytest.ini`` under a
``[repro-lint]`` section; every key falls back to the defaults below,
which describe this repository's layout.  Values are whitespace-
separated lists of package-relative paths unless noted.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path, PurePosixPath

from .model import FileInfo, Finding, Rule
from .pyindex import PyIndex


class LintError(Exception):
    """Configuration/usage problems: exit code 2, not a finding."""


@dataclass(frozen=True)
class LintConfig:
    """Where the invariants live in this repository."""

    #: Package root (root-relative) whose files are linted.
    package: str = "src/repro"
    #: Subtrees whose library state must be deterministic (R001).
    state_paths: tuple = ("core", "sketch", "hashing", "engine", "service")
    #: The only modules allowed to touch multiprocessing (R004).
    mp_modules: tuple = ("engine/workers.py", "engine/shm.py")
    #: The only modules allowed to construct SharedMemory (R004).
    shm_modules: tuple = ("engine/shm.py",)
    #: Subtrees subject to the numpy-overflow rules (R006).
    numeric_paths: tuple = ("sketch", "hashing")
    #: Subtrees whose ``async def`` bodies must not block (R007).
    async_paths: tuple = ("net",)
    #: Subtrees whose broad except handlers must re-raise or record
    #: the failure (R008).
    exception_paths: tuple = ("engine", "net", "service")
    #: Modules whose integer arithmetic was hand-audited for wrap
    #: safety (the PR-5 fused-kernel set): exempt from the R006
    #: arithmetic checks, NOT from the dtype-less-literal check.
    audited_modules: tuple = (
        "sketch/count_sketch.py", "sketch/count_min.py",
        "sketch/ams.py", "sketch/stable.py",
        "hashing/field.py", "hashing/kwise.py", "hashing/prng.py")
    #: Subtrees whose concrete ``update_many`` needs an oracle (R003).
    kernel_paths: tuple = ("sketch",)
    #: Test files that must reach every fused path (R003), root-relative.
    kernel_tests: tuple = ("tests/test_kernels.py",)
    #: The registry/checkpoint modules (package-relative) R002/R005 read.
    registry_module: str = "engine/registry.py"
    checkpoint_module: str = "engine/checkpoint.py"
    #: The wire-frame module (package-relative) whose encoders R005
    #: fingerprints against WIRE_VERSION.
    wire_module: str = "wire/frame.py"
    #: The R005 payload-fingerprint baseline, root-relative.
    baseline: str = "src/repro/analysis/format_baseline.json"
    #: Whether R002 may import the registry in a subprocess (bool).
    inspect: bool = True

    @classmethod
    def load(cls, root: Path) -> "LintConfig":
        """Defaults overridden by ``[repro-lint]`` in pytest.ini."""
        config = cls()
        ini = root / "pytest.ini"
        if not ini.is_file():
            return config
        parser = configparser.ConfigParser()
        try:
            parser.read(ini)
        except configparser.Error as exc:
            raise LintError(f"unreadable pytest.ini: {exc}") from exc
        if not parser.has_section("repro-lint"):
            return config
        section = parser["repro-lint"]
        overrides = {}
        for spec in fields(cls):
            if spec.name not in section:
                continue
            raw = section[spec.name]
            if spec.type == "bool" or isinstance(spec.default, bool):
                overrides[spec.name] = raw.strip().lower() in (
                    "1", "true", "yes", "on")
            elif isinstance(spec.default, tuple):
                overrides[spec.name] = tuple(raw.split())
            else:
                overrides[spec.name] = raw.strip()
        return replace(config, **overrides)


class LintContext:
    """Everything the rules may ask about the project under lint."""

    def __init__(self, root: Path, config: LintConfig):
        self.root = Path(root).resolve()
        self.config = config
        package_dir = self.root / config.package
        if not package_dir.is_dir():
            raise LintError(
                f"package directory {config.package!r} not found under "
                f"{self.root} (pass --root or fix [repro-lint] package)")
        self.files: list[FileInfo] = []
        for path in sorted(package_dir.rglob("*.py")):
            rel = path.relative_to(self.root).as_posix()
            try:
                self.files.append(FileInfo(path, rel, path.read_text()))
            except SyntaxError as exc:
                raise LintError(f"cannot parse {rel}: {exc}") from exc
        self.index = PyIndex(self.files)
        self._extra: dict[str, FileInfo | None] = {}

    # -- path helpers --------------------------------------------------------

    def pkg_rel(self, info: FileInfo) -> str:
        """Package-relative posix path (``core/base.py``)."""
        prefix = PurePosixPath(self.config.package)
        return str(PurePosixPath(info.rel).relative_to(prefix))

    def in_paths(self, info: FileInfo, paths) -> bool:
        """Whether the file sits under one of the package subtrees."""
        rel = self.pkg_rel(info)
        return any(rel == p or rel.startswith(p.rstrip("/") + "/")
                   for p in paths)

    def in_modules(self, info: FileInfo, modules) -> bool:
        return self.pkg_rel(info) in set(modules)

    def package_file(self, pkg_rel: str) -> FileInfo | None:
        for info in self.files:
            if self.pkg_rel(info) == pkg_rel:
                return info
        return None

    def extra_file(self, root_rel: str) -> FileInfo | None:
        """Parse a file outside the package (tests); cached; None if
        missing or unparseable."""
        if root_rel not in self._extra:
            path = self.root / root_rel
            try:
                self._extra[root_rel] = FileInfo(path, root_rel,
                                                 path.read_text())
            except (OSError, SyntaxError):
                self._extra[root_rel] = None
        return self._extra[root_rel]


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, id order."""
    from .rules_async import AsyncHygieneRule
    from .rules_determinism import DeterminismRule
    from .rules_exceptions import ExceptionHygieneRule
    from .rules_format import FormatDisciplineRule
    from .rules_kernels import KernelOraclePairingRule
    from .rules_mp import MpShmHygieneRule
    from .rules_numeric import NumpyOverflowRule
    from .rules_registry import RegistryCompletenessRule

    return [DeterminismRule(), RegistryCompletenessRule(),
            KernelOraclePairingRule(), MpShmHygieneRule(),
            FormatDisciplineRule(), NumpyOverflowRule(),
            AsyncHygieneRule(), ExceptionHygieneRule()]


def rule_table(rules=None) -> dict[str, str]:
    return {rule.rule_id: rule.title for rule in rules or default_rules()}


def run_lint(root, config: LintConfig | None = None,
             rules: list[Rule] | None = None,
             only: set[str] | None = None,
             ctx: LintContext | None = None) -> list[Finding]:
    """Run the rules and return the surviving findings, sorted.

    ``only`` restricts to a set of rule ids (suppression accounting
    still runs so ``R000`` stays meaningful for the selected rules).
    Pass a prebuilt ``ctx`` to avoid re-parsing (the CLI does, for its
    file counts).  Raises :class:`LintError` for configuration
    problems.
    """
    root = Path(root)
    config = config or LintConfig.load(root)
    ctx = ctx if ctx is not None else LintContext(root, config)
    active = rules if rules is not None else default_rules()
    if only is not None:
        unknown = only - {rule.rule_id for rule in active}
        if unknown:
            raise LintError(
                f"unknown rule ids: {', '.join(sorted(unknown))} "
                f"(available: {', '.join(r.rule_id for r in active)})")
        active = [rule for rule in active if rule.rule_id in only]

    raw: list[Finding] = []
    for rule in active:
        for info in ctx.files:
            raw.extend(rule.check_file(info, ctx))
        raw.extend(rule.check_project(ctx))

    by_rel = {info.rel: info for info in ctx.files}
    kept = []
    for finding in raw:
        info = by_rel.get(finding.path)
        if info is not None and info.suppressed(finding):
            continue
        kept.append(finding)
    for info in ctx.files:
        kept.extend(info.unused_suppressions())
    return sorted(kept)


# -- reporting ----------------------------------------------------------------

#: Schema version of the ``--format json`` document.
JSON_SCHEMA = 1


def render_json(findings: list[Finding], root, config: LintConfig,
                rules=None) -> str:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return json.dumps({
        "tool": "repro-lint",
        "schema": JSON_SCHEMA,
        "root": str(Path(root).resolve()),
        "package": config.package,
        "rules": rule_table(rules),
        "findings": [finding.as_dict() for finding in findings],
        "counts": dict(sorted(counts.items())),
        "clean": not findings,
    }, indent=2, sort_keys=False) + "\n"


def render_text(findings: list[Finding], ctx_files: int,
                rules=None) -> str:
    table = rule_table(rules)
    ids = f"{min(table)}-{max(table)}" if table else "none"
    if not findings:
        return (f"repro lint: clean ({ctx_files} files, "
                f"rules {ids})\n")
    lines = [finding.render() for finding in findings]
    touched = len({finding.path for finding in findings})
    lines.append(f"repro lint: {len(findings)} finding"
                 f"{'s' if len(findings) != 1 else ''} across "
                 f"{touched} file{'s' if touched != 1 else ''} "
                 f"(rules {ids})")
    return "\n".join(lines) + "\n"
