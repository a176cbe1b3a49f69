"""R004 — multiprocessing/shared-memory hygiene.

The process backend's crash-safety story (never hang, every worker
reaped at close) depends on every multiprocessing primitive living in
``engine/workers.py`` (queues and processes).  No module constructs
``SharedMemory`` (the default ``shm_modules`` is empty): a segment
without a parent that unlinks it leaks on crash — the kind of bug
that only shows up as ``/dev/shm`` filling on a long-lived host.

Checked over the whole package:

* ``import multiprocessing`` (any submodule, any alias) outside the
  configured ``mp_modules`` allowlist;
* ``SharedMemory(...)`` construction outside ``shm_modules``;
* inside ``shm_modules``: every ``SharedMemory(create=True, ...)``
  site must sit in a class that also calls ``.close()`` **and**
  ``.unlink()`` somewhere, so the segment provably has an owner with a
  full lifecycle (attach-only sites are exempt — the creator unlinks).
"""

from __future__ import annotations

import ast

from .model import FileInfo, Rule


def _is_shared_memory(func: ast.expr) -> bool:
    return (isinstance(func, ast.Name) and func.id == "SharedMemory") or \
        (isinstance(func, ast.Attribute) and func.attr == "SharedMemory")


def _creates(call: ast.Call) -> bool:
    return any(kw.arg == "create"
               and isinstance(kw.value, ast.Constant)
               and kw.value.value is True
               for kw in call.keywords)


class MpShmHygieneRule(Rule):
    rule_id = "R004"
    title = ("multiprocessing only in the worker module; SharedMemory "
             "only in shm_modules, every create site paired with "
             "close()+unlink()")
    rationale = ("segments created outside the parent-owned lifecycle "
                 "leak on crash; mp primitives elsewhere dodge the "
                 "never-hang contract")

    def check_file(self, info: FileInfo, ctx) -> list:
        out = []
        mp_allowed = ctx.in_modules(info, ctx.config.mp_modules)
        shm_allowed = ctx.in_modules(info, ctx.config.shm_modules)
        class_stack: list[ast.ClassDef] = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.ClassDef):
                class_stack.append(node)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                class_stack.pop()
                return
            if isinstance(node, ast.Import) and not mp_allowed:
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        out.append(self.finding(
                            info, node.lineno,
                            "multiprocessing imported outside "
                            f"{'/'.join(ctx.config.mp_modules)}; worker "
                            "code is the only place "
                            "process primitives belong"))
            elif isinstance(node, ast.ImportFrom) and not mp_allowed:
                if (node.module or "").split(".")[0] == "multiprocessing":
                    out.append(self.finding(
                        info, node.lineno,
                        "multiprocessing imported outside "
                        f"{'/'.join(ctx.config.mp_modules)}; worker "
                        "code is the only place "
                        "process primitives belong"))
            elif isinstance(node, ast.Call) \
                    and _is_shared_memory(node.func):
                if not shm_allowed:
                    out.append(self.finding(
                        info, node.lineno,
                        "SharedMemory constructed outside the "
                        "shm_modules allowlist "
                        f"({'/'.join(ctx.config.shm_modules) or 'empty'}"
                        "); a segment needs a parent-owned close()+"
                        "unlink() lifecycle"))
                elif _creates(node):
                    owner = class_stack[-1] if class_stack else None
                    if owner is None:
                        out.append(self.finding(
                            info, node.lineno,
                            "SharedMemory(create=True) outside a class; "
                            "the creating class must own close()+"
                            "unlink()"))
                    elif not self._has_lifecycle(owner):
                        out.append(self.finding(
                            info, node.lineno,
                            f"SharedMemory(create=True) in "
                            f"{owner.name}, which never calls both "
                            f"close() and unlink(); the creator owns "
                            f"the segment's full lifecycle"))
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(info.tree)
        return out

    @staticmethod
    def _has_lifecycle(cls: ast.ClassDef) -> bool:
        called = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
        return {"close", "unlink"} <= called
