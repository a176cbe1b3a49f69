"""R006 — numpy overflow hazards in the numeric subtrees.

The sketches do exact arithmetic in GF(p) and signed counter updates
in int64; both are only correct because every array is constructed
with an explicit dtype and every modular reduction was sized against
the field (products of values < 2^31 fit uint64, so ``%`` never sees a
wrapped operand).  Two habits quietly break that reasoning:

* a dtype-less ``np.array([...])``/``np.zeros(n)`` literal picks a
  platform default (float64, or C-long for int inputs), so the same
  update stream can produce different bytes on different platforms —
  fatal for a repo whose tests pin byte-identical merges;
* bare ``%`` or ``+=`` on an integer array silently wraps instead of
  raising, so an unsized accumulation bug looks like a wrong answer
  months later rather than an error today.

Flagged inside the configured ``numeric_paths`` subtrees:

* array-constructor calls (``np.array``/``zeros``/``ones``/``empty``/
  ``full``/``arange``) with no ``dtype=`` keyword — everywhere, the
  audited kernel modules included, since dtype-less literals are a
  portability bug regardless of auditing;
* ``%`` and ``+=`` whose operand statically resolves to a known
  *integer* numpy array (see :mod:`repro.analysis.pyindex` for how
  shallow — deliberately — that inference is), **outside** the
  ``audited_modules`` allowlist of hand-audited kernels.

A justified inline suppression is the right answer for arithmetic the
author has actually sized (say so in the comment).
"""

from __future__ import annotations

import ast

from .model import FileInfo, Rule
from .pyindex import ClassInfo, call_dtype_kind

#: Constructors where omitting ``dtype=`` defers to a platform default.
_DTYPE_REQUIRED = {"array", "zeros", "ones", "empty", "full", "arange"}

_NUMPY_NAMES = {"np", "numpy"}


def _dtype_less_ctor(node: ast.Call) -> str | None:
    """The ctor name when this is ``np.<ctor>(...)`` without dtype."""
    func = node.func
    if not (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_NAMES
            and func.attr in _DTYPE_REQUIRED):
        return None
    if any(kw.arg == "dtype" for kw in node.keywords):
        return None
    # np.full(shape, fill) / np.array(x) positional dtype is arg 2/3;
    # nobody passes it positionally in this codebase — keyword only.
    return func.attr


class NumpyOverflowRule(Rule):
    rule_id = "R006"
    title = ("explicit dtypes on numpy literals; no bare %/+= on "
             "integer arrays outside the audited kernels")
    rationale = ("dtype defaults are platform-dependent and integer "
                 "wrap is silent; both corrupt byte-identical "
                 "merge/checkpoint guarantees")

    def check_file(self, info: FileInfo, ctx) -> list:
        if not ctx.in_paths(info, ctx.config.numeric_paths):
            return []
        out = []
        audited = ctx.in_modules(info, ctx.config.audited_modules)

        for node in ast.walk(info.tree):
            if isinstance(node, ast.Call):
                ctor = _dtype_less_ctor(node)
                if ctor is not None:
                    out.append(self.finding(
                        info, node.lineno,
                        f"np.{ctor}(...) without an explicit dtype; the "
                        f"platform default breaks byte-identical "
                        f"reproducibility — pass dtype= explicitly"))

        if not audited:
            out.extend(self._arith_pass(info, ctx))
        return out

    # -- integer-array arithmetic ---------------------------------------------

    def _arith_pass(self, info: FileInfo, ctx) -> list:
        out = []
        for scope, cls in self._function_scopes(info.tree):
            locals_int = self._int_locals(scope, cls)
            for node in ast.walk(scope):
                if isinstance(node, ast.BinOp) \
                        and isinstance(node.op, ast.Mod) \
                        and self._is_int_array(node.left, locals_int,
                                               cls, ctx):
                    out.append(self.finding(
                        info, node.lineno,
                        "bare % on an integer numpy array wraps "
                        "silently if the left side ever exceeds the "
                        "dtype; size the operands (or use the "
                        "PrimeField helpers) and suppress with a "
                        "justification if audited"))
                elif isinstance(node, ast.AugAssign) \
                        and isinstance(node.op, ast.Add) \
                        and self._is_int_array(node.target, locals_int,
                                               cls, ctx):
                    out.append(self.finding(
                        info, node.lineno,
                        "+= on an integer numpy array wraps silently "
                        "on overflow; size the accumulator dtype for "
                        "the largest possible sum and suppress with a "
                        "justification if audited"))
        return out

    @staticmethod
    def _function_scopes(tree: ast.Module):
        """(function node, owning class name | None) pairs."""
        methods: dict[int, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        methods[id(item)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, methods.get(id(node))

    @staticmethod
    def _int_locals(func, cls_name) -> set[str]:
        """Local names assigned from an integer-dtype constructor."""
        known: set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if call_dtype_kind(node.value) != "int":
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    known.add(target.id)
        return known

    def _is_int_array(self, node: ast.expr, locals_int: set,
                      cls_name, ctx) -> bool:
        """Whether the expression statically resolves to a known
        integer numpy array (shallow by design; see pyindex)."""
        if isinstance(node, ast.Subscript):
            return self._is_int_array(node.value, locals_int,
                                      cls_name, ctx)
        if isinstance(node, ast.Name):
            return node.id in locals_int
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" and cls_name is not None:
            cls: ClassInfo | None = ctx.index.classes.get(cls_name)
            return cls is not None \
                and cls.attr_dtypes.get(node.attr) == "int"
        if isinstance(node, ast.Call):
            return call_dtype_kind(node) == "int"
        return False
