"""The per-file project ruleset (``TH001``...``TH008``).

Each rule encodes one convention the reproduction's correctness
arguments depend on; the module docstring of :mod:`repro.lint` and
``docs/STATIC_ANALYSIS.md`` explain the why behind each. Rules are pure
functions over a parsed file — no I/O, no imports of the code under
analysis — registered via :func:`repro.lint.engine.rule`.

``TH009`` (blocking calls inside serving coroutines) used to live here
as a direct-call check; it is retired in favor of the interprocedural
``TH010`` in :mod:`repro.lint.flow.rules`, which catches the same calls
through any sync helper chain.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .engine import LintContext, LintViolation, rule

__all__ = []  # rules are reached through the registry, not by name

#: Layers whose behaviour must replay bit-identically from a seed.
DETERMINISTIC_SCOPE = (
    "repro/core/",
    "repro/storage/",
    "repro/distributed/",
    "repro/concurrency/",
)

_WALLCLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "sleep",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_SEEDED_RANDOM_OK = {"Random", "SystemRandom", "getstate", "setstate"}

#: Builtin exception names the distributed layer must not raise directly
#: (AssertionError is exempt: invariant checks and the chaos differential
#: report divergence — a bug in *this* library — through it by design).
_BUILTIN_EXCEPTIONS = {
    "ArithmeticError",
    "AttributeError",
    "BaseException",
    "BufferError",
    "EOFError",
    "Exception",
    "IOError",
    "IndexError",
    "KeyError",
    "LookupError",
    "MemoryError",
    "NameError",
    "NotImplementedError",
    "OSError",
    "OverflowError",
    "RuntimeError",
    "StopIteration",
    "SystemError",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
}

_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
}


def _terminal_name(node: ast.AST) -> str:
    """The final identifier of a Name/Attribute chain (else '')."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


@rule(
    "TH001",
    "unseeded-nondeterminism",
    "no unseeded random or wall-clock reads in replay-critical layers",
    scope=DETERMINISTIC_SCOPE,
)
def check_determinism(context: LintContext) -> Iterator[LintViolation]:
    """FaultPlan replay and the crash-point sweep require that ``core``,
    ``storage``, ``distributed`` and ``concurrency`` derive every random
    draw from an explicitly seeded ``random.Random`` and every clock
    from the simulated one."""
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name not in _SEEDED_RANDOM_OK
                ]
                if bad:
                    yield context.violation(
                        "TH001",
                        node,
                        f"importing unseeded randomness from random: "
                        f"{', '.join(bad)} (use random.Random(seed))",
                    )
            elif node.module == "time":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name in _WALLCLOCK_TIME_ATTRS
                ]
                if bad:
                    yield context.violation(
                        "TH001",
                        node,
                        f"importing wall-clock primitives from time: "
                        f"{', '.join(bad)} (use the simulated clock)",
                    )
            elif node.module == "secrets":
                yield context.violation(
                    "TH001", node, "secrets is never deterministic"
                )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        owner = func.value
        owner_name = _terminal_name(owner)
        if owner_name == "random" and isinstance(owner, ast.Name):
            if func.attr not in _SEEDED_RANDOM_OK:
                yield context.violation(
                    "TH001",
                    node,
                    f"random.{func.attr}() draws from the unseeded "
                    "module-global RNG; use a random.Random(seed) instance",
                )
        elif owner_name == "time" and isinstance(owner, ast.Name):
            if func.attr in _WALLCLOCK_TIME_ATTRS:
                yield context.violation(
                    "TH001",
                    node,
                    f"time.{func.attr}() reads the wall clock; replay "
                    "depends on the simulated clock only",
                )
        elif owner_name in ("datetime", "date"):
            if func.attr in _WALLCLOCK_DATETIME_ATTRS:
                yield context.violation(
                    "TH001",
                    node,
                    f"{owner_name}.{func.attr}() reads the wall clock",
                )
        elif owner_name == "os" and func.attr == "urandom":
            yield context.violation(
                "TH001", node, "os.urandom() is never deterministic"
            )
        elif owner_name == "uuid" and func.attr in ("uuid1", "uuid4"):
            yield context.violation(
                "TH001", node, f"uuid.{func.attr}() is never deterministic"
            )
        elif owner_name == "secrets":
            yield context.violation(
                "TH001", node, "secrets draws are never deterministic"
            )


@rule(
    "TH002",
    "broad-except",
    "no bare/blind exception handlers outside justified fault sites",
    scope=("repro/",),
)
def check_broad_except(context: LintContext) -> Iterator[LintViolation]:
    """A blind handler swallows TrieCorruptionError and CrashError alike,
    turning injected faults and real bugs into silent wrong answers.
    Genuine fault-boundary sites (the poisoned-session guards, the claim
    harness) carry a justified ``# repro-lint: disable=TH002``."""
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield context.violation(
                "TH002", node, "bare `except:` hides every failure mode"
            )
            continue
        names = []
        if isinstance(node.type, ast.Tuple):
            names = [_terminal_name(el) for el in node.type.elts]
        else:
            names = [_terminal_name(node.type)]
        broad = [n for n in names if n in ("Exception", "BaseException")]
        if broad:
            yield context.violation(
                "TH002",
                node,
                f"`except {broad[0]}` is blind; catch the concrete error "
                "types (or justify with a disable comment)",
            )


@rule(
    "TH003",
    "untyped-distributed-error",
    "distributed modules raise repro.distributed.errors types only",
    scope=("repro/distributed/",),
)
def check_distributed_errors(context: LintContext) -> Iterator[LintViolation]:
    """The retry/dedup protocol dispatches on the DistributedError
    hierarchy; a builtin ValueError thrown mid-protocol bypasses the
    retryable/terminal split and reaches callers untyped."""
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = ""
        if isinstance(exc, ast.Call):
            name = _terminal_name(exc.func)
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_EXCEPTIONS:
            yield context.violation(
                "TH003",
                node,
                f"raise {name}: distributed code must raise "
                "repro.distributed.errors types (AssertionError is the "
                "one exemption, for invariant/divergence reporting)",
            )


@rule(
    "TH004",
    "buffer-pool-bypass",
    "no direct SimulatedDisk read/write outside the storage layer",
    scope=("repro/",),
)
def check_buffer_discipline(context: LintContext) -> Iterator[LintViolation]:
    """Access counts are the paper's currency: a read that bypasses the
    BufferPool skews every hit-rate and access-ratio claim. Outside
    ``repro/storage``, disk payloads flow through the pool (or the
    non-accounting ``peek`` for invariant checks). The full mutation
    surface is covered — ``allocate``/``free`` included — so a flat
    backend like ``CompactTrie`` cannot shuffle payloads on or off the
    ``SimulatedDisk`` behind the pool's accounting."""
    if context.module_path.startswith("repro/storage/"):
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in ("read", "write", "allocate", "free"):
            continue
        receiver = _terminal_name(func.value)
        if "disk" in receiver.lower():
            yield context.violation(
                "TH004",
                node,
                f"{receiver}.{func.attr}() bypasses the BufferPool; route "
                "accounted access through the pool (peek() for checks)",
            )


@rule(
    "TH005",
    "assert-for-validation",
    "no `assert` statements for runtime validation in src/",
    scope=("repro/",),
)
def check_no_asserts(context: LintContext) -> Iterator[LintViolation]:
    """``python -O`` strips asserts, so an assert-guarded invariant is an
    invariant the production interpreter never checks. Raise
    TrieCorruptionError (or the layer's typed error) instead."""
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Assert):
            yield context.violation(
                "TH005",
                node,
                "assert vanishes under `python -O`; raise a typed error "
                "(e.g. TrieCorruptionError) for runtime validation",
            )


@rule(
    "TH006",
    "mutable-default",
    "no mutable default argument values",
    scope=("repro/",),
)
def check_mutable_defaults(context: LintContext) -> Iterator[LintViolation]:
    """A mutable default is shared across calls; with files and plans
    passed around by reference this turns into cross-run state leakage
    that replay cannot reproduce."""
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ):
                yield context.violation(
                    "TH006",
                    default,
                    f"mutable default in {node.name}(); use None and "
                    "construct inside the body",
                )
            elif (
                isinstance(default, ast.Call)
                and _terminal_name(default.func) in _MUTABLE_CALLS
            ):
                yield context.violation(
                    "TH006",
                    default,
                    f"mutable default {_terminal_name(default.func)}() in "
                    f"{node.name}(); use None and construct inside the body",
                )


@rule(
    "TH007",
    "float-equality",
    "no float equality comparisons in the analysis layer",
    scope=("repro/analysis/",),
)
def check_float_equality(context: LintContext) -> Iterator[LintViolation]:
    """Load factors and access ratios are floats; `== 0.85` silently
    depends on rounding. Compare with math.isclose or an explicit
    tolerance."""
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if not has_eq:
            continue
        for operand in operands:
            if isinstance(operand, ast.Constant) and isinstance(
                operand.value, float
            ):
                yield context.violation(
                    "TH007",
                    node,
                    f"float equality against {operand.value!r}; use "
                    "math.isclose or an explicit tolerance",
                )
                break


@rule(
    "TH008",
    "untyped-public-api",
    "public core/storage functions carry complete type annotations",
    scope=("repro/core/", "repro/storage/"),
)
def check_public_annotations(context: LintContext) -> Iterator[LintViolation]:
    """The mypy floor in CI only binds where annotations exist; the
    public surface of the two foundation layers must be fully typed so
    downstream layers type-check against real signatures."""

    class _Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: list[LintViolation] = []
            self._class_stack: list[str] = []
            self._function_depth = 0

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self._class_stack.append(node.name)
            self.generic_visit(node)
            self._class_stack.pop()

        def _visit_function(self, node) -> None:
            if self._function_depth == 0 and not node.name.startswith("_"):
                enclosing_private = any(
                    name.startswith("_") for name in self._class_stack
                )
                if not enclosing_private:
                    self._audit(node)
            self._function_depth += 1
            self.generic_visit(node)
            self._function_depth -= 1

        visit_FunctionDef = _visit_function
        visit_AsyncFunctionDef = _visit_function

        def _audit(self, node) -> None:
            missing = []
            args = node.args
            named = list(args.posonlyargs) + list(args.args)
            if self._class_stack and named:
                decorators = {
                    _terminal_name(d) for d in node.decorator_list
                }
                if "staticmethod" not in decorators:
                    named = named[1:]  # self / cls
            named += list(args.kwonlyargs)
            for arg in named:
                if arg.annotation is None:
                    missing.append(arg.arg)
            if node.returns is None:
                missing.append("return")
            if missing:
                qualname = ".".join(self._class_stack + [node.name])
                self.found.append(
                    context.violation(
                        "TH008",
                        node,
                        f"public {qualname}() missing annotations for: "
                        f"{', '.join(missing)}",
                    )
                )

    visitor = _Visitor()
    visitor.visit(context.tree)
    yield from visitor.found
