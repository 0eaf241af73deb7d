"""AST lint rules for determinism and protocol discipline.

Each rule is a function ``check(context) -> Iterator[Violation]``
registered in :data:`ALL_RULES`.  Rules are pure AST walks — no imports
of the checked code are ever executed — so the lint is safe to run over
fixture files that are deliberately broken.

The determinism rules encode the simulator's contract (see
``src/repro/sim/core.py``): simulated time is the only clock and
:mod:`repro.sim.random` is the only randomness source, so identical
inputs always replay identical runs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.atomicity import ATOMICITY_RULES
from repro.lint.base import FileContext, Rule, Violation
from repro.lint.schema import SCHEMA_RULES

__all__ = ["Violation", "FileContext", "Rule", "ALL_RULES", "rule_names"]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_no_nested_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body without descending into nested def/lambda."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


# ----------------------------------------------------------------------
# no-wall-clock
# ----------------------------------------------------------------------

#: Callables that read the host clock (or block on it).  Any of these in
#: model code silently couples a "deterministic" run to the machine it
#: runs on.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

#: ``from time import <name>`` equivalents of the above.
_WALL_CLOCK_FROM_IMPORTS = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    },
}


def check_no_wall_clock(context: FileContext) -> Iterator[Violation]:
    if context.is_sim_code:
        return
    for node in context.nodes:
        if isinstance(node, ast.ImportFrom) and node.module in _WALL_CLOCK_FROM_IMPORTS:
            banned = _WALL_CLOCK_FROM_IMPORTS[node.module]
            for alias in node.names:
                if alias.name in banned:
                    yield Violation(
                        context.path,
                        node.lineno,
                        node.col_offset,
                        "no-wall-clock",
                        f"import of wall-clock '{node.module}.{alias.name}'; "
                        "simulated components must use Simulator.now",
                    )
        elif isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield Violation(
                    context.path,
                    node.lineno,
                    node.col_offset,
                    "no-wall-clock",
                    f"call to wall clock '{dotted}()'; simulated components "
                    "must use Simulator.now (host timing belongs in sim/)",
                )


# ----------------------------------------------------------------------
# no-global-random
# ----------------------------------------------------------------------

#: numpy.random module-level functions that mutate/read hidden global
#: RNG state, plus ad-hoc generator construction.  Both break the
#: named-stream discipline of :mod:`repro.sim.random`.
_NUMPY_GLOBAL_RANDOM = {
    "seed",
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "random_integers",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "exponential",
    "zipf",
    "poisson",
    "bytes",
}

_RNG_FIX_HINT = (
    "route randomness through repro.sim.random "
    "(RandomStreams / seeded_rng) so streams stay named and seeded"
)


def check_no_global_random(context: FileContext) -> Iterator[Violation]:
    for node in context.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield Violation(
                        context.path,
                        node.lineno,
                        node.col_offset,
                        "no-global-random",
                        f"import of the global 'random' module; {_RNG_FIX_HINT}",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield Violation(
                    context.path,
                    node.lineno,
                    node.col_offset,
                    "no-global-random",
                    f"import from the global 'random' module; {_RNG_FIX_HINT}",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) >= 2 and parts[-2] == "random" and parts[0] in (
                "np",
                "numpy",
            ):
                leaf = parts[-1]
                if leaf in _NUMPY_GLOBAL_RANDOM:
                    yield Violation(
                        context.path,
                        node.lineno,
                        node.col_offset,
                        "no-global-random",
                        f"'{dotted}()' uses numpy's hidden global RNG state; "
                        f"{_RNG_FIX_HINT}",
                    )
                elif leaf == "default_rng" and not context.is_sim_code:
                    yield Violation(
                        context.path,
                        node.lineno,
                        node.col_offset,
                        "no-global-random",
                        f"ad-hoc '{dotted}()' generator; {_RNG_FIX_HINT}",
                    )


# ----------------------------------------------------------------------
# no-float-eq
# ----------------------------------------------------------------------

_TIMEY_SUFFIXES = ("_us", "_ns", "_ms")
_TIMEY_SUBSTRINGS = ("latency", "elapsed")
_TIMEY_EXACT = {"now", "at_us"}


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_timey_operand(node: ast.AST) -> bool:
    name = _terminal_identifier(node)
    if name is None:
        return False
    lowered = name.lower()
    return (
        lowered in _TIMEY_EXACT
        or lowered.endswith(_TIMEY_SUFFIXES)
        or any(bit in lowered for bit in _TIMEY_SUBSTRINGS)
    )


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def check_no_float_eq(context: FileContext) -> Iterator[Violation]:
    for node in context.nodes:
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            if any(_is_float_literal(side) for side in pair):
                yield Violation(
                    context.path,
                    node.lineno,
                    node.col_offset,
                    "no-float-eq",
                    "exact ==/!= against a float literal; floats carrying "
                    "simulated time accumulate rounding — compare with a "
                    "tolerance or restate the check on integers",
                )
            elif any(_is_timey_operand(side) for side in pair):
                yield Violation(
                    context.path,
                    node.lineno,
                    node.col_offset,
                    "no-float-eq",
                    "exact ==/!= between time-valued floats; use <=/>= "
                    "bounds or math.isclose",
                )


# ----------------------------------------------------------------------
# units-discipline
# ----------------------------------------------------------------------

_TIME_UNIT_TOKENS = {"ns", "us", "ms", "sec", "secs", "seconds"}
_SIZE_UNIT_TOKENS = {"bytes", "kb", "mb", "gb", "kib", "mib", "gib"}


def _unit_tokens(identifier: str) -> Tuple[Set[str], Set[str]]:
    tokens = identifier.lower().split("_")
    return (
        {t for t in tokens if t in _TIME_UNIT_TOKENS},
        {t for t in tokens if t in _SIZE_UNIT_TOKENS},
    )


def check_units_discipline(context: FileContext) -> Iterator[Violation]:
    for node in context.function_defs:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        identifiers = [node.name] + [
            arg.arg
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        ]
        time_units: Set[str] = set()
        size_units: Set[str] = set()
        for identifier in identifiers:
            t, s = _unit_tokens(identifier)
            time_units |= t
            size_units |= s
        for dimension, units in (("time", time_units), ("size", size_units)):
            if len(units) > 1:
                listing = ", ".join(sorted(units))
                yield Violation(
                    context.path,
                    node.lineno,
                    node.col_offset,
                    "units-discipline",
                    f"function '{node.name}' mixes {dimension} units in its "
                    f"name/arguments ({listing}); pick one unit per signature "
                    "(project convention: µs for time, bytes for sizes)",
                )


# ----------------------------------------------------------------------
# no-mutable-default
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted_name(node.func)
        if dotted is not None and dotted.split(".")[-1] in _MUTABLE_FACTORIES:
            return True
    return False


def check_no_mutable_default(context: FileContext) -> Iterator[Violation]:
    for node in context.function_defs:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield Violation(
                    context.path,
                    default.lineno,
                    default.col_offset,
                    "no-mutable-default",
                    f"mutable default argument in '{node.name}'; defaults are "
                    "evaluated once and shared across calls — use None and "
                    "construct inside the body",
                )


# ----------------------------------------------------------------------
# sim-yield-only
# ----------------------------------------------------------------------

#: Method names whose call results are the Event/Process waitables a
#: simulator process legitimately yields.
_EVENT_PRODUCING_METHODS = {
    "timeout",
    "event",
    "process",
    "request",
    "get",
    "submit",
    "post_read",
    "post_write",
    "post_send",
    "post_atomic_cas",
    "post_atomic_faa",
    "recv",
}
_EVENT_PRODUCING_NAMES = {"AnyOf", "AllOf", "Event", "Process"}


def _yields_event(value: Optional[ast.AST]) -> bool:
    """Heuristic: does this yield expression produce a sim waitable?"""
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr in _EVENT_PRODUCING_METHODS:
            return True
        if isinstance(func, ast.Name) and func.id in _EVENT_PRODUCING_NAMES:
            return True
    return False


def _definitely_not_event(value: Optional[ast.AST]) -> bool:
    """Expressions that cannot possibly evaluate to a process yield.

    ``yield <number>`` is the engine's direct-delay fast path, so numeric
    constants and arithmetic (``yield base + jitter``) are legitimate;
    everything else that is demonstrably not a waitable gets flagged.
    """
    if value is None:  # bare ``yield`` produces None
        return True
    if isinstance(value, ast.Constant):
        # int/float delays are valid; bool is not a delay.
        return not (
            type(value.value) is int or type(value.value) is float
        )
    if isinstance(value, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
        return True
    if isinstance(value, (ast.BoolOp, ast.Compare, ast.JoinedStr)):
        return True
    return False


def check_sim_yield_only(context: FileContext) -> Iterator[Violation]:
    for node in context.function_defs:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yields = [
            child
            for child in _walk_no_nested_functions(node)
            if isinstance(child, ast.Yield)
        ]
        if not yields:
            continue
        # Only generators that demonstrably wait on simulator events are
        # treated as processes; plain data generators (workload streams,
        # datasets) yield values freely.
        if not any(_yields_event(y.value) for y in yields):
            continue
        for y in yields:
            if _definitely_not_event(y.value):
                yield Violation(
                    context.path,
                    y.lineno,
                    y.col_offset,
                    "sim-yield-only",
                    f"simulator process '{node.name}' yields a plain value; "
                    "processes may only yield Event or Process (the engine "
                    "raises SimulationError at run time)",
                )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

ALL_RULES: Sequence[Rule] = (
    Rule(
        "no-wall-clock",
        "No host-clock reads (time.time, datetime.now, perf_counter, ...) "
        "outside repro/sim/.",
        check_no_wall_clock,
    ),
    Rule(
        "no-global-random",
        "No global `random` module or numpy global-state RNG; use "
        "repro.sim.random streams.",
        check_no_global_random,
    ),
    Rule(
        "no-float-eq",
        "No ==/!= between time-valued floats or against float literals.",
        check_no_float_eq,
    ),
    Rule(
        "units-discipline",
        "A function signature must not mix unit suffixes within one "
        "dimension (e.g. _us with _ms).",
        check_units_discipline,
    ),
    Rule(
        "no-mutable-default",
        "No mutable default argument values.",
        check_no_mutable_default,
    ),
    Rule(
        "sim-yield-only",
        "Simulator processes may only yield Event/Process waitables.",
        check_sim_yield_only,
    ),
) + tuple(ATOMICITY_RULES) + tuple(SCHEMA_RULES)

_RULES_BY_NAME: Dict[str, Rule] = {rule.name: rule for rule in ALL_RULES}


def rule_names() -> List[str]:
    return [rule.name for rule in ALL_RULES]
