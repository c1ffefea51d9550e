"""Shm-protocol checker: the engines' shared-memory discipline, proved
statically on every control-flow path.

The dynamic sanitizer (``mp-sanitize``/``mp-async-sanitize``) observes the
barrier/epoch/seqlock protocol on the schedules that happen to execute;
this checker is its static counterpart, running the same ordering rules
over the statement-level CFGs of the same text — the worker loops and
parent schedules of :mod:`repro.engine.mp` and
:mod:`~repro.engine.async_mp` — plus :mod:`~repro.engine.shm`. Four rules:

* ``shm-bump-before-payload`` — a seqlock publish (``edge_seq[e] = t+1``,
  ``grant[_EPOCH] = ...``) must be preceded by its payload write (the halo
  pack, the other grant slots) on **every** path since the last publish; a
  *must* analysis over the CFG proves it. This is the induction step of
  DESIGN.md's seqlock safety argument, checked before the code ever runs.
* ``shm-missing-barrier`` — in barrier-phased functions, no halo read may
  be reachable from a halo write without an intervening ``barrier.wait``
  (or a local wrapper that performs one); a *may* analysis finds the racy
  path.
* ``shm-overlapping-write`` — inside a worker loop (any function taking a
  ``wid`` parameter), every write to a worker-shared arena field must be
  partitioned by the worker's ownership: the statically-derivable target
  expression must involve a name derived from ``wid``/``owned`` (domain
  and edge loop variables, ``pack.outgoing`` index arrays, block views).
  Two workers' slices then cannot overlap within an epoch.
* ``shm-untracked-parent-write`` — the untracked arena cells (``control``,
  ``factors``, ``grant``) are parent-owned single-writer words published
  in parent-synchronised phases; a worker-side write to any of them is a
  protocol violation.

What stays dynamic: actual index *values* (the checker reasons about
which names flow into a slice, not arithmetic), cross-process timing, and
torn reads — those remain the sanitizer's job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.analysis.core import Checker, Finding, SourceFile, register_checker
from repro.analysis.dataflow import (
    Cfg,
    arena_handles,
    build_cfg,
    derived_names,
    iter_functions,
    node_parts,
    solve_forward,
)
from repro.analysis.dataflow.cfg import CfgNode

#: Modules the protocol rules cover.
SCOPE_MODULES = frozenset(
    {
        "repro.engine.mp",
        "repro.engine.async_mp",
        "repro.engine.shm",
    }
)

#: Every shm-arena field the engines allocate.
ARENA_FIELDS = frozenset(
    {
        "phi", "phi_new", "halo", "control", "currents", "factors",
        "fission", "prod", "edge_seq", "worker_seq", "fission_seq", "grant",
    }
)

#: Parent-owned single-writer cells: workers read, never write.
PARENT_OWNED = frozenset({"control", "factors", "grant"})

#: Ownership roots a worker's partitioned indices derive from.
OWNERSHIP_ROOTS = ("wid", "owned")

#: Seqlock publish pairs: bump field -> payload fact it must follow.
_EDGE_BUMP = "edge_seq"
_EDGE_PAYLOAD = "halo"
_GRANT = "grant"


@dataclass(frozen=True)
class _Access:
    """One statically-detected arena access within a statement."""

    field: str
    node: ast.AST  # narrowest AST carrying the location
    names: frozenset[str]  # Load names in the partitioning expression
    is_write: bool
    epoch_slot: bool = False  # grant write indexed by _EPOCH


def _load_names(expr: ast.AST) -> frozenset[str]:
    return frozenset(
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def _mentions_epoch(expr: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == "_EPOCH" for n in ast.walk(expr)
    )


class _FieldMap:
    """Local-name -> arena-field resolution for one function.

    Falls back to the field name itself for closure-bound names (the
    nested ``issue()`` publisher sees ``grant`` from the enclosing scope),
    which is safe in the scope modules where those names are reserved for
    the arena views.
    """

    def __init__(self, handles: Mapping[str, str]) -> None:
        self._handles = dict(handles)

    def field_of(self, name: str) -> str | None:
        mapped = self._handles.get(name)
        if mapped is not None:
            return mapped
        return name if name in ARENA_FIELDS else None

    def fields_in(self, expr: ast.AST) -> set[str]:
        out: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                field = self.field_of(sub.id)
                if field is not None:
                    out.add(field)
        return out


def _target_writes(target: ast.expr, fmap: _FieldMap) -> Iterator[_Access]:
    """Writes performed by one assignment target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_writes(elt, fmap)
        return
    if isinstance(target, ast.Subscript):
        names = _load_names(target)
        for field in fmap.fields_in(target):
            yield _Access(
                field=field,
                node=target,
                names=names,
                is_write=True,
                epoch_slot=(field == _GRANT and _mentions_epoch(target.slice)),
            )


def _call_accesses(call: ast.Call, fmap: _FieldMap) -> Iterator[_Access]:
    """Accesses performed by one call: ``field.fill(...)``, ``out=field``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.attr == "fill"
    ):
        field = fmap.field_of(func.value.id)
        if field is not None:
            yield _Access(field=field, node=call, names=frozenset(), is_write=True)
            return
    for kw in call.keywords:
        if kw.arg == "out" and isinstance(kw.value, ast.Name):
            field = fmap.field_of(kw.value.id)
            if field is not None:
                yield _Access(
                    field=field,
                    node=call,
                    names=frozenset({kw.value.id}),
                    is_write=True,
                )


def _is_barrier_wait(call: ast.Call, wrappers: frozenset[str]) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "wait":
        chain: list[str] = []
        node: ast.AST = func.value
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain.append(node.id)
        return any("barrier" in part for part in chain)
    return isinstance(func, ast.Name) and func.id in wrappers


def _barrier_wrappers(tree: ast.AST) -> frozenset[str]:
    """Names of local functions whose body performs a barrier wait."""
    names: set[str] = set()
    for func in iter_functions(tree):
        for sub in ast.walk(func):
            if isinstance(sub, ast.Call) and _is_barrier_wait(sub, frozenset()):
                names.add(func.name)
                break
    return frozenset(names)


def _node_accesses(
    node: CfgNode, fmap: _FieldMap, wrappers: frozenset[str]
) -> tuple[list[_Access], bool]:
    """(arena accesses, performs-a-barrier-wait) for one CFG node."""
    accesses: list[_Access] = []
    barrier = False
    stmt = node.stmt
    if stmt is None:
        return accesses, barrier
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            accesses.extend(_target_writes(target, fmap))
    elif isinstance(stmt, ast.AnnAssign):
        accesses.extend(_target_writes(stmt.target, fmap))
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            field = fmap.field_of(stmt.target.id)
            if field is not None:
                accesses.append(
                    _Access(
                        field=field,
                        node=stmt,
                        names=frozenset({stmt.target.id}),
                        is_write=True,
                    )
                )
        else:
            accesses.extend(_target_writes(stmt.target, fmap))
    written = {id(a.node) for a in accesses}
    for part in node_parts(node):
        for sub in ast.walk(part):
            if isinstance(sub, ast.Call):
                if _is_barrier_wait(sub, wrappers):
                    barrier = True
                accesses.extend(_call_accesses(sub, fmap))
            elif (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.ctx, ast.Load)
                and isinstance(sub.value, ast.Name)
            ):
                field = fmap.field_of(sub.value.id)
                if field is not None and id(sub) not in written:
                    accesses.append(
                        _Access(
                            field=field,
                            node=sub,
                            names=frozenset(),
                            is_write=False,
                        )
                    )
    return accesses, barrier


class ShmProtocolChecker(Checker):
    name = "shm-protocol"
    rules = {
        "shm-bump-before-payload": (
            "seqlock publish reachable without its payload write on some "
            "path; readers of the bumped sequence would observe stale or "
            "torn payload data"
        ),
        "shm-missing-barrier": (
            "shared halo read reachable from a halo write with no "
            "barrier wait in between; the barrier-phased exchange "
            "protocol requires write -> barrier -> read"
        ),
        "shm-overlapping-write": (
            "worker-side write to a shared arena field whose target "
            "expression derives from no ownership root (wid/owned); two "
            "workers' writes could overlap within an epoch"
        ),
        "shm-untracked-parent-write": (
            "worker-side write to a parent-owned arena cell (control/"
            "factors/grant); untracked cells are single-writer and only "
            "the parent publishes them"
        ),
    }

    def check(self, src: SourceFile) -> Iterable[Finding]:
        if src.module not in SCOPE_MODULES:
            return
        wrappers = _barrier_wrappers(src.tree)
        for func in iter_functions(src.tree):
            yield from self._check_function(src, func, wrappers)

    def _check_function(
        self,
        src: SourceFile,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        wrappers: frozenset[str],
    ) -> Iterator[Finding]:
        cfg = build_cfg(func)
        fmap = _FieldMap(arena_handles(cfg, ARENA_FIELDS))
        per_node: dict[int, tuple[list[_Access], bool]] = {
            node.id: _node_accesses(node, fmap, wrappers)
            for node in cfg.statement_nodes()
        }
        yield from self._check_seqlock(src, cfg, per_node)
        if any(barrier for _, barrier in per_node.values()):
            yield from self._check_barrier(src, cfg, per_node)
        params = {
            a.arg for a in (*func.args.posonlyargs, *func.args.args)
        }
        if "wid" in params:
            owned = derived_names(cfg, OWNERSHIP_ROOTS)
            yield from self._check_worker_writes(src, per_node, owned)

    def _check_seqlock(
        self,
        src: SourceFile,
        cfg: Cfg,
        per_node: Mapping[int, tuple[list[_Access], bool]],
    ) -> Iterator[Finding]:
        """Must-analysis: payload written on every path before the bump."""
        relevant = False
        for accesses, _ in per_node.values():
            if any(
                a.is_write and (a.field == _EDGE_BUMP or a.field == _GRANT)
                for a in accesses
            ):
                relevant = True
                break
        if not relevant:
            return

        def transfer(node: CfgNode) -> tuple[frozenset[str], frozenset[str]]:
            gen: set[str] = set()
            kill: set[str] = set()
            for access in per_node.get(node.id, ([], False))[0]:
                if not access.is_write:
                    continue
                if access.field == _EDGE_PAYLOAD:
                    gen.add(_EDGE_PAYLOAD)
                elif access.field == _EDGE_BUMP:
                    kill.add(_EDGE_PAYLOAD)
                elif access.field == _GRANT:
                    if access.epoch_slot:
                        kill.add(_GRANT)
                    else:
                        gen.add(_GRANT)
            return frozenset(gen), frozenset(kill - gen)

        facts = solve_forward(cfg, transfer, join="intersection")
        for node in cfg.statement_nodes():
            incoming = facts.get(node.id)
            if incoming is None:  # unreachable: cannot violate ordering
                continue
            for access in per_node.get(node.id, ([], False))[0]:
                if not access.is_write:
                    continue
                if access.field == _EDGE_BUMP and _EDGE_PAYLOAD not in incoming:
                    yield self.finding(
                        src, access.node, "shm-bump-before-payload",
                        "edge_seq publish not preceded by a halo payload "
                        "write on every path; readers spinning on this "
                        "sequence would unpack stale boundary flux",
                    )
                elif (
                    access.field == _GRANT
                    and access.epoch_slot
                    and _GRANT not in incoming
                ):
                    yield self.finding(
                        src, access.node, "shm-bump-before-payload",
                        "grant epoch publish not preceded by the other "
                        "grant slots on every path; workers gated on the "
                        "epoch would read stale keff/pnorm/mode",
                    )

    def _check_barrier(
        self,
        src: SourceFile,
        cfg: Cfg,
        per_node: Mapping[int, tuple[list[_Access], bool]],
    ) -> Iterator[Finding]:
        """May-analysis: a halo write must not reach a halo read directly."""

        def transfer(node: CfgNode) -> tuple[frozenset[str], frozenset[str]]:
            accesses, barrier = per_node.get(node.id, ([], False))
            if barrier:
                return frozenset(), frozenset({_EDGE_PAYLOAD})
            if any(
                a.is_write and a.field == _EDGE_PAYLOAD for a in accesses
            ):
                return frozenset({_EDGE_PAYLOAD}), frozenset()
            return frozenset(), frozenset()

        facts = solve_forward(cfg, transfer, join="union")
        for node in cfg.statement_nodes():
            incoming = facts.get(node.id) or frozenset()
            if _EDGE_PAYLOAD not in incoming:
                continue
            for access in per_node.get(node.id, ([], False))[0]:
                if access.field == _EDGE_PAYLOAD and not access.is_write:
                    yield self.finding(
                        src, access.node, "shm-missing-barrier",
                        "halo read reachable from a halo write without an "
                        "intervening barrier wait; another worker's unpack "
                        "could observe a partially packed buffer",
                    )

    def _check_worker_writes(
        self,
        src: SourceFile,
        per_node: Mapping[int, tuple[list[_Access], bool]],
        owned: set[str],
    ) -> Iterator[Finding]:
        for accesses, _ in per_node.values():
            for access in accesses:
                if not access.is_write:
                    continue
                if access.field in PARENT_OWNED:
                    yield self.finding(
                        src, access.node, "shm-untracked-parent-write",
                        f"worker writes parent-owned arena cell "
                        f"'{access.field}'; untracked cells are published "
                        "only by the parent in synchronised phases",
                    )
                elif not (access.names & owned):
                    yield self.finding(
                        src, access.node, "shm-overlapping-write",
                        f"worker write to shared field '{access.field}' "
                        "with no ownership-derived index (nothing in the "
                        "target derives from wid/owned); slices of two "
                        "workers could overlap within an epoch",
                    )


register_checker(ShmProtocolChecker())
