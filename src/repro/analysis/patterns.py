"""Calling and success patterns (paper Sections 2.2, 5, 6).

A *pattern* is the canonical abstraction of an argument tuple: for each
argument, a node tree whose leaves carry *instance numbers* — two leaves
with the same number denote the same abstract instance (aliasing), exactly
like the subscripts in the paper (``p(atom, glist₁)``).  Patterns are
hashable and serve as extension-table keys.

Node forms (nested tuples):

* ``('i', sort, n)`` — an instance of a simple sort (``var`` included);
* ``('li', elem_tree, n)`` — an instance of an α-list;
* ``('f', name, arity, (nodes...))`` — a structure skeleton.

The abstraction function applies the term-depth restriction: subterms at
depth ≥ k are summarized to their most precise simple sort; proper list
spines cost a single level, with elements abstracted one level deeper
(that is how 30-element ground lists become ``glist``).

Must-aliasing is preserved when it is certain (two argument positions
dereference into the same heap cell); list-element sharing is summarized
away, which is the sound direction for an over-approximating analysis.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..domain.concrete import DEFAULT_DEPTH
from ..domain.lattice import (
    ANY_T,
    ATOM_T,
    EMPTY_T,
    GROUND_SORTS,
    GROUND_T,
    NV_T,
    VAR_T,
    Tree,
    tree_is_ground,
    tree_lub,
    tree_summary_sort,
    tree_to_text,
)
from ..domain.sorts import AbsSort
from ..errors import AnalysisError
from ..prolog.terms import NIL
from ..wam.cells import CON, FUN, LIS, REF, STR, Cell, Heap
from .aheap import (
    ABS,
    cells_ground,
    constant_tree,
    deref,
    make_abs,
    slot_cell,
    walk_spine,
)


Node = tuple


class Pattern:
    """A canonical abstract argument tuple (immutable, hash cached)."""

    __slots__ = ("args", "_hash", "_share")

    def __init__(self, args: Tuple[Node, ...]):
        self.args = args
        self._hash = hash(args)
        self._share: Optional[FrozenSet[Tuple[int, int]]] = None

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Pattern)
            and other._hash == self._hash
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Pattern({self.args!r})"

    def __str__(self) -> str:
        return pattern_to_text(self)

    @property
    def arity(self) -> int:
        return len(self.args)


# ----------------------------------------------------------------------
# Abstraction: heap cells -> canonical pattern, in one walk.

def clip_tree(tree: Tree, depth: int) -> Tree:
    """Depth-restrict an arbitrary type tree.

    ``('l', empty)`` (the nil list) is a constant leaf and costs no depth,
    keeping clipping consistent with :func:`tree_of_cell`, which never
    summarizes constants.
    """
    if tree[0] == "s":
        return tree
    if tree[0] == "l" and tree[1] == EMPTY_T:
        return tree
    if depth <= 0:
        return ("s", tree_summary_sort(tree))
    if tree[0] == "l":
        return ("l", clip_tree(tree[1], depth - 1))
    return (
        "f",
        tree[1],
        tree[2],
        tuple(clip_tree(arg, depth - 1) for arg in tree[3]),
    )


class _Abstractor:
    """One walk over an argument tuple that does three jobs at once.

    * **Canonical nodes.** Instance ids are numbered in first-occurrence
      DFS order as leaves are built.  Ground leaves always get a fresh id
      and never enter the address map, so the pattern is already what
      :func:`canonicalize` would make of it.
    * **Share points.** ``points`` gathers the current argument's
      possibly-unbound cells, as
      :func:`~repro.analysis.aheap.collect_share_points` would.
    * **Hidden-alias survey.** List spines are summarized to an element
      *type* with no instance ids, so a free variable reached inside a
      summarized spine AND reached a second time has a hidden alias: the
      pattern must widen it from ``var`` to ``any``, because a binding
      through the lost alias could instantiate it.  (Non-var abstract
      sorts are closed under instantiation and need no widening.)  With
      ``survey`` on, every variable reached is counted; a compound is
      surveyed once per (address, inside-a-spine) context, and later
      visits are walked but not counted again.  The survey goes on below
      the depth limit, where the pattern itself only needs to know
      whether a subterm is ground.
    """

    def __init__(
        self,
        heap: Heap,
        list_aware: bool = True,
        widen: Set[int] = frozenset(),  # type: ignore[assignment]
    ):
        self.heap = heap
        self.list_aware = list_aware
        self.widen = widen
        self.ids: Dict[int, int] = {}
        self.counter = itertools.count()
        self.points: Set[int] = set()
        self.counts: Dict[int, int] = {}
        self.in_spine: Set[int] = set()
        self.surveyed: Set[Tuple[int, bool]] = set()

    def args(self, cells, depth: int, survey: bool):
        """The pattern nodes of ``cells`` and each one's share points."""
        nodes = []
        points = []
        for cell in cells:
            self.points = set()
            nodes.append(self.walk(cell, depth, frozenset(), False, survey))
            points.append(self.points)
        return tuple(nodes), points

    def count(self, address: int, tag: str, inside: bool) -> bool:
        """Count one visit; returns whether the cell's children count."""
        if tag == REF:
            self.counts[address] = self.counts.get(address, 0) + 1
            if inside:
                self.in_spine.add(address)
            return False
        key = (address, inside)
        if key in self.surveyed:
            return False
        self.surveyed.add(key)
        return True

    def _leaf(self, tree: Tree, address: Optional[int], inside: bool):
        """A leaf: its type tree inside a spine, else an instance node."""
        if inside:
            return tree
        kind, payload = tree
        if kind == "s":
            kind, ground = "i", payload in GROUND_SORTS
        else:
            kind, ground = "li", tree_is_ground(payload)
        if ground or address is None:
            return (kind, payload, next(self.counter))
        ident = self.ids.get(address)
        if ident is None:
            ident = self.ids[address] = next(self.counter)
        return (kind, payload, ident)

    def walk(
        self,
        cell: Cell,
        depth: int,
        path: FrozenSet[int],
        inside: bool,
        survey: bool,
    ):
        """The pattern node of ``cell``; inside a spine, its type tree."""
        heap = self.heap
        term, address = deref(heap, cell)
        if address is not None and address in path:
            return self._leaf(ANY_T, None, inside)  # cyclic term
        tag = term[0]
        if tag == REF:
            if survey:
                self.count(address, tag, inside)  # type: ignore[arg-type]
            self.points.add(address)  # type: ignore[arg-type]
            leaf = ANY_T if address in self.widen else VAR_T
            return self._leaf(leaf, address, inside)
        if tag == ABS:
            sort, elem = term[1]  # type: ignore[misc]
            if sort == AbsSort.LIST:
                leaf, ground = ("l", clip_tree(elem, depth - 1)), tree_is_ground(elem)
            else:
                leaf, ground = ("s", sort), sort in GROUND_SORTS
            if not ground:
                self.points.add(address)  # type: ignore[arg-type]
            return self._leaf(leaf, address, inside)
        if tag == CON:
            if not self.list_aware and term[1] == NIL:
                # Without list awareness [] is just an atom.
                return self._leaf(ATOM_T, None, inside)
            return self._leaf(constant_tree(term[1]), None, inside)
        if depth <= 0:
            ground = cells_ground(
                heap, [cell], self.points, self if survey else None, inside, path
            )
            return self._leaf(GROUND_T if ground else NV_T, address, inside)
        if address is not None:
            path = path | {address}
            if survey:
                survey = self.count(address, tag, inside)
        base = term[1]
        if tag == LIS:
            if self.list_aware:
                proper, elements, tail_elem, tail_address = walk_spine(heap, term)
                if proper:
                    elem = EMPTY_T
                    if tail_elem is not None:
                        elem = tail_elem
                        if not tree_is_ground(tail_elem):
                            self.points.add(tail_address)
                    for element in elements:
                        elem = tree_lub(
                            elem, self.walk(element, depth - 1, path, True, survey)
                        )
                    return self._leaf(("l", elem), address, inside)
            name, arity, first = ".", 2, base
        else:
            (name, arity), first = heap.cells[base][1], base + 1  # type: ignore[index,operator]
        args = [
            self.walk(slot_cell(heap, first + i), depth - 1, path, inside, survey)
            for i in range(arity)
        ]
        return ("f", name, arity, tuple(args))


def tree_of_cell(heap: Heap, cell: Cell, depth: int = DEFAULT_DEPTH) -> Tree:
    """The type tree of the term rooted at ``cell``, depth-restricted
    (no sharing information)."""
    return _Abstractor(heap).walk(cell, depth, frozenset(), True, False)


def abstract_args(
    heap: Heap,
    cells,
    depth: int = DEFAULT_DEPTH,
    list_aware: bool = True,
) -> Tuple[Pattern, List[Set[int]]]:
    """Abstract an argument tuple in one heap walk: its canonical pattern
    and each argument's share points (see
    :func:`~repro.analysis.aheap.collect_share_points`).

    The walk widens nothing; only when its survey finds hidden aliases
    is the tuple abstracted again with them widened to ``any``.  With
    ``list_aware=False`` (the ablation of the paper's α-list type) proper
    lists stay depth-limited cons structures and ``[]`` is a plain atom —
    the precision the paper calls "usually very useful" goes away,
    measurably — and, nothing being summarized, nothing is surveyed.
    """
    walker = _Abstractor(heap, list_aware)
    nodes, points = walker.args(cells, depth, list_aware)
    hidden = {var for var in walker.in_spine if walker.counts[var] >= 2}
    if hidden:
        nodes, _ = _Abstractor(heap, list_aware, hidden).args(cells, depth, False)
    return Pattern(nodes), points


def abstract_cells(
    heap: Heap,
    cells,
    depth: int = DEFAULT_DEPTH,
    list_aware: bool = True,
) -> Pattern:
    """Abstract an argument tuple into a canonical pattern."""
    return abstract_args(heap, cells, depth, list_aware)[0]


# ----------------------------------------------------------------------
# Materialization: pattern -> fresh heap cells.

def materialize_pattern(heap: Heap, pattern: Pattern) -> List[Cell]:
    """Build fresh cells shaped like ``pattern``, honoring shared ids."""
    memo: Dict[int, Cell] = {}

    def build(node: Node) -> Cell:
        kind = node[0]
        if kind == "i":
            sort, ident = node[1], node[2]
            cached = memo.get(ident)
            if cached is None:
                if sort == AbsSort.VAR:
                    cached = heap.new_var()
                elif sort == AbsSort.EMPTY:
                    raise AnalysisError("cannot materialize empty instance")
                else:
                    cached = make_abs(heap, sort)
                memo[ident] = cached
            return cached
        if kind == "li":
            elem, ident = node[1], node[2]
            cached = memo.get(ident)
            if cached is None:
                if elem == EMPTY_T:
                    cached = (CON, NIL)
                else:
                    cached = make_abs(heap, AbsSort.LIST, elem)
                memo[ident] = cached
            return cached
        assert kind == "f"
        name, arity, arg_nodes = node[1], node[2], node[3]
        children = [build(child) for child in arg_nodes]
        if name == "." and arity == 2:
            address = heap.top
            heap.cells.extend(children)
            return (LIS, address)
        functor_address = heap.push((FUN, (name, arity)))
        heap.cells.extend(children)
        return (STR, functor_address)

    return [build(node) for node in pattern.args]


# ----------------------------------------------------------------------
# Lub, canonicalization and inspection.

def node_to_tree(node: Node) -> Tree:
    kind = node[0]
    if kind == "i":
        return ("s", node[1])
    if kind == "li":
        return ("l", node[1])
    return ("f", node[1], node[2], tuple(node_to_tree(n) for n in node[3]))


def tree_to_node(tree: Tree, counter) -> Node:
    kind = tree[0]
    if kind == "s":
        return ("i", tree[1], next(counter))
    if kind == "l":
        return ("li", tree[1], next(counter))
    return (
        "f",
        tree[1],
        tree[2],
        tuple(tree_to_node(arg, counter) for arg in tree[3]),
    )


def pattern_to_trees(pattern: Pattern) -> Tuple[Tree, ...]:
    return tuple(node_to_tree(node) for node in pattern.args)


def _leaf_is_ground(node: Node) -> bool:
    if node[0] == "i":
        return node[1] in GROUND_SORTS
    return tree_is_ground(node[1])


def canonicalize(pattern: Pattern) -> Pattern:
    """Renumber instance ids in first-occurrence (DFS) order.

    Ground nodes always get a fresh id: a ground term cannot be
    further instantiated, so must-aliasing between ground positions
    constrains nothing — keeping it would let two semantically
    identical patterns (one annotating ground sharing, one not)
    canonicalize to different values.
    """
    mapping: Dict[int, int] = {}
    next_free = itertools.count()

    def renumber(node: Node) -> Node:
        kind = node[0]
        if kind in ("i", "li"):
            if _leaf_is_ground(node):
                return (kind, node[1], next(next_free))
            ident = node[2]
            new = mapping.get(ident)
            if new is None:
                new = next(next_free)
                mapping[ident] = new
            return (kind, node[1], new)
        return ("f", node[1], node[2], tuple(renumber(n) for n in node[3]))

    return Pattern(tuple(renumber(node) for node in pattern.args))


def pattern_lub(a: Pattern, b: Pattern) -> Pattern:
    """Least upper bound of two patterns.

    Equal argument nodes keep their sharing; differing arguments take the
    tree lub with fresh (unshared) instances — must-aliasing survives only
    where both patterns agree, the sound direction.
    """
    if a == b:
        return a
    if len(a.args) != len(b.args):
        raise AnalysisError("pattern arity mismatch in lub")
    counter = itertools.count(10_000_000)  # fresh ids; canonicalized below
    nodes: List[Node] = []
    for node_a, node_b in zip(a.args, b.args):
        if node_a == node_b:
            nodes.append(node_a)
        else:
            merged = tree_lub(node_to_tree(node_a), node_to_tree(node_b))
            nodes.append(tree_to_node(merged, counter))
    return canonicalize(Pattern(tuple(nodes)))


def pattern_leq(a: Pattern, b: Pattern) -> bool:
    """Order on patterns ignoring sharing (tree inclusion pointwise)."""
    from ..domain.lattice import tree_leq

    if len(a.args) != len(b.args):
        return False
    return all(
        tree_leq(x, y)
        for x, y in zip(pattern_to_trees(a), pattern_to_trees(b))
    )


def _collect_ids(node: Node, into: List[int]) -> None:
    kind = node[0]
    if kind in ("i", "li"):
        into.append(node[2])
    else:
        for child in node[3]:
            _collect_ids(child, into)


def pattern_subsumes(general: Pattern, specific: Pattern) -> bool:
    """Is every call covered by ``specific`` also covered by ``general``?

    Sound criterion for subsumption-based table reuse: the general
    pattern must make no aliasing demands (sharing in a calling pattern
    *shrinks* its concretization, so an aliased summary may be unsound
    for unaliased calls) and the specific pattern's type trees must be
    pointwise below the general one's.
    """
    if len(general.args) != len(specific.args):
        return False
    ids: List[int] = []
    for node in general.args:
        _collect_ids(node, ids)
    if len(ids) != len(set(ids)):
        return False  # the general pattern demands aliasing
    return pattern_leq(specific, general)


def share_pairs(pattern: Pattern) -> FrozenSet[Tuple[int, int]]:
    """Argument index pairs that share at least one abstract instance
    (computed once per pattern)."""
    if pattern._share is None:
        by_id: Dict[int, Set[int]] = {}
        for index, node in enumerate(pattern.args):
            ids: List[int] = []
            _collect_ids(node, ids)
            for ident in ids:
                by_id.setdefault(ident, set()).add(index)
        pattern._share = _pairs(by_id.values())
    return pattern._share


def _pairs(groups) -> FrozenSet[Tuple[int, int]]:
    """Every ordered index pair within each group of positions."""
    pairs: Set[Tuple[int, int]] = set()
    for positions in groups:
        ordered = sorted(positions)
        for i, left in enumerate(ordered):
            for right in ordered[i + 1 :]:
                pairs.add((left, right))
    return frozenset(pairs)


def pattern_to_text(pattern: Pattern) -> str:
    """Paper-style rendering with subscripts for shared instances."""
    counts: Dict[int, int] = {}

    def count(node: Node) -> None:
        if node[0] in ("i", "li"):
            counts[node[2]] = counts.get(node[2], 0) + 1
        else:
            for child in node[3]:
                count(child)

    for node in pattern.args:
        count(node)

    def render(node: Node) -> str:
        kind = node[0]
        if kind == "i":
            base = tree_to_text(("s", node[1]))
        elif kind == "li":
            base = tree_to_text(("l", node[1]))
        else:
            name, arity, children = node[1], node[2], node[3]
            inner = ", ".join(render(child) for child in children)
            if name == "." and arity == 2:
                return f"[{render(children[0])}|{render(children[1])}]"
            return f"{name}({inner})"
        if counts.get(node[2], 0) > 1:
            return f"{base}_{node[2]}"
        return base

    return "(" + ", ".join(render(node) for node in pattern.args) + ")"


def share_point_pairs(heap: Heap, points) -> FrozenSet[Tuple[int, int]]:
    """Argument pairs whose share points meet in one sharing class.

    ``points`` holds each argument's share points, as
    :func:`abstract_args` returns them.  Richer than :func:`share_pairs`
    on the abstracted pattern: sharing *through summarized list
    elements* is invisible in the pattern (the hidden-alias widening
    keeps the types sound but drops the pair), yet clients like the
    And-Parallelism annotator need it.  Addresses are compared modulo the
    heap's sharing component, which records aliasing introduced by
    re-materialized summaries (list growth, success patterns).
    """
    if sum(1 for arg_points in points if arg_points) < 2:
        return frozenset()
    reached: Dict[int, Set[int]] = {}
    for index, arg_points in enumerate(points):
        for point in arg_points:
            reached.setdefault(heap.share_find(point), set()).add(index)
    return _pairs(reached.values())
