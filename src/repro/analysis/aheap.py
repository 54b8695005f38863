"""Abstract heap cells (paper Section 4.1).

Abstract terms are represented *like variables*: each instance of ``any``,
``g``, ``nv``, ``α-list`` ... is a heap cell tagged ``abs`` that can later
be instantiated — overwritten with a more specific cell — through abstract
unification.  Instantiations go through the value trail of
:class:`repro.wam.cells.Heap`, so backtracking restores them, and aliasing
falls out of the representation: every holder of a reference to the cell
sees the instantiation.

Cell forms added on top of the concrete ones:

* ``('abs', (sort, None))`` — an instance of a simple sort;
* ``('abs', (AbsSort.LIST, elem_tree))`` — an instance of an α-list.

Registers and structure slots never hold a bare ``abs`` cell: they hold a
``('ref', addr)`` to it, so instantiation is visible everywhere.  The
helpers here enforce that invariant.  They also walk heap terms for the
layers above: list spines, ground summaries and share points.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from ..domain.lattice import (
    EMPTY_T,
    GROUND_SORTS,
    NIL_T,
    Tree,
    tree_is_ground,
)
from ..domain.sorts import AbsSort
from ..errors import AnalysisError
from ..prolog.terms import NIL, Atom, Float, Int
from ..wam.cells import CON, FUN, LIS, REF, STR, Cell, Heap

#: Tag of abstract cells.
ABS = "abs"

AbsVal = Tuple[AbsSort, Optional[Tree]]


def make_abs(heap: Heap, sort: AbsSort, elem: Optional[Tree] = None) -> Cell:
    """Allocate an abstract cell; returns a ``ref`` to it."""
    if sort == AbsSort.LIST and elem is None:
        raise AnalysisError("list abstract cell needs an element tree")
    address = heap.push((ABS, (sort, elem)))
    return (REF, address)


def deref(heap: Heap, cell: Cell) -> Tuple[Cell, Optional[int]]:
    """Follow reference chains; returns (cell, address-of-cell-or-None).

    For an unbound variable the address is the variable's own; for a bound
    chain it is the address holding the final non-ref cell, so abstract
    cells can be instantiated in place.  Constants and structure pointers
    reached without any ref hop have no address (they are immutable).
    """
    address: Optional[int] = None
    while cell[0] == REF:
        target_address = cell[1]
        target = heap.cells[target_address]  # type: ignore[index]
        if target == cell:
            return cell, target_address  # type: ignore[return-value]
        address = target_address  # type: ignore[assignment]
        cell = target
    return cell, address


def abs_tree(value: AbsVal) -> Tree:
    """The type tree of an abstract cell's value."""
    sort, elem = value
    if sort == AbsSort.LIST:
        assert elem is not None
        return ("l", elem)
    return ("s", sort)


def materialize(heap: Heap, tree: Tree) -> Cell:
    """Build a fresh term shaped like ``tree`` on the heap.

    Instantiable leaves become fresh cells; structure skeletons become
    real ``lis``/``str`` cells whose argument positions hold the
    materialized children.
    """
    kind = tree[0]
    if kind == "s":
        sort = tree[1]
        if sort == AbsSort.VAR:
            return heap.new_var()
        if sort == AbsSort.EMPTY:
            raise AnalysisError("cannot materialize the empty type")
        return make_abs(heap, sort)
    if kind == "l":
        if tree[1] == EMPTY_T:
            return (CON, NIL)
        return make_abs(heap, AbsSort.LIST, tree[1])
    name, arity, args = tree[1], tree[2], tree[3]
    child_cells = [materialize(heap, argument) for argument in args]
    if name == "." and arity == 2:
        address = heap.top
        heap.cells.extend(child_cells)
        return (LIS, address)
    functor_address = heap.push((FUN, (name, arity)))
    heap.cells.extend(child_cells)
    return (STR, functor_address)


def constant_tree(constant) -> Tree:
    """The type tree a constant belongs to (``[]`` is the nil list)."""
    if constant == NIL:
        return NIL_T
    if isinstance(constant, Atom):
        return ("s", AbsSort.ATOM)
    if isinstance(constant, Int):
        return ("s", AbsSort.INTEGER)
    if isinstance(constant, Float):
        return ("s", AbsSort.CONST)
    raise AnalysisError(f"not a constant: {constant!r}")


def slot_cell(heap: Heap, address: int) -> Cell:
    """The cell stored at ``address``, by reference when it is abstract,
    so instance identity (sharing) is preserved."""
    cell = heap.cells[address]
    if cell[0] == ABS:
        return (REF, address)
    return cell


def walk_spine(heap: Heap, cell: Cell):
    """Walk a list spine: (is_proper, element_cells, tail_elem_tree,
    tail_address) — the last two describe the abstract list cell ending
    a proper spine, and are None when it ends in ``[]``."""
    elements: List[Cell] = []
    seen: Set[int] = set()
    current = cell
    address = None
    while True:
        if current[0] == LIS:
            base = current[1]
            if base in seen:
                return False, elements, None, None  # cyclic spine
            seen.add(base)  # type: ignore[arg-type]
            elements.append(slot_cell(heap, base))  # type: ignore[arg-type]
            current, address = deref(heap, slot_cell(heap, base + 1))  # type: ignore[operator]
            continue
        if current == (CON, NIL):
            return True, elements, None, None
        if current[0] == ABS and current[1][0] == AbsSort.LIST:  # type: ignore[index]
            return True, elements, current[1][1], address  # type: ignore[index]
        return False, elements, None, None


def cells_ground(
    heap: Heap,
    cells,
    points: Set[int],
    survey=None,
    inside: bool = False,
    path: FrozenSet[int] = frozenset(),
) -> bool:
    """Are the terms ``cells`` all ground?  Walks them to the bottom.

    Collects into ``points`` the addresses of their possibly-unbound
    cells: free variables and non-ground abstract cells (a summarized
    list with non-ground elements is one point, since its elements are
    not addressable).  Cyclic terms are not ground.

    ``survey``, when given, is told of every addressed cell reached —
    ``survey.count(address, tag, inside)`` — and answers whether that
    cell's children still count; ``inside`` says whether the cells sit
    in a proper list spine (see :mod:`repro.analysis.patterns`).
    """
    ground = True
    for cell in cells:
        cell, address = deref(heap, cell)
        tag = cell[0]
        counted = survey
        if address is not None:
            if address in path:
                ground = False  # cyclic term
                continue
            if survey is not None and not survey.count(address, tag, inside):
                counted = None
        if tag == REF:
            points.add(address)  # type: ignore[arg-type]
            ground = False
        elif tag == ABS:
            sort, elem = cell[1]  # type: ignore[misc]
            if sort == AbsSort.LIST:
                leaf_ground = tree_is_ground(elem)
            else:
                leaf_ground = sort in GROUND_SORTS
            if not leaf_ground:
                points.add(address)  # type: ignore[arg-type]
                ground = False
        elif tag != CON:
            inner = path if address is None else path | {address}
            ground = _compound_ground(heap, cell, points, counted, inside, inner) and ground
    return ground


def _compound_ground(
    heap: Heap,
    cell: Cell,
    points: Set[int],
    survey,
    inside: bool,
    path: FrozenSet[int],
) -> bool:
    """:func:`cells_ground` of a list or structure's arguments; a proper
    list spine, when surveyed, stands for its elements."""
    base = cell[1]
    if cell[0] == STR:
        arity = heap.cells[base][1][1]  # type: ignore[index]
        slots = [slot_cell(heap, base + 1 + i) for i in range(arity)]  # type: ignore[operator]
        return cells_ground(heap, slots, points, survey, inside, path)
    if survey is not None:
        proper, elements, tail_elem, tail_address = walk_spine(heap, cell)
        if proper:
            tail_ground = tail_elem is None or tree_is_ground(tail_elem)
            if not tail_ground:
                points.add(tail_address)
            return cells_ground(heap, elements, points, survey, True, path) and tail_ground
    slots = [slot_cell(heap, base), slot_cell(heap, base + 1)]  # type: ignore[arg-type,operator]
    return cells_ground(heap, slots, points, survey, inside, path)


def cell_summary(heap: Heap, cell: Cell) -> AbsSort:
    """The most precise simple sort containing the term rooted at ``cell``.

    Used by the abstract builtins for type tests.  Cyclic heap terms
    (created by occurs-check-free unification) summarize to ``nv``.
    """
    cell, address = deref(heap, cell)
    tag = cell[0]
    if tag == REF:
        return AbsSort.VAR
    if tag == ABS:
        sort, elem = cell[1]  # type: ignore[misc]
        if sort == AbsSort.LIST:
            return AbsSort.GROUND if tree_is_ground(elem) else AbsSort.NV
        return sort
    if tag == CON:
        if isinstance(cell[1], Atom):
            return AbsSort.ATOM
        if isinstance(cell[1], Int):
            return AbsSort.INTEGER
        return AbsSort.CONST
    path = frozenset() if address is None else frozenset({address})
    ground = _compound_ground(heap, cell, set(), None, False, path)
    return AbsSort.GROUND if ground else AbsSort.NV


def collect_share_points(heap: Heap, cell: Cell, into: Set[int]) -> None:
    """Addresses of possibly-unbound cells reachable from ``cell``.

    Ground cells are excluded — sharing a ground subterm cannot transmit
    bindings.  Summarized lists with non-ground elements count as one
    share point (their elements are not individually addressable).
    """
    cells_ground(heap, [cell], into)
