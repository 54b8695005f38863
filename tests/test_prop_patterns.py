"""Property-based tests for pattern abstraction, materialization and lub."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.aheap import (
    ABS,
    cell_summary,
    collect_share_points,
    deref,
    make_abs,
)
from repro.analysis.patterns import (
    Pattern,
    abstract_args,
    abstract_cells,
    canonicalize,
    clip_tree,
    materialize_pattern,
    pattern_leq,
    pattern_lub,
    pattern_subsumes,
    pattern_to_trees,
    share_pairs,
    tree_of_cell,
    tree_to_node,
)
from repro.domain import AbsSort, sort_is_ground, tree_is_ground, tree_leq, tree_lub
from repro.domain.concrete import DEFAULT_DEPTH
from repro.domain.lattice import ANY_T, EMPTY_T
from repro.prolog.terms import NIL, Atom, Int
from repro.wam.cells import CON, FUN, LIS, REF, STR, Heap

S = AbsSort

SORT_LEAVES = st.sampled_from(
    [S.VAR, S.ATOM, S.INTEGER, S.CONST, S.GROUND, S.NV, S.ANY]
)


def trees():
    return st.recursive(
        SORT_LEAVES.map(lambda sort: ("s", sort)),
        lambda children: st.one_of(
            st.tuples(st.just("l"), children),
            st.builds(
                lambda args: ("f", "f", len(args), tuple(args)),
                st.lists(children, min_size=1, max_size=2),
            ),
        ),
        max_leaves=5,
    )


def patterns():
    def build(tree_list, share_seed):
        counter = itertools.count()
        nodes = tuple(tree_to_node(tree, counter) for tree in tree_list)
        return canonicalize(Pattern(nodes))

    return st.builds(
        build, st.lists(trees(), min_size=0, max_size=3), st.integers()
    )


@settings(max_examples=300)
@given(patterns())
def test_materialize_abstract_roundtrip(pattern):
    heap = Heap()
    cells = materialize_pattern(heap, pattern)
    assert abstract_cells(heap, cells) == pattern


@settings(max_examples=300)
@given(patterns())
def test_canonicalization_idempotent(pattern):
    assert canonicalize(pattern) == pattern


@settings(max_examples=300)
@given(patterns(), patterns())
def test_pattern_lub_upper_bound(a, b):
    if len(a.args) != len(b.args):
        return
    merged = pattern_lub(a, b)
    assert pattern_leq(a, merged)
    assert pattern_leq(b, merged)


@settings(max_examples=300)
@given(patterns())
def test_pattern_lub_idempotent(pattern):
    assert pattern_lub(pattern, pattern) == pattern


@settings(max_examples=300)
@given(patterns(), patterns())
def test_lub_share_pairs_shrink_only(a, b):
    if len(a.args) != len(b.args):
        return
    merged = pattern_lub(a, b)
    # Must-sharing survives only where both agree.
    assert share_pairs(merged) <= share_pairs(a) | share_pairs(b)


@settings(max_examples=300)
@given(patterns(), patterns())
def test_subsumption_implies_tree_order(a, b):
    if pattern_subsumes(a, b):
        for specific, general in zip(pattern_to_trees(b), pattern_to_trees(a)):
            assert tree_leq(specific, general)


@settings(max_examples=200)
@given(patterns())
def test_subsumption_reflexive_without_sharing(pattern):
    if not share_pairs(pattern):
        ids = []
        from repro.analysis.patterns import _collect_ids

        for node in pattern.args:
            _collect_ids(node, ids)
        if len(ids) == len(set(ids)):
            assert pattern_subsumes(pattern, pattern)


# ----------------------------------------------------------------------
# The one-walk abstraction against the three-walk reference.
#
# ``abstract_args`` builds canonical nodes, collects share points and
# surveys hidden aliases in one heap walk.  The reference below is the
# straightforward pipeline it replaced, kept here (and only here) as the
# oracle: survey the hidden aliases, abstract with them widened, then
# canonicalize.  Both must agree on arbitrary heaps: shared variables,
# shared compounds, abstract cells, proper, partial and open-ended list
# spines, and terms deeper than the depth limit.


def _ref_slot(heap, address):
    cell = heap.cells[address]
    return (REF, address) if cell[0] == ABS else cell


def _ref_cell_summary(heap, cell, visiting=frozenset()):
    cell, address = deref(heap, cell)
    if address is not None:
        if address in visiting:
            return S.NV
        visiting = visiting | {address}
    tag = cell[0]
    if tag == REF:
        return S.VAR
    if tag == ABS:
        sort, elem = cell[1]
        if sort == S.LIST:
            return S.GROUND if tree_is_ground(elem) else S.NV
        return sort
    if tag == CON:
        return _ref_constant_tree(cell[1])[1] if cell[1] != NIL else S.ATOM
    if tag == LIS:
        base, arity = cell[1], 2
    else:
        base, arity = cell[1] + 1, heap.cells[cell[1]][1][1]
    parts = [
        _ref_cell_summary(heap, heap.cells[base + i], visiting)
        for i in range(arity)
    ]
    return S.GROUND if all(sort_is_ground(part) for part in parts) else S.NV


def _ref_walk_spine(heap, cell):
    elements = []
    seen = set()
    current = cell
    while True:
        if current[0] == LIS:
            address = current[1]
            if address in seen:
                return False, elements, None
            seen.add(address)
            elements.append(_ref_slot(heap, address))
            current, _ = deref(heap, _ref_slot(heap, address + 1))
            continue
        if current == (CON, NIL):
            return True, elements, None
        if current[0] == ABS and current[1][0] == S.LIST:
            return True, elements, current[1][1]
        return False, elements, None


def _ref_tree_of_cell(heap, cell, depth, path, widen):
    cell, address = deref(heap, cell)
    if address is not None:
        if address in path:
            return ANY_T
        path = path | {address}
    tag = cell[0]
    if tag == REF:
        return ("s", S.ANY) if address in widen else ("s", S.VAR)
    if tag == ABS:
        sort, elem = cell[1]
        if sort == S.LIST:
            return ("l", clip_tree(elem, depth - 1))
        return ("s", sort)
    if tag == CON:
        return _ref_constant_tree(cell[1])
    if depth <= 0:
        return ("s", _ref_cell_summary(heap, cell))
    if tag == LIS:
        proper, elements, tail_elem = _ref_walk_spine(heap, cell)
        if proper:
            elem = tail_elem if tail_elem is not None else EMPTY_T
            for element in elements:
                elem = tree_lub(
                    elem, _ref_tree_of_cell(heap, element, depth - 1, path, widen)
                )
            return ("l", elem)
        return (
            "f", ".", 2,
            (
                _ref_tree_of_cell(heap, _ref_slot(heap, cell[1]), depth - 1, path, widen),
                _ref_tree_of_cell(heap, _ref_slot(heap, cell[1] + 1), depth - 1, path, widen),
            ),
        )
    name, arity = heap.cells[cell[1]][1]
    return (
        "f", name, arity,
        tuple(
            _ref_tree_of_cell(heap, _ref_slot(heap, cell[1] + 1 + i), depth - 1, path, widen)
            for i in range(arity)
        ),
    )


def _ref_constant_tree(constant):
    if constant == NIL:
        return ("l", EMPTY_T)
    if isinstance(constant, Atom):
        return ("s", S.ATOM)
    if isinstance(constant, Int):
        return ("s", S.INTEGER)
    return ("s", S.CONST)


def _ref_survey(heap, cells):
    counts = {}
    in_spine = set()
    visited = set()

    def walk(cell, inside, path):
        cell, address = deref(heap, cell)
        if address is None:
            if cell[0] in (LIS, STR):
                walk_compound(cell, inside, path)
            return
        if address in path:
            return
        counts[address] = counts.get(address, 0) + 1
        if cell[0] == REF and inside:
            in_spine.add(address)
        if (address, inside) in visited and counts[address] >= 2:
            return
        visited.add((address, inside))
        if cell[0] in (LIS, STR):
            walk_compound(cell, inside, path | {address})

    def walk_compound(cell, inside, path):
        if cell[0] == LIS:
            proper, elements, _ = _ref_walk_spine(heap, cell)
            if proper:
                for element in elements:
                    walk(element, True, path)
                return
            walk(_ref_slot(heap, cell[1]), inside, path)
            walk(_ref_slot(heap, cell[1] + 1), inside, path)
            return
        _, arity = heap.cells[cell[1]][1]
        for offset in range(arity):
            walk(_ref_slot(heap, cell[1] + 1 + offset), inside, path)

    for cell in cells:
        walk(cell, False, frozenset())
    return {address for address in in_spine if counts.get(address, 0) >= 2}


def _ref_collect_share_points(heap, cell, into):
    cell, address = deref(heap, cell)
    tag = cell[0]
    if tag == REF:
        into.add(address)
    elif tag == ABS:
        sort, elem = cell[1]
        if sort == S.LIST:
            if not tree_is_ground(elem):
                into.add(address)
        elif not sort_is_ground(sort):
            into.add(address)
    elif tag == LIS:
        _ref_collect_share_points(heap, _ref_slot(heap, cell[1]), into)
        _ref_collect_share_points(heap, _ref_slot(heap, cell[1] + 1), into)
    elif tag == STR:
        _, arity = heap.cells[cell[1]][1]
        for offset in range(arity):
            _ref_collect_share_points(heap, _ref_slot(heap, cell[1] + 1 + offset), into)


def _ref_abstract(heap, cells, depth, list_aware):
    widen = _ref_survey(heap, cells) if list_aware else set()
    ids = {}
    counter = itertools.count()

    def ident(address):
        if address is None:
            return next(counter)
        if address not in ids:
            ids[address] = next(counter)
        return ids[address]

    def node(cell, depth, path):
        cell, address = deref(heap, cell)
        if address is not None and address in path:
            return ("i", S.ANY, ident(None))
        if address is not None:
            path = path | {address}
        tag = cell[0]
        if tag == REF:
            return ("i", S.ANY if address in widen else S.VAR, ident(address))
        if tag == ABS:
            sort, elem = cell[1]
            if sort == S.LIST:
                return ("li", clip_tree(elem, depth - 1), ident(address))
            return ("i", sort, ident(address))
        if tag == CON:
            if not list_aware and cell[1] == NIL:
                return ("i", S.ATOM, ident(address))
            leaf = _ref_constant_tree(cell[1])
            return ("li" if leaf[0] == "l" else "i", leaf[1], ident(address))
        if depth <= 0:
            return ("i", _ref_cell_summary(heap, cell), ident(address))
        if tag == LIS:
            proper, elements, tail_elem = (
                _ref_walk_spine(heap, cell) if list_aware else (False, [], None)
            )
            if proper:
                elem = tail_elem if tail_elem is not None else EMPTY_T
                for element in elements:
                    elem = tree_lub(
                        elem,
                        _ref_tree_of_cell(heap, element, depth - 1, path, widen),
                    )
                return ("li", elem, ident(address))
            return (
                "f", ".", 2,
                (
                    node(_ref_slot(heap, cell[1]), depth - 1, path),
                    node(_ref_slot(heap, cell[1] + 1), depth - 1, path),
                ),
            )
        name, arity = heap.cells[cell[1]][1]
        return (
            "f", name, arity,
            tuple(
                node(_ref_slot(heap, cell[1] + 1 + i), depth - 1, path)
                for i in range(arity)
            ),
        )

    nodes = tuple(node(cell, depth, frozenset()) for cell in cells)
    return canonicalize(Pattern(nodes))


ABS_SORTS = st.sampled_from([S.ATOM, S.INTEGER, S.CONST, S.GROUND, S.NV, S.ANY])


def heap_specs():
    """Recipes for heap terms; ``var``/``shared`` leaves reuse earlier cells."""
    leaves = st.one_of(
        st.tuples(st.just("var"), st.integers(0, 3)),
        st.tuples(st.just("abs"), ABS_SORTS),
        st.tuples(st.just("abslist"), trees()),
        st.tuples(st.just("shared"), st.integers(0, 5)),
        st.sampled_from([("nil",), ("atom",), ("int",)]),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.just("f"), st.lists(children, min_size=1, max_size=3)),
            st.tuples(
                st.just("list"), st.lists(children, min_size=1, max_size=3), children
            ),
            st.tuples(st.just("bound"), children),
        ),
        max_leaves=14,
    )


class _HeapTerms:
    def __init__(self, heap):
        self.heap = heap
        self.variables = {}
        self.compounds = []

    def build(self, spec):
        heap = self.heap
        kind = spec[0]
        if kind == "var":
            if spec[1] not in self.variables:
                self.variables[spec[1]] = heap.new_var()
            return self.variables[spec[1]]
        if kind == "abs":
            return make_abs(heap, spec[1])
        if kind == "abslist":
            return make_abs(heap, S.LIST, spec[1])
        if kind == "shared":
            if not self.compounds:
                return heap.new_var()
            return self.compounds[spec[1] % len(self.compounds)]
        if kind in ("nil", "atom", "int"):
            return (CON, {"nil": NIL, "atom": Atom("a"), "int": Int(1)}[kind])
        if kind == "f":
            children = [self.build(child) for child in spec[1]]
            address = heap.push((FUN, ("f", len(children))))
            heap.cells.extend(children)
            cell = (STR, address)
        elif kind == "list":
            elements = [self.build(child) for child in spec[1]]
            cell = self.build(spec[2])
            for element in reversed(elements):
                address = heap.top
                heap.cells.extend([element, cell])
                cell = (LIS, address)
        else:  # "bound": the same term, reached through a variable
            inner = self.build(spec[1])
            cell = heap.new_var()
            heap.set_cell(cell[1], inner)
        self.compounds.append(cell)
        return cell


@settings(max_examples=400, deadline=None)
@given(
    st.lists(heap_specs(), min_size=1, max_size=3),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
)
def test_one_walk_matches_reference(specs, depth, list_aware):
    heap = Heap()
    terms = _HeapTerms(heap)
    cells = [terms.build(spec) for spec in specs]
    pattern, points = abstract_args(heap, cells, depth, list_aware)
    assert canonicalize(pattern) == pattern
    assert pattern == _ref_abstract(heap, cells, depth, list_aware)
    for cell, arg_points in zip(cells, points):
        expected = set()
        _ref_collect_share_points(heap, cell, expected)
        assert arg_points == expected
        collected = set()
        collect_share_points(heap, cell, collected)
        assert collected == expected
    for cell in cells:
        assert tree_of_cell(heap, cell, depth) == _ref_tree_of_cell(
            heap, cell, depth, frozenset(), frozenset()
        )
        assert cell_summary(heap, cell) == _ref_cell_summary(heap, cell)


@settings(max_examples=300)
@given(patterns())
def test_materialized_patterns_match_reference(pattern):
    heap = Heap()
    cells = materialize_pattern(heap, pattern)
    again = abstract_cells(heap, cells)
    assert canonicalize(again) == again
    assert again == _ref_abstract(heap, cells, DEFAULT_DEPTH, True)


def test_hidden_alias_below_the_depth_limit_widens():
    # p(X, f(f(f(f([X]))))): X's second occurrence sits in a list spine
    # below the depth limit, yet it still widens the first one.
    heap = Heap()
    x = heap.new_var()
    address = heap.top
    heap.cells.extend([x, (CON, NIL)])
    deep = (LIS, address)
    for _ in range(4):
        functor = heap.push((FUN, ("f", 1)))
        heap.cells.append(deep)
        deep = (STR, functor)
    pattern = abstract_cells(heap, [x, deep])
    assert pattern.args[0] == ("i", S.ANY, 0)
    assert pattern == _ref_abstract(heap, [x, deep], DEFAULT_DEPTH, True)


def test_compound_reached_twice_is_surveyed_once():
    # p(S, S) with S = g([X]): the spine holding X is one heap term
    # reached twice, not two occurrences of X, so X keeps its var type.
    heap = Heap()
    x = heap.new_var()
    spine = heap.top
    heap.cells.extend([x, (CON, NIL)])
    functor = heap.push((FUN, ("g", 1)))
    heap.cells.append((LIS, spine))
    s = heap.new_var()
    heap.set_cell(s[1], (STR, functor))
    pattern = abstract_cells(heap, [s, s])
    assert pattern == _ref_abstract(heap, [s, s], DEFAULT_DEPTH, True)
    assert pattern.args[0][3][0][1] == ("s", S.VAR)
