"""A naive, interpreter-grade abstract term store for the baselines.

The baseline analyzers (meta-interpretation and program transformation)
deliberately use the implementation style the paper argues *against*:

* abstract terms live in a node store addressed by integer ids, and every
  clause trial **copies the whole store** instead of trailing — the cost a
  Prolog-hosted analyzer pays for not having destructive update;
* unification is one general recursive procedure dispatching on term
  shapes at run time — no specialized instructions;
* terms are converted from the clause AST on every use — interpretive
  overhead on each head and body goal.

The domain itself is identical to the compiled analyzer's
(:mod:`repro.domain`), and abstraction produces the same canonical
:class:`~repro.analysis.patterns.Pattern` values, so the two
implementations can be cross-checked table against table.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..domain.lattice import EMPTY_T, Tree, tree_lub, tree_unify
from ..domain.sorts import AbsSort
from ..errors import AnalysisError
from ..prolog.terms import (
    NIL,
    Atom,
    Float,
    Int,
    Struct,
    Term,
    Var,
)
from ..analysis.patterns import Node, Pattern, canonicalize, clip_tree

#: Node values: ('var',) | ('ref', id) | ('sort', AbsSort) |
#: ('list', Tree) | ('const', constant) | ('struct', name, (ids...)).
NodeVal = tuple


class AbsStore:
    """The copy-on-branch abstract node store."""

    def __init__(self) -> None:
        self.nodes: Dict[int, NodeVal] = {}
        self._counter = itertools.count(0)
        self.copies = 0

    def copy(self) -> "AbsStore":
        """A snapshot for one clause trial (the deliberate inefficiency)."""
        snapshot = AbsStore.__new__(AbsStore)
        snapshot.nodes = dict(self.nodes)
        snapshot._counter = self._counter  # ids stay globally unique
        snapshot.copies = self.copies + 1
        return snapshot

    # ------------------------------------------------------------------

    def new_node(self, value: NodeVal) -> int:
        ident = next(self._counter)
        self.nodes[ident] = value
        return ident

    def new_var(self) -> int:
        return self.new_node(("var",))

    def walk(self, ident: int) -> Tuple[int, NodeVal]:
        value = self.nodes[ident]
        while value[0] == "ref":
            ident = value[1]
            value = self.nodes[ident]
        return ident, value

    # ------------------------------------------------------------------
    # AST conversion.

    def from_term(self, term: Term, env: Dict[int, int]) -> int:
        """Convert a clause term to nodes; ``env`` maps ``id(Var)`` to ids."""
        if isinstance(term, Var):
            ident = env.get(id(term))
            if ident is None or term.name == "_":
                ident = self.new_var()
                env[id(term)] = ident
            return ident
        if isinstance(term, (Atom, Int, Float)):
            return self.new_node(("const", term))
        assert isinstance(term, Struct)
        children = tuple(self.from_term(argument, env) for argument in term.args)
        return self.new_node(("struct", term.name, children))

    # ------------------------------------------------------------------
    # Set unification (general procedure, the interpretive path).

    def s_unify(self, left: int, right: int) -> bool:
        left, left_value = self.walk(left)
        right, right_value = self.walk(right)
        if left == right:
            return True
        if left_value[0] == "var":
            self.nodes[left] = ("ref", right)
            return True
        if right_value[0] == "var":
            self.nodes[right] = ("ref", left)
            return True
        if left_value[0] in ("sort", "list") and right_value[0] in ("sort", "list"):
            combined = tree_unify(self._tree_of_value(left_value),
                                  self._tree_of_value(right_value))
            if combined is None:
                return False
            ident = self._node_for_tree(combined)
            self.nodes[left] = ("ref", ident)
            self.nodes[right] = ("ref", ident)
            return True
        if left_value[0] in ("sort", "list"):
            return self._unify_abs_concrete(left, left_value, right, right_value)
        if right_value[0] in ("sort", "list"):
            return self._unify_abs_concrete(right, right_value, left, left_value)
        if left_value[0] == "const" and right_value[0] == "const":
            return left_value[1] == right_value[1]
        if left_value[0] == "struct" and right_value[0] == "struct":
            if left_value[1] != right_value[1]:
                return False
            if len(left_value[2]) != len(right_value[2]):
                return False
            return all(
                self.s_unify(a, b)
                for a, b in zip(left_value[2], right_value[2])
            )
        return False

    def _tree_of_value(self, value: NodeVal) -> Tree:
        if value[0] == "sort":
            return ("s", value[1])
        assert value[0] == "list"
        return ("l", value[1])

    def _node_for_tree(self, tree: Tree) -> int:
        if tree[0] == "s":
            if tree[1] == AbsSort.VAR:
                return self.new_var()
            return self.new_node(("sort", tree[1]))
        if tree[0] == "l":
            if tree[1] == EMPTY_T:
                return self.new_node(("const", NIL))
            return self.new_node(("list", tree[1]))
        children = tuple(self._node_for_tree(arg) for arg in tree[3])
        return self.new_node(("struct", tree[1], children))

    def _unify_abs_concrete(
        self, abs_id: int, abs_value: NodeVal, other_id: int, other_value: NodeVal
    ) -> bool:
        abs_value_tree = self._tree_of_value(abs_value)
        if other_value[0] == "const":
            from ..analysis.aheap import constant_tree

            if tree_unify(abs_value_tree, constant_tree(other_value[1])) is None:
                return False
            self.nodes[abs_id] = other_value
            return True
        assert other_value[0] == "struct"
        name = other_value[1]
        arity = len(other_value[2])
        component: Optional[Tree]
        if abs_value[0] == "list":
            if name != "." or arity != 2:
                return False
            elem = abs_value[1]
            if elem == EMPTY_T:
                return False
            children = (
                self._node_for_tree(elem),
                self.new_node(("list", elem)),
            )
        else:
            sort = abs_value[1]
            if sort in (AbsSort.ANY, AbsSort.NV):
                component = ("s", AbsSort.ANY)
            elif sort == AbsSort.GROUND:
                component = ("s", AbsSort.GROUND)
            else:
                return False
            children = tuple(
                self._node_for_tree(component) for _ in range(arity)
            )
        self.nodes[abs_id] = ("struct", name, children)
        return all(
            self.s_unify(a, b) for a, b in zip(children, other_value[2])
        )

    # ------------------------------------------------------------------
    # Abstraction to canonical patterns.

    def _survey_hidden_aliases(self, idents: List[int]):
        """Same rule as the fast path (the survey in
        :class:`repro.analysis.patterns._Abstractor`): variables
        occurring inside a summarized spine with a second occurrence
        anywhere must widen to ``any``."""
        counts: Dict[int, int] = {}
        in_spine = set()
        visited = set()

        def walk(ident: int, inside: bool, path: frozenset) -> None:
            ident, value = self.walk(ident)
            if ident in path:
                return
            counts[ident] = counts.get(ident, 0) + 1
            if value[0] == "var" and inside:
                in_spine.add(ident)
            if (ident, inside) in visited and counts[ident] >= 2:
                return
            visited.add((ident, inside))
            if value[0] != "struct":
                return
            if value[1] == "." and len(value[2]) == 2:
                proper, elements, _ = self._walk_spine(ident)
                if proper:
                    for element in elements:
                        walk(element, True, path | {ident})
                    return
            for child in value[2]:
                walk(child, inside, path | {ident})

        for ident in idents:
            walk(ident, False, frozenset())
        return {i for i in in_spine if counts.get(i, 0) >= 2}

    def abstract(self, idents: List[int], depth: int) -> Pattern:
        mapping: Dict[int, int] = {}
        counter = itertools.count(0)
        widen = self._survey_hidden_aliases(idents)

        def share_id(ident: Optional[int]) -> int:
            if ident is None:
                return next(counter)
            existing = mapping.get(ident)
            if existing is None:
                existing = next(counter)
                mapping[ident] = existing
            return existing

        def node(ident: int, k: int, path: frozenset) -> Node:
            ident, value = self.walk(ident)
            if ident in path:
                return ("i", AbsSort.ANY, share_id(None))
            path = path | {ident}
            kind = value[0]
            if kind == "var":
                if ident in widen:
                    return ("i", AbsSort.ANY, share_id(ident))
                return ("i", AbsSort.VAR, share_id(ident))
            if kind == "sort":
                return ("i", value[1], share_id(ident))
            if kind == "list":
                return ("li", clip_tree(value[1], k - 1), share_id(ident))
            if kind == "const":
                leaf = _const_leaf(value[1])
                if leaf[0] == "l":
                    return ("li", leaf[1], share_id(ident))
                return ("i", leaf[1], share_id(ident))
            assert kind == "struct"
            if k <= 0:
                summary = self._summary(ident, set())
                if summary == AbsSort.VAR and ident in widen:
                    summary = AbsSort.ANY
                return ("i", summary, share_id(ident))
            if value[1] == "." and len(value[2]) == 2:
                proper, elements, tail_elem = self._walk_spine(ident)
                if proper:
                    elem = tail_elem if tail_elem is not None else EMPTY_T
                    for element in elements:
                        elem = tree_lub(
                            elem, self.tree_of(element, k - 1, path, widen)
                        )
                    return ("li", elem, share_id(ident))
            children = tuple(node(child, k - 1, path) for child in value[2])
            return ("f", value[1], len(value[2]), children)

        nodes = tuple(node(ident, depth, frozenset()) for ident in idents)
        return canonicalize(Pattern(nodes))

    def tree_of(
        self,
        ident: int,
        depth: int,
        path: frozenset = frozenset(),
        widen=frozenset(),
    ) -> Tree:
        ident, value = self.walk(ident)
        if ident in path:
            return ("s", AbsSort.ANY)
        path = path | {ident}
        kind = value[0]
        if kind == "var":
            if ident in widen:
                return ("s", AbsSort.ANY)
            return ("s", AbsSort.VAR)
        if kind == "sort":
            return ("s", value[1])
        if kind == "list":
            return ("l", clip_tree(value[1], depth - 1))
        if kind == "const":
            return _const_leaf(value[1])
        if depth <= 0:
            return ("s", self._summary(ident, set()))
        if value[1] == "." and len(value[2]) == 2:
            proper, elements, tail_elem = self._walk_spine(ident)
            if proper:
                elem = tail_elem if tail_elem is not None else EMPTY_T
                for element in elements:
                    elem = tree_lub(
                        elem, self.tree_of(element, depth - 1, path, widen)
                    )
                return ("l", elem)
        children = tuple(
            self.tree_of(child, depth - 1, path, widen) for child in value[2]
        )
        return ("f", value[1], len(value[2]), children)

    def _walk_spine(self, ident: int):
        elements: List[int] = []
        seen = set()
        current = ident
        while True:
            current, value = self.walk(current)
            if current in seen:
                return False, elements, None
            seen.add(current)
            if value[0] == "struct" and value[1] == "." and len(value[2]) == 2:
                elements.append(value[2][0])
                current = value[2][1]
                continue
            if value[0] == "const" and value[1] == NIL:
                return True, elements, None
            if value[0] == "list":
                return True, elements, value[1]
            return False, elements, None

    def _summary(self, ident: int, visiting: set) -> AbsSort:
        ident, value = self.walk(ident)
        if ident in visiting:
            return AbsSort.NV
        visiting = visiting | {ident}
        kind = value[0]
        if kind == "var":
            return AbsSort.VAR
        if kind == "sort":
            return value[1]
        if kind == "list":
            from ..domain.lattice import tree_is_ground

            return AbsSort.GROUND if tree_is_ground(value[1]) else AbsSort.NV
        if kind == "const":
            leaf = _const_leaf(value[1])
            return AbsSort.ATOM if leaf[0] == "l" else leaf[1]
        from ..domain.sorts import sort_is_ground

        parts = [self._summary(child, visiting) for child in value[2]]
        if all(sort_is_ground(part) for part in parts):
            return AbsSort.GROUND
        return AbsSort.NV

    # ------------------------------------------------------------------

    def materialize(self, pattern: Pattern) -> List[int]:
        """Fresh nodes shaped like a pattern, honoring shared instances."""
        memo: Dict[int, int] = {}

        def build(node: Node) -> int:
            kind = node[0]
            if kind in ("i", "li"):
                cached = memo.get(node[2])
                if cached is not None:
                    return cached
                if kind == "i":
                    if node[1] == AbsSort.VAR:
                        ident = self.new_var()
                    elif node[1] == AbsSort.EMPTY:
                        raise AnalysisError("cannot materialize empty instance")
                    else:
                        ident = self.new_node(("sort", node[1]))
                else:
                    if node[1] == EMPTY_T:
                        ident = self.new_node(("const", NIL))
                    else:
                        ident = self.new_node(("list", node[1]))
                memo[node[2]] = ident
                return ident
            children = tuple(build(child) for child in node[3])
            return self.new_node(("struct", node[1], children))

        return [build(node) for node in pattern.args]


def _const_leaf(constant) -> Tree:
    if constant == NIL:
        return ("l", EMPTY_T)
    if isinstance(constant, Atom):
        return ("s", AbsSort.ATOM)
    if isinstance(constant, Int):
        return ("s", AbsSort.INTEGER)
    return ("s", AbsSort.CONST)
