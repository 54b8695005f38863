"""The concrete WAM: a standard Prolog engine executing linked code.

State registers follow Warren's design: ``P`` (program counter), ``CP``
(continuation), ``E`` (current environment), ``B`` (latest choice point),
``B0`` (cut barrier), ``S`` (subterm pointer) and ``mode`` (read/write),
plus the argument/temporary registers ``X``.

Differences from the textbook machine, chosen for clarity in Python:

* environments and choice points are Python objects rather than stack
  words; the heap is the only addressed store;
* every variable lives on the heap (``put_variable Yn`` also allocates a
  heap cell), which makes last-call optimization unconditionally safe;
* the trail is a value trail (address, old cell), shared machinery with
  the abstract machine, which must undo instantiation of non-ref cells.

Solutions are produced lazily: :meth:`Machine.run` compiles the query as a
one-off predicate, then yields one solution per successful derivation,
backtracking on demand.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import MachineError, PrologError
from ..prolog.terms import (
    NIL,
    Atom,
    Float,
    Indicator,
    Int,
    Struct,
    Term,
    Var,
    format_indicator,
)
from .cells import CON, FUN, LIS, REF, STR, Cell, Heap, cell_type
from .code import CodeArea
from .compile import CompiledProgram, HALT_ADDRESS
from .instructions import Instr, Reg


class Environment:
    """An environment frame: continuation and permanent variables."""

    __slots__ = ("prev", "cp", "slots")

    def __init__(self, prev: Optional["Environment"], cp: int, size: int):
        self.prev = prev
        self.cp = cp
        self.slots: List[object] = [None] * size


class ChoicePoint:
    """A backtracking frame."""

    __slots__ = (
        "prev",
        "args",
        "e",
        "cp",
        "b0",
        "next_alt",
        "trail_mark",
        "heap_mark",
        "num_args",
    )

    def __init__(
        self,
        prev: Optional["ChoicePoint"],
        args: Tuple[Cell, ...],
        e: Optional[Environment],
        cp: int,
        b0: Optional["ChoicePoint"],
        next_alt: int,
        trail_mark: int,
        heap_mark: int,
    ):
        self.prev = prev
        self.args = args
        self.e = e
        self.cp = cp
        self.b0 = b0
        self.next_alt = next_alt
        self.trail_mark = trail_mark
        self.heap_mark = heap_mark
        self.num_args = len(args)


class Machine:
    """Executes linked WAM code for one compiled program."""

    def __init__(self, compiled: CompiledProgram, max_steps: int = 50_000_000):
        from .builtins import MACHINE_BUILTINS

        self.compiled = compiled
        self.code: CodeArea = compiled.code
        self.heap = Heap()
        self.x: List[Cell] = [(CON, NIL)] * 8  # grows on demand; 1-based
        self.pc = HALT_ADDRESS
        self.cp = HALT_ADDRESS
        self.e: Optional[Environment] = None
        self.b: Optional[ChoicePoint] = None
        self.b0: Optional[ChoicePoint] = None
        self.s = 0
        self.mode = "read"
        self.num_args = 0
        self.max_steps = max_steps
        self.instruction_count = 0
        #: Slots environment trimming would reclaim (see _trim_environment).
        self.trimmed_slots = 0
        self.output: List[str] = []
        self.builtins = MACHINE_BUILTINS
        self._switch_cache: Dict[int, Dict[object, int]] = {}
        #: Optional repro.wam.trace.Tracer recording executed instructions.
        self.tracer = None
        #: Optional zero-argument callable invoked once per dispatched
        #: instruction; the resource-governance layer (repro.robust)
        #: installs Budget.charge_step / FaultPlan firing here.  Left as
        #: None (no per-step overhead beyond one identity check) when the
        #: machine runs ungoverned.
        self.step_monitor = None
        #: Optional repro.obs.MetricsRegistry.  When set, the dispatch
        #: loop switches to _run_profiled, which counts instructions by
        #: opcode (and by owning predicate, see _profile_owner) and
        #: tracks the trail's peak depth.  When None — the default — the
        #: loop in _run_to_event runs with no extra work at all.
        self.metrics = None

    # ------------------------------------------------------------------
    # Register access.

    def get_x(self, index: int) -> Cell:
        return self.x[index]

    def set_x(self, index: int, cell: Cell) -> None:
        if index >= len(self.x):
            self.x.extend([(CON, NIL)] * (index + 1 - len(self.x)))
        self.x[index] = cell

    def get_reg(self, register: Reg) -> Cell:
        if register.kind == "x":
            return self.x[register.index]
        assert self.e is not None
        value = self.e.slots[register.index - 1]
        if value is None:
            raise MachineError(f"uninitialized permanent {register}")
        return value  # type: ignore[return-value]

    def set_reg(self, register: Reg, cell: Cell) -> None:
        if register.kind == "x":
            self.set_x(register.index, cell)
        else:
            assert self.e is not None
            self.e.slots[register.index - 1] = cell

    # ------------------------------------------------------------------
    # Binding and unification.

    def bind(self, address: int, cell: Cell) -> None:
        self.heap.set_cell(address, cell)

    def unify(self, left: Cell, right: Cell) -> bool:
        heap = self.heap
        stack: List[Tuple[Cell, Cell]] = [(left, right)]
        while stack:
            a, b = stack.pop()
            a = heap.deref(a)
            b = heap.deref(b)
            if a == b:
                continue
            if a[0] == REF and b[0] == REF:
                # Bind the younger variable to the older one.
                if a[1] < b[1]:  # type: ignore[operator]
                    self.bind(b[1], a)  # type: ignore[arg-type]
                else:
                    self.bind(a[1], b)  # type: ignore[arg-type]
                continue
            if a[0] == REF:
                self.bind(a[1], b)  # type: ignore[arg-type]
                continue
            if b[0] == REF:
                self.bind(b[1], a)  # type: ignore[arg-type]
                continue
            if a[0] == CON and b[0] == CON:
                if a[1] != b[1]:
                    return False
                continue
            if a[0] == LIS and b[0] == LIS:
                address_a, address_b = a[1], b[1]
                stack.append((heap.cells[address_a], heap.cells[address_b]))  # type: ignore[index]
                stack.append(
                    (heap.cells[address_a + 1], heap.cells[address_b + 1])  # type: ignore[index]
                )
                continue
            if a[0] == STR and b[0] == STR:
                functor_a = heap.cells[a[1]]  # type: ignore[index]
                functor_b = heap.cells[b[1]]  # type: ignore[index]
                if functor_a[1] != functor_b[1]:
                    return False
                arity = functor_a[1][1]  # type: ignore[index]
                for offset in range(1, arity + 1):
                    stack.append(
                        (heap.cells[a[1] + offset], heap.cells[b[1] + offset])  # type: ignore[index]
                    )
                continue
            return False
        return True

    # ------------------------------------------------------------------
    # Control.

    def backtrack(self) -> bool:
        """Restore the latest choice point; False when none remains."""
        frame = self.b
        if frame is None:
            return False
        for index, cell in enumerate(frame.args, start=1):
            self.set_x(index, cell)
        self.e = frame.e
        self.cp = frame.cp
        self.b0 = frame.b0
        self.num_args = frame.num_args
        self.heap.undo_to(frame.trail_mark, frame.heap_mark)
        self.pc = frame.next_alt
        return True

    def _push_choice_point(self, next_alt: int) -> None:
        self.b = ChoicePoint(
            prev=self.b,
            args=tuple(self.x[1 : self.num_args + 1]),
            e=self.e,
            cp=self.cp,
            b0=self.b0,
            next_alt=next_alt,
            trail_mark=self.heap.trail_mark(),
            heap_mark=self.heap.top,
        )

    # ------------------------------------------------------------------
    # The dispatch loop.

    def run(self, goal: Term) -> Iterator[Dict[str, Term]]:
        """Execute ``goal``; yields one name → term map per solution."""
        indicator, variables = self.compiled.compile_query(goal)
        cells = [self.heap.new_var() for _ in variables]
        for index, cell in enumerate(cells, start=1):
            self.set_x(index, cell)
        self.num_args = len(cells)
        self.pc = self.code.entry[indicator]
        self.cp = HALT_ADDRESS
        self.b0 = self.b
        alive = True
        while alive:
            status = self._run_to_event()
            if status == "fail":
                return
            assert status == "solution"
            names: Dict[int, Var] = {}
            yield {
                variable.name: self.heap.decode(cell, names)
                for variable, cell in zip(variables, cells)
                if variable.name
            }
            alive = self.backtrack()

    def run_once(self, goal: Term) -> Optional[Dict[str, Term]]:
        for solution in self.run(goal):
            return solution
        return None

    def _handlers(self):
        """Per-address bound handlers (rebuilt when the code area grows)."""
        cached = getattr(self, "_handler_cache", None)
        code = self.code.instructions
        if cached is None or len(cached) != len(code):
            dispatch = self.DISPATCH
            cached = []
            for instruction in code:
                handler = dispatch.get(instruction.op)
                if handler is None:
                    raise MachineError(f"unknown opcode {instruction.op}")
                cached.append(handler)
            self._handler_cache = cached
        return cached

    def _run_to_event(self) -> str:
        """Run until a solution (halt) or global failure."""
        if self.metrics is not None:
            return self._run_profiled()
        code = self.code.instructions
        handlers = self._handlers()
        count = self.instruction_count
        limit = self.max_steps
        tracer = self.tracer
        monitor = self.step_monitor
        while True:
            count += 1
            if count > limit:
                self.instruction_count = count
                raise PrologError("resource_error", "WAM step limit exceeded")
            if monitor is not None:
                try:
                    monitor()
                except BaseException:
                    self.instruction_count = count
                    raise
            pc = self.pc
            if tracer is not None:
                self.instruction_count = count
                tracer.record(self, code[pc])
            outcome = handlers[pc](self, code[pc])
            if outcome is None:
                continue
            if outcome == "halt":
                self.instruction_count = count
                return "solution"
            assert outcome == "fail"
            if not self.backtrack():
                self.instruction_count = count
                return "fail"

    # ------------------------------------------------------------------
    # Profiled dispatch (repro.obs).

    def _profile_owner(self):
        """Who the next instruction is charged to in the profile.

        The concrete machine has no per-predicate attribution (there is
        no exploration stack to consult); the abstract machine overrides
        this with the innermost open exploration frame's indicator.
        """
        return None

    def _run_profiled(self) -> str:
        """The dispatch loop of _run_to_event plus metric accounting.

        A separate method so that metrics-off runs execute the original
        loop verbatim.  Per-instruction counts accumulate in local dicts
        and are flushed to the registry exactly once, in the ``finally``
        block — including on step-limit or budget aborts, so a degraded
        run still reports what it executed.
        """
        code = self.code.instructions
        handlers = self._handlers()
        count = self.instruction_count
        limit = self.max_steps
        tracer = self.tracer
        monitor = self.step_monitor
        trail = self.heap.trail
        op_counts: Dict[str, int] = {}
        owner_counts: Dict[object, int] = {}
        trail_peak = len(trail)
        try:
            while True:
                count += 1
                if count > limit:
                    self.instruction_count = count
                    raise PrologError(
                        "resource_error", "WAM step limit exceeded"
                    )
                if monitor is not None:
                    try:
                        monitor()
                    except BaseException:
                        self.instruction_count = count
                        raise
                pc = self.pc
                instruction = code[pc]
                op = instruction.op
                op_counts[op] = op_counts.get(op, 0) + 1
                owner = self._profile_owner()
                if owner is not None:
                    owner_counts[owner] = owner_counts.get(owner, 0) + 1
                if tracer is not None:
                    self.instruction_count = count
                    tracer.record(self, instruction)
                outcome = handlers[pc](self, instruction)
                if len(trail) > trail_peak:
                    trail_peak = len(trail)
                if outcome is None:
                    continue
                if outcome == "halt":
                    self.instruction_count = count
                    return "solution"
                assert outcome == "fail"
                if not self.backtrack():
                    self.instruction_count = count
                    return "fail"
        finally:
            self.instruction_count = count
            self._flush_profile(op_counts, owner_counts, trail_peak)

    def _flush_profile(
        self,
        op_counts: Dict[str, int],
        owner_counts: Dict[object, int],
        trail_peak: int,
    ) -> None:
        from ..obs.metrics import opcode_class

        metrics = self.metrics
        if metrics is None:  # pragma: no cover - cleared mid-run
            return
        total = 0
        for op, value in op_counts.items():
            total += value
            metrics.counter("wam.instructions.op", op=op).inc(value)
            metrics.counter(
                "wam.instructions.class", **{"class": opcode_class(op)}
            ).inc(value)
        if total:
            metrics.counter("wam.instructions").inc(total)
        for owner, value in owner_counts.items():
            metrics.counter(
                "analysis.predicate.instructions",
                pred=format_indicator(owner),
            ).inc(value)
        metrics.gauge("wam.trail.peak").set_max(trail_peak)

    # ------------------------------------------------------------------
    # put instructions.

    def _put_variable(self, instruction: Instr):
        register, position = instruction.args
        cell = self.heap.new_var()
        self.set_reg(register, cell)
        self.set_x(position, cell)
        self.pc += 1

    def _put_value(self, instruction: Instr):
        register, position = instruction.args
        self.set_x(position, self.get_reg(register))
        self.pc += 1

    def _put_constant(self, instruction: Instr):
        constant, position = instruction.args
        self.set_x(position, (CON, constant))
        self.pc += 1

    def _put_nil(self, instruction: Instr):
        self.set_x(instruction.args[0], (CON, NIL))
        self.pc += 1

    def _put_list(self, instruction: Instr):
        register = instruction.args[0]
        self.set_reg(register, (LIS, self.heap.top))
        self.mode = "write"
        self.pc += 1

    def _put_structure(self, instruction: Instr):
        functor, register = instruction.args
        address = self.heap.push((FUN, functor))
        self.set_reg(register, (STR, address))
        self.mode = "write"
        self.pc += 1

    # ------------------------------------------------------------------
    # get instructions.

    def _get_variable(self, instruction: Instr):
        register, position = instruction.args
        self.set_reg(register, self.get_x(position))
        self.pc += 1

    def _get_value(self, instruction: Instr):
        register, position = instruction.args
        if not self.unify(self.get_reg(register), self.get_x(position)):
            return "fail"
        self.pc += 1

    def _get_constant_cell(self, constant, cell: Cell):
        cell = self.heap.deref(cell)
        if cell[0] == REF:
            self.bind(cell[1], (CON, constant))  # type: ignore[arg-type]
            return None
        if cell[0] == CON and cell[1] == constant:
            return None
        return "fail"

    def _get_constant(self, instruction: Instr):
        constant, position = instruction.args
        outcome = self._get_constant_cell(constant, self.get_x(position))
        if outcome is not None:
            return outcome
        self.pc += 1

    def _get_nil(self, instruction: Instr):
        outcome = self._get_constant_cell(NIL, self.get_x(instruction.args[0]))
        if outcome is not None:
            return outcome
        self.pc += 1

    def _get_list(self, instruction: Instr):
        register = instruction.args[0]
        cell = self.heap.deref(self.get_reg(register))
        if cell[0] == REF:
            self.bind(cell[1], (LIS, self.heap.top))  # type: ignore[arg-type]
            self.mode = "write"
        elif cell[0] == LIS:
            self.s = cell[1]  # type: ignore[assignment]
            self.mode = "read"
        else:
            return "fail"
        self.pc += 1

    def _get_structure(self, instruction: Instr):
        functor, register = instruction.args
        cell = self.heap.deref(self.get_reg(register))
        if cell[0] == REF:
            address = self.heap.push((FUN, functor))
            self.bind(cell[1], (STR, address))  # type: ignore[arg-type]
            self.mode = "write"
        elif cell[0] == STR:
            functor_cell = self.heap.cells[cell[1]]  # type: ignore[index]
            if functor_cell[1] != functor:
                return "fail"
            self.s = cell[1] + 1  # type: ignore[assignment]
            self.mode = "read"
        else:
            return "fail"
        self.pc += 1

    # ------------------------------------------------------------------
    # specialized get instructions (repro.opt).
    #
    # The ``_nv`` variants trust the analysis fact "this argument is
    # always instantiated": the unbound-REF branch is gone, so a
    # non-matching tag simply fails.  The ``_w`` variants trust "this
    # argument is always an unbound, unaliased variable": they bind
    # without any tag dispatch.  Translation validation (repro.opt.validate)
    # checks the facts end to end before optimized code is trusted.

    def _get_constant_nv(self, instruction: Instr):
        constant, position = instruction.args
        cell = self.heap.deref(self.get_x(position))
        if cell[0] == CON and cell[1] == constant:
            self.pc += 1
            return None
        return "fail"

    def _get_nil_nv(self, instruction: Instr):
        cell = self.heap.deref(self.get_x(instruction.args[0]))
        if cell[0] == CON and cell[1] == NIL:
            self.pc += 1
            return None
        return "fail"

    def _get_list_nv(self, instruction: Instr):
        cell = self.heap.deref(self.get_reg(instruction.args[0]))
        if cell[0] != LIS:
            return "fail"
        self.s = cell[1]  # type: ignore[assignment]
        self.mode = "read"
        self.pc += 1

    def _get_structure_nv(self, instruction: Instr):
        functor, register = instruction.args
        cell = self.heap.deref(self.get_reg(register))
        if cell[0] != STR:
            return "fail"
        if self.heap.cells[cell[1]][1] != functor:  # type: ignore[index]
            return "fail"
        self.s = cell[1] + 1  # type: ignore[assignment]
        self.mode = "read"
        self.pc += 1

    def _get_constant_w(self, instruction: Instr):
        constant, position = instruction.args
        cell = self.heap.deref(self.get_x(position))
        self.bind(cell[1], (CON, constant))  # type: ignore[arg-type]
        self.pc += 1

    def _get_nil_w(self, instruction: Instr):
        cell = self.heap.deref(self.get_x(instruction.args[0]))
        self.bind(cell[1], (CON, NIL))  # type: ignore[arg-type]
        self.pc += 1

    def _get_list_w(self, instruction: Instr):
        cell = self.heap.deref(self.get_reg(instruction.args[0]))
        self.bind(cell[1], (LIS, self.heap.top))  # type: ignore[arg-type]
        self.mode = "write"
        self.pc += 1

    def _get_structure_w(self, instruction: Instr):
        functor, register = instruction.args
        cell = self.heap.deref(self.get_reg(register))
        address = self.heap.push((FUN, functor))
        self.bind(cell[1], (STR, address))  # type: ignore[arg-type]
        self.mode = "write"
        self.pc += 1

    # ------------------------------------------------------------------
    # unify instructions.

    def _unify_variable(self, instruction: Instr):
        register = instruction.args[0]
        if self.mode == "read":
            self.set_reg(register, self.heap.cells[self.s])
            self.s += 1
        else:
            self.set_reg(register, self.heap.new_var())
        self.pc += 1

    def _unify_value(self, instruction: Instr):
        register = instruction.args[0]
        if self.mode == "read":
            if not self.unify(self.get_reg(register), self.heap.cells[self.s]):
                return "fail"
            self.s += 1
        else:
            self.heap.push(self.get_reg(register))
        self.pc += 1

    def _unify_constant(self, instruction: Instr):
        constant = instruction.args[0]
        if self.mode == "read":
            outcome = self._get_constant_cell(constant, self.heap.cells[self.s])
            if outcome is not None:
                return outcome
            self.s += 1
        else:
            self.heap.push((CON, constant))
        self.pc += 1

    def _unify_nil(self, instruction: Instr):
        if self.mode == "read":
            outcome = self._get_constant_cell(NIL, self.heap.cells[self.s])
            if outcome is not None:
                return outcome
            self.s += 1
        else:
            self.heap.push((CON, NIL))
        self.pc += 1

    def _unify_void(self, instruction: Instr):
        count = instruction.args[0]
        if self.mode == "read":
            self.s += count
        else:
            for _ in range(count):
                self.heap.new_var()
        self.pc += 1

    # ------------------------------------------------------------------
    # mode-specialized unify instructions (repro.opt): the read/write
    # mode is statically known after a specialized get, so the mode test
    # disappears.

    def _unify_variable_r(self, instruction: Instr):
        self.set_reg(instruction.args[0], self.heap.cells[self.s])
        self.s += 1
        self.pc += 1

    def _unify_value_r(self, instruction: Instr):
        if not self.unify(
            self.get_reg(instruction.args[0]), self.heap.cells[self.s]
        ):
            return "fail"
        self.s += 1
        self.pc += 1

    def _unify_constant_r(self, instruction: Instr):
        outcome = self._get_constant_cell(
            instruction.args[0], self.heap.cells[self.s]
        )
        if outcome is not None:
            return outcome
        self.s += 1
        self.pc += 1

    def _unify_nil_r(self, instruction: Instr):
        outcome = self._get_constant_cell(NIL, self.heap.cells[self.s])
        if outcome is not None:
            return outcome
        self.s += 1
        self.pc += 1

    def _unify_void_r(self, instruction: Instr):
        self.s += instruction.args[0]
        self.pc += 1

    def _unify_variable_w(self, instruction: Instr):
        self.set_reg(instruction.args[0], self.heap.new_var())
        self.pc += 1

    def _unify_value_w(self, instruction: Instr):
        self.heap.push(self.get_reg(instruction.args[0]))
        self.pc += 1

    def _unify_constant_w(self, instruction: Instr):
        self.heap.push((CON, instruction.args[0]))
        self.pc += 1

    def _unify_nil_w(self, instruction: Instr):
        self.heap.push((CON, NIL))
        self.pc += 1

    def _unify_void_w(self, instruction: Instr):
        for _ in range(instruction.args[0]):
            self.heap.new_var()
        self.pc += 1

    # ------------------------------------------------------------------
    # procedural instructions.

    def _allocate(self, instruction: Instr):
        self.e = Environment(self.e, self.cp, instruction.args[0])
        self.pc += 1

    def _deallocate(self, instruction: Instr):
        assert self.e is not None
        self.cp = self.e.cp
        self.e = self.e.prev
        self.pc += 1

    def _trim_environment(self, live: int) -> None:
        """Account for environment trimming.

        In the real WAM trimming reclaims stack space because later
        allocations overwrite the dead slots; the slots themselves stay
        intact whenever a younger choice point protects them, so a
        destructive truncation here would be wrong (backtracking must be
        able to re-read them).  With heap-allocated environment objects
        there is no stack to reclaim, so we record the reclaimable-slot
        count — the quantity the ablation benchmark reports.
        """
        if self.e is not None and self.compiled.options.environment_trimming:
            self.trimmed_slots += max(0, len(self.e.slots) - live)

    def _call(self, instruction: Instr):
        predicate, live = instruction.args
        self._trim_environment(live)
        entry = self.code.entry.get(predicate)
        if entry is None:
            raise PrologError(
                "existence_error",
                f"unknown predicate {format_indicator(predicate)}",
            )
        self.cp = self.pc + 1
        self.num_args = predicate[1]
        self.b0 = self.b
        self.pc = entry

    def _execute(self, instruction: Instr):
        predicate = instruction.args[0]
        entry = self.code.entry.get(predicate)
        if entry is None:
            raise PrologError(
                "existence_error",
                f"unknown predicate {format_indicator(predicate)}",
            )
        self.num_args = predicate[1]
        self.b0 = self.b
        self.pc = entry

    def _proceed(self, instruction: Instr):
        self.pc = self.cp

    def _builtin(self, instruction: Instr):
        predicate = instruction.args[0]
        handler = self.builtins.get(predicate)
        if handler is None:
            raise PrologError(
                "existence_error",
                f"builtin {format_indicator(predicate)} not supported by the WAM",
            )
        if not handler(self):
            return "fail"
        self.pc += 1

    def _neck_cut(self, instruction: Instr):
        self.b = self.b0
        self.pc += 1

    def _get_level(self, instruction: Instr):
        register = instruction.args[0]
        assert self.e is not None
        self.e.slots[register.index - 1] = ("lvl", self.b0)
        self.pc += 1

    def _cut(self, instruction: Instr):
        register = instruction.args[0]
        assert self.e is not None
        saved = self.e.slots[register.index - 1]
        if not (isinstance(saved, tuple) and saved[0] == "lvl"):
            raise MachineError("cut level slot corrupted")
        self.b = saved[1]
        self.pc += 1

    def _fail(self, instruction: Instr):
        return "fail"

    def _halt(self, instruction: Instr):
        return "halt"

    # ------------------------------------------------------------------
    # indexing instructions.

    def _try_me_else(self, instruction: Instr):
        self._push_choice_point(instruction.args[0])
        self.pc += 1

    def _retry_me_else(self, instruction: Instr):
        assert self.b is not None
        self.b.next_alt = instruction.args[0]
        self.pc += 1

    def _trust_me(self, instruction: Instr):
        assert self.b is not None
        self.b = self.b.prev
        self.pc += 1

    def _try(self, instruction: Instr):
        self._push_choice_point(self.pc + 1)
        self.pc = instruction.args[0]

    def _retry(self, instruction: Instr):
        assert self.b is not None
        self.b.next_alt = self.pc + 1
        self.pc = instruction.args[0]

    def _trust(self, instruction: Instr):
        assert self.b is not None
        self.b = self.b.prev
        self.pc = instruction.args[0]

    def _switch_on_term(self, instruction: Instr):
        on_var, on_const, on_list, on_struct = instruction.args
        kind = cell_type(self.heap.deref(self.get_x(1)))
        target = {
            "var": on_var,
            "const": on_const,
            "list": on_list,
            "struct": on_struct,
        }[kind]
        if target == -1:
            return "fail"
        self.pc = target

    def _switch_table(self, instruction: Instr, key) -> object:
        table = self._switch_cache.get(id(instruction))
        if table is None:
            table = dict(instruction.args[0])
            self._switch_cache[id(instruction)] = table
        if len(instruction.args) > 1:
            # Optimizer-emitted switch: misses fall back to the
            # variable-keyed clause chain instead of failing.
            target = table.get(key, instruction.args[1])
        else:
            target = table.get(key, -1)
        if target == -1:
            return "fail"
        self.pc = target
        return None

    def _switch_on_constant(self, instruction: Instr):
        cell = self.heap.deref(self.get_x(1))
        if cell[0] != CON:
            raise MachineError("switch_on_constant on non-constant")
        return self._switch_table(instruction, cell[1])

    def _switch_on_structure(self, instruction: Instr):
        cell = self.heap.deref(self.get_x(1))
        if cell[0] == LIS:
            key = (".", 2)
        elif cell[0] == STR:
            key = self.heap.cells[cell[1]][1]  # type: ignore[index]
        else:
            raise MachineError("switch_on_structure on non-structure")
        return self._switch_table(instruction, key)


Machine.DISPATCH = {
    "put_variable": Machine._put_variable,
    "put_value": Machine._put_value,
    "put_constant": Machine._put_constant,
    "put_nil": Machine._put_nil,
    "put_list": Machine._put_list,
    "put_structure": Machine._put_structure,
    "get_variable": Machine._get_variable,
    "get_value": Machine._get_value,
    "get_constant": Machine._get_constant,
    "get_nil": Machine._get_nil,
    "get_list": Machine._get_list,
    "get_structure": Machine._get_structure,
    "unify_variable": Machine._unify_variable,
    "unify_value": Machine._unify_value,
    "unify_constant": Machine._unify_constant,
    "unify_nil": Machine._unify_nil,
    "unify_void": Machine._unify_void,
    "allocate": Machine._allocate,
    "deallocate": Machine._deallocate,
    "call": Machine._call,
    "execute": Machine._execute,
    "proceed": Machine._proceed,
    "builtin": Machine._builtin,
    "neck_cut": Machine._neck_cut,
    "get_level": Machine._get_level,
    "cut": Machine._cut,
    "fail": Machine._fail,
    "halt": Machine._halt,
    "try_me_else": Machine._try_me_else,
    "retry_me_else": Machine._retry_me_else,
    "trust_me": Machine._trust_me,
    "try": Machine._try,
    "retry": Machine._retry,
    "trust": Machine._trust,
    "switch_on_term": Machine._switch_on_term,
    "switch_on_constant": Machine._switch_on_constant,
    "switch_on_structure": Machine._switch_on_structure,
    "get_constant_nv": Machine._get_constant_nv,
    "get_nil_nv": Machine._get_nil_nv,
    "get_list_nv": Machine._get_list_nv,
    "get_structure_nv": Machine._get_structure_nv,
    "get_constant_w": Machine._get_constant_w,
    "get_nil_w": Machine._get_nil_w,
    "get_list_w": Machine._get_list_w,
    "get_structure_w": Machine._get_structure_w,
    "unify_variable_r": Machine._unify_variable_r,
    "unify_value_r": Machine._unify_value_r,
    "unify_constant_r": Machine._unify_constant_r,
    "unify_nil_r": Machine._unify_nil_r,
    "unify_void_r": Machine._unify_void_r,
    "unify_variable_w": Machine._unify_variable_w,
    "unify_value_w": Machine._unify_value_w,
    "unify_constant_w": Machine._unify_constant_w,
    "unify_nil_w": Machine._unify_nil_w,
    "unify_void_w": Machine._unify_void_w,
}
