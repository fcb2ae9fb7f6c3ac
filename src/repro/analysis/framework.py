"""The generic interprocedural dataflow skeleton.

A pass in :mod:`repro.analysis` is an instance of one recipe: a lattice
of facts, a transfer function per CFG node, and a forward worklist
iteration (with optional widening) to a fixpoint.  The skeleton keeps
that machinery in one place so the interval interpreter writes only its
lattice and transfers (see ``docs/ANALYSIS.md``).

Interprocedural passes additionally use :class:`CallGraph` for a
bottom-up procedure order: callee summaries are computed before their
callers, with the members of a call-graph cycle (recursion) iterated
together until their summaries stabilize.
"""

from repro.cfront import cast as C


class DataflowAnalysis:
    """One intraprocedural forward fixpoint problem over a function CFG.

    Subclasses define the lattice and the transfers:

    - :meth:`bottom` — the least fact (the solver initializes every node
      with it);
    - :meth:`boundary` — the entry node's in-fact;
    - :meth:`join` — least upper bound of two facts;
    - :meth:`equals` — fact equality (fixpoint detection);
    - :meth:`transfer` — ``transfer(node, fact)``: the fact after the
      node, given the fact flowing into it;
    - :meth:`edge_transfer` — optional refinement along a labelled edge
      (``assume=True/False`` on branch edges); identity by default;
    - :meth:`widen` — optional widening applied at loop heads after
      ``widen_after`` visits; defaults to :meth:`join` (no widening).
    """

    widen_after = None  # visits of one node before widening kicks in

    def __init__(self, cfg):
        self.cfg = cfg

    # -- the lattice (subclass responsibility) ---------------------------------

    def bottom(self):
        raise NotImplementedError

    def boundary(self):
        raise NotImplementedError

    def join(self, left, right):
        raise NotImplementedError

    def equals(self, left, right):
        raise NotImplementedError

    def transfer(self, node, fact):
        raise NotImplementedError

    def edge_transfer(self, source, edge, fact):
        return fact

    def widen(self, previous, joined):
        return joined

    # -- the solver -------------------------------------------------------------

    def solve(self):
        """Iterate to the least fixpoint; returns ``self`` with
        ``fact_in`` / ``fact_out`` maps keyed by node uid.

        ``fact_in[uid]`` is the fact flowing *into* the node,
        ``fact_out[uid]`` the fact after applying the node's transfer.
        Unreachable code stays at bottom (it never executes).
        """
        cfg = self.cfg
        self.fact_in = {node.uid: self.bottom() for node in cfg.nodes}
        self.fact_out = {node.uid: self.bottom() for node in cfg.nodes}
        self.fact_in[cfg.entry.uid] = self.boundary()
        visits = {}
        worklist = [cfg.entry]
        queued = {node.uid for node in worklist}
        while worklist:
            node = worklist.pop()
            queued.discard(node.uid)
            visits[node.uid] = visits.get(node.uid, 0) + 1
            out = self.transfer(node, self.fact_in[node.uid])
            if self.equals(out, self.fact_out[node.uid]) and visits[node.uid] > 1:
                continue
            self.fact_out[node.uid] = out
            for edge in node.edges:
                successor = edge.target
                flowed = self.edge_transfer(node, edge, out)
                joined = self.join(self.fact_in[successor.uid], flowed)
                if (
                    self.widen_after is not None
                    and visits.get(successor.uid, 0) >= self.widen_after
                    and self._is_loop_head(successor)
                ):
                    joined = self.widen(self.fact_in[successor.uid], joined)
                if not self.equals(joined, self.fact_in[successor.uid]):
                    self.fact_in[successor.uid] = joined
                    if successor.uid not in queued:
                        worklist.append(successor)
                        queued.add(successor.uid)
        return self

    def _is_loop_head(self, node):
        """A node with an incoming back edge (a predecessor reachable from
        the node itself — cheaply over-approximated: any branch node whose
        statement is a While, plus join points targeted by gotos)."""
        if node.kind == "branch" and isinstance(node.stmt, C.While):
            return True
        return len(node.preds) > 1


class CallGraph:
    """Callee edges between the program's defined procedures."""

    def __init__(self, program):
        self.program = program
        self.callees = {}  # name -> set of defined callee names
        self.callers = {}
        defined = {func.name for func in program.defined_functions()}
        for func in program.defined_functions():
            found = set()
            self._scan(func.body, found)
            self.callees[func.name] = found & defined
        for name in self.callees:
            self.callers[name] = set()
        for name, callees in self.callees.items():
            for callee in callees:
                self.callers[callee].add(name)

    def _scan(self, stmts, found):
        for stmt in stmts:
            if isinstance(stmt, C.CallStmt):
                found.add(stmt.name)
            for sub in stmt.substatements():
                self._scan(sub, found)

    def bottom_up_order(self):
        """Procedure names, callees before callers; members of a cycle
        (recursion) appear in deterministic name order and must be
        iterated to a joint fixpoint by the client."""
        order = []
        state = {}  # name -> "open" | "done"

        def visit(name):
            if state.get(name) == "done":
                return
            if state.get(name) == "open":
                return  # back edge: a cycle, broken here
            state[name] = "open"
            for callee in sorted(self.callees.get(name, ())):
                visit(callee)
            state[name] = "done"
            order.append(name)

        for name in sorted(self.callees):
            visit(name)
        return order

    def recursive_names(self):
        """Names on a call-graph cycle (including self-recursion)."""
        result = set()
        for name in self.callees:
            seen = set()
            stack = list(self.callees.get(name, ()))
            while stack:
                current = stack.pop()
                if current == name:
                    result.add(name)
                    break
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(self.callees.get(current, ()))
        return result
