"""Mini three-address IR: parsing, CFG extraction, candidate derivation, rewriting.

Grammar, one instruction per line, tokens whitespace-separated except that
``*`` attaches to its operand::

    [label:] x = y             assignment (y a variable or integer)
    [label:] x = y OP z        OP in + - * / << >> & | ^
    [label:] x = OP y          OP in - ~
    [label:] x = *p            load
    [label:] *p = y            store
    [label:] if x goto L       branch on x != 0
    [label:] goto L
    [label:] ret

``#`` starts a comment.  Cost directives override the defaults used when
extracting a graph (``[p,s]`` or ``inf`` syntax; an edge cost below [0,0]
is a parse error)::

    !edgecost [p,s]            default cost of every edge
    !edgecost L1 L2 [p,s]      cost of the edge between two labeled instructions
    !nodecost [p,s]            default cost of every node
    !nodecost L [p,s]          cost of one labeled instruction's node

The extracted graph has one node per instruction plus a synthetic source
before the first instruction and a synthetic sink after every ret; a region
that never reaches a ret is linked to the sink by one fake edge.
"""
from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import chain, count
from typing import Optional, Union

from .cfg import Cfg, DEFAULT_EDGE_COST, DEFAULT_NODE_COST, make_problem, reach
from .cost import CostVec, parse_cost, format_cost
from .errors import IrParseError, LospreError

Operand = Union[str, int]

BINARY_OPS = ("+", "-", "*", "/", "<<", ">>", "&", "|", "^")
UNARY_OPS = ("-", "~")
COMMUTATIVE = frozenset({"+", "*", "&", "|", "^"})

ASSIGN, BINOP, UNOP, LOAD, STORE, BRANCH, JUMP, RET = (
    "assign", "binop", "unop", "load", "store", "branch", "jump", "ret")


class UnreachableCodeWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Instruction:
    """One instruction: ``dest`` is set on assign, binop, unop and load
    alone, and ``left`` and ``right`` hold every operand it reads."""

    kind: str
    label: Optional[str] = None
    dest: Optional[str] = None
    op: Optional[str] = None
    left: Optional[Operand] = None
    right: Optional[Operand] = None
    target: Optional[str] = None


@dataclass
class Program:
    """Parsed instruction list plus cost directives.

    Behaves as a sequence of instructions; the directives only matter when
    a graph is extracted.
    """

    instructions: list
    default_edge_cost: CostVec = DEFAULT_EDGE_COST
    default_node_cost: CostVec = DEFAULT_NODE_COST
    edge_cost_overrides: dict = field(default_factory=dict)  # (label, label) -> CostVec
    node_cost_overrides: dict = field(default_factory=dict)  # label -> CostVec

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, i):
        return self.instructions[i]

    def labels(self) -> dict:
        return {ins.label: i for i, ins in enumerate(self.instructions) if ins.label}

    def variables(self) -> set:
        """Every variable an instruction writes or reads."""
        return {o for ins in self.instructions for o in (ins.dest, ins.left, ins.right)
                if isinstance(o, str)}


def _operand(tok: str) -> Operand:
    try:
        return int(tok)
    except ValueError:
        pass
    if tok.isidentifier():
        return tok
    raise ValueError(f"malformed operand {tok!r}")


def _var(tok: str) -> str:
    if not tok.isidentifier():
        raise ValueError(f"expected a variable name, got {tok!r}")
    return tok


def parse_ir(text: str) -> Program:
    """Parse IR text; labels are resolved and duplicates rejected."""
    instructions = []
    program = Program(instructions)
    labels = {}  # label -> instruction index
    linenos = []
    named = {}  # (directive, *labels) -> the first line naming them
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("!"):
                names = _parse_directive(line, program)
                if names:
                    named.setdefault(names, lineno)
                continue
            label = None
            if ":" in line.split()[0]:
                head, _, rest = line.partition(":")
                label = head.strip()
                if not label.isidentifier():
                    raise ValueError(f"malformed label {head!r}")
                if label in labels:
                    raise ValueError(f"duplicate label {label!r}")
                labels[label] = len(instructions)
                line = rest.strip()
                if not line:
                    raise ValueError("a label must be followed by an instruction on the same line")
            instructions.append(_parse_instruction(line, label))
        except ValueError as exc:
            raise IrParseError(str(exc), lineno)
        linenos.append(lineno)
    for ins, lineno in zip(instructions, linenos):
        if ins.target is not None and ins.target not in labels:
            raise IrParseError(f"undefined label {ins.target!r}", lineno)
    succ = _successor_indices(program) if program.edge_cost_overrides else ()
    for (directive, *names), lineno in named.items():
        if any(name not in labels for name in names):
            raise IrParseError(f"{directive} references undefined label "
                               + " or ".join(map(repr, names)), lineno)
        # an edge between two instructions is extracted iff it is a successor edge
        if directive == "!edgecost" and labels[names[1]] not in succ[labels[names[0]]]:
            raise IrParseError(f"!edgecost {names[0]} {names[1]}: "
                               "no such edge in the extracted graph", lineno)
    return program


def _parse_directive(line: str, program: Program) -> tuple:
    """Apply one directive to ``program``; the override's directive and labels, if any."""
    parts = line.split()
    if parts[0] == "!edgecost" and len(parts) == 2:
        program.default_edge_cost = parse_cost(parts[1], edge=True)
    elif parts[0] == "!edgecost" and len(parts) == 4:
        program.edge_cost_overrides[(parts[1], parts[2])] = parse_cost(parts[3], edge=True)
        return tuple(parts[:3])
    elif parts[0] == "!nodecost" and len(parts) == 2:
        program.default_node_cost = parse_cost(parts[1])
    elif parts[0] == "!nodecost" and len(parts) == 3:
        program.node_cost_overrides[parts[1]] = parse_cost(parts[2])
        return tuple(parts[:2])
    else:
        raise ValueError(f"malformed directive {line!r}")
    return ()


def _parse_instruction(line: str, label: Optional[str]) -> Instruction:
    toks = line.split()
    if toks == ["ret"]:
        return Instruction(RET, label)
    if toks[0] == "goto":
        if len(toks) != 2:
            raise ValueError("expected 'goto L'")
        return Instruction(JUMP, label, target=_var(toks[1]))
    if toks[0] == "if":
        if len(toks) != 4 or toks[2] != "goto":
            raise ValueError("expected 'if x goto L'")
        return Instruction(BRANCH, label, left=_operand(toks[1]), target=_var(toks[3]))
    if toks[0].startswith("*"):
        if len(toks) != 3 or toks[1] != "=":
            raise ValueError("expected '*p = y'")
        return Instruction(STORE, label, left=_operand(toks[0][1:]), right=_operand(toks[2]))
    if len(toks) >= 3 and toks[1] == "=":
        dest = _var(toks[0])
        rhs = toks[2:]
        if len(rhs) == 1:
            if rhs[0].startswith("*"):
                return Instruction(LOAD, label, dest=dest, left=_operand(rhs[0][1:]))
            return Instruction(ASSIGN, label, dest=dest, left=_operand(rhs[0]))
        if len(rhs) == 2 and rhs[0] in UNARY_OPS:
            return Instruction(UNOP, label, dest=dest, op=rhs[0], left=_operand(rhs[1]))
        if len(rhs) == 3 and rhs[1] in BINARY_OPS:
            return Instruction(BINOP, label, dest=dest, op=rhs[1],
                               left=_operand(rhs[0]), right=_operand(rhs[2]))
        raise ValueError(f"malformed right-hand side {' '.join(rhs)!r}")
    raise ValueError(f"unrecognized instruction {line!r}")


_SYNTAX = {RET: "ret", JUMP: "goto {target}", BRANCH: "if {left} goto {target}",
           STORE: "*{left} = {right}", LOAD: "{dest} = *{left}", ASSIGN: "{dest} = {left}",
           UNOP: "{dest} = {op} {left}", BINOP: "{dest} = {left} {op} {right}"}


def format_instruction(ins: Instruction) -> str:
    body = _SYNTAX[ins.kind].format_map(vars(ins))
    return f"{ins.label}: {body}" if ins.label else body


def format_ir(program: Program) -> str:
    lines = []
    if program.default_edge_cost != DEFAULT_EDGE_COST:
        lines.append(f"!edgecost {format_cost(program.default_edge_cost)}")
    if program.default_node_cost != DEFAULT_NODE_COST:
        lines.append(f"!nodecost {format_cost(program.default_node_cost)}")
    for (a, b), c in sorted(program.edge_cost_overrides.items()):
        lines.append(f"!edgecost {a} {b} {format_cost(c)}")
    for a, c in sorted(program.node_cost_overrides.items()):
        lines.append(f"!nodecost {a} {format_cost(c)}")
    for ins in program.instructions:
        body = format_instruction(ins)
        lines.append(body if ins.label else "    " + body)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graph extraction.  Node ids are fixed for a run: ``build_cfg`` numbers the
# synthetic source 0, instruction i node i+1 and the synthetic sink last, and
# every rewrite keeps each id and numbers the nodes it adds after the highest.
# A program's graph records the node of each instruction (``ProgramCfg.order``);
# only this module turns positions into ids.

SOURCE_NODE = 0


def instr_node(index: int) -> int:
    """The node ``build_cfg`` gives instruction ``index``."""
    return index + 1


class ProgramCfg(Cfg):
    """A program's graph: a ``Cfg`` whose ``order[i]`` is the node of
    instruction i.  ``build_cfg`` makes the order the identity (instruction
    i is node i+1), and ``rewrite`` splices the nodes it adds into it."""

    __slots__ = ("order",)

    def __init__(self, order, *args):
        super().__init__(*args)
        self.order = tuple(order)


def positions(cfg: ProgramCfg, order) -> dict:
    """The id ``build_cfg`` would give each node on the program of the pass
    graph of ``cfg``'s run whose order is ``order``: 0 for the source, i+1
    for the node of instruction i, and the instruction count plus 1 for the
    sink."""
    n = len(order)
    rank = dict(zip(order, range(1, n + 1)))
    rank[cfg.source] = SOURCE_NODE
    rank.update(dict.fromkeys(cfg.sinks, n + 1))
    return rank


def positional(cfg: ProgramCfg) -> ProgramCfg:
    """``cfg`` with each node renamed to its position id (``positions``): the
    graph that emitted artifacts draw.  Built from scratch; a run calls it
    only to write ``--emit dot``."""
    rank = positions(cfg, cfg.order)
    edge_cost = {(rank[u], rank[v]): c for (u, v), c in cfg.edge_cost.items()}
    return ProgramCfg(range(1, len(cfg.order) + 1), cfg.node_count, edge_cost, edge_cost,
                      {rank[v]: c for v, c in cfg.node_cost.items()})


def positional_solution(cfg: ProgramCfg, order, solution):
    """``solution``, found on the pass graph of ``cfg``'s run whose order was
    ``order``, with each node renamed to its position id on that pass's
    program (``positions``)."""
    rank = positions(cfg, order)
    return replace(solution, life_set=frozenset(rank[v] for v in solution.life_set),
                   calc_set=frozenset((rank[u], rank[v]) for u, v in solution.calc_set))


def _successor_indices(program) -> list:
    labels = program.labels()
    n = len(program)
    succ = []
    for i, ins in enumerate(program):
        if ins.kind == RET:
            out = {n}  # sink marker
        elif ins.kind == JUMP:
            out = {labels[ins.target]}
        elif ins.kind == BRANCH:
            out = {i + 1, labels[ins.target]}
        else:
            out = {i + 1}  # falling off the end reaches the sink marker
        succ.append(sorted(out))
    return succ


def build_cfg(program: Program) -> ProgramCfg:
    """Extract the weighted graph, with instruction i as node i+1.

    Instructions that are unreachable from the entry are kept as nodes and
    reported with an UnreachableCodeWarning.  Each unreachable instruction
    without predecessors gets an edge from the source, and then so does the
    lowest-index instruction not reached yet (in an unreachable loop),
    until all are, so that every use forces a calculation.  Symmetrically,
    as GCC's ``connect_infinite_loops_to_exit`` does, every region that
    cannot reach the sink gets one fake edge to it, from the highest-index
    instruction that does not reach the sink yet, until all do.  A program
    whose every instruction can reach a ret gets none.  ``rewrite`` refuses
    a computation on a fake edge.  ``run_pipeline`` calls this once, on its
    input: a later pass's graph is the one the last rewrite returned
    (``Rewrite.cfg``), whose ids are this graph's plus the nodes each
    rewrite added, so fake edges and source edges are chosen on the input
    and carried through every rewrite.
    """
    n = len(program)
    sink = instr_node(n)
    succ = _successor_indices(program)
    # successor index n is the sink; an empty program's one edge runs into it
    edges = {(SOURCE_NODE, instr_node(0))}
    edges.update((instr_node(i), instr_node(o)) for i, outs in enumerate(succ) for o in outs)

    # searches over instruction indices; index n stands for the sink
    preds = [[] for _ in range(n + 1)]
    for i, outs in enumerate(succ):
        for o in outs:
            preds[o].append(i)

    forward = succ + [[]]
    reachable = reach([0], forward)
    unreachable = [i for i in range(n) if i not in reachable]
    if unreachable:
        warnings.warn(f"unreachable instructions at indices {unreachable}",
                      UnreachableCodeWarning, stacklevel=2)
        heads = [i for i in unreachable if not preds[i]]
        for i in heads + unreachable:
            if i not in reachable:
                edges.add((SOURCE_NODE, instr_node(i)))
                reachable |= reach([i], forward, reachable)

    # fake edges: search backwards from the sink, then from each instruction
    # not reached yet, highest index first, after linking it to the sink
    reaches_sink = reach([n], preds)
    for start in range(n - 1, -1, -1):
        if start not in reaches_sink:
            edges.add((instr_node(start), sink))
            reaches_sink |= reach([start], preds, reaches_sink)

    edge_cost = dict.fromkeys(edges, program.default_edge_cost)
    node_cost = dict.fromkeys(range(sink + 1), program.default_node_cost)
    labels = program.labels()
    for (a, b), c in program.edge_cost_overrides.items():
        edge_cost[(instr_node(labels[a]), instr_node(labels[b]))] = c
    for a, c in program.node_cost_overrides.items():
        node_cost[instr_node(labels[a])] = c
    return ProgramCfg(range(1, sink), sink + 1, edges, edge_cost, node_cost)


def _exits(program, i: int) -> bool:
    """Whether instruction ``i`` is a ``ret`` or falls off the end: a real edge into the sink."""
    kind = program[i].kind
    return kind == RET or i == len(program) - 1 and kind != JUMP


# ---------------------------------------------------------------------------
# Candidate derivation

@dataclass(frozen=True)
class ExprCandidate:
    """A distinct computed expression and where it occurs.

    ``safety_required`` marks loads and divisions, which must never execute
    on operand values the original program would not compute on.
    """

    op: str
    left: Operand
    right: Optional[Operand]
    occurrence_nodes: frozenset
    safety_required: bool

    def display(self) -> str:
        if self.op == "load":
            return f"*{self.left}"
        if self.right is None:
            return f"{self.op} {self.left}"
        return f"{self.left} {self.op} {self.right}"


def _operand_key(o: Operand):
    return (0, o, "") if isinstance(o, int) else (1, 0, o)


def candidate_key(ins: Instruction):
    """Canonical (op, left, right) triple; commutative operands are sorted.
    Only a binop has a right operand, which tells unary ``-`` from binary ``-``."""
    if ins.kind == BINOP:
        left, right = ins.left, ins.right
        if ins.op in COMMUTATIVE and _operand_key(right) < _operand_key(left):
            left, right = right, left
        return (ins.op, left, right)
    if ins.kind == UNOP:
        return (ins.op, ins.left, None)
    if ins.kind == LOAD:
        return ("load", ins.left, None)
    return None


def derive_problems(program, cfg: ProgramCfg) -> "Derivation":
    """One (candidate, problem) pair per distinct computed expression, in
    order of first occurrence; each problem is built when looked at, in the
    ids of ``cfg``, the program's graph.

    The invalidation set contains the source and sinks, every node
    assigning to an operand variable, every store when the candidate reads
    memory, and every store and load when an operand variable is itself the
    result of a load (no pointer analysis: any memory access may conflict).
    """
    occurrences = {}
    defining_nodes = {}  # variable -> nodes assigning to it
    stores, loads, load_results = [], [], set()
    for v, ins in zip(cfg.order, program):
        if ins.dest is not None:
            defining_nodes.setdefault(ins.dest, []).append(v)
        if ins.kind == STORE:
            stores.append(v)
        elif ins.kind == LOAD:
            loads.append(v)
            load_results.add(ins.dest)
        key = candidate_key(ins)
        if key is not None:
            occurrences.setdefault(key, []).append(v)
    candidates = [ExprCandidate(op=op, left=left, right=right,
                                occurrence_nodes=frozenset(nodes),
                                safety_required=op in ("load", "/"))
                  for (op, left, right), nodes in occurrences.items()]
    return Derivation(cfg, candidates, defining_nodes, stores, loads, load_results)


class Derivation(Sequence):
    """The (candidate, problem) pairs of ``derive_problems``; a problem is built
    on access.  ``candidates`` lists the candidates alone, so a caller that
    dismisses one by its occurrences builds no problem for it;
    ``load_results`` holds the variables that a load defines."""

    def __init__(self, cfg: Cfg, candidates: list, defining_nodes: dict,
                 stores: list, loads: list, load_results: set):
        self.candidates, self._cfg, self._defining = candidates, cfg, defining_nodes
        self._stores, self._loads, self.load_results = stores, loads, load_results

    def __len__(self):
        return len(self.candidates)

    def __getitem__(self, k: int):
        candidate = self.candidates[k]
        operands = [o for o in (candidate.left, candidate.right) if isinstance(o, str)]
        inv = {v for var in operands for v in self._defining.get(var, ())}
        loaded = self.load_results.intersection(operands)
        if candidate.op == "load" or loaded:
            inv.update(self._stores)
        if loaded:
            inv.update(self._loads)
        return candidate, make_problem(self._cfg, candidate.occurrence_nodes, inv)


# ---------------------------------------------------------------------------
# Rewriting

def _computation_instr(candidate: ExprCandidate, tmp: str) -> Instruction:
    if candidate.op == "load":
        return Instruction(LOAD, dest=tmp, left=candidate.left)
    if candidate.right is None:
        return Instruction(UNOP, dest=tmp, op=candidate.op, left=candidate.left)
    return Instruction(BINOP, dest=tmp, op=candidate.op,
                       left=candidate.left, right=candidate.right)


def tmp_names(program):
    """The ``__lospreK`` names, K ascending, that are neither a label nor a
    variable of ``program``.  A run draws each rewrite's temporary from one
    such stream over its input: a rewrite and copy propagation delete no
    name, so each name drawn stays in use."""
    taken = set()  # labels, variables and integer operands
    for ins in program.instructions:
        taken.update((ins.label, ins.dest, ins.left, ins.right))
    return (name for name in map("__lospre{}".format, count()) if name not in taken)


@dataclass(frozen=True)
class Rewrite:
    """A rewritten program and its graph.

    ``cfg`` is the next pass's graph: the graph the rewrite was applied to,
    patched (``Cfg.subdivided``), with each edge (u, v) that new nodes were
    placed on replaced by the path from u through those nodes to v.  Every
    old node keeps its id, the new nodes are numbered after the highest id
    in program order, and ``cfg.order`` has them spliced in where their
    instructions went.  On a calculation edge the path holds the
    computation, then, on a jump edge, the jump or ret that follows it; on
    the edge from a last instruction that fell off the end into the sink,
    the ``ret`` appended after it (after the computation, if that edge is
    also a calculation edge).  New edges and nodes take the default costs of
    the program's directives; every other cost, and every fake edge and
    source edge, is the old graph's.  Its other edges are those
    ``build_cfg`` gives the new program, renamed through the order.
    """

    program: Program
    cfg: ProgramCfg


def rewrite(program: Program, cfg: ProgramCfg, candidate: ExprCandidate, solution,
            tmp: str) -> Rewrite:
    """Apply a solution: subdivide every calculation edge with a computation
    of the candidate into the temporary ``tmp``, a name the program does not
    use, and replace every occurrence with an assignment from it.

    ``cfg`` is the program's graph, and the solution is in its ids.  The
    rewrite copies the instruction list and ``cfg.order``, changes only the
    occurrences and the retargeted jumps, inserts its blocks and patches the
    graph; it maps no other node and no other edge.

    A calculation edge is one of three kinds.  A source edge, into the
    entry or into the head of an unreachable region, gets the computation
    just before the head; the head keeps its label, so a jump back to the
    entry skips the computation and a directive naming the head still
    names it.  A fallthrough edge (u, v), v the node of the instruction
    after u's or the sink after the last, out of an instruction that is
    neither a ret nor a goto gets it inline after the instruction; a branch
    whose target is that next instruction too is retargeted to a fresh
    label on the insert.  A jump edge, out of a ret, out of a goto or a
    branch's taken edge, gets a fresh labeled block at the end of the
    program, the computation then a ret or a jump to the original target,
    and the instruction is retargeted to it.  Trailing blocks and fresh
    labels follow the positions of their edges' ends, the sink last.  When
    trailing blocks are added and the last instruction falls off the end, a
    ``ret`` on its edge into the sink keeps it from falling into them.  A
    subdivided edge loses its ``!edgecost`` override: the edges that replace
    it take the default cost, like every edge a rewrite creates.
    """
    instructions, order = program.instructions, cfg.order
    n = len(instructions)
    if len(order) != n:
        raise LospreError("solution/graph/program size mismatch")
    (sink,) = cfg.sinks
    rank = positions(cfg, order)
    for (u, v) in solution.calc_set:
        if (u, v) not in cfg.edges:
            raise LospreError(f"solution edge ({u}, {v}) is not an edge of the graph")
        if v == sink and u != SOURCE_NODE and not _exits(instructions, rank[u] - 1):
            raise LospreError(f"solution edge ({u}, {v}) is a fake edge out of an infinite loop")

    comp = _computation_instr(candidate, tmp)
    labels = program.labels()
    fresh_labels = (name for name in map("__L{}".format, count()) if name not in labels)

    # each block is placed on one calculation edge
    gaps = {}       # position -> the (edge, block) pairs inserted before it, in order
    appended = []   # (edge, block) at the end of the program
    retarget = {}   # instruction index -> the fresh label it jumps to
    for edge in sorted(solution.calc_set, key=lambda e: (rank[e[0]], rank[e[1]])):
        u, v = edge
        if u == SOURCE_NODE:
            # a source edge: the computation goes before the head
            gaps.setdefault(rank[v] - 1, []).append((edge, [comp]))
            continue
        ui = rank[u] - 1
        ins = instructions[ui]
        # a ret, a goto and a branch's taken edge jump to the computation
        jumps = ins.kind in (RET, JUMP) or ins.kind == BRANCH and v == order[labels[ins.target]]
        block = [comp]
        if jumps:
            retarget[ui] = next(fresh_labels)
            block = [replace(comp, label=retarget[ui])]
        if rank[v] == rank[u] + 1 and ins.kind not in (RET, JUMP):
            # a fallthrough edge, a collapsed branch's taken edge with it: inline
            gaps.setdefault(ui + 1, []).append((edge, block))
        elif jumps:
            # a jump edge: a trailing block that returns or jumps on
            tail = Instruction(RET) if ins.kind == RET else Instruction(JUMP, target=ins.target)
            appended.append((edge, block + [tail]))
        else:
            raise LospreError(f"edge ({u}, {v}) does not leave instruction {ui}")

    out = list(instructions)
    for i, label in retarget.items():
        out[i] = replace(out[i], kind=JUMP if out[i].kind == RET else out[i].kind, target=label)
    for v in candidate.occurrence_nodes:
        ins = out[rank[v] - 1]
        out[rank[v] - 1] = Instruction(ASSIGN, label=ins.label, dest=ins.dest, left=tmp)
    if appended:
        if out[-1].kind not in (JUMP, RET):
            # the ret subdivides the last instruction's edge into the sink
            gaps.setdefault(n, []).append(((order[-1], sink), [Instruction(RET)]))
        gaps.setdefault(n, []).extend(appended)

    # splice, numbering the new nodes after the highest id in program order
    pieces, ids, inserted = [], [], {}   # inserted: edge -> its new nodes, in path order
    start, fresh = 0, cfg.node_count
    for p in sorted(gaps):
        pieces.append(out[start:p])
        ids.append(order[start:p])
        start = p
        for edge, block in gaps[p]:
            added = range(fresh, fresh + len(block))
            fresh += len(block)
            inserted[edge] = inserted.get(edge, ()) + tuple(added)
            pieces.append(block)
            ids.append(added)
    pieces.append(out[start:])
    ids.append(order[start:])
    overrides = {(a, b): c for (a, b), c in program.edge_cost_overrides.items()
                 if (order[labels[a]], order[labels[b]]) not in solution.calc_set}
    new = replace(program, instructions=list(chain.from_iterable(pieces)),
                  edge_cost_overrides=overrides)
    patched = cfg.subdivided(inserted, program.default_edge_cost, program.default_node_cost)
    patched.order = tuple(chain.from_iterable(ids))
    return Rewrite(new, patched)


# ---------------------------------------------------------------------------
# Copy propagation (pipeline glue between rewriting passes)

def copy_propagate(program: Program, cfg: ProgramCfg) -> Program:
    """Replace variable reads with their copy sources where a copy is
    available on every path from the source of ``cfg``, the program's graph,
    until a round changes no copy instruction.  The analysis runs on the
    graph's ids; instruction i is node ``cfg.order[i]``.

    An elimination pass leaves ``x = tmp`` assignments at the former
    occurrences; propagating tmp into downstream reads is what lets
    dependent expressions (address arithmetic feeding a load, for example)
    become candidates in the next pass.

    A round that changes no copy leaves the next round the same
    availability, so that round could only take a read this one turned
    from x into y on to z, with ``y = z`` available there too.  But every
    node is reachable from the source, and on each path the ``x = y`` that
    made x's copy available follows the ``y = z`` (which kills it), so
    ``y = z`` is available at that ``x = y``, which this round changed.
    """
    instructions = list(program.instructions)
    order, size = cfg.order, cfg.node_count
    pred, succ = cfg.pred, cfg.succ
    changed = True
    while changed:
        # availability is over (dest, source) pairs, so identical copies on
        # different paths merge at joins
        pair_id = {}
        for ins in instructions:
            if ins.kind == ASSIGN and ins.dest != ins.left:
                pair_id.setdefault((ins.dest, ins.left), len(pair_id))
        copies = list(pair_id)
        all_mask = (1 << len(copies)) - 1
        dest_mask = {}     # variable -> copies writing it
        touch_mask = {}    # variable -> copies that a write to it kills
        for c, (dest, src) in enumerate(copies):
            dest_mask[dest] = dest_mask.get(dest, 0) | 1 << c
            touch_mask[dest] = touch_mask.get(dest, 0) | 1 << c
            touch_mask[src] = touch_mask.get(src, 0) | 1 << c
        gen, kill = [0] * size, [0] * size
        for v, ins in zip(order, instructions):
            if ins.dest is None:
                continue
            kill[v] = touch_mask.get(ins.dest, 0)
            if ins.kind == ASSIGN and ins.dest != ins.left:
                gen[v] = 1 << pair_id[(ins.dest, ins.left)]
        # forward must analysis: IN = AND of predecessor OUTs; the source
        # makes no copy available
        out_sets, in_sets = [all_mask] * size, [0] * size
        out_sets[cfg.source] = 0
        work = list(reversed(order))  # popped in program order
        while work:
            v = work.pop()
            new_in = all_mask
            for p in pred[v]:
                new_in &= out_sets[p]
            new_out = (new_in & ~kill[v]) | gen[v]
            if new_in != in_sets[v] or new_out != out_sets[v]:
                in_sets[v] = new_in
                out_sets[v] = new_out
                work.extend(succ[v])

        def sub(v, o):
            # at most one copy into o is available: every node is reachable
            # from the source, and a write to o kills every copy into o
            m = in_sets[v] & dest_mask.get(o, 0)
            return copies[m.bit_length() - 1][1] if m else o

        changed = False
        for i, (v, ins) in enumerate(zip(order, instructions)):
            if in_sets[v]:
                left, right = sub(v, ins.left), sub(v, ins.right)
                if left != ins.left or right != ins.right:
                    instructions[i] = replace(ins, left=left, right=right)
                    changed |= ins.kind == ASSIGN
    return replace(program, instructions=instructions)
