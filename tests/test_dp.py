from dataclasses import replace

import pytest

from lospre.cfg import Cfg, calc_set, make_problem, total_cost
from lospre.cost import CostVec, INFINITY
from lospre.dp import assign_edges_to_forgets, format_solution, solve, solve_extended
from lospre.errors import (DecompositionError, LospreError, NoFeasibleSolutionError,
                           WidthExceededError)
from lospre.oracle import (InstanceGenerator, STYLES, brute_extended,
                           brute_extended_full, brute_lospre, generate)
from lospre.treedec import (FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDec, TreeDec, decompose,
                            make_nice, validate, validate_nice)


def solved(cfg, problem, **kw):
    return solve(cfg, problem, make_nice(decompose(cfg)), **kw)


@pytest.fixture
def diamond():
    return Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


def test_empty_use_set(diamond):
    sol = solved(diamond, make_problem(diamond, use=[]))
    assert sol.life_set == frozenset()
    assert sol.calc_set == frozenset()
    assert sol.cost == CostVec(0, 0)


def test_diamond_hoists_above_branch(diamond):
    # speculative placement at the branch point wins lexicographically:
    # one calculation plus one live node beats two calculations
    sol = solved(diamond, make_problem(diamond, use=[2, 3]))
    assert sol.life_set == {1}
    assert sol.calc_set == {(0, 1)}
    assert sol.cost == CostVec(1, 1)


def test_invalidation_pins_computation():
    # 0 -> 1 -> 2 -> 3 where node 1 assigns the operand: the computation
    # must stay on the edge entering the use
    cfg = Cfg(4, [(0, 1), (1, 2), (2, 3)])
    sol = solved(cfg, make_problem(cfg, use=[2], invalidate=[1]))
    assert sol.life_set == frozenset()
    assert sol.calc_set == {(1, 2)}
    assert sol.cost == CostVec(1, 0)


def test_self_consistency(diamond):
    p = make_problem(diamond, use=[2, 3])
    sol = solved(diamond, p)
    assert sol.cost == total_cost(diamond, p, sol.life_set)
    assert sol.calc_set == calc_set(diamond, p, sol.life_set)


def test_width_guard(diamond):
    with pytest.raises(WidthExceededError):
        solved(diamond, make_problem(diamond, use=[2, 3]), max_width=1)


def test_infeasible_with_infinite_costs():
    cfg = Cfg(3, [(0, 1), (1, 2)],
              edge_cost={(0, 1): INFINITY, (1, 2): INFINITY})
    with pytest.raises(NoFeasibleSolutionError):
        solved(cfg, make_problem(cfg, use=[1]))


def test_infinite_costs_raise_or_agree_with_oracle():
    # each reference and its solver both raise NoFeasibleSolutionError when
    # every (permitted) assignment has infinite cost, and agree otherwise
    import random
    raised = {"lospre": 0, "extended": 0}
    for seed in range(120):
        cfg0, problem = generate(InstanceGenerator(seed=seed, node_range=(3, 8),
                                                   style=STYLES[seed % 3]))
        n = cfg0.node_count
        rng = random.Random(seed + 3_000)
        edge_cost = {e: INFINITY if rng.random() < 0.2 else c for e, c in cfg0.edge_cost.items()}
        node_cost = {v: INFINITY if rng.random() < 0.15 else
                     CostVec(rng.randint(-1, 1), rng.randint(-2, 2)) for v in range(n)}
        cfg = Cfg(n, cfg0.edges, edge_cost, node_cost)
        table = {(v, b, bl, br): INFINITY if rng.random() < 0.3 else
                 CostVec(rng.randint(-1, 2), rng.randint(-2, 2))
                 for v in range(n) for b in (0, 1) for bl in (0, 1) for br in (0, 1)}
        lc = lambda v, b, bl, br: table[(v, b, bl, br)]
        allowed = _random_allowed(rng, n)
        nice = make_nice(decompose(cfg))
        pairs = {"lospre": (lambda: brute_lospre(cfg, problem), lambda: solve(cfg, problem, nice)),
                 "extended": (lambda: brute_extended(cfg, problem, lc, allowed_combos=allowed),
                              lambda: solve_extended(cfg, problem, nice, lc,
                                                     allowed_combos=allowed))}
        for name, (reference, solver) in pairs.items():
            try:
                ref = reference()
            except NoFeasibleSolutionError:
                with pytest.raises(NoFeasibleSolutionError):
                    solver()
                raised[name] += 1
                continue
            sol = solver()
            assert (sol.cost, sol.life_set, sol.life_left, sol.life_right) == \
                (ref.cost, ref.life_set, ref.life_left, ref.life_right), (name, seed)
    assert all(10 < count < 100 for count in raised.values()), raised


def test_infinity_steers_solution():
    # an infinite edge cost forbids computing on that edge
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
              edge_cost={(0, 1): INFINITY})
    p = make_problem(cfg, use=[2, 3])
    sol = solved(cfg, p)
    assert (0, 1) not in sol.calc_set
    assert sol.cost == CostVec(2, 0)


def test_edges_charged_exactly_once():
    for seed in range(40):
        cfg, _ = generate(InstanceGenerator(seed=seed, node_range=(4, 12)))
        nice = make_nice(decompose(cfg))
        assignment = assign_edges_to_forgets(cfg, nice)
        charged = [e for edges in assignment.values() for e in edges]
        assert len(charged) == len(cfg.edges)
        assert set(charged) == cfg.edges


def _nice_path(steps):
    """A nice form built from a leaf, one node per (kind, vertex) step, each
    the parent of the node before: a join has that node as both children,
    and a leaf starts afresh, so no node reaches the nodes before it."""
    kinds, vertex, bags, children = [LEAF], [None], [()], [()]
    bag = ()
    for kind, v in steps:
        below = (len(kinds) - 1,)
        if kind == INTRODUCE:
            bag = tuple(sorted(bag + (v,)))
        elif kind == FORGET:
            bag = tuple(u for u in bag if u != v)
        elif kind == JOIN:
            below *= 2
        else:
            bag, below = (), ()
        children.append(below)
        kinds.append(kind)
        vertex.append(v)
        bags.append(bag)
    return NiceTreeDec(kinds, vertex, bags, children)


def _joined(a, b):
    """The nice forms ``a`` and ``b``, both with empty root bags, under one join."""
    shift = a.node_count
    return NiceTreeDec(a.kinds + b.kinds + [JOIN], a.vertex + b.vertex + [None],
                       a.bags + b.bags + [()],
                       a.children + [tuple(c + shift for c in ch) for ch in b.children] +
                       [(shift - 1, shift + b.node_count - 1)])


def _solver_errors(cfg, nice):
    """The DecompositionError messages of solve and solve_extended on ``nice``."""
    problem = make_problem(cfg, use=[1])
    runs = (lambda: solve(cfg, problem, nice),
            lambda: solve_extended(cfg, problem, nice, lambda v, b, bl, br: CostVec(0, b)))
    messages = []
    for run in runs:
        with pytest.raises(DecompositionError) as info:
            run()
        messages.append(str(info.value))
    return messages


I, F = INTRODUCE, FORGET
PATH3 = [(I, 0), (I, 1), (F, 0), (I, 2), (F, 1), (F, 2)]   # a nice form of 0 -> 1 -> 2


def _replaced(nice, field, i, value):
    """``nice`` with entry i of its list ``field`` replaced by ``value``."""
    values = list(getattr(nice, field))
    values[i] = value
    return replace(nice, **{field: values})


def test_sweep_checks_raise_the_reference_messages():
    # the sweep only detects a defect; validate_nice words it, the same
    # for both solvers
    path = Cfg(3, [(0, 1), (1, 2)])
    cases = [
        (Cfg(3, [(0, 1), (1, 2), (0, 2)]), _nice_path(PATH3),
         "edge coverage violated: edge (0, 2) has no common bag"),
        (path, _nice_path(PATH3[:3] + [(F, 1)]), "node coverage violated: vertex 2 is in no bag"),
        (path, _joined(_nice_path([(I, 2), (F, 2)]), _nice_path(PATH3)),
         "connectivity violated: occurrences of vertex 2 do not form a subtree"),
        (path, _nice_path(PATH3[:5]), "root bag is not empty"),
        (path, _nice_path([(JOIN, None)] + PATH3), "node 0 is a child more than once"),
        (path, _nice_path([(I, 0), (F, 1)] + PATH3[1:]),
         "forget node 2 does not drop exactly its vertex"),
        (path, _replaced(_nice_path(PATH3), "vertex", 2, 2),
         "introduce node 2 does not add exactly its vertex"),
        (path, _replaced(_nice_path(PATH3), "children", 1, ()),
         "introduce node 1 must have one child"),
        (path, _replaced(_nice_path(PATH3), "vertex", 3, None),
         "forget node 3 does not drop exactly its vertex"),
        (path, _nice_path([(LEAF, None)] + PATH3), "node 0 is not below the root"),
        (path, NiceTreeDec([], [], [], []), "decomposition has no nodes"),
        (path, _replaced(_nice_path(PATH3), "kinds", 1, LEAF),
         "leaf node 1 has children or a non-empty bag"),
        (path, _replaced(_nice_path(PATH3), "children", 3, ()),
         "forget node 3 must have one child"),
        (path, _replaced(_nice_path(PATH3), "kinds", 3, JOIN),
         "join node 3 must have two children"),
        (path, _joined(_nice_path(PATH3[:5]), _nice_path(PATH3)),
         "join node 13 has unequal child bags"),
        (path, _replaced(_nice_path(PATH3), "bags", 0, (0,)),
         "leaf node 0 has children or a non-empty bag"),
        (path, _replaced(_nice_path(PATH3), "kinds", 3, "split"), "unknown node kind 'split'"),
    ]
    for cfg, nice, message in cases:
        assert validate_nice(cfg, nice) == message
        assert _solver_errors(cfg, nice) == [message, message]
    # a bag naming a vertex outside the graph: validate words it, for the
    # decomposition and for its nice form
    td = TreeDec(bags=[frozenset({0, 1}), frozenset({1, 2, 7})], edges=[(0, 1)])
    message = validate(path, td)
    assert message == "decomposition names vertex 7, which is not a node of the graph"
    nice = make_nice(td)
    assert validate_nice(path, nice) == message
    assert _solver_errors(path, nice) == [message, message]


@pytest.mark.parametrize("v", [3, 5, -1])
def test_foreign_vertex_is_named(v):
    # a forget node of a vertex outside the graph; a negative id must not
    # wrap round to a real vertex
    cfg = Cfg(3, [(0, 1), (1, 2)])
    nice = _nice_path([(I, v), (F, v)] + PATH3)
    message = f"decomposition names vertex {v}, which is not a node of the graph"
    assert _solver_errors(cfg, nice) == [message, message]
    assert validate_nice(cfg, nice) == message


def _reference_transitions(cfg, nice):
    """Transitions implied by the reference assignment: one per entry of
    each table built, and at a forget node one per child entry for the
    minimization and one more for each edge charged."""
    assignment = assign_edges_to_forgets(cfg, nice)
    total = 0
    for i, kind in enumerate(nice.kinds):
        entries = 1 << len(nice.bags[i])
        total += 2 * entries * (1 + len(assignment[i])) if kind == FORGET else entries
    return total


def test_transitions_follow_the_reference_assignment():
    instances = [generate(InstanceGenerator(seed=seed, node_range=(4, 30), style=style))
                 for style in STYLES for seed in range(30)]
    instances += [_banded_tie_instance(seed)[:2] for seed in range(20)]
    solved_count = 0
    for cfg, problem in instances:
        nice = make_nice(decompose(cfg))
        want = _reference_transitions(cfg, nice)
        try:
            sol = solve(cfg, problem, nice)
        except NoFeasibleSolutionError:
            continue
        ext = solve_extended(cfg, problem, nice,
                             lambda v, b, bl, br: cfg.node_cost[v] if b else CostVec(0, 0))
        assert sol.transitions == ext.transitions == want
        solved_count += 1
    assert solved_count >= 100


def test_oracle_equivalence_all_styles():
    for style in STYLES:
        for seed in range(80):
            cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 12), style=style))
            sol = solved(cfg, problem)
            ref = brute_lospre(cfg, problem)
            assert sol.cost == ref.cost, (style, seed)
            assert sol.life_set == ref.life_set, (style, seed)


def test_oracle_equivalence_random_costs():
    for seed in range(80):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 11),
                                                  cost_style="random"))
        sol = solved(cfg, problem)
        ref = brute_lospre(cfg, problem)
        assert sol.cost == ref.cost, seed
        assert sol.life_set == ref.life_set, seed


def test_oracle_equivalence_cyclic_graphs():
    # loops in programs put cycles and self-loops in the graph; the solver
    # is shape-agnostic given a valid decomposition
    import random
    from lospre.cfg import make_problem
    for seed in range(60):
        cfg0, problem0 = generate(InstanceGenerator(seed=seed, node_range=(4, 10)))
        rng = random.Random(seed + 10_000)
        edges = set(cfg0.edges)
        n = cfg0.node_count
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(1, n)
            u = rng.randrange(v, n)
            if u != cfg0.source and v != cfg0.source:
                edges.add((u, v))
        cfg = Cfg(n, edges)
        problem = make_problem(cfg, [u for u in problem0.use_set if u != cfg.source],
                               problem0.invalidation_set)
        sol = solved(cfg, problem)
        ref = brute_lospre(cfg, problem)
        assert (sol.cost, sol.life_set) == (ref.cost, ref.life_set), seed


def test_self_loop_charged_once():
    cfg = Cfg(4, [(0, 1), (1, 1), (1, 2), (2, 3)])
    p = make_problem(cfg, use=[2])
    sol = solved(cfg, p)
    ref = brute_lospre(cfg, p)
    assert (sol.cost, sol.life_set) == (ref.cost, ref.life_set)
    assert sol.cost == CostVec(1, 0)


def test_oracle_equivalence_negative_node_costs():
    # negative liveness costs (lifetime-shortening benefits) pull extra
    # nodes into the life set; the enumeration stays the reference
    import random
    for seed in range(40):
        cfg0, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 10)))
        rng = random.Random(seed + 77)
        node_cost = {v: CostVec(0, rng.randint(-2, 2)) for v in range(cfg0.node_count)}
        cfg = Cfg(cfg0.node_count, cfg0.edges, dict(cfg0.edge_cost), node_cost)
        sol = solved(cfg, problem)
        ref = brute_lospre(cfg, problem)
        assert (sol.cost, sol.life_set) == (ref.cost, ref.life_set), seed


def test_costs_beyond_int64_stay_exact():
    # two arms at 2**62 sum to 2**63: hoisting to node 1 is cheaper by about
    # 2**62, which a clamp at 2**62 or an int64 sum would hide
    big = 2**62
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
              edge_cost={(0, 1): CostVec(big + 3, 0), (1, 2): CostVec(big, 0),
                         (1, 3): CostVec(big, 0)})
    p = make_problem(cfg, use=[2, 3])
    sol = solved(cfg, p)
    ref = brute_lospre(cfg, p)
    assert (sol.cost, sol.life_set, sol.calc_set) == (ref.cost, ref.life_set, ref.calc_set)
    assert sol.life_set == {1}
    assert sol.cost == CostVec(big + 3, 1)


def test_root_table_entry_is_unique(diamond):
    nice = make_nice(decompose(diamond))
    assert nice.bags[-1] == ()


def test_work_bound():
    for seed in range(40):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 12)))
        nice = make_nice(decompose(cfg))
        sol = solve(cfg, problem, nice)
        w = max(nice.width, 1)
        assert sol.transitions <= 8 * w * (2 ** w) * nice.node_count


def test_deterministic_output(diamond):
    p = make_problem(diamond, use=[2, 3])
    a, b = solved(diamond, p), solved(diamond, p)
    assert (a.life_set, a.calc_set, a.cost) == (b.life_set, b.calc_set, b.cost)


# -- extended variant ---------------------------------------------------------

def test_extended_reduces_to_base(diamond):
    p = make_problem(diamond, use=[2, 3])
    base = solved(diamond, p)
    ext = solve_extended(diamond, p, make_nice(decompose(diamond)),
                         lambda v, b, bl, br: CostVec(0, b))
    assert ext.life_set == base.life_set
    assert ext.cost == base.cost
    # operand bits settle to dead under tie-breaking
    assert ext.life_left == frozenset() and ext.life_right == frozenset()


def test_extended_zero_node_cost(diamond):
    p = make_problem(diamond, use=[2, 3])
    ext = solve_extended(diamond, p, make_nice(decompose(diamond)),
                         lambda v, b, bl, br: CostVec(0, 0))
    base = solved(diamond, p)
    assert ext.cost.primary == base.cost.primary


def test_extended_operand_bits_reward():
    # negative cost for a live left-operand bit pulls those bits alive;
    # frozen values confirmed against the exhaustive reference
    cfg = Cfg(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    p = make_problem(cfg, use=[3])

    def lc(v, b, bl, br):
        return CostVec(0, b + br) + (CostVec(0, -1) if bl and v <= 2 else CostVec(0, 0))

    ext = solve_extended(cfg, p, make_nice(decompose(cfg)), lc)
    ref = brute_extended(cfg, p, lc)
    full = brute_extended_full(cfg, p, lc)
    assert (ext.cost, ext.life_set, ext.life_left, ext.life_right) == \
        (ref.cost, ref.life_set, ref.life_left, ref.life_right) == \
        (full.cost, full.life_set, full.life_left, full.life_right)
    assert ext.life_left == {0, 1, 2}
    assert ext.cost == CostVec(1, -3)


def test_extended_matches_oracle_random_tables():
    import random
    for seed in range(60):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(3, 8)))
        if cfg.node_count > 8:
            continue
        rng = random.Random(seed * 131 + 5)
        table = {(v, b, bl, br): CostVec(rng.randint(-2, 3), rng.randint(-3, 3))
                 for v in range(cfg.node_count)
                 for b in (0, 1) for bl in (0, 1) for br in (0, 1)}
        lc = lambda v, b, bl, br: table[(v, b, bl, br)]
        ext = solve_extended(cfg, problem, make_nice(decompose(cfg)), lc)
        ref = brute_extended(cfg, problem, lc)
        assert (ext.cost, ext.life_set, ext.life_left, ext.life_right) == \
            (ref.cost, ref.life_set, ref.life_left, ref.life_right), seed


def test_extended_allowed_combos_hook():
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    p = make_problem(cfg, use=[2, 3])
    nice = make_nice(decompose(cfg))
    # forbid keeping the value alive at node 1: the hoist above the branch
    # becomes impossible and both arms recompute
    allowed = {1: [(0, bl, br) for bl in (0, 1) for br in (0, 1)]}
    ext = solve_extended(cfg, p, nice, lambda v, b, bl, br: CostVec(0, b),
                         allowed_combos=allowed)
    assert 1 not in ext.life_set
    assert ext.cost == CostVec(2, 0)


def test_format_solution_prints_the_operand_life_sets(diamond):
    # a live left operand pays back at nodes 0 and 1, a live right one at 3 and 4
    p = make_problem(diamond, use=[2, 3])
    sol = solve_extended(diamond, p, make_nice(decompose(diamond)),
                         lambda v, b, bl, br: CostVec(0, b - (bl and v <= 1) - (br and v >= 3)))
    assert format_solution(sol, index=0) == (
        "problem 0\ncost [1,-3]\nlife 1\ncalc 0->1\nlife_left 0 1\nlife_right 3 4\n")


def test_extended_tie_rule_does_not_depend_on_graph_size():
    # every cost is zero.  Node 1 ties between dead with the left operand
    # live, (0, 1, 0), and live with both operands dead, (1, 0, 0); node 2
    # ties between (0, 0, 1) and (0, 1, 0).  The reported optimum must not
    # change with the graph's size
    allowed = {1: [(0, 1, 0), (1, 0, 0)], 2: [(0, 0, 1), (0, 1, 0)]}
    zero = lambda v, b, bl, br: CostVec(0, 0)
    for n in (4, 30):
        cfg = Cfg(n, [(v, v + 1) for v in range(n - 1)])
        p = make_problem(cfg, use=[2])
        ext = solve_extended(cfg, p, make_nice(decompose(cfg)), zero, allowed_combos=allowed)
        assert (ext.cost, ext.life_set, ext.calc_set, ext.life_left, ext.life_right) == \
            (CostVec(1, 0), frozenset(), {(1, 2)}, {1}, {2}), n


def test_extended_forbidden_dead_forces_live(diamond):
    p = make_problem(diamond, use=[2, 3])
    nice = make_nice(decompose(diamond))
    ext = solve_extended(diamond, p, nice, lambda v, b, bl, br: CostVec(0, b),
                         allowed_combos={3: [(1, 0, 1), (1, 1, 1)]})
    assert ext.life_set == {1, 3}
    assert ext.life_right == {3} and ext.life_left == frozenset()
    assert ext.cost == CostVec(1, 2)


def test_extended_infinite_dead_cost_forces_live(diamond):
    p = make_problem(diamond, use=[2, 3])
    nice = make_nice(decompose(diamond))
    lc = lambda v, b, bl, br: INFINITY if (v == 3 and not b) else CostVec(0, b)
    ext = solve_extended(diamond, p, nice, lc)
    assert ext.life_set == {1, 3}
    assert ext.cost == CostVec(1, 2)
    ref = brute_extended(diamond, p, lc)
    assert (ext.cost, ext.life_set, ext.life_left, ext.life_right) == \
        (ref.cost, ref.life_set, ref.life_left, ref.life_right)


def test_extended_no_permitted_combo_is_infeasible(diamond):
    p = make_problem(diamond, use=[2, 3])
    nice = make_nice(decompose(diamond))
    with pytest.raises(NoFeasibleSolutionError):
        solve_extended(diamond, p, nice, lambda v, b, bl, br: CostVec(0, b),
                       allowed_combos={2: []})


def test_extended_rejects_a_cost_that_is_not_a_costvec(diamond):
    # every entry of the row is checked, a forbidden combination's included
    p = make_problem(diamond, use=[2, 3])
    with pytest.raises(LospreError, match="must return CostVec values"):
        solve_extended(diamond, p, make_nice(decompose(diamond)),
                       lambda v, b, bl, br: (0, 1) if br else CostVec(0, b),
                       allowed_combos={v: [(0, 0, 0), (1, 0, 0)] for v in range(5)})


def test_extended_allowed_combos_unknown_node(diamond):
    p = make_problem(diamond, use=[2, 3])
    nice = make_nice(decompose(diamond))
    for v in (5, -1):
        with pytest.raises(LospreError):
            solve_extended(diamond, p, nice, lambda v, b, bl, br: CostVec(0, b),
                           allowed_combos={v: [(0, 0, 0)]})


def _random_allowed(rng, n):
    combos = [(b, bl, br) for b in (0, 1) for bl in (0, 1) for br in (0, 1)]
    allowed = {}
    for v in range(n):
        r = rng.random()
        if r < 0.3:
            allowed[v] = rng.sample(combos, rng.randint(1, 7))
        elif r < 0.4:
            allowed[v] = [c for c in combos if c[0] == rng.randint(0, 1)]
    return allowed


def test_extended_allowed_combos_match_oracle():
    import random
    checked = 0
    for seed in range(150):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(3, 8),
                                                  style=STYLES[seed % 3]))
        if cfg.node_count > 8:
            continue
        rng = random.Random(seed * 7919 + 11)
        table = {(v, b, bl, br): CostVec(rng.randint(-1, 2), rng.randint(-2, 2))
                 for v in range(cfg.node_count)
                 for b in (0, 1) for bl in (0, 1) for br in (0, 1)}
        lc = lambda v, b, bl, br: table[(v, b, bl, br)]
        allowed = _random_allowed(rng, cfg.node_count)
        try:
            ref = brute_extended(cfg, problem, lc, allowed_combos=allowed)
        except NoFeasibleSolutionError:
            with pytest.raises(NoFeasibleSolutionError):
                solve_extended(cfg, problem, make_nice(decompose(cfg)), lc,
                               allowed_combos=allowed)
            continue
        ext = solve_extended(cfg, problem, make_nice(decompose(cfg)), lc,
                             allowed_combos=allowed)
        assert (ext.cost, ext.life_set, ext.life_left, ext.life_right) == \
            (ref.cost, ref.life_set, ref.life_left, ref.life_right), seed
        for v, combos in allowed.items():
            combo = (int(v in ext.life_set), int(v in ext.life_left), int(v in ext.life_right))
            assert combo in combos, (seed, v)
        checked += 1
    assert checked >= 100


def _complete_dag(n):
    return Cfg(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_extended_width_guard():
    # tables have 2**(width+1) entries, as in solve, so the guard matches
    # solve's default of 16
    cfg = _complete_dag(11)
    p = make_problem(cfg, use=[3, 5, 7])
    nice = make_nice(decompose(cfg))
    assert nice.width >= 9
    ext = solve_extended(cfg, p, nice, lambda v, b, bl, br: CostVec(0, b))
    base = solve(cfg, p, nice)
    assert (ext.cost, ext.life_set) == (base.cost, base.life_set)
    big = _complete_dag(19)
    nice = make_nice(decompose(big))
    assert nice.width > 16
    with pytest.raises(WidthExceededError):
        solve_extended(big, make_problem(big, use=[4]), nice,
                       lambda v, b, bl, br: CostVec(0, b))


def test_extended_transitions_equal_base():
    # with an operand-blind table the extended solver does exactly the base
    # solver's table work, at every size
    for n in (1024, 4096, 16384):
        cfg, problem = generate(InstanceGenerator(seed=0, node_range=(n, n),
                                                  style="chained-diamonds"))
        nice = make_nice(decompose(cfg))
        base = solve(cfg, problem, nice)
        ext = solve_extended(cfg, problem, nice,
                             lambda v, b, bl, br: cfg.node_cost[v] if b else CostVec(0, 0))
        assert ext.transitions == base.transitions, n
        assert (ext.cost, ext.life_set) == (base.cost, base.life_set), n


def test_solve_rejects_a_root_first_decomposition():
    # a nice decomposition of one edge, numbered root first: the bottom-up
    # sweep meets node 0 before its child's table exists
    cfg = Cfg(2, [(0, 1)])
    nice = NiceTreeDec(kinds=[FORGET, FORGET, INTRODUCE, INTRODUCE, LEAF],
                       vertex=[1, 0, 1, 0, None],
                       bags=[(), (1,), (0, 1), (0,), ()],
                       children=[(1,), (2,), (3,), (4,), ()])
    message = validate_nice(cfg, nice)
    assert message == "node 0 is numbered before its child"
    assert _solver_errors(cfg, nice) == [message, message]


# -- tie rule beyond brute force ---------------------------------------------

def _banded_tie_instance(seed):
    """A seeded banded graph of 40-200 nodes, width 3-6, with a few back edges.

    Costs are small, so exact ties are common; about 1 % of edge and node
    costs are INFINITY, and node costs may be negative.
    """
    import random
    rng = random.Random(f"banded-ties/{seed}")
    n = rng.randint(40, 200)
    band = 3 + seed % 4
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 2, min(n, i + band + 1)):
            if rng.random() < 0.5:
                edges.add((i, j))
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(2, n)
        edges.add((i, rng.randrange(max(1, i - band), i)))
    edges = sorted(edges)

    def cost(low, high):
        return INFINITY if rng.random() < 0.01 else CostVec(rng.randint(low, high),
                                                            rng.randint(0, 2))

    cfg = Cfg(n, edges, {e: cost(0, 2) for e in edges}, {v: cost(-1, 1) for v in range(n)})
    interior = list(range(1, n - 1))
    rng.shuffle(interior)
    k = len(interior) * 3 // 10
    problem = make_problem(cfg, interior[:k], interior[k:k + len(interior) // 10])
    table = {(v, *combo): cost(-1, 1) for v in range(n)
             for combo in ((b, bl, br) for b in (0, 1) for bl in (0, 1) for br in (0, 1))}
    allowed = {v: [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
               for v in range(n) if rng.random() < 0.1}
    return cfg, problem, table, allowed


def _tie_digest():
    import hashlib
    records = []
    for seed in range(60):
        cfg, problem, table, allowed = _banded_tie_instance(seed)
        nice = make_nice(decompose(cfg))
        assert cfg.node_count >= 40 and 3 <= nice.width <= 6, seed
        for run in (lambda: solve(cfg, problem, nice),
                    lambda: solve_extended(cfg, problem, nice, lambda *k: table[k],
                                           allowed_combos=allowed)):
            try:
                sol = run()
            except NoFeasibleSolutionError:
                records.append("infeasible")
                continue
            records.append((sorted(sol.life_set), sorted(sol.calc_set), sol.cost,
                            sol.transitions, sol.life_left and sorted(sol.life_left),
                            sol.life_right and sorted(sol.life_right)))
    return hashlib.sha256(repr(records).encode()).hexdigest()


# (life set, calc set, cost, transitions, life_left, life_right) of every
# solve and solve_extended run in _tie_digest, from the bit-shifting kernel
# that the index-map kernel must match exactly
TIE_DIGEST = "113fe345b1dbb55ef13344d37470dfe2d3fda4e3d1fbee45cf34ac881916aaf9"


def test_tie_rule_pinned_on_banded_graphs():
    # brute force cannot check these sizes, so the reported optima (the
    # least optimal life sets) are pinned
    assert _tie_digest() == TIE_DIGEST


def _relabelled_decomposition(cfg, seed):
    """Min-fill run on ``cfg`` with its node ids shuffled, mapped back: a
    decomposition of ``cfg`` from another elimination order."""
    import random
    from lospre.treedec import TreeDec, validate
    new_id = list(range(cfg.node_count))
    random.Random(seed).shuffle(new_id)
    old_id = sorted(range(cfg.node_count), key=new_id.__getitem__)
    td = decompose(Cfg(cfg.node_count, [(new_id[u], new_id[v]) for (u, v) in cfg.edges]))
    td = TreeDec(bags=[frozenset(old_id[w] for w in bag) for bag in td.bags], edges=td.edges)
    assert validate(cfg, td) is None
    return td


def test_tie_rule_does_not_depend_on_the_decomposition():
    # the least optimal life set is one set, so min-fill and another
    # elimination order report the same optimum, on ties too
    import random
    instances = [_banded_tie_instance(seed)[:2] for seed in range(30)]
    for seed in range(40):
        style = ("series-parallel", "chained-diamonds")[seed % 2]
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(28, 200), style=style))
        rng = random.Random(seed)
        node_cost = {v: CostVec(0, rng.randint(0, 1)) for v in range(cfg.node_count)}
        cfg = Cfg(cfg.node_count, cfg.edges, node_cost=node_cost)
        instances.append((cfg, make_problem(cfg, problem.use_set, problem.invalidation_set)))
    differ = 0
    for seed, (cfg, problem) in enumerate(instances):
        assert 25 <= cfg.node_count <= 200
        min_fill, other = decompose(cfg), _relabelled_decomposition(cfg, seed)
        differ += min_fill.bags != other.bags
        try:
            a = solve(cfg, problem, make_nice(min_fill))
        except NoFeasibleSolutionError:
            with pytest.raises(NoFeasibleSolutionError):
                solve(cfg, problem, make_nice(other))
            continue
        b = solve(cfg, problem, make_nice(other))
        assert (a.life_set, a.calc_set, a.cost) == (b.life_set, b.calc_set, b.cost), seed
    assert differ >= 60


def test_reported_life_set_is_the_least_optimal_one():
    # every optimal life set contains it, found by enumerating all of them
    from itertools import combinations
    import random
    ties = 0
    for seed in range(150):
        style = STYLES[seed % 3]
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 8), style=style,
                                                  cost_style=("unit", "random")[seed % 2]))
        rng = random.Random(seed)
        # negative node costs, free nodes (many ties), or the generator's
        node_cost = {v: (CostVec(rng.randint(-1, 1), rng.randint(-1, 1)),
                         CostVec(0, rng.randint(0, 1)), cfg.node_cost[v])[seed // 3 % 3]
                     for v in range(cfg.node_count)}
        cfg = Cfg(cfg.node_count, cfg.edges, cfg.edge_cost, node_cost)
        sol = solved(cfg, problem)
        nodes = range(cfg.node_count)
        optimal = [set(life) for k in range(cfg.node_count + 1)
                   for life in combinations(nodes, k)
                   if total_cost(cfg, problem, life) == sol.cost]
        assert all(sol.life_set <= life for life in optimal), seed
        ties += len(optimal) > 1
    assert ties >= 40, ties


def test_a_table_cost_that_disagrees_is_an_internal_error(diamond, monkeypatch):
    from lospre import dp
    total_cost = dp.total_cost
    monkeypatch.setattr(dp, "total_cost", lambda *args: total_cost(*args) + CostVec(1, 0))
    with pytest.raises(LospreError) as info:
        solved(diamond, make_problem(diamond, use=[2, 3]))
    assert str(info.value) == "internal error: table cost disagrees with recomputed objective"


def test_a_defect_validate_nice_accepts_is_the_kernels_own_error(monkeypatch):
    # with validate_nice blind, a defect the sweep detects is an internal
    # error, and one a lookup or comparison detects keeps its own error
    from lospre import dp
    monkeypatch.setattr(dp, "validate_nice", lambda cfg, nice: None)
    path = Cfg(3, [(0, 1), (1, 2)])
    problem = make_problem(path, use=[1])
    with pytest.raises(LospreError) as info:
        solve(path, problem, _nice_path(PATH3[:5]))
    assert str(info.value) == \
        "internal error: the sweep rejected a form that validate_nice accepts"
    with pytest.raises(TypeError) as info:
        solve(path, problem, _replaced(_nice_path(PATH3), "vertex", 3, None))
    assert str(info.value) == "'<=' not supported between instances of 'int' and 'NoneType'"
