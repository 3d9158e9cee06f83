"""Dynamic-programming filter decomposition (paper §4.4, Figure 3).

    T[i, j] = min( T[i, j-1] + CostComm(B(L_{j-1}), Vol(f_i)),
                   T[i-1, j] + CostComp(P(C_j), Task(f_i)) )

``T[i, j]`` is the minimum cost of completing filters ``f_1..f_i`` with the
results of ``f_i`` held on unit ``C_j``; the answer is ``T[n+1, m]``.
O(nm) time.  Three entry points:

* :func:`decompose_dp` — the published algorithm with backtracking,
  optionally charging the raw-input forwarding cost that Figure 3's
  ``T[0, j] = 0`` initialization leaves out;
* :func:`decompose_dp_low_space` — the O(m)-space variant the paper
  describes ("we only need ... T[i-1, j] and T[i, j-1]"), cost only;
* :func:`decompose_dp_bottleneck` — our extension: optimizes the *full*
  §4.3 objective ``(N-1)·bottleneck + fill`` by Pareto dynamic programming
  over (closed-fill, open-stage-load, bottleneck) states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plan import INF, DecompositionPlan, DecompositionProblem


@dataclass(slots=True)
class DPResult:
    cost: float
    plan: DecompositionPlan | None
    table: list[list[float]] | None = None  # T[i][j], kept for tests/benches


def decompose_dp(
    problem: DecompositionProblem,
    charge_raw_input: bool = False,
    keep_table: bool = False,
) -> DPResult:
    """Figure 3, with parent pointers to recover the optimal plan."""
    n1 = problem.n_filters  # n+1
    m = problem.m
    # T[i][j] with i in 0..n+1, j in 0..m
    T = [[INF] * (m + 1) for _ in range(n1 + 1)]
    # parent[i][j]: 'comm' (came from T[i][j-1]) or 'comp' (from T[i-1][j])
    parent: list[list[str | None]] = [[None] * (m + 1) for _ in range(n1 + 1)]

    for j in range(m + 1):
        if charge_raw_input:
            # forwarding the raw input to unit j costs the sum of link
            # times along the way
            cost = 0.0
            for k in range(1, j):
                cost += problem.comm_time(0, k)
            T[0][j] = cost
        else:
            T[0][j] = 0.0  # the published initialization

    for i in range(1, n1 + 1):
        for j in range(1, m + 1):
            via_comp = T[i - 1][j] + problem.comp_time(i, j)
            via_comm = (
                T[i][j - 1] + problem.comm_time(i, j - 1) if j >= 2 else INF
            )
            if via_comp <= via_comm:
                T[i][j] = via_comp
                parent[i][j] = "comp"
            else:
                T[i][j] = via_comm
                parent[i][j] = "comm"

    # backtrack: from (n+1, m) follow parents; 'comp' fixes f_i on C_j
    assignment = [0] * n1
    i, j = n1, m
    while i >= 1:
        move = parent[i][j]
        if move == "comp":
            assignment[i - 1] = j
            i -= 1
        elif move == "comm":
            j -= 1
        else:  # pragma: no cover - unreachable on valid instances
            raise AssertionError("broken DP table")
    plan = DecompositionPlan(tuple(assignment), m)
    return DPResult(
        cost=T[n1][m],
        plan=plan,
        table=T if keep_table else None,
    )


def decompose_dp_low_space(
    problem: DecompositionProblem, charge_raw_input: bool = False
) -> float:
    """The O(m)-space cost-only variant (paper §4.4, last paragraph):
    a single row is kept and overwritten in place — cell ``row[j]`` holds
    ``T[i-1][j]`` until it is replaced by ``T[i][j]``."""
    n1 = problem.n_filters
    m = problem.m
    row = [0.0] * (m + 1)
    if charge_raw_input:
        for j in range(1, m + 1):
            row[j] = row[j - 1] + (
                problem.comm_time(0, j - 1) if j >= 2 else 0.0
            )
    for i in range(1, n1 + 1):
        prev_left = INF  # T[i][j-1]
        for j in range(1, m + 1):
            via_comp = row[j] + problem.comp_time(i, j)  # row[j] is T[i-1][j]
            via_comm = (
                prev_left + problem.comm_time(i, j - 1) if j >= 2 else INF
            )
            row[j] = min(via_comp, via_comm)
            prev_left = row[j]
        row[0] = INF
    return row[m]


# ---------------------------------------------------------------------------
# Extension: full-objective Pareto DP
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _State:
    """Partial solution at (filter i placed, on unit j).

    ``closed`` — fill time of completed stages and crossed links;
    ``open_load`` — accumulated per-packet time on the current unit;
    ``bottleneck`` — max stage/link per-packet time among *closed* ones.
    """

    closed: float
    open_load: float
    bottleneck: float
    parent: "tuple[_State, str] | None"

    def dominates(self, other: "_State") -> bool:
        return (
            self.closed <= other.closed
            and self.open_load <= other.open_load
            and self.bottleneck <= other.bottleneck
        )


def decompose_dp_bottleneck(problem: DecompositionProblem) -> DPResult:
    """Optimize the full §4.3 objective with transparent-copy widths.

    State space: for each (i, j) keep the Pareto frontier over
    (closed fill, open stage load, bottleneck); transitions either keep
    f_{i+1} on C_j or close the stage and hop across L_j.  Exact because
    the final objective is monotone in all three coordinates.
    """
    n1 = problem.n_filters
    m = problem.m
    env = problem.env

    def stage_time(load: float, j: int) -> float:
        t = load
        if problem.use_widths:
            t /= env.unit(j).width
        return t

    def link_time(i: int, k: int) -> float:
        t = problem.comm_time(i, k)
        if problem.use_widths:
            t /= min(env.unit(k).width, env.unit(k + 1).width)
        return t

    # frontier[j] = Pareto states with filters 1..i placed, currently on C_j
    frontier: list[list[_State]] = [[] for _ in range(m + 1)]
    frontier[1] = [_State(0.0, 0.0, 0.0, None)]

    def push(bucket: list[_State], state: _State) -> None:
        for existing in bucket:
            if existing.dominates(state):
                return
        bucket[:] = [s for s in bucket if not state.dominates(s)]
        bucket.append(state)

    for i in range(1, n1 + 1):
        nxt: list[list[_State]] = [[] for _ in range(m + 1)]
        for j in range(1, m + 1):
            # arrive at unit j either by staying or by hopping from j' < j
            # (hops close intermediate stages); process hops first so every
            # state in frontier[j] already has f_1..f_{i-1} done.
            pass
        # 1) hop states sideways (crossing links without placing a filter)
        for j in range(1, m):
            for state in list(frontier[j]):
                cur = state
                load_closed = stage_time(cur.open_load, j)
                hopped = _State(
                    closed=cur.closed + load_closed + link_time(i - 1, j),
                    open_load=0.0,
                    bottleneck=max(
                        cur.bottleneck, load_closed, link_time(i - 1, j)
                    ),
                    parent=(cur, f"hop{j}"),
                )
                push(frontier[j + 1], hopped)
        # 2) place f_i on the current unit
        for j in range(1, m + 1):
            for state in frontier[j]:
                placed = _State(
                    closed=state.closed,
                    open_load=state.open_load + problem.comp_time(i, j),
                    bottleneck=state.bottleneck,
                    parent=(state, f"place{i}@{j}"),
                )
                push(nxt[j], placed)
        frontier = nxt

    # All filters placed; forward the final results (hops) to C_m.  These
    # drain links carry the output once per run, not once per packet, so
    # they contribute to fill time but never to the steady-state
    # bottleneck (a deliberate refinement over charging Vol(f_{n+1}) per
    # packet — see DESIGN.md).
    best_cost = INF
    best_state: _State | None = None
    for j in range(1, m + 1):
        for state in frontier[j]:
            closed = state.closed
            bott = state.bottleneck
            load = state.open_load
            cur_j = j
            while True:
                st = stage_time(load, cur_j)
                closed += st
                bott = max(bott, st)
                if cur_j == m:
                    break
                closed += link_time(n1, cur_j)
                load = 0.0
                cur_j += 1
            total = (problem.num_packets - 1) * bott + closed
            if total < best_cost:
                best_cost = total
                best_state = state

    plan = _recover_plan(best_state, n1, m) if best_state is not None else None
    return DPResult(cost=best_cost, plan=plan)


def _recover_plan(state: _State, n1: int, m: int) -> DecompositionPlan:
    assignment = [0] * n1
    cur: _State | None = state
    while cur is not None and cur.parent is not None:
        prev, move = cur.parent
        if move.startswith("place"):
            idx, unit = move[5:].split("@")
            assignment[int(idx) - 1] = int(unit)
        cur = prev
    # fill unassigned (shouldn't happen) defensively with unit 1
    last = 1
    for k in range(n1):
        if assignment[k] == 0:
            assignment[k] = last
        last = assignment[k]
    return DecompositionPlan(tuple(assignment), m)
