"""Structural sufficiency certificates and per-model parameter planners.

A pair (G, tau) is certified as an (n, eps)-uniformity tester when all
three of the following hold (c(G) is the directed two-path count):

    1.  |E| >= 4 n / (tau^2 eps^4)
    2.  |E| >= 16 n / ((1 - tau)^2 eps^4)
    3.  c(G) / |E|^2 <= (1 - tau)^2 eps^2 / (16 sqrt(n))

`certify_graph` / `certify_stats` evaluate these exactly.  The planners
below search for the cheapest graph of the right family that such a
certificate accepts, per computational model: one clique (centralized),
k equal cliques (simultaneous), rate-proportional cliques (asymmetric
sampling cost), and batched cliques (memory-constrained streaming,
alone or with k players).

Closed-form conditions for a union of `ell` q-cliques exist in two
flavors.  The historically used form assumes the UNDIRECTED two-path
count and is six times too optimistic about condition 3; the re-derived
form (condition 3 coefficient 144 instead of 24) is sufficient for the
directed count, because |E| >= ell q^2 / 3 and |E|^2 / c(G) >= ell q / 9
whenever q >= 3.  `certify_disjoint_cliques` reports both next to the
exact certificate so the gap stays visible.  Planners never rely on the
closed forms; they search with exact statistics.

For fixed |E| and c(G) the three conditions solve to an interval
[tau_lo, tau_hi] (`_feasible_tau`).  Planners take the smallest layout
whose interval is non-empty and report a tau from inside it.  Detection
protocols send tau down a tree as a grid index, so they certify on an
explicit grid instead (`first_certified_tau`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .encoding import counter_bit_width, message_bit_width, sample_bit_width
from .errors import CapacityError
from .graph import ComparisonGraph, make_clique_union, make_cycle

COARSE_TAU_GRID = tuple(round(0.05 * i, 10) for i in range(1, 20))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    actual: float
    required: float
    sense: str  # ">=" or "<="
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "actual": self.actual,
                "required": self.required, "sense": self.sense,
                "passed": self.passed}


@dataclass(frozen=True)
class ConditionReport:
    cond1: ConditionCheck
    cond2: ConditionCheck
    cond3: ConditionCheck
    tau: float
    n: int
    eps: float
    edge_count: int | None = None
    two_path_count: int | None = None

    @property
    def overall(self) -> bool:
        return self.cond1.passed and self.cond2.passed and self.cond3.passed

    def to_json(self) -> dict:
        return {
            "cond1": self.cond1.to_json(),
            "cond2": self.cond2.to_json(),
            "cond3": self.cond3.to_json(),
            "tau": self.tau, "n": self.n, "eps": self.eps,
            "edge_count": self.edge_count,
            "two_path_count": self.two_path_count,
            "overall": self.overall,
        }


def _validate_problem(tau: float, n: int, eps: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if n < 1:
        raise ValueError("domain size must be >= 1")


def _stats_pass(edge_count: int, two_paths: int, tau: float, n: int,
                eps: float) -> bool:
    """Fast boolean version of `certify_stats` for planner searches."""
    if edge_count < 1:
        return False
    e4 = eps**4
    if edge_count < 4.0 * n / (tau * tau * e4):
        return False
    if edge_count < 16.0 * n / ((1.0 - tau) ** 2 * e4):
        return False
    return (two_paths / edge_count**2
            <= (1.0 - tau) ** 2 * eps**2 / (16.0 * math.sqrt(n)))


def certify_stats(edge_count: int, two_path_count: int, tau: float, n: int,
                  eps: float) -> ConditionReport:
    """Evaluate the three sufficiency conditions on raw graph statistics."""
    _validate_problem(tau, n, eps)
    if edge_count < 1:
        raise ValueError("need at least one comparison edge")
    e4 = eps**4
    req1 = 4.0 * n / (tau * tau * e4)
    req2 = 16.0 * n / ((1.0 - tau) ** 2 * e4)
    bound3 = (1.0 - tau) ** 2 * eps**2 / (16.0 * math.sqrt(n))
    ratio = two_path_count / edge_count**2
    return ConditionReport(
        cond1=ConditionCheck("edge_budget_low_side", edge_count, req1, ">=",
                             edge_count >= req1),
        cond2=ConditionCheck("edge_budget_high_side", edge_count, req2, ">=",
                             edge_count >= req2),
        cond3=ConditionCheck("two_path_ratio", ratio, bound3, "<=",
                             ratio <= bound3),
        tau=tau, n=n, eps=eps,
        edge_count=edge_count, two_path_count=two_path_count,
    )


def certify_graph(graph: ComparisonGraph, tau: float, n: int,
                  eps: float) -> ConditionReport:
    """Certify (graph, tau) as an (n, eps)-uniformity tester.

    Statistics are taken from the graph itself, never from the caller.
    """
    return certify_stats(graph.edge_count, graph.two_path_count, tau, n, eps)


@dataclass(frozen=True)
class CliqueFamilyReport:
    """Three verdicts for a union of `ell` q-cliques.

    `closed_form` uses the constants sized for the undirected two-path
    count (condition 3 coefficient 24); `closed_form_directed` carries
    the re-derived coefficient 144 that is sufficient under the directed
    count; `direct` is the exact-statistics certificate, which is the
    authoritative one.
    """

    q: int
    ell: int
    closed_form: ConditionReport
    closed_form_directed: ConditionReport
    direct: ConditionReport

    def to_json(self) -> dict:
        return {"q": self.q, "ell": self.ell,
                "closed_form": self.closed_form.to_json(),
                "closed_form_directed": self.closed_form_directed.to_json(),
                "direct": self.direct.to_json()}


def equal_cliques_stats(q: int, ell: int) -> tuple[int, int]:
    """(|E|, c) for `ell` disjoint q-cliques, c directed."""
    return ell * q * (q - 1) // 2, ell * q * (q - 1) * (q - 2)


def clique_union_stats(sizes) -> tuple[int, int]:
    edge_count = sum(s * (s - 1) // 2 for s in sizes)
    two_paths = sum(s * (s - 1) * (s - 2) for s in sizes)
    return edge_count, two_paths


def _closed_form_report(q, ell, tau, n, eps, cond3_coeff) -> ConditionReport:
    root = math.sqrt(n) / eps**2
    lhs12 = q * math.sqrt(ell)
    req1 = math.sqrt(12.0) * root / tau
    req2 = math.sqrt(48.0) * root / (1.0 - tau)
    req3 = cond3_coeff * root / (1.0 - tau) ** 2
    return ConditionReport(
        cond1=ConditionCheck("q_sqrt_ell_low_side", lhs12, req1, ">=",
                             lhs12 >= req1),
        cond2=ConditionCheck("q_sqrt_ell_high_side", lhs12, req2, ">=",
                             lhs12 >= req2),
        cond3=ConditionCheck("q_ell_two_path_side", q * ell, req3, ">=",
                             q * ell >= req3),
        tau=tau, n=n, eps=eps,
    )


def certify_disjoint_cliques(q: int, ell: int, tau: float, n: int,
                             eps: float) -> CliqueFamilyReport:
    """Closed-form and exact certificates for `ell` disjoint q-cliques."""
    _validate_problem(tau, n, eps)
    if q < 3:
        raise ValueError("the closed forms require cliques of size q >= 3")
    if ell < 1:
        raise ValueError("need at least one clique")
    edge_count, two_paths = equal_cliques_stats(q, ell)
    return CliqueFamilyReport(
        q=q, ell=ell,
        closed_form=_closed_form_report(q, ell, tau, n, eps, 24.0),
        closed_form_directed=_closed_form_report(q, ell, tau, n, eps, 144.0),
        direct=certify_stats(edge_count, two_paths, tau, n, eps),
    )


# ---------------------------------------------------------------------------
# planner searches


def _feasible_tau(edge_count: int, two_path: int, n: int, eps: float) -> float | None:
    """A tau certifying these statistics, if any exists.

    The three conditions carve an interval for tau: a lower end from the
    first edge budget and upper ends from the other two.  The midpoint
    is returned (falling back to the ends when rounding bites).
    """
    if edge_count < 1:
        return None
    root = math.sqrt(n) / eps**2
    tau_lo = 2.0 * root / math.sqrt(edge_count)
    tau_hi = min(1.0 - 4.0 * root / math.sqrt(edge_count),
                 1.0 - 4.0 * n**0.25 * math.sqrt(two_path) / (edge_count * eps))
    if not tau_lo <= tau_hi or tau_hi <= 0.0 or tau_lo >= 1.0:
        return None
    for tau in ((tau_lo + tau_hi) / 2.0, tau_lo, tau_hi):
        if 0.0 < tau < 1.0 and _stats_pass(edge_count, two_path, tau, n, eps):
            return tau
    return None


def first_certified_tau(edge_count: int, two_path: int, grid, n: int,
                        eps: float) -> float | None:
    """The first tau of `grid` that certifies these statistics, or None.

    Detection protocols certify on an explicit grid because the chosen
    tau travels down the tree as a grid index; the planners use the
    exact interval of `_feasible_tau` instead.
    """
    if edge_count < 1:
        return None
    return next((tau for tau in grid
                 if _stats_pass(edge_count, two_path, tau, n, eps)), None)


def _smallest(ok, lo: int, what: str) -> int:
    """Smallest integer x >= lo with ok(x), by doubling then bisection.

    `ok` must be monotone above lo (certification is monotone in the
    clique count, and in the clique size from q = 3 on, which is why
    ok(lo) is tried on its own first).
    """
    if ok(lo):
        return lo
    hi = 2 * lo
    while not ok(hi):
        lo, hi = hi, hi * 2
        if hi > 1 << 40:
            raise CapacityError(f"{what} search diverged")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def minimal_clique_size(n: int, eps: float, tau: float, ell: int) -> int:
    """Smallest q >= 2 such that `ell` q-cliques are certified at tau."""
    return _smallest(
        lambda q: _stats_pass(*equal_cliques_stats(q, ell), tau, n, eps),
        2, "clique size")


def minimal_clique_count(n: int, eps: float, tau: float, q: int) -> int:
    """Smallest ell >= 1 such that `ell` q-cliques are certified at tau."""
    if q < 2:
        raise ValueError("cliques need q >= 2")
    return _smallest(
        lambda ell: _stats_pass(*equal_cliques_stats(q, ell), tau, n, eps),
        1, "clique count")


def _smallest_feasible(stats, lo: int, what: str, n: int,
                       eps: float) -> tuple[int, float]:
    """Smallest x >= lo whose statistics `stats(x)` certify for SOME tau.

    Returns x and the tau `_feasible_tau` picks from its exact interval.
    The planners choose tau only this way: the interval also finds a
    knife-edge optimum whose certifying tau is a single point, which no
    sampled set of tau values would hit.
    """
    x = _smallest(lambda v: _feasible_tau(*stats(v), n, eps) is not None,
                  lo, what)
    return x, _feasible_tau(*stats(x), n, eps)


def _minimal_time(n: int, eps: float, rates) -> tuple[float, tuple[int, ...]]:
    """Smallest sampling time t such that cliques of size floor(R_i t)
    certify for some tau.

    The returned t is snapped down to the first moment the winning size
    vector becomes available.
    """

    def sizes(t: float) -> tuple[int, ...]:
        return tuple(int(math.floor(r * t)) for r in rates)

    def ok(t: float) -> bool:
        return _feasible_tau(*clique_union_stats(sizes(t)), n, eps) is not None

    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e15:
            raise CapacityError("sampling time search diverged")
    lo = 0.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if ok(mid):
            hi = mid
        else:
            lo = mid
    final_sizes = sizes(hi)
    snap = max((s / r for s, r in zip(final_sizes, rates) if r > 0 and s > 0),
               default=hi)
    while sizes(snap) != final_sizes:
        snap = math.nextafter(snap, math.inf)
    return snap, final_sizes


# ---------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class PlanResources:
    """Predicted resource use of a plan."""

    samples_total: int
    samples_per_player: int
    sampling_time: float | None = None
    message_bits: int | None = None
    memory_bits: int | None = None

    def to_json(self) -> dict:
        return {"samples_total": self.samples_total,
                "samples_per_player": self.samples_per_player,
                "sampling_time": self.sampling_time,
                "message_bits": self.message_bits,
                "memory_bits": self.memory_bits}


@dataclass(frozen=True)
class Plan:
    """A certified tester layout: cliques, their owners, and tau.

    `clique_sizes[c]` is the vertex count of clique `c`;
    `clique_players[c]` names the player that executes it.  The plan's
    comparison graph is the disjoint union of these cliques with the
    clique index as the vertex owner, so per-clique sample streams are
    addressed by `(trial, clique_index)`.
    """

    family: str  # clique | disjoint_cliques | rate_cliques | batched_cliques
    n: int
    eps: float
    tau: float
    clique_sizes: tuple[int, ...]
    clique_players: tuple[int, ...]
    players: int
    edge_count: int
    two_path_count: int
    report: ConditionReport
    resources: PlanResources
    rates: tuple[float, ...] | None = None
    sampling_time: float | None = None
    m_bits: int | None = None
    m_prime: int | None = None
    bits_per_sample: int | None = None

    @property
    def threshold(self) -> float:
        return self.edge_count * (1.0 + self.tau * self.eps**2) / self.n

    @property
    def samples_total(self) -> int:
        return sum(self.clique_sizes)

    def build_graph(self) -> ComparisonGraph:
        return make_clique_union(self.clique_sizes)

    def cliques_of_player(self, player: int) -> list[int]:
        return [c for c, p in enumerate(self.clique_players) if p == player]

    def to_json(self) -> dict:
        return {
            "family": self.family, "n": self.n, "eps": self.eps,
            "tau": self.tau, "threshold": self.threshold,
            "clique_sizes": list(self.clique_sizes),
            "clique_players": list(self.clique_players),
            "players": self.players,
            "edge_count": self.edge_count,
            "two_path_count": self.two_path_count,
            "rates": None if self.rates is None else list(self.rates),
            "sampling_time": self.sampling_time,
            "m_bits": self.m_bits, "m_prime": self.m_prime,
            "bits_per_sample": self.bits_per_sample,
            "resources": self.resources.to_json(),
            "report": self.report.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Plan":
        sizes = tuple(int(s) for s in obj["clique_sizes"])
        edge_count, two_paths = clique_union_stats(sizes)
        report = certify_stats(edge_count, two_paths, obj["tau"], obj["n"],
                               obj["eps"])
        res = obj["resources"]
        return cls(
            family=obj["family"], n=int(obj["n"]), eps=float(obj["eps"]),
            tau=float(obj["tau"]), clique_sizes=sizes,
            clique_players=tuple(int(p) for p in obj["clique_players"]),
            players=int(obj["players"]),
            edge_count=edge_count, two_path_count=two_paths, report=report,
            resources=PlanResources(
                samples_total=res["samples_total"],
                samples_per_player=res["samples_per_player"],
                sampling_time=res["sampling_time"],
                message_bits=res["message_bits"],
                memory_bits=res["memory_bits"]),
            rates=None if obj["rates"] is None else tuple(obj["rates"]),
            sampling_time=obj["sampling_time"], m_bits=obj["m_bits"],
            m_prime=obj["m_prime"], bits_per_sample=obj["bits_per_sample"],
        )


def _validate_inputs(n: int, eps: float) -> None:
    if n < 1:
        raise ValueError("domain size must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")


def plan_centralized(n: int, eps: float) -> Plan:
    """Smallest certified single clique: q samples, all pairs compared."""
    _validate_inputs(n, eps)
    q, tau = _smallest_feasible(lambda q: equal_cliques_stats(q, 1), 2,
                                "clique size", n, eps)
    edge_count, two_paths = equal_cliques_stats(q, 1)
    return Plan(
        family="clique", n=n, eps=eps, tau=tau,
        clique_sizes=(q,), clique_players=(0,), players=1,
        edge_count=edge_count, two_path_count=two_paths,
        report=certify_stats(edge_count, two_paths, tau, n, eps),
        resources=PlanResources(samples_total=q, samples_per_player=q),
    )


def plan_simultaneous(n: int, eps: float, k: int) -> Plan:
    """k players, one clique of q' samples each, short message to a referee."""
    _validate_inputs(n, eps)
    if k < 1:
        raise ValueError("need at least one player")
    q, tau = _smallest_feasible(lambda q: equal_cliques_stats(q, k), 2,
                                "clique size", n, eps)
    edge_count, two_paths = equal_cliques_stats(q, k)
    t = edge_count * (1.0 + tau * eps**2) / n
    return Plan(
        family="disjoint_cliques", n=n, eps=eps, tau=tau,
        clique_sizes=(q,) * k, clique_players=tuple(range(k)), players=k,
        edge_count=edge_count, two_path_count=two_paths,
        report=certify_stats(edge_count, two_paths, tau, n, eps),
        resources=PlanResources(samples_total=q * k, samples_per_player=q,
                                message_bits=message_bit_width(t)),
    )


def plan_asymmetric(n: int, eps: float, rates) -> Plan:
    """Per-player cliques of size floor(R_i t) for the smallest certified t."""
    _validate_inputs(n, eps)
    rates = tuple(float(r) for r in rates)
    if not rates or any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    if not any(r > 0 for r in rates):
        raise ValueError("at least one rate must be positive")
    t, sizes = _minimal_time(n, eps, rates)
    edge_count, two_paths = clique_union_stats(sizes)
    tau = _feasible_tau(edge_count, two_paths, n, eps)
    thr = edge_count * (1.0 + tau * eps**2) / n
    return Plan(
        family="rate_cliques", n=n, eps=eps, tau=tau,
        clique_sizes=sizes, clique_players=tuple(range(len(rates))),
        players=len(rates),
        edge_count=edge_count, two_path_count=two_paths,
        report=certify_stats(edge_count, two_paths, tau, n, eps),
        resources=PlanResources(samples_total=sum(sizes),
                                samples_per_player=max(sizes),
                                sampling_time=t,
                                message_bits=message_bit_width(thr)),
        rates=rates, sampling_time=t,
    )


def _streaming_memory_fields(n: int, m_bits: int) -> tuple[int, int]:
    bps = sample_bit_width(n)
    m_prime = m_bits // (2 * bps)
    if m_prime < 3:
        raise CapacityError(
            f"memory m = {m_bits} bits stores only m' = {m_prime} samples "
            f"alongside the counter; batched comparison needs m' >= 3")
    return bps, m_prime


def _check_counter_budget(t: float, m_bits: int) -> None:
    need = message_bit_width(t)
    if need > m_bits / 2:
        raise CapacityError(
            f"collision counter needs {need} bits but only {m_bits / 2:g} "
            f"(half the memory) are reserved for it")


def plan_streaming(n: int, eps: float, m_bits: int) -> Plan:
    """One-pass stream under an m-bit memory budget.

    Stores and compares batches of m' = floor(m / (2 ceil(log2 n)))
    samples; when m' already covers the centralized plan, that plan is
    returned unchanged (single batch).
    """
    _validate_inputs(n, eps)
    bps, m_prime = _streaming_memory_fields(n, m_bits)
    base = plan_centralized(n, eps)
    if m_prime >= base.resources.samples_total:
        _check_counter_budget(base.threshold, m_bits)
        peak = (base.resources.samples_total * bps
                + counter_bit_width(base.threshold))
        return replace(
            base, m_bits=m_bits, m_prime=m_prime, bits_per_sample=bps,
            resources=replace(base.resources, memory_bits=peak))
    ell, tau = _smallest_feasible(lambda ell: equal_cliques_stats(m_prime, ell),
                                  1, "clique count", n, eps)
    edge_count, two_paths = equal_cliques_stats(m_prime, ell)
    thr = edge_count * (1.0 + tau * eps**2) / n
    _check_counter_budget(thr, m_bits)
    peak = m_prime * bps + counter_bit_width(thr)
    return Plan(
        family="batched_cliques", n=n, eps=eps, tau=tau,
        clique_sizes=(m_prime,) * ell, clique_players=(0,) * ell, players=1,
        edge_count=edge_count, two_path_count=two_paths,
        report=certify_stats(edge_count, two_paths, tau, n, eps),
        resources=PlanResources(samples_total=m_prime * ell,
                                samples_per_player=m_prime * ell,
                                memory_bits=peak),
        m_bits=m_bits, m_prime=m_prime, bits_per_sample=bps,
    )


def plan_simultaneous_streaming(n: int, eps: float, k: int, m_bits: int) -> Plan:
    """k memory-constrained players, each streaming batches of m' samples."""
    _validate_inputs(n, eps)
    if k < 1:
        raise ValueError("need at least one player")
    bps, m_prime = _streaming_memory_fields(n, m_bits)
    sim = plan_simultaneous(n, eps, k)
    if m_prime >= sim.resources.samples_per_player:
        _check_counter_budget(sim.threshold, m_bits)
        peak = (sim.resources.samples_per_player * bps
                + counter_bit_width(sim.threshold))
        return replace(
            sim, m_bits=m_bits, m_prime=m_prime, bits_per_sample=bps,
            resources=replace(sim.resources, memory_bits=peak))
    # feasibility is monotone in ell, so ceil(min_count / k) batches is minimal
    min_count, _ = _smallest_feasible(
        lambda ell: equal_cliques_stats(m_prime, ell), 1, "clique count", n, eps)
    batches = math.ceil(min_count / k)
    ell = batches * k
    edge_count, two_paths = equal_cliques_stats(m_prime, ell)
    tau = _feasible_tau(edge_count, two_paths, n, eps)
    thr = edge_count * (1.0 + tau * eps**2) / n
    _check_counter_budget(thr, m_bits)
    peak = m_prime * bps + counter_bit_width(thr)
    return Plan(
        family="batched_cliques", n=n, eps=eps, tau=tau,
        clique_sizes=(m_prime,) * ell,
        clique_players=tuple(c // batches for c in range(ell)),
        players=k,
        edge_count=edge_count, two_path_count=two_paths,
        report=certify_stats(edge_count, two_paths, tau, n, eps),
        resources=PlanResources(samples_total=m_prime * ell,
                                samples_per_player=m_prime * batches,
                                message_bits=message_bit_width(thr),
                                memory_bits=peak),
        m_bits=m_bits, m_prime=m_prime, bits_per_sample=bps,
    )


# ---------------------------------------------------------------------------
# conditional lower bounds


@dataclass(frozen=True)
class ConjecturedFloor:
    """A resource floor implied by an ASSUMED minimum comparison count.

    The assumption (any reliable collision tester needs at least
    `edge_floor` comparisons, default n / eps^4 with coefficient 1) is
    unproven; every floor derived here inherits that status.
    """

    model: str
    value: float
    edge_floor: float
    assumes_conjecture: bool = True

    def to_json(self) -> dict:
        return {"model": self.model, "value": self.value,
                "edge_floor": self.edge_floor,
                "assumes_conjecture": self.assumes_conjecture}


def conjectured_floor(model: str, n: int, eps: float, *, k: int | None = None,
                      rates=None, m_prime: int | None = None,
                      edge_floor: float | None = None) -> ConjecturedFloor:
    """Per-model resource floor implied by the minimum-comparisons assumption.

    centralized: samples >= sqrt(2 E);  simultaneous: samples per player
    >= sqrt(2 E / k);  asymmetric: time >= sqrt(2 E) / ||R||_2;
    streaming: samples >= E / m' (from |E| <= m' |V|);  combined: the max
    of the two per-player floors.
    """
    _validate_inputs(n, eps)
    e_min = float(edge_floor) if edge_floor is not None else n / eps**4
    if model == "centralized":
        value = math.sqrt(2.0 * e_min)
    elif model == "simultaneous":
        if k is None or k < 1:
            raise ValueError("simultaneous floor needs k >= 1")
        value = math.sqrt(2.0 * e_min / k)
    elif model == "asymmetric":
        if rates is None:
            raise ValueError("asymmetric floor needs the rate vector")
        norm = math.sqrt(sum(float(r) ** 2 for r in rates))
        if norm <= 0:
            raise ValueError("at least one rate must be positive")
        value = math.sqrt(2.0 * e_min) / norm
    elif model == "streaming":
        if m_prime is None or m_prime < 1:
            raise ValueError("streaming floor needs m' >= 1")
        value = e_min / m_prime
    elif model == "simultaneous_streaming":
        if k is None or k < 1 or m_prime is None or m_prime < 1:
            raise ValueError("combined floor needs k >= 1 and m' >= 1")
        value = max(math.sqrt(2.0 * e_min / k), e_min / (m_prime * k))
    else:
        raise ValueError(f"unknown model {model!r}")
    return ConjecturedFloor(model=model, value=value, edge_floor=e_min)


# ---------------------------------------------------------------------------
# the more-edges-can-hurt example


@dataclass(frozen=True)
class CounterexampleResult:
    """A certified cycle whose hub-augmented supergraph certifies for no tau."""

    cycle: ComparisonGraph
    augmented: ComparisonGraph
    cycle_tau: float
    cycle_report: ConditionReport
    augmented_reports: dict
    augmented_ratio: float

    @property
    def augmented_fails_everywhere(self) -> bool:
        return all(not r.cond3.passed for r in self.augmented_reports.values())


def cycle_plus_hub_counterexample(n: int, eps: float, b: float,
                                  tau_grid=COARSE_TAU_GRID) -> CounterexampleResult:
    """Build a cycle of ~b n / eps^4 vertices and its hub-augmented supergraph.

    The cycle has c = 2|E| and certifies for some tau once b is large
    enough; adding one vertex's edges to all non-neighbors drives
    c/|E|^2 above 1/12, past what any tau can tolerate.  Raises
    CapacityError when no tau in the grid certifies the cycle (b too
    small).
    """
    _validate_inputs(n, eps)
    length = max(3, math.ceil(b * n / eps**4))
    cyc = make_cycle(length)
    cycle_tau = first_certified_tau(cyc.edge_count, cyc.two_path_count,
                                    tau_grid, n, eps)
    if cycle_tau is None:
        raise CapacityError(
            f"b = {b} is too small: the cycle of size {length} certifies "
            f"for no tau in the grid")
    hub = 0
    extra = [(hub, j) for j in range(2, length - 1)]
    augmented = ComparisonGraph(
        length, [tuple(e) for e in cyc.edges.tolist()] + extra)
    reports = {tau: certify_graph(augmented, tau, n, eps) for tau in tau_grid}
    ratio = augmented.two_path_count / augmented.edge_count**2
    return CounterexampleResult(
        cycle=cyc, augmented=augmented, cycle_tau=cycle_tau,
        cycle_report=certify_graph(cyc, cycle_tau, n, eps),
        augmented_reports=reports,
        augmented_ratio=ratio,
    )
