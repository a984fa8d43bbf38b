"""Spans around the calls into each layer of matchkneser, recorded from outside.

The package itself is not edited: the tracer swaps module attributes for timing
wrappers, so a call that one layer makes into another (``turan`` calling
``graphs.has_r_matching``, ``coloring.chromatic_number`` calling
``is_k_colorable``) goes through a wrapper that records a span. Spans live in
flat arrays while the run goes on and are written out once it ends.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def _found(result: bool) -> str:
    return "yes" if result else "no"


def _colored(result: tuple | None) -> str:
    return "no" if result is None else "yes"


# (module whose global is replaced, global name, span name, outcome classifier)
# Each entry is a call that crosses from one layer into another inside the
# package. The calls the benchmark itself makes into a layer are wrapped by
# run.py with ``Tracer.wrap``.
INNER_CALLS = (
    ("kneser", "iter_matchings", "graphs.iter_matchings", None),
    ("kneser", "make_graph", "graphs.make_graph", None),
    ("homcert", "iter_matchings", "graphs.iter_matchings", None),
    ("turan", "has_r_matching", "graphs.has_r_matching", _found),
    ("turan", "first_matching", "graphs.first_matching", None),
    ("turan", "remove_edges", "graphs.remove_edges", None),
    ("homcert", "kneser_graph", "kneser.kneser_graph", None),
    ("homcert", "chromatic_number", "coloring.chromatic_number", None),
    ("coloring", "is_k_colorable", "coloring.is_k_colorable", _colored),
    ("coloring", "greedy_clique", "coloring.greedy_clique", None),
    ("coloring", "check_coloring", "coloring.check_coloring", None),
    ("homcert", "forward_map", "homcert.forward_map", None),
    ("homcert", "backward_map", "homcert.backward_map", None),
)
GENERATORS = {"graphs.iter_matchings"}

# Per-layer metrics: name -> (unit, better). The order is the report order.
PER_LAYER = {
    "graphs.enumerate_s": ("s", "lower"),
    "graphs.matchings": ("count", "lower"),
    "graphs.has_r_matching_calls": ("count", "lower"),
    "graphs.has_r_matching_s": ("s", "lower"),
    "graphs.first_matching_s": ("s", "lower"),
    "graphs.remove_edges_s": ("s", "lower"),
    "graphs.make_graph_s": ("s", "lower"),
    "kneser.build_s": ("s", "lower"),
    "kneser.build_self_s": ("s", "lower"),
    "kneser.vertices": ("count", "lower"),
    "kneser.edges": ("count", "lower"),
    "kneser.edge_share": ("ratio", "higher"),
    "kneser.kneser_graph_s": ("s", "lower"),
    "coloring.chromatic_number_s": ("s", "lower"),
    "coloring.is_k_colorable_calls": ("count", "lower"),
    "coloring.exhaustion_s": ("s", "lower"),
    "coloring.final_k_s": ("s", "lower"),
    "coloring.greedy_clique_s": ("s", "lower"),
    "coloring.check_coloring_s": ("s", "lower"),
    "turan.min_deletion_set_s": ("s", "lower"),
    "turan.self_s": ("s", "lower"),
    "turan.nodes": ("count", "lower"),
    "turan.leaves": ("count", "lower"),
    "turan.branchings": ("count", "lower"),
    "homcert.certify_family_s": ("s", "lower"),
    "homcert.self_s": ("s", "lower"),
    "homcert.forward_map_calls": ("count", "lower"),
    "homcert.backward_map_calls": ("count", "lower"),
    "homcert.pairs_checked": ("count", "higher"),
    "homcert.pair_coverage": ("ratio", "higher"),
    "families.generate_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span store: one row per wrapped call (or generator step).

    A row holds the span's name id, its parent row (-1 at top level) and its
    start and end on ``perf_counter``. Counters hold sizes read off results
    (vertices, edges, pairs) for the current segment.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        row = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(row)
        return row

    def wrap(self, span: str, fn: Callable, outcome: Callable | None = None,
             count: Callable | None = None) -> Callable:
        """``fn`` timed as span ``span`` (renamed ``span:<outcome>`` by result)."""

        nid = self._id(span)
        ids = {}
        if outcome is not None:
            ids = {"yes": self._id(span + ":yes"), "no": self._id(span + ":no")}

        def traced(*args: Any, **kwargs: Any) -> Any:
            row = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[row] = t0
                self.end[row] = t1
            if outcome is not None:
                self.name[row] = ids[outcome(result)]
            if count is not None:
                for key, value in count(result, *args).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def wrap_generator(self, span: str, fn: Callable) -> Callable:
        """``fn`` returns an iterator; each step is timed as one span ``span``."""

        nid = self._id(span)

        def traced(*args: Any, **kwargs: Any):
            it = iter(fn(*args, **kwargs))
            while True:
                row = self._open(nid)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    self._stack.pop()
                    self.start[row] = t0
                    self.end[row] = t1
                self.counters["graphs.matchings"] = self.counters.get("graphs.matchings", 0) + 1
                yield item

        return traced

    def install(self, modules: dict[str, Any]) -> None:
        """Replace each cross-layer call in ``INNER_CALLS`` by a timing wrapper."""

        for mod_name, attr, span, outcome in INNER_CALLS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            if span in GENERATORS:
                setattr(mod, attr, self.wrap_generator(span, original))
            else:
                setattr(mod, attr, self.wrap(span, original, outcome))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def mark(self) -> int:
        """Start a new segment: returns the first row of it and clears the counters."""

        self.counters = {}
        return len(self.name)

    def totals(self, first: int, last: int | None = None) -> dict[str, list[float]]:
        """Per span name over rows ``first..last``: [calls, total s, self s].

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous and single-threaded, so children
        nest inside their parent and never overlap one another.
        """

        last = len(self.name) if last is None else last
        cover = [0.0] * (last - first)
        out: dict[str, list[float]] = {}
        for row in range(last - 1, first - 1, -1):
            dur = self.end[row] - self.start[row]
            entry = out.setdefault(self.names[self.name[row]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - cover[row - first]
            par = self.parent[row]
            if par >= first:
                cover[par - first] += dur
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated ``row parent name start end`` lines."""

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("row\tparent\tname\tstart\tend\n")
            for row in range(len(self.name)):
                fh.write(f"{row}\t{self.parent[row]}\t{self.names[self.name[row]]}\t"
                         f"{self.start[row]:.9f}\t{self.end[row]:.9f}\n")


def layer_metrics(totals: dict[str, list[float]], counters: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its span totals and counters."""

    def calls(*names: str) -> float:
        return sum(totals[n][0] for n in names if n in totals)

    def busy(*names: str) -> float:
        return sum((totals[n][1] for n in names if n in totals), 0.0)

    def own(name: str) -> float:
        return totals[name][2] if name in totals else 0.0

    oracle = ("graphs.has_r_matching:yes", "graphs.has_r_matching:no")
    colorable = ("coloring.is_k_colorable:yes", "coloring.is_k_colorable:no")
    pairs_tested = counters.get("kneser.pairs_tested", 0)
    all_pairs = counters.get("homcert.all_pairs", 0)
    return {
        "graphs.enumerate_s": busy("graphs.iter_matchings"),
        "graphs.matchings": counters.get("graphs.matchings", 0),
        "graphs.has_r_matching_calls": calls(*oracle),
        "graphs.has_r_matching_s": busy(*oracle),
        "graphs.first_matching_s": busy("graphs.first_matching"),
        "graphs.remove_edges_s": busy("graphs.remove_edges"),
        "graphs.make_graph_s": busy("graphs.make_graph"),
        "kneser.build_s": busy("kneser.build_matching_kneser"),
        "kneser.build_self_s": own("kneser.build_matching_kneser"),
        "kneser.vertices": counters.get("kneser.vertices", 0),
        "kneser.edges": counters.get("kneser.edges", 0),
        "kneser.edge_share": counters.get("kneser.edges", 0) / pairs_tested if pairs_tested else 0.0,
        "kneser.kneser_graph_s": busy("kneser.kneser_graph"),
        "coloring.chromatic_number_s": busy("coloring.chromatic_number"),
        "coloring.is_k_colorable_calls": calls(*colorable),
        "coloring.exhaustion_s": busy("coloring.is_k_colorable:no"),
        "coloring.final_k_s": busy("coloring.is_k_colorable:yes"),
        "coloring.greedy_clique_s": busy("coloring.greedy_clique"),
        "coloring.check_coloring_s": busy("coloring.check_coloring"),
        "turan.min_deletion_set_s": busy("turan.min_deletion_set"),
        "turan.self_s": own("turan.min_deletion_set"),
        "turan.nodes": calls(*oracle),
        "turan.leaves": calls("graphs.has_r_matching:no"),
        "turan.branchings": calls("graphs.first_matching"),
        "homcert.certify_family_s": busy("homcert.certify_family"),
        "homcert.self_s": own("homcert.certify_family"),
        "homcert.forward_map_calls": calls("homcert.forward_map"),
        "homcert.backward_map_calls": calls("homcert.backward_map"),
        "homcert.pairs_checked": counters.get("homcert.pairs_checked", 0),
        "homcert.pair_coverage": counters.get("homcert.pairs_checked", 0) / all_pairs if all_pairs else 0.0,
    }
