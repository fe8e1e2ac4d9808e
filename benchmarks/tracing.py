"""Benchmark-side spans around the calls into each layer of ``uncrossed``.

Nothing here changes the program: a traced run rebinds names in the calling
modules (for example ``uncrossed.oracle.trace_rotation``) to timing wrappers
and restores them afterwards. Spans live in memory as
``(name, start, end, parent, job, info)`` tuples and are written out once,
when the run ends. ``info`` carries one number per call (darts traced, bytes
parsed, a yes/no outcome) so that counts are taken where the work happens.

Every wrapped binding is listed once, in ``WRAPPED``. A binding that no
longer exists (a later refactor merged or renamed it) is reported as missing,
together with every metric that depends on it; the run itself goes on.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _darts(args, kwargs, out):
    return sum(len(r) for r in args[0].values())


def _arg_len(args, kwargs, out):
    return len(args[0])


def _out_len(args, kwargs, out):
    return len(out)


def _yes(args, kwargs, out):
    return 1 if out[0] else 0


def _counterexample(args, kwargs, out):
    return 1 if kwargs.get("counterexample") else 0


def _members(args, kwargs, out):
    return len(out.members)


# (module, attribute path as bound there, span name, info extractor)
WRAPPED = (
    ("uncrossed.cli", "run", "cli.run", None),
    ("uncrossed.graph", "Graph.__post_init__", "graph.init", None),
    ("uncrossed.constructions", "complete_graph", "graph.complete", None),
    ("uncrossed.constructions", "complete_bipartite", "graph.complete", None),
    ("uncrossed.cli", "parse_edge_list", "graph.parse", _arg_len),
    ("uncrossed.certify", "edges_connected", "graph.connected", None),
    ("uncrossed.embedding", "edges_connected", "graph.connected", None),
    ("uncrossed.embedding", "connected_components", "graph.connected", None),
    ("uncrossed.reductions", "connected_components", "graph.connected", None),
    ("uncrossed.oracle", "is_connected", "graph.connected", None),
    ("uncrossed.oracle", "edges_connected", "oracle.subset", None),
    ("uncrossed.embedding", "trace_rotation", "embedding.trace", _darts),
    ("uncrossed.oracle", "trace_rotation", "oracle.trace", _darts),
    ("uncrossed.embedding", "nx.check_planarity", "networkx.check_planarity",
     _counterexample),
    ("uncrossed.constructions", "is_outerplanar", "embedding.outerplanar", _yes),
    ("uncrossed.reductions", "is_outerplanar", "embedding.outerplanar", _yes),
    ("uncrossed.constructions", "outerplanar_extension", "embedding.extension", None),
    ("uncrossed.constructions", "bipartite_uncrossed_collection",
     "constructions.collection", None),
    ("uncrossed.constructions", "outerplanar_cover", "constructions.cover_search", None),
    ("uncrossed.constructions", "double_cycle_cover", "constructions.double_cycle", None),
    ("uncrossed.constructions", "double_cycle_cover_minus_one",
     "constructions.double_cycle", None),
    ("uncrossed.constructions", "embed_double_cycle", "constructions.double_cycle", None),
    ("uncrossed.constructions", "wheel_drawing", "constructions.wheel", None),
    ("uncrossed.cli", "verify_certificate", "certify.verify", None),
    ("uncrossed.certify", "verify_drawing", "certify.verify_drawing", None),
    ("uncrossed.cli", "parse_certificate", "certify.parse", _arg_len),
    ("uncrossed.cli", "serialize_certificate", "certify.serialize", _out_len),
    ("uncrossed.cli", "serialize_drawing", "certify.serialize", _out_len),
    ("uncrossed.oracle", "enumerate_admissible", "oracle.enumerate", _members),
    ("uncrossed.oracle", "exact_unc", "oracle.cover", None),
    ("uncrossed.reductions", "reduce_mos_to_ecr", "reductions.instance", None),
    ("uncrossed.reductions", "reduce_ot_to_unc", "reductions.instance", None),
    ("uncrossed.reductions", "ecr_forward_witness", "reductions.witness", None),
    ("uncrossed.reductions", "unc_forward_witness", "reductions.witness", None),
    ("uncrossed.cli", "render", "render.render", _out_len),
)

GRAPH_SPANS = ("graph.init", "graph.complete", "graph.parse", "graph.connected",
               "oracle.subset")
CERTIFY_SPANS = ("certify.verify", "certify.verify_drawing", "certify.parse",
                 "certify.serialize")
TRACE_SPANS = ("embedding.trace", "oracle.trace")

# metric -> (kind, span names, unit, better); kinds:
#   time   seconds inside the spans, nested repeats counted once
#   flagged_time  the same over the spans with info 1
#   calls  number of spans
#   info   sum of the spans' info numbers
#   ratio  spans with info 1 over all spans (0 when there were none)
#   self   span time minus the time covered by child spans
#   share  like time, divided by the job time of the same passes
LAYER_METRICS = {
    "embedding.outerplanar_calls": ("calls", ("embedding.outerplanar",), "count", "lower"),
    "embedding.outerplanar_s": ("time", ("embedding.outerplanar",), "s", "lower"),
    "embedding.outerplanar_yes_ratio": ("ratio", ("embedding.outerplanar",), "ratio", "higher"),
    "embedding.outerplanar_share": ("share", ("embedding.outerplanar",), "ratio", "lower"),
    "embedding.planarity_s": ("time", ("networkx.check_planarity",), "s", "lower"),
    "embedding.counterexample_calls": ("info", ("networkx.check_planarity",), "count", "lower"),
    "embedding.counterexample_s": ("flagged_time", ("networkx.check_planarity",), "s", "lower"),
    "embedding.trace_calls": ("calls", TRACE_SPANS, "count", "lower"),
    "embedding.trace_s": ("time", TRACE_SPANS, "s", "lower"),
    "embedding.trace_share": ("share", TRACE_SPANS, "ratio", "lower"),
    "embedding.darts_traced": ("info", TRACE_SPANS, "count", "lower"),
    "embedding.extension_calls": ("calls", ("embedding.extension",), "count", "lower"),
    "embedding.extension_s": ("time", ("embedding.extension",), "s", "lower"),
    "oracle.rotations_traced": ("calls", ("oracle.trace",), "count", "lower"),
    "oracle.subsets_checked": ("calls", ("oracle.subset",), "count", "lower"),
    "oracle.enumerate_s": ("time", ("oracle.enumerate",), "s", "lower"),
    "oracle.cover_s": ("time", ("oracle.cover",), "s", "lower"),
    "oracle.members": ("info", ("oracle.enumerate",), "count", "lower"),
    "graph.build_calls": ("calls", ("graph.init",), "count", "lower"),
    "graph.build_s": ("time", ("graph.init", "graph.complete"), "s", "lower"),
    "graph.connected_s": ("time", ("graph.connected", "oracle.subset"), "s", "lower"),
    "graph.parse_s": ("time", ("graph.parse",), "s", "lower"),
    "certify.verify_s": ("time", ("certify.verify", "certify.verify_drawing"), "s", "lower"),
    "certify.drawings_verified": ("calls", ("certify.verify_drawing",), "count", "lower"),
    "certify.parse_s": ("time", ("certify.parse",), "s", "lower"),
    "certify.parse_bytes": ("info", ("certify.parse",), "B", "lower"),
    "certify.serialize_s": ("time", ("certify.serialize",), "s", "lower"),
    "certify.serialize_bytes": ("info", ("certify.serialize",), "B", "lower"),
    "graph_certify.share": ("share", GRAPH_SPANS + CERTIFY_SPANS, "ratio", "lower"),
    "constructions.collection_s": ("time", ("constructions.collection",), "s", "lower"),
    "constructions.cover_search_s": ("time", ("constructions.cover_search",), "s", "lower"),
    "constructions.double_cycle_s": ("time", ("constructions.double_cycle",), "s", "lower"),
    "constructions.wheel_s": ("time", ("constructions.wheel",), "s", "lower"),
    "reductions.instance_s": ("time", ("reductions.instance",), "s", "lower"),
    "reductions.witness_s": ("time", ("reductions.witness",), "s", "lower"),
    "render.render_s": ("time", ("render.render",), "s", "lower"),
    "render.bytes": ("info", ("render.render",), "B", "lower"),
    "cli.calls": ("calls", ("cli.run",), "count", "lower"),
    "cli.self_s": ("self", ("cli.run",), "s", "lower"),
}

# the same metrics restricted to the jobs of one host class
CLASS_METRICS = {
    "search": ("embedding.outerplanar_s", "embedding.counterexample_s",
               "embedding.counterexample_calls"),
    "chain": ("embedding.outerplanar_s", "embedding.counterexample_s",
              "embedding.counterexample_calls"),
    "complete": ("embedding.trace_s", "oracle.rotations_traced", "oracle.subsets_checked"),
    "random": ("embedding.trace_s", "oracle.rotations_traced", "oracle.subsets_checked"),
}


class _Rebound:
    """Stand-in for a module bound in another module, with some names replaced."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Installs the wrappers of ``WRAPPED`` and records their spans."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                value = info(args, kwargs, out) if info is not None and out is not None else 0
                spans[idx] = (name, start, end, parent, self.job, value)

        return traced

    def install(self):
        for modname, path, name, info in WRAPPED:
            module = importlib.import_module(modname)
            head, _, attr = path.rpartition(".")
            owner = getattr(module, head, None) if head else module
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{modname}.{path}")
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, info)
            if head and not isinstance(owner, type):
                # a module bound under another name: rebind only in this caller
                setattr(module, head, _Rebound(owner, **{attr: wrapped}))
                self._undo.append((module, head, owner))
            else:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def missing_spans(self) -> set:
        gone = set(self.missing)
        return {name for modname, path, name, _ in WRAPPED if f"{modname}.{path}" in gone}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\tinfo\n")
            for name, start, end, parent, job, info in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\t{info}\n")


def _layer_values(spans: list, keep, children: dict, job_s: float, passes: int,
                  metrics) -> dict:
    """Per-pass values of ``metrics`` over the spans whose job passes ``keep``."""
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        if keep(span[4]):
            by_name[span[0]].append(i)
    out = {}
    for metric in metrics:
        kind, names = LAYER_METRICS[metric][:2]
        idx = [i for name in names for i in by_name.get(name, ())]
        if kind == "flagged_time":
            idx = [i for i in idx if spans[i][5] == 1]
        if kind == "calls":
            value = len(idx)
        elif kind == "info":
            value = sum(spans[i][5] for i in idx)
        elif kind == "ratio":
            value = sum(spans[i][5] for i in idx) / len(idx) if idx else 0.0
            out[metric] = value
            continue
        elif kind == "self":
            value = sum(spans[i][2] - spans[i][1] - children.get(i, 0.0) for i in idx)
        else:
            wanted = set(names)
            value = 0.0
            for i in idx:
                p = spans[i][3]
                while p >= 0 and spans[p][0] not in wanted:
                    p = spans[p][3]
                if p < 0:
                    value += spans[i][2] - spans[i][1]
            if kind == "share":
                out[metric] = value / job_s if job_s else 0.0
                continue
        out[metric] = value / passes
    return out


def layer_metrics(tracer: Tracer, passes: int, job_tags: dict, job_seconds: dict) -> dict:
    """Per-layer metrics of a traced run, per pass over the workload's jobs.

    ``job_tags`` maps job ids to host classes and ``job_seconds`` to the
    measured job times. Metrics whose spans are missing are left out.
    """
    spans = tracer.spans
    children: dict = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    gone = tracer.missing_spans()

    def available(metric):
        return not gone.intersection(LAYER_METRICS[metric][1])

    total_s = sum(job_seconds.values())
    out = _layer_values(spans, lambda job: job >= 0, children, total_s, passes,
                        [m for m in LAYER_METRICS if available(m)])
    for tag, metrics in CLASS_METRICS.items():
        jobs = {j for j, t in job_tags.items() if t == tag}
        tag_s = sum(s for j, s in job_seconds.items() if j in jobs)
        out[f"{tag}.job_s"] = tag_s / passes
        values = _layer_values(spans, jobs.__contains__, children, tag_s, passes,
                               [m for m in metrics if available(m)])
        out.update({f"{tag}.{m}": v for m, v in values.items()})
    return out


def layer_units() -> dict:
    """metric -> (unit, better) for every per-layer metric a traced run reports."""
    units = {m: spec[2:] for m, spec in LAYER_METRICS.items()}
    for tag, metrics in CLASS_METRICS.items():
        units[f"{tag}.job_s"] = ("s", "lower")
        units.update({f"{tag}.{m}": LAYER_METRICS[m][2:] for m in metrics})
    return units
