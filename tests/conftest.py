import networkx as nx

from tvgsim.graphs import StaticGraph


def nx_to_static(g: "nx.Graph") -> StaticGraph:
    """Relabel an integer-node networkx graph to string ids q0, q1, ..."""
    mapping = {node: f"q{i}" for i, node in enumerate(sorted(g.nodes))}
    return StaticGraph.of(
        mapping.values(),
        [(mapping[u], mapping[v]) for (u, v) in g.edges],
    )


class ForwardingProxy:
    """Forwards to a protocol without subclassing ``Protocol``, as the
    benchmark's tracing proxy does: ``run`` does not check it, and elides
    none of its callbacks, since its handlers are plain functions."""

    def __init__(self, inner):
        self.initial_state, self.output, self.format_output = inner.initial_state, inner.output, inner.format_output
        for name in ("on_init", "on_edge_appear", "on_edge_disappear", "on_receive"):
            setattr(self, name, _forwarding(getattr(inner, name)))


def _forwarding(fn):
    return lambda *args: fn(*args)
