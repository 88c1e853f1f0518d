"""Weight-cascade edge weights (Section 5.1).

The paper's unweighted networks receive weights from the weighted
cascade model of Kempe et al. [19]: the propagation probability of edge
``(u, v)`` is ``pp(u, v) = 1/d(v)`` -- the paper uses the *out*-degree
of ``u`` instead -- and, following Chen et al. [9], the edge weight is
``-log pp(u, v)`` so that minimum-total-weight structures correspond to
maximum-influence structures.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph

#: Degree-1 endpoints would weigh ``-log 1 = 0``; see
#: :func:`weight_cascade_weights`.
WEIGHT_FLOOR = math.log(2.0) / 64.0


def _static_pairs(graph: TemporalGraph, use_out_degree: bool) -> Tuple[Any, Any, Any]:
    """``(store, pairs, degree)`` over the store's id columns.

    ``pairs`` are the distinct static pairs encoded as ``u * n + v``
    and ``degree`` the static out-degree (in-degree) per vertex id.
    """
    from repro.temporal.columnar import sorted_distinct

    store = graph.columnar()
    n = store.num_vertices
    pairs = sorted_distinct(store.sources * n + store.targets)
    ends = pairs // n if use_out_degree else pairs % n
    return store, pairs, np.bincount(ends, minlength=n)


def _cascade(degrees: Any) -> Any:
    """``max(log d, floor)`` per entry of an int array, as float64.

    ``math.log`` runs once per distinct degree and its floats are
    gathered (numpy's ``log`` need not match libm to the last bit);
    float64 holds them exactly.  Read-only, so a store built from the
    column shares it.
    """
    distinct, inverse = np.unique(degrees, return_inverse=True)
    table = np.fromiter(
        (max(math.log(d), WEIGHT_FLOOR) for d in distinct.tolist()),
        dtype=np.float64,
        count=len(distinct),
    )
    column = table[inverse.reshape(-1)]
    column.flags.writeable = False
    return column


def weight_cascade_weights(
    graph: TemporalGraph,
    use_out_degree: bool = True,
) -> Dict[Tuple[Vertex, Vertex], float]:
    """Static ``(u, v) -> -log(1/deg)`` weight map for ``graph``.

    Parameters
    ----------
    graph:
        The unweighted temporal graph.
    use_out_degree:
        Paper default: the out-degree of the *source* endpoint.  Set to
        False for the original weighted-cascade in-degree of the target.

    Degrees are static (distinct neighbours), so parallel temporal edges
    share one weight.  Degree-1 endpoints would give ``-log 1 = 0``; a
    zero-weight floor of ``log 2 / 64`` keeps the DST densities finite
    and strictly positive, matching the strictly positive costs of the
    paper's real datasets.
    """
    store, pairs, degree = _static_pairs(graph, use_out_degree)
    n = store.num_vertices
    u, v = pairs // n, pairs % n
    weights = _cascade(degree[u] if use_out_degree else degree[v])
    labels = store.vertex_labels
    return {
        (labels[a], labels[b]): w
        for a, b, w in zip(u.tolist(), v.tolist(), weights.tolist())
    }


def apply_weight_cascade(graph: TemporalGraph, use_out_degree: bool = True) -> TemporalGraph:
    """``graph`` with weight-cascade weights applied to every edge.

    The same weights as ``graph.with_weights(weight_cascade_weights(
    graph))``, computed per edge from the store's id columns without the
    pair map.
    """
    store, _, degree = _static_pairs(graph, use_out_degree)
    ends = store.sources if use_out_degree else store.targets
    return graph.with_weight_column(_cascade(degree[ends]))
