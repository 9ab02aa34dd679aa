"""Rooted edge-labeled directed graphs (sigma-structures).

The paper models semistructured data as a rooted, edge-labeled,
directed graph — formally a first-order structure over a relational
signature ``sigma = (r, E)`` with a constant ``r`` (the root) and a
finite set ``E`` of binary relation symbols (the edge labels).  This
package provides:

* :class:`~repro.graph.signature.Signature` — the vocabulary;
* :class:`~repro.graph.structure.Graph` — a mutable sigma-structure
  with path evaluation and reachability queries;
* builders for the paper's running examples and synthetic workloads;
* JSON-style serialization and DOT export.
"""

from repro.graph.signature import Signature
from repro.graph.structure import Graph
from repro.graph.builders import (
    figure1_graph,
    from_nested_dict,
    line_graph,
    random_graph,
)

__all__ = [
    "Signature",
    "Graph",
    "figure1_graph",
    "from_nested_dict",
    "line_graph",
    "random_graph",
]
