"""repro — reproduction of *Distributed Construction of Light Networks*
(Elkin, Filtser, Neiman; PODC 2020).

Public API highlights
---------------------
Graphs & model
    :class:`repro.graphs.WeightedGraph`, the generators in
    :mod:`repro.graphs`, and the CONGEST simulator in :mod:`repro.congest`.
The paper's constructions (Table 1)
    :func:`repro.core.light_spanner`   — (2k−1)(1+ε)-spanner, lightness
    O(k·n^{1/k})  (§5);
    :func:`repro.core.shallow_light_tree` — (1+O(1)/(α−1), α)-SLT (§4);
    :func:`repro.core.build_net`       — ((1+δ)Δ, Δ/(1+δ))-net (§6);
    :func:`repro.core.doubling_spanner` — (1+ε)-spanner for doubling
    graphs (§7);
    :func:`repro.core.estimate_mst_weight_via_nets` — the §8 reduction.
Measurement
    :mod:`repro.analysis` — stretch / lightness / validity certificates.
Serving
    :mod:`repro.oracle` — preprocess-once/query-many distance oracle
    over any constructed structure (exact-on-structure, so the paper's
    stretch bound carries over to every answer).

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from __future__ import annotations

import importlib
from typing import Any, List

__version__ = "1.0.0"

#: public name -> the module that defines it; each loads on first use
#: (PEP 562), so ``import repro.serve.daemon`` pays for no construction
_EXPORTS = {
    "WeightedGraph": "repro.graphs",
    "light_spanner": "repro.core",
    "shallow_light_tree": "repro.core",
    "slt_base": "repro.core",
    "build_net": "repro.core",
    "greedy_net": "repro.core",
    "doubling_spanner": "repro.core",
    "estimate_mst_weight_via_nets": "repro.core",
    "certify_edge_stretch": "repro.analysis",
    "lightness": "repro.analysis",
    "max_edge_stretch": "repro.analysis",
    "max_pairwise_stretch": "repro.analysis",
    "root_stretch": "repro.analysis",
    "DistanceOracle": "repro.oracle",
    "build_oracle": "repro.oracle",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
