"""Array-native evaluation core (compiled graph + mapping tables).

``compile_graph`` lowers a DNN once into flat numpy tables;
:class:`CompiledEval` builds per-layer traffic blocks over them and
:mod:`repro.compiled.batch` folds and finalizes any number of mappings
per numpy call — the one compiled route, bit-identical to the object
reference path.  See :mod:`repro.compiled.evalcore` for the contract.
"""

from repro.compiled.evalcore import CompiledEval, CompiledLayer
from repro.compiled.graph import CompiledGraph, compile_graph

__all__ = [
    "CompiledEval",
    "CompiledGraph",
    "CompiledLayer",
    "compile_graph",
]
