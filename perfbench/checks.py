"""Output checks and result digests, run outside the timed region."""

from __future__ import annotations

import hashlib


def check_mapping(graph, arch, batch: int, lmss, delay: float,
                  energy: float) -> str | None:
    """``None`` if the mapping is valid and its figures are reproduced.

    The mapping must cover the graph's layers exactly once, every group
    must pass :func:`validate_lms`, and delay and energy must equal,
    float-exactly, a re-evaluation through the uncached reference path
    ``Evaluator(arch, cache=False)``.
    """
    from repro.core.encoding import validate_lms
    from repro.errors import InvalidMappingError
    from repro.evalmodel.evaluator import Evaluator

    covered = sorted(name for lms in lmss for name in lms.group.layers)
    if covered != sorted(graph.layer_names()):
        return f"{graph.name}: mapping does not cover the graph exactly once"
    try:
        for lms in lmss:
            validate_lms(graph, lms, arch.n_cores, arch.n_dram)
    except InvalidMappingError as exc:
        return f"{graph.name}: invalid mapping: {exc}"
    ref = Evaluator(arch, cache=False).evaluate_mapping(graph, lmss, batch)
    if ref.delay != delay or ref.energy.total != energy:
        return (
            f"{graph.name}: reported delay/energy {delay!r}/{energy!r} != "
            f"reference {ref.delay!r}/{ref.energy.total!r}"
        )
    return None


def check_candidate(result, workloads) -> str | None:
    """Check every workload mapping a :class:`CandidateResult` carries."""
    from repro.io.serialization import lms_from_dict

    for wl in workloads:
        if wl.name not in result.mappings or wl.name not in result.per_workload:
            return f"{wl.name}: no mapping recorded"
        energy, delay = result.per_workload[wl.name]
        lmss = [lms_from_dict(d) for d in result.mappings[wl.name]]
        problem = check_mapping(wl.graph, result.arch, wl.batch, lmss,
                                delay, energy)
        if problem is not None:
            return problem
    return None


def candidate_fingerprint(result) -> tuple:
    """The simulated outputs of one candidate, exact to the last bit."""
    return (
        result.arch.paper_tuple(),
        tuple(
            (name, e.hex(), d.hex())
            for name, (e, d) in sorted(result.per_workload.items())
        ),
        result.mc.total.hex(),
        result.score.hex(),
    )


def digest(items) -> str:
    """SHA-256 over the ``repr`` of each item, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
