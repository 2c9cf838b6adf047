"""Canonical digest regression tests.

The store is content-addressed, so digests must be stable across
processes, field ordering, cosmetic names and float-format drift — and
must *change* whenever anything that affects the evaluation changes.
"""

from dataclasses import replace

import pytest

from repro.arch import g_arch
from repro.campaign import keys as ck
from repro.core.sa import SASettings
from repro.dse.objective import OBJECTIVE_EDP, OBJECTIVE_MCED
from repro.units import GB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


def tiny_graph(name="tiny", n=2):
    g = DNNGraph(name)
    prev = None
    for i in range(n):
        g.add_layer(
            Layer(f"l{i}", LayerType.CONV, out_h=8, out_w=8, out_k=16,
                  in_c=3 if prev is None else 16, kernel_r=3, kernel_s=3,
                  pad_h=1, pad_w=1),
            inputs=[prev] if prev else None,
        )
        prev = f"l{i}"
    return g


class TestArchDigest:
    def test_with_name_rename_keeps_digest(self):
        a = g_arch()
        assert ck.arch_digest(a) == ck.arch_digest(a.with_name("renamed"))
        assert ck.arch_digest(a) == ck.arch_digest(a.with_name(""))

    def test_replace_identical_keeps_digest(self):
        a = g_arch()
        assert ck.arch_digest(a) == ck.arch_digest(replace(a))

    def test_float_format_drift_keeps_digest(self):
        """256.0 * GB (float) and int(256 * GB) must digest the same."""
        a = g_arch()
        drifted = replace(
            a,
            dram_bw=float(a.dram_bw),
            noc_bw=int(a.noc_bw),
            glb_bytes=a.glb_bytes,
        )
        assert ck.arch_digest(a) == ck.arch_digest(drifted)

    def test_int_float_equivalence_both_directions(self):
        a = replace(g_arch(), dram_bw=256 * GB)
        b = replace(g_arch(), dram_bw=256.0 * GB)
        assert ck.arch_digest(a) == ck.arch_digest(b)

    def test_real_change_changes_digest(self):
        a = g_arch()
        assert ck.arch_digest(a) != ck.arch_digest(
            replace(a, noc_bw=a.noc_bw * 2)
        )

    def test_digest_is_hex_sha256(self):
        d = ck.arch_digest(g_arch())
        assert len(d) == 64
        int(d, 16)


class TestCanonicalJson:
    def test_key_order_ignored(self):
        assert ck.content_digest({"a": 1, "b": 2}) == ck.content_digest(
            {"b": 2, "a": 1}
        )

    def test_tuple_list_equivalent(self):
        assert ck.content_digest((1, 2)) == ck.content_digest([1, 2])

    def test_bool_is_not_number(self):
        assert ck.content_digest(True) != ck.content_digest(1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ck.content_digest(float("nan"))

    def test_infinity_is_digestible_and_signed(self):
        """Cost models use inf tier bounds; digests must accept them."""
        assert ck.content_digest(float("inf")) != ck.content_digest(
            float("-inf")
        )
        assert ck.content_digest(float("inf")) == ck.content_digest(
            float("inf")
        )

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            ck.content_digest(object())


class TestWorkloadAndSettingsDigests:
    def test_graph_digest_stable_and_shape_sensitive(self):
        assert ck.graph_digest(tiny_graph()) == ck.graph_digest(tiny_graph())
        assert ck.graph_digest(tiny_graph(n=2)) != ck.graph_digest(
            tiny_graph(n=3)
        )

    def test_batch_matters(self):
        g = tiny_graph()
        assert ck.workload_digest(g, 1) != ck.workload_digest(g, 64)

    def test_settings_seed_matters(self):
        assert ck.settings_digest(SASettings(seed=0)) != ck.settings_digest(
            SASettings(seed=1)
        )

    def test_objective_name_is_cosmetic(self):
        a = ck.settings_digest(SASettings(), objective=OBJECTIVE_MCED)
        b = ck.settings_digest(
            SASettings(), objective=replace(OBJECTIVE_MCED, name="renamed")
        )
        assert a == b
        assert a != ck.settings_digest(SASettings(), objective=OBJECTIVE_EDP)

    @pytest.mark.parametrize(
        "field", ["population", "tempering", "proposal_batch"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_search_width_below_one_rejected(self, field, value):
        """Widths below 1 would run the serial walk under a digest that
        differs from the defaults, so stored results would never serve
        them; settings and CLI reject them instead."""
        from repro.cli.main import main
        from repro.errors import SearchError

        with pytest.raises(SearchError, match=field):
            SASettings(iterations=40, **{field: value})
        flag = "--" + field.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["map", "--model", "TF", "--iters", "1", flag, str(value)])
        assert exc.value.code == 2

    def test_candidate_key_covers_workload_order(self):
        arch = g_arch()
        sa = SASettings(iterations=4)
        d1 = ck.workload_digest(tiny_graph("a"), 1)
        d2 = ck.workload_digest(tiny_graph("b"), 1)
        assert ck.candidate_key(arch, [d1, d2], sa) != ck.candidate_key(
            arch, [d2, d1], sa
        )


class TestFabricDigests:
    """A fabric change is real; a fabric rename is cosmetic; records
    stored before the fabric field existed keep their digests."""

    def test_fabric_change_changes_arch_digest(self):
        from repro.fabric import apply_fabric

        a = g_arch()
        digests = {
            ck.arch_digest(apply_fabric(a, f))
            for f in ("mesh", "folded-torus", "folded-torus:yx",
                      "cmesh:c2", "ring")
        }
        assert len(digests) == 5

    def test_fabric_rename_keeps_arch_digest(self):
        from repro.fabric import FabricSpec

        a = replace(g_arch(), fabric=FabricSpec(kind="ring"))
        b = replace(g_arch(), fabric=FabricSpec(kind="ring", name="x"))
        assert ck.arch_digest(a) == ck.arch_digest(b)

    def test_named_default_fabric_digests_as_default(self):
        from repro.fabric import FabricSpec

        a = g_arch()
        named = replace(a, fabric=FabricSpec(name="just a label"))
        assert ck.arch_digest(a) == ck.arch_digest(named)

    def test_default_fabric_digest_matches_prefabric_records(self):
        """The digest of a default-fabric arch must equal the digest an
        older code version (no fabric field at all) computed."""
        from repro.io.serialization import arch_to_dict

        a = g_arch()
        data = arch_to_dict(a)
        assert "fabric" not in data  # serialized form is unchanged
        data.pop("name", None)
        assert ck.arch_digest(a) == ck.content_digest(data)

    def test_candidate_key_covers_fabric(self):
        from repro.fabric import apply_fabric

        sa = SASettings(iterations=4)
        d = ck.workload_digest(tiny_graph(), 1)
        mesh_key = ck.candidate_key(g_arch(), [d], sa)
        torus_key = ck.candidate_key(
            apply_fabric(g_arch(), "folded-torus"), [d], sa
        )
        assert mesh_key != torus_key

    def test_scenario_key_covers_fabric(self):
        from repro.fabric import apply_fabric

        g = tiny_graph()
        assert ck.scenario_key(g_arch(), g, 1, 10, 0) != ck.scenario_key(
            apply_fabric(g_arch(), "ring"), g, 1, 10, 0
        )

    def test_prefabric_store_record_loads_mesh_default(self):
        """Old candidate records (no fabric key) still load."""
        from repro.dse.explorer import CandidateResult
        from repro.cost.mc import MCReport
        from repro.fabric import DEFAULT_FABRIC
        from repro.io.serialization import (
            candidate_result_from_dict,
            candidate_result_to_dict,
        )

        result = CandidateResult(
            arch=g_arch(), mc=MCReport(1.0, 2.0, 3.0, (10.0,)),
            energy=0.5, delay=0.25, score=0.125,
        )
        record = candidate_result_to_dict(result)
        record["arch"].pop("fabric", None)  # what an old store holds
        loaded = candidate_result_from_dict(record)
        assert loaded.arch.fabric == DEFAULT_FABRIC
        assert loaded.arch == result.arch


class TestFamilies:
    def test_family_is_core_count(self):
        a = g_arch()
        assert ck.arch_family(a) == f"cores-{a.n_cores}"
        assert ck.arch_family(a) == ck.arch_family(
            replace(a, noc_bw=a.noc_bw * 2)
        )

    def test_distance_zero_for_identical(self):
        a = g_arch()
        assert ck.arch_distance(a, a) == 0.0
        assert ck.arch_distance(a, a.with_name("x")) == 0.0

    def test_distance_grows_with_bandwidth_gap(self):
        a = g_arch()
        near = replace(a, noc_bw=a.noc_bw * 2)
        far = replace(a, noc_bw=a.noc_bw * 8)
        assert 0 < ck.arch_distance(a, near) < ck.arch_distance(a, far)

    def test_fabric_change_adds_distance_but_rename_does_not(self):
        from repro.fabric import FabricSpec, apply_fabric

        a = g_arch()
        torus = apply_fabric(a, "folded-torus")
        assert ck.arch_distance(a, torus) == 2.0
        named = replace(a, fabric=FabricSpec(name="label"))
        assert ck.arch_distance(a, named) == 0.0
