"""Tests for the workload registry and platform table (repro.workloads /
repro.estimation.platform): discovery, parameterized variants, did-you-mean errors, the
handle <-> DesignPoint identity bridge and the CLI listing/resolution paths."""

import pytest

from repro.dse.space import DesignPoint, build_space
from repro.ir import ModuleOp, verify
from repro.estimation.platform import (
    Platform,
    UnknownTargetError,
    get_platform,
    list_platforms,
)
from repro.workloads import (
    UnknownWorkloadError,
    Workload,
    get_workload,
    iter_workloads,
    list_workloads,
    register_workload,
)
from repro.workloads.registry import _REGISTRY


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


class TestDiscovery:
    def test_all_paper_workloads_registered(self):
        names = set(list_workloads())
        # Table 8 DNN zoo.
        assert {"lenet", "resnet18", "mobilenet", "zfnet", "vgg16", "yolo", "mlp"} <= names
        # Table 7 PolyBench kernels + the Listing-1 running example.
        assert {"2mm", "3mm", "atax", "bicg", "correlation", "gesummv",
                "jacobi-2d", "mvt", "seidel-2d", "symm", "syr2k", "listing1"} <= names

    def test_kind_and_tag_filters(self):
        assert all(
            get_workload(name).kind == "model" for name in list_workloads(kind="model")
        )
        polybench = list_workloads(kind="kernel", tag="polybench")
        assert "2mm" in polybench and "listing1" not in polybench
        assert list_workloads(kind="model", tag="case-study") == ["lenet"]

    def test_every_workload_builds_at_smallest_parameters(self):
        # Every registered workload must build (and, for models, trace) to a
        # verifiable linalg-level module at its smallest batch size.
        for handle in iter_workloads():
            if "batch" in handle.definition.defaults():
                handle = handle.at(batch=1)
            module = handle.build_module()
            assert isinstance(module, ModuleOp), handle.name
            assert module.functions, handle.name
            verify(module)

    def test_targets_registered(self):
        assert list_platforms() == ["pynq-z2", "zu3eg", "vu9p-slr"]
        platform = get_platform("zu3eg")
        assert isinstance(platform, Platform)
        assert platform.dsps == 360
        custom = Platform("custom", luts=1, ffs=1, dsps=1, bram_18k=1)
        assert get_platform(custom) is custom


# ---------------------------------------------------------------------------
# Parameterized variants and id round-trips
# ---------------------------------------------------------------------------


class TestParameterization:
    def test_batch_variant_roundtrips(self):
        handle = get_workload("resnet18@batch=4")
        assert handle.params["batch"] == 4
        assert handle.workload_id == "resnet18@batch=4"
        assert get_workload(handle.workload_id) == handle

    def test_kernel_parameter_variant(self):
        handle = get_workload("2mm@n=16")
        assert handle.params["n"] == 16
        module = handle.build_module()
        assert isinstance(module, ModuleOp)

    def test_default_parameters_print_bare(self):
        assert get_workload("resnet18").workload_id == "resnet18"
        assert get_workload("resnet18@batch=1").workload_id == "resnet18"

    def test_legacy_kind_qualified_ids(self):
        assert get_workload("model:lenet@4").params["batch"] == 4
        assert get_workload("kernel:atax").name == "atax"
        with pytest.raises(UnknownWorkloadError):
            get_workload("netlist:atax")
        # Kind mismatch: lenet is a model, not a kernel.
        with pytest.raises(UnknownWorkloadError):
            get_workload("kernel:lenet")

    def test_unknown_parameter_and_bad_value(self):
        with pytest.raises(UnknownWorkloadError, match="parameter"):
            get_workload("resnet18@bathc=4")
        with pytest.raises(ValueError, match="int"):
            get_workload("resnet18@batch=huge")

    @pytest.mark.parametrize(
        "workload_id, named",
        [
            ("2mm@n=8,n=16", "'n'"),
            ("lenet@4,8", "bare value"),
            ("lenet@4,batch=8", "'batch'"),
            ("2mm@=5", "empty parameter name"),
        ],
    )
    def test_a_parameter_may_be_named_once(self, workload_id, named):
        # Regression: these were silently last-wins (2mm@n=16, lenet@batch=8)
        # and "@=5" passed as the positional shorthand.
        with pytest.raises(ValueError, match=named):
            get_workload(workload_id)

    def test_kernel_spec_ignores_batch_like_legacy_build_path(self):
        # The pre-registry kernel frontend silently ignored a point's batch
        # field; resolving the point's handle must preserve that.
        handle = DesignPoint("kernel", "atax", batch=2).workload_spec()
        assert handle.build_module().functions
        assert handle.params == {"n": 40}

    def test_shape_coupled_ctor_params_are_not_exposed(self):
        # mlp's in_features must match the registered input_shape, so only
        # num_classes is addressable (see the expose= whitelist).
        handle = get_workload("mlp")
        assert "in_features" not in handle.definition.defaults()
        assert get_workload("mlp@num_classes=5").build_module().functions
        with pytest.raises(UnknownWorkloadError):
            get_workload("mlp@in_features=512")

    def test_spec_bridge_roundtrips(self):
        handle = get_workload("resnet18@batch=4")
        point = DesignPoint.for_workload(handle)
        assert point == DesignPoint(workload_kind="model", workload="resnet18", batch=4)
        assert point.workload_spec() == handle
        kernel = get_workload("2mm@n=16")
        point = DesignPoint.for_workload(kernel)
        assert point.workload_params == (("n", 16),)
        assert point.workload_spec().build_module().functions
        assert point.workload_spec() == kernel


# ---------------------------------------------------------------------------
# Did-you-mean errors
# ---------------------------------------------------------------------------


class TestSuggestions:
    def test_unknown_workload_suggests_closest(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            get_workload("resnet8")
        assert "resnet18" in str(excinfo.value)
        assert "available" in str(excinfo.value)
        assert "resnet18" in excinfo.value.suggestions
        # Still a KeyError for pre-registry callers.
        assert isinstance(excinfo.value, KeyError)

    def test_unknown_target_suggests_closest(self):
        with pytest.raises(UnknownTargetError) as excinfo:
            get_platform("zu3egg")
        assert "zu3eg" in str(excinfo.value)
        assert excinfo.value.suggestions == ["zu3eg", "zu3"]
        assert isinstance(excinfo.value, KeyError)

    def test_target_aliases_resolve(self):
        assert get_platform("vu9p").name == "vu9p-slr"
        assert get_platform("pynq").name == "pynq-z2"

    def test_legacy_build_entry_points_raise_keyerror(self):
        # The kind-qualified spellings the old per-frontend builders mapped to.
        with pytest.raises(KeyError):
            get_workload("model:resnet8")
        with pytest.raises(KeyError):
            get_workload("atax", kind="model")
        with pytest.raises(KeyError):
            get_workload("kernel:ataxx")


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


class TestRegistration:
    def test_register_and_resolve_custom_kernel(self):
        from repro.frontend.cpp import KernelBuilder

        @register_workload("copy-rows", kind="kernel", tags=("custom",))
        def build_copy(n: int = 8) -> ModuleOp:
            kb = KernelBuilder("copy_rows")
            kb.add_input("src", (n, n))
            kb.add_output("dst", (n, n))
            with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
                kb.store("dst", [i, j], kb.load("src", [i, j]))
            return kb.finish()

        try:
            handle = get_workload("copy-rows@n=4")
            assert handle.params == {"n": 4}
            assert handle.build_module().functions
            # Registered names are immediately sweepable by DSE.
            space = build_space("small", suite=["copy-rows@n=4"])
            assert len(space) > 0
            # Spawn-mode workers replay custom registrations by importing
            # the registering module; built-ins are excluded.
            from repro.workloads import source_modules

            modules = source_modules(["copy-rows", "2mm", "lenet"])
            assert modules == [build_copy.__module__]
        finally:
            _REGISTRY.pop("copy-rows", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("lenet", kind="model", input_shape=(1, 28, 28))(
                type("Fake", (), {})
            )

    def test_workload_handles_are_hashable_and_comparable(self):
        a = get_workload("lenet").at(batch=2)
        b = get_workload("lenet@batch=2")
        assert a == b and hash(a) == hash(b)
        assert isinstance(a, Workload)


# ---------------------------------------------------------------------------
# DSE integration: stable point keys
# ---------------------------------------------------------------------------


class TestDesignPointBridge:
    def test_for_workload_matches_field_construction(self):
        by_handle = DesignPoint.for_workload("2mm", platform="zu3eg")
        by_fields = DesignPoint(workload_kind="kernel", workload="2mm", platform="zu3eg")
        assert by_handle == by_fields
        assert by_handle.key() == by_fields.key()

    def test_every_handle_roundtrips_through_a_point(self):
        # Default binding, and every declared parameter off its default.
        handles = list(iter_workloads())
        assert len(handles) == 19
        for handle in handles:
            bumped = {k: v + 1 for k, v in handle.definition.defaults().items()}
            for variant in (handle, handle.at(**bumped)):
                point = DesignPoint.for_workload(variant)
                assert point.workload_spec() == variant, variant.workload_id
                assert DesignPoint(**point.to_dict()) == point

    def test_point_labels_are_pinned(self):
        # Record labels (and the perf golden digests built from them) spell
        # the workload from the point's own fields: name@bN+kV.
        label = DesignPoint.for_workload("2mm@n=16", platform="zu3eg").label()
        assert label == "2mm+n16/zu3eg/pf32/t16/f2/ii1"
        label = DesignPoint.for_workload("lenet@batch=4", platform="zu3eg").label()
        assert label == "lenet@b4/zu3eg/pf32/t16/f2/ii1"
        label = DesignPoint.for_workload("yolo@batch=2,num_anchors=3").label()
        assert label.startswith("yolo@b2+num_anchors3/")

    def test_unparameterized_points_keep_legacy_keys(self):
        # The QoR-cache stability contract: workload_params is omitted from
        # the hashed dict whenever it is empty.
        point = DesignPoint(workload_kind="kernel", workload="2mm")
        assert "workload_params" not in point.to_dict()
        roundtrip = DesignPoint(**point.to_dict())
        assert roundtrip == point and roundtrip.key() == point.key()

    def test_parameterized_points_roundtrip(self):
        import json

        point = DesignPoint.for_workload("2mm@n=16", platform="zu3eg")
        data = json.loads(json.dumps(point.to_dict()))
        roundtrip = DesignPoint(**data)
        assert roundtrip == point and roundtrip.key() == point.key()
        assert roundtrip.workload_params == (("n", 16),)
        assert roundtrip.workload_spec() == get_workload("2mm@n=16")
        assert roundtrip.key() != DesignPoint.for_workload(
            "2mm", platform="zu3eg"
        ).key()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_compiler_list_workloads_and_targets(self, capsys):
        from repro.compiler.__main__ import main

        assert main(["--list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "resnet18" in out and "2mm" in out
        assert main(["--list-targets"]) == 0
        out = capsys.readouterr().out
        assert "vu9p-slr" in out and "aliases" in out

    def test_compiler_unknown_workload_suggests(self, capsys):
        from repro.compiler.__main__ import main

        with pytest.raises(SystemExit):
            main(["--workload", "resnet8"])
        err = capsys.readouterr().err
        assert "did you mean 'resnet18'" in err

    def test_compiler_compiles_registry_id_on_alias_target(self, capsys):
        from repro.compiler.__main__ import main

        assert main(["--workload", "atax", "--target", "zu3"]) == 0
        out = capsys.readouterr().out
        assert "atax on zu3eg" in out

    def test_dse_dry_run_and_unknown_names(self, capsys):
        from repro.dse.__main__ import main

        assert main(["--space", "small", "--workload", "lenet", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "design points" in out and "lenet" in out
        with pytest.raises(SystemExit):
            main(["--workload", "lenut", "--dry-run"])
        assert "did you mean 'lenet'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--platform", "vu9q", "--dry-run"])
        assert "did you mean" in capsys.readouterr().err
