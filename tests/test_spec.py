"""Tests for the declarative spec layer (``repro.spec``) and its analyzer.

Three-sided coverage: every shipped component's spec round-trips against
its implementation (storage, indexing, area) across multiple library
sizings; every SPEC rule fires on a committed violation fixture; and the
spec layer's consumers (engine gate, contract harness dims, fuzzer
sizings, reproducer artifacts) honor what the specs declare.
"""

import dataclasses
import json
import pickle
import random

import pytest

from repro import cli, presets
from repro.analysis import (
    RULES,
    StimulusDims,
    check_library_specs,
    dims_for,
    to_json,
    validate_report,
)
from repro.analysis.diagnostics import REPORT_VERSION, diagnostic
from repro.analysis.lints import lint_paths
from repro.analysis.spec_check import (
    assert_full_coverage,
    check_component_spec,
    spec_coverage,
)
from repro.components.library import standard_library
from repro.kernels.engine import engine_for
from repro.spec import (
    LEGAL_SIZINGS,
    ComponentSpec,
    FieldSpec,
    INDEX_SCHEMES,
    IndexFn,
    TableSpec,
    clear_waiver,
    register_waiver,
    waiver_for,
)
from repro.synthesis.area import AreaModel, spec_area

from tests.fixtures import bad_specs

#: Three library sizings the round-trip tests sweep: the shipped Table I
#: defaults, a widened configuration, and a minimal one.
SIZINGS = [
    {},
    {
        "fetch_width": 8,
        "bim_sets": 8192,
        "btb_ways": 8,
        "gtag_history_bits": 24,
    },
    {
        "fetch_width": 2,
        "bim_sets": 1024,
        "gbim_sets": 1024,
        "lbim_sets": 128,
        "btb_sets": 128,
        "btb_ways": 1,
        "ubtb_entries": 16,
        "gtag_sets": 128,
        "gtag_history_bits": 8,
        "tourney_sets": 64,
        "loop_entries": 64,
        "perceptron_entries": 64,
    },
]

BASES = sorted(standard_library().known())


def codes(diags):
    return [d.code for d in diags]


def build(base, sizing_index=0, latency=2):
    library = standard_library(**SIZINGS[sizing_index])
    return library.factory(base)(base.lower(), latency)


# ----------------------------------------------------------------------
# The spec data model
# ----------------------------------------------------------------------
class TestSpecModel:
    def test_field_and_table_bit_totals(self):
        field = FieldSpec("ctr", 2, 4)
        assert field.total_bits == 8
        table = TableSpec("t", entries=16, fields=(field, FieldSpec("v", 1)))
        assert table.entry_bits == 9
        assert table.total_bits == 144
        assert table.breakdown_keys == ("t",)

    def test_storage_report_splits_breakdown_keys(self):
        spec = ComponentSpec(
            "X",
            tables=(
                TableSpec(
                    "t",
                    entries=4,
                    fields=(FieldSpec("f", 3),),
                    breakdown=("a", "b"),
                ),
            ),
        )
        report = spec.storage_report("x")
        assert report.sram_bits == 12
        assert report.breakdown == {"a": 6, "b": 6}
        assert sum(report.breakdown.values()) == spec.total_bits

    def test_validate_catches_structural_problems(self):
        spec = ComponentSpec(
            "",
            tables=(
                TableSpec(
                    "t",
                    entries=0,
                    fields=(),
                    kind="dram",
                    update="telepathy",
                ),
            ),
            kernel="quantum",
            n_inputs=0,
        )
        problems = spec.validate()
        assert any("name is empty" in p for p in problems)
        assert any("entries and ways" in p for p in problems)
        assert any("dram" in p for p in problems)
        assert any("telepathy" in p for p in problems)
        assert any("quantum" in p for p in problems)
        assert any("n_inputs" in p for p in problems)

    def test_index_fn_gshare_matches_scheme_formula(self):
        from repro._util import fold_history, hash_pc

        fn = IndexFn("gshare", 10, history_bits=16, fetch_width=4)
        pc, ghist = 0x4_F00D, 0xDEAD_BEEF
        expected = hash_pc(pc // 4, 10) ^ fold_history(ghist, 16, 10)
        assert fn.compute(pc, ghist) == expected

    def test_index_fn_makes_no_claim_for_cam_and_custom(self):
        assert IndexFn("none", 0).compute(0x100) is None
        assert IndexFn("custom", 8).compute(0x100) is None

    def test_waiver_registry_round_trip(self):
        with pytest.raises(ValueError):
            register_waiver("X", "SPEC006", "")
        register_waiver("SomeClass", "SPEC006", "because")
        try:
            assert waiver_for(("someclass",), "spec006") == "because"
            assert waiver_for(("Other",), "SPEC006") is None
        finally:
            clear_waiver("SomeClass", "SPEC006")
        assert waiver_for(("SomeClass",), "SPEC006") is None


# ----------------------------------------------------------------------
# Shipped library conformance (spec <-> implementation round trip)
# ----------------------------------------------------------------------
class TestLibraryConformance:
    @pytest.mark.parametrize("sizing", range(len(SIZINGS)))
    def test_library_specs_clean(self, sizing):
        library = standard_library(**SIZINGS[sizing])
        assert check_library_specs(library) == []

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("sizing", range(len(SIZINGS)))
    def test_storage_round_trip(self, base, sizing):
        component = build(base, sizing)
        spec = component.spec()
        assert spec is not None
        impl = component.storage()
        assert (spec.sram_bits, spec.flop_bits) == (
            impl.sram_bits,
            impl.flop_bits,
        )
        model = AreaModel()
        assert spec_area(spec, component.name, model) == pytest.approx(
            model.report_area(impl)
        )

    @pytest.mark.parametrize("base", BASES)
    def test_index_fn_matches_observed_indexing(self, base):
        component = build(base)
        spec = component.spec()
        rng = random.Random(f"test-spec-probe:{base}")
        probed = 0
        for table in spec.tables:
            if table.index is None or table.probe is None:
                continue
            if table.index.scheme in ("none", "custom"):
                continue
            for _ in range(8):
                pc = rng.getrandbits(26)
                ghist = rng.getrandbits(64)
                lhist = rng.getrandbits(32)
                phist = rng.getrandbits(32)
                declared = table.index.compute(pc, ghist, lhist, phist)
                observed = table.probe(component, pc, ghist, lhist, phist)
                assert declared == observed, (
                    f"{base}.{table.name}: IndexFn({table.index.scheme}) "
                    f"declared {declared}, implementation indexed {observed}"
                )
                probed += 1
        if base not in ("UBTB", "SC", "PERC"):
            assert probed, f"{base} exposed no probeable table"

    def test_meta_fields_match_declared_meta_bits(self):
        for base in BASES:
            component = build(base)
            spec = component.spec()
            assert spec.meta_bits == component.meta_bits, base

    def test_spec_coverage_is_total(self):
        covered, missing = spec_coverage()
        assert missing == []
        assert sorted(covered) == BASES
        assert_full_coverage()  # the CI gate: must not raise

    def test_history_demand_matches_top006_budget(self):
        for base in BASES:
            component = build(base)
            spec = component.spec()
            assert spec.ghist_bits == component.required_ghist_bits, base
            assert spec.lhist_bits == component.required_lhist_bits, base
            assert spec.phist_bits == component.required_phist_bits, base


# ----------------------------------------------------------------------
# Violation fixtures: every SPEC rule provably fires
# ----------------------------------------------------------------------
class TestSpecViolations:
    @pytest.mark.parametrize("code", sorted(bad_specs.SPEC_VIOLATIONS))
    def test_each_violation_fixture_fires_its_rule(self, code):
        cls = bad_specs.SPEC_VIOLATIONS[code]
        diags = check_component_spec(cls("liar", 2))
        assert code in codes(diags), (
            f"{cls.__name__} should trip {code}, got {codes(diags)}"
        )

    @pytest.mark.parametrize("code", sorted(bad_specs.SPEC_VIOLATIONS))
    def test_violations_are_specific(self, code):
        # A fixture must not spray unrelated diagnostics: each one trips
        # only the rule it was built to violate.
        cls = bad_specs.SPEC_VIOLATIONS[code]
        diags = check_component_spec(cls("liar", 2))
        assert set(codes(diags)) == {code}, (
            f"{cls.__name__}: expected only {code}, got {codes(diags)}"
        )

    def test_declared_kernel_without_implementation_fires(self):
        diags = check_component_spec(bad_specs.KernelWithoutImpl("liar", 2))
        assert set(codes(diags)) == {"SPEC006"}
        assert "columnar_kernel() returned None" in diags[0].message

    def test_unwaived_closed_form_fires_until_waived(self):
        component = bad_specs.UnwaivedClosedForm("liar", 2)
        diags = check_component_spec(component)
        assert set(codes(diags)) == {"SPEC006"}
        assert "waiver" in diags[0].message
        register_waiver("UnwaivedClosedForm", "SPEC006", "fixture waiver")
        try:
            assert check_component_spec(component) == []
        finally:
            clear_waiver("UnwaivedClosedForm", "SPEC006")

    def test_crashing_spec_is_spec008(self):
        diags = check_component_spec(bad_specs.CrashingSpec("liar", 2))
        assert codes(diags) == ["SPEC008"]
        assert "spec() raised" in diags[0].message

    def test_bad_specs_surface_through_check_library_specs(self):
        library = standard_library().with_params(
            "LIAR",
            lambda name, lat: bad_specs.LyingGeometry(name, lat),
        )
        assert "SPEC002" in codes(check_library_specs(library))


# ----------------------------------------------------------------------
# Spec consumers: contract-harness dims and the engine gate
# ----------------------------------------------------------------------
class TestSpecConsumers:
    def test_dims_default_without_spec(self):
        component = bad_specs.MissingSpec("x", 2)
        assert dims_for(component) == StimulusDims()

    def test_dims_widen_to_index_plus_tag_reach(self):
        btb = build("BTB")
        dims = dims_for(btb)
        spec = btb.spec()
        tags = next(t for t in spec.tables if t.name == "tags")
        tag_bits = sum(f.bits for f in tags.fields if f.name == "tag")
        assert dims.pc_bits == max(20, tags.index.index_bits + tag_bits)
        assert dims.fetch_width == btb.fetch_width

    def test_dims_cover_declared_history_demand(self):
        for base in BASES:
            component = build(base)
            dims = dims_for(component)
            spec = component.spec()
            assert dims.ghist_bits >= spec.ghist_bits
            assert dims.lhist_bits >= spec.lhist_bits
            assert dims.phist_bits >= spec.phist_bits

    def test_engine_gate_falls_back_for_specless_component(self):
        # A spec-less third-party component makes no declaration, so the
        # gate falls back to kernel presence (the pre-spec behavior).
        predictor = presets.build("b2")
        assert engine_for(predictor) is not None
        predictor.components[0].spec = lambda: None
        assert engine_for(predictor) is not None

    def test_engine_gate_rejects_spec_declaring_no_kernel(self):
        predictor = presets.build("b2")
        component = predictor.components[0]
        honest = component.spec()
        component.spec = lambda: dataclasses.replace(honest, kernel="none")
        assert engine_for(predictor) is None


# ----------------------------------------------------------------------
# Fuzzer integration: sizings, factories, reproducers, the spec oracle
# ----------------------------------------------------------------------
class TestFuzzIntegration:
    def test_random_library_params_are_spec_legal(self):
        from repro.fuzz.generate import random_library_params

        seen_nonempty = False
        for seed in range(16):
            params = random_library_params(random.Random(seed))
            for name, value in params:
                assert name in LEGAL_SIZINGS
                assert value in LEGAL_SIZINGS[name]
            seen_nonempty = seen_nonempty or bool(params)
            again = random_library_params(random.Random(seed))
            assert again == params  # pure function of the stream
        assert seen_nonempty

    def test_topology_factory_applies_library_params(self):
        from repro.fuzz.generate import TopologyFactory

        factory = TopologyFactory(
            "GTAG3 > BTB2 > BIM2", (("bim_sets", 1024),)
        )
        predictor = factory()
        assert any(
            getattr(c, "n_sets", None) == 1024 for c in predictor.components
        )
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory

    def test_spec_oracle_clean_on_sized_topology(self, tmp_path):
        from repro.fuzz.generate import TopologyFactory, random_program_spec
        from repro.fuzz.oracles import FuzzCase, run_oracle

        case = FuzzCase(
            case_id=0,
            seed=0,
            label="sized",
            predictor_spec=TopologyFactory(
                "GTAG3 > BTB2 > BIM2", (("bim_sets", 2048), ("btb_ways", 2))
            ),
            topology="GTAG3 > BTB2 > BIM2",
            program_spec=random_program_spec(random.Random(0)),
        )
        assert run_oracle("spec", case, tmp_path) == []

    def test_spec_oracle_fires_on_lying_component(self, tmp_path):
        from repro.fuzz.generate import random_program_spec
        from repro.fuzz.oracles import FuzzCase, run_oracle

        def lying_predictor():
            from repro.core.composer import compose

            library = standard_library().with_params(
                "LIAR",
                lambda name, lat: bad_specs.LyingGeometry(name, lat),
            )
            return compose("LIAR2 > BTB2 > BIM2", library=library)

        case = FuzzCase(
            case_id=0,
            seed=0,
            label="liar",
            predictor_spec=lying_predictor,
            topology="LIAR2 > BTB2 > BIM2",
            program_spec=random_program_spec(random.Random(0)),
        )
        mismatches = run_oracle("spec", case, tmp_path)
        assert mismatches
        assert mismatches[0].oracle == "spec"
        assert any("SPEC002" in str(m.actual) for m in mismatches)

    def test_reproducer_round_trips_library_params(self, tmp_path):
        from repro.fuzz.generate import TopologyFactory, random_program_spec
        from repro.fuzz.oracles import FuzzCase
        from repro.fuzz.reproducer import load_reproducer, save_reproducer

        params = (("bim_sets", 1024), ("gtag_history_bits", 24))
        case = FuzzCase(
            case_id=7,
            seed=3,
            label="sized",
            predictor_spec=TopologyFactory("GTAG3 > BTB2 > BIM2", params),
            topology="GTAG3 > BTB2 > BIM2",
            program_spec=random_program_spec(random.Random(3)),
        )
        path = save_reproducer(tmp_path / "case.npz", case, "spec", [])
        loaded = load_reproducer(path)
        assert loaded.case.predictor_spec.library_params == params
        rebuilt = loaded.case.build_predictor()
        assert any(
            getattr(c, "n_sets", None) == 1024 for c in rebuilt.components
        )

    def test_spec_oracle_registered_in_default_battery(self):
        from repro.fuzz.oracles import DEFAULT_ORACLES, ORACLES

        assert "spec" in ORACLES
        assert "spec" in DEFAULT_ORACLES


# ----------------------------------------------------------------------
# Diagnostics schema + CLI surface
# ----------------------------------------------------------------------
class TestSchemaAndCli:
    def test_report_version_bumped_for_spec_family(self):
        assert REPORT_VERSION == 2
        assert {code for code in RULES if code.startswith("SPEC")} == {
            f"SPEC{n:03d}" for n in range(1, 9)
        }

    def test_every_registered_rule_code_round_trips_the_schema(self):
        diags = [diagnostic(code, "message", "subject") for code in sorted(RULES)]
        document = json.loads(to_json(diags))
        assert document["version"] == REPORT_VERSION
        assert validate_report(document) == []
        rendered = {d["code"] for d in document["diagnostics"]}
        assert rendered == set(RULES)

    def test_check_spec_flag_clean_on_shipped_library(self, capsys):
        assert cli.main(["check", "--spec", "--strict"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_check_spec_json_is_schema_valid(self, capsys):
        assert cli.main(["check", "--spec", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_report(document) == []

    def test_unknown_ignore_code_is_usage_error(self, capsys):
        rc = cli.main(
            ["check", "--topology", "BTB2 > BIM2", "--ignore", "NOPE999"]
        )
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_known_ignore_codes_still_accepted(self):
        rc = cli.main(
            ["check", "--topology", "TOURNEY2 > [GBIM3, LBIM2]",
             "--ignore", "TOP002", "TOP005"]
        )
        assert rc == 0

    def test_noqa_with_unknown_code_warns_rpr005(self, tmp_path):
        source = tmp_path / "snippet.py"
        source.write_text(
            "x = 1  # repro: noqa[RPR999]\ny = 2  # repro: noqa[RPR001]\n"
        )
        diags = lint_paths([str(source)])
        assert codes(diags) == ["RPR005"]
        assert diags[0].severity == "warn"
        assert "RPR999" in diags[0].message


# ----------------------------------------------------------------------
# Metadata codecs, bound index forms, copy-on-write lookups
# ----------------------------------------------------------------------
def _library_codec_layouts():
    """Every distinct ``MetaCodec`` layout the library bases build."""
    library = standard_library()
    layouts = {}
    for base in library.known():
        component = library.factory(base)(f"{base.lower()}_x", 3)
        layouts.setdefault(tuple(component._codec._fields), base)
    return sorted(layouts.items(), key=lambda item: item[1])


def _oracle_pack(layout, values):
    meta = offset = 0
    for name, bits, count in layout:
        lanes = [values[name]] if count == 1 else values[name]
        for lane in lanes:
            meta |= (lane & ((1 << bits) - 1)) << offset
            offset += bits
    return meta


def _oracle_unpack(layout, meta):
    out, offset = {}, 0
    for name, bits, count in layout:
        lanes = []
        for _ in range(count):
            lanes.append((meta >> offset) & ((1 << bits) - 1))
            offset += bits
        out[name] = lanes if count > 1 else lanes[0]
    return out


class TestCodecAgainstOracle:
    @pytest.mark.parametrize(
        "layout",
        [layout for layout, _ in _library_codec_layouts()],
        ids=[base for _, base in _library_codec_layouts()],
    )
    def test_matches_shift_and_mask_oracle(self, layout):
        from repro.components.base import MetaCodec

        codec = MetaCodec(list(layout))
        rng = random.Random(len(layout))
        for _ in range(200):
            values = {
                name: (
                    rng.getrandbits(bits)
                    if count == 1
                    else [rng.getrandbits(bits) for _ in range(count)]
                )
                for name, bits, count in layout
            }
            meta = codec.pack(**values)
            assert meta == _oracle_pack(layout, values)
            assert codec.unpack(meta) == _oracle_unpack(layout, meta) == values
            word = rng.getrandbits(codec.width)
            assert codec.unpack(word) == _oracle_unpack(layout, word)

    def test_library_covers_every_base(self):
        assert len(standard_library().known()) == 19
        assert len(_library_codec_layouts()) >= 10

    def test_error_paths_keep_their_messages(self):
        import re

        from repro.components.base import MetaCodec

        codec = MetaCodec([("hit", 1), ("ctr", 2, 4), ("u", 3)])
        cases = [
            (dict(hit=2, ctr=[0] * 4), "field 'hit': value 2 exceeds 1 bits"),
            (dict(hit=-1, ctr=[0] * 4), "field 'hit': value -1 exceeds 1 bits"),
            (dict(ctr=[1, 4, 9, 0]), "field 'ctr': value 4 exceeds 2 bits"),
            (dict(ctr=[1, 2, -3, 0]), "field 'ctr': value -3 exceeds 2 bits"),
            (dict(ctr=[0] * 4, u=8), "field 'u': value 8 exceeds 3 bits"),
            (dict(ctr=[1, 2]), "field 'ctr' expects 4 lanes, got 2"),
            (dict(ctr=[0] * 4, z=1, a=2), "unknown metadata fields: ['a', 'z']"),
            # Field errors come first, in declaration order.
            (dict(hit=3, ctr=[1]), "field 'hit': value 3 exceeds 1 bits"),
            (dict(ctr=[0] * 4, u=9, z=1), "field 'u': value 9 exceeds 3 bits"),
        ]
        for values, message in cases:
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                codec.pack(**values)

    def test_picklable(self):
        from repro.components.base import MetaCodec

        codec = MetaCodec([("hit", 1), ("ctr", 2, 4)])
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.pack(hit=1, ctr=[3, 2, 1, 0]) == codec.pack(
            hit=1, ctr=[3, 2, 1, 0]
        )


def _oracle_index(fn, pc, ghist, lhist, phist):
    """The per-scheme index formulas, written out one by one."""
    from repro._util import fold_history, hash_pc

    key = pc if fn.key == "branch_pc" else pc // fn.fetch_width
    bits, hbits = fn.index_bits, fn.history_bits
    if fn.scheme == "pc":
        return hash_pc(key, bits)
    if fn.scheme == "ghist":
        return fold_history(ghist, hbits, bits)
    if fn.scheme == "gshare":
        return hash_pc(key, bits) ^ fold_history(ghist, hbits, bits)
    if fn.scheme == "gselect":
        low = bits // 2
        return (hash_pc(key, bits - low) << low) | (ghist & ((1 << low) - 1))
    if fn.scheme == "phist":
        return fold_history(phist, hbits, bits)
    if fn.scheme == "pshare":
        return hash_pc(key, bits) ^ fold_history(phist, hbits, bits)
    if fn.scheme == "lhist":
        return fold_history(lhist, hbits, bits) ^ hash_pc(key, max(bits - 2, 1))
    if fn.scheme == "ghist_raw":
        return ghist & ((1 << hbits) - 1) & ((1 << bits) - 1)
    return None  # "none" / "custom": no closed form


class TestBoundIndexForms:
    @pytest.mark.parametrize("scheme", INDEX_SCHEMES)
    def test_bind_matches_formula(self, scheme):
        rng = random.Random(scheme)
        for key in ("packet", "branch_pc"):
            for index_bits, history_bits, fetch_width in (
                (1, 1, 1),
                (7, 16, 4),
                (10, 64, 8),
                (12, 9, 4),
            ):
                fn = IndexFn(
                    scheme,
                    index_bits,
                    history_bits,
                    key=key,
                    fetch_width=fetch_width,
                )
                form = fn.bind()
                if scheme in ("none", "custom"):
                    assert form is None
                    assert fn.compute(rng.getrandbits(30)) is None
                    continue
                for _ in range(100):
                    stimulus = (
                        rng.getrandbits(30),
                        rng.getrandbits(64),
                        rng.getrandbits(32),
                        rng.getrandbits(32),
                    )
                    expected = _oracle_index(fn, *stimulus)
                    assert form(*stimulus) == expected
                    assert fn.compute(*stimulus) == expected

    def test_derived_table_rows_use_the_bound_form(self):
        from repro.derive.tables import DerivedTable

        fn = IndexFn("gshare", 9, 13, fetch_width=4)
        table = DerivedTable(
            TableSpec("t", entries=512, fields=(FieldSpec("ctr", 2),), index=fn)
        )
        rng = random.Random(7)
        for _ in range(50):
            pc, ghist = rng.getrandbits(30), rng.getrandbits(64)
            assert table.row(pc, ghist) == _oracle_index(fn, pc, ghist, 0, 0)

    def test_index_scheme_formulas_match_the_bound_form(self):
        from repro.components.base import IndexScheme

        rng = random.Random(11)
        for scheme in IndexScheme.SCHEMES:
            indexer = IndexScheme(scheme, 8, history_bits=12)
            fn = indexer.index_fn(key="branch_pc")
            for _ in range(50):
                stimulus = (
                    rng.getrandbits(24),
                    rng.getrandbits(64),
                    rng.getrandbits(32),
                    rng.getrandbits(32),
                )
                assert indexer.index(*stimulus) == _oracle_index(fn, *stimulus)


class TestCopyOnWriteLookups:
    def _vector(self, fetch_pc=0, width=4):
        from repro.core.prediction import PredictionVector, SlotPrediction

        return PredictionVector(
            fetch_pc,
            [
                SlotPrediction(hit=True, is_branch=True, taken=i % 2 == 0)
                for i in range(width)
            ],
        )

    @pytest.mark.parametrize("base", ["BTB", "UBTB", "GTAG", "TAGE", "LOOP"])
    def test_tag_miss_returns_the_input_vector(self, base):
        from repro.core.events import PredictRequest

        library = standard_library()
        latency = 1 if base == "UBTB" else 3
        component = library.factory(base)(f"{base.lower()}_x", latency)
        rng = random.Random(base)
        for _ in range(20):
            fetch_pc = rng.getrandbits(20) & ~3
            vector = self._vector(fetch_pc)
            req = PredictRequest(fetch_pc, 4, rng.getrandbits(64))
            out, meta = component.lookup(req, [vector])
            assert out is vector
            component.check_meta(meta)

    def test_hit_shares_unpredicted_slots(self):
        from repro.core.events import PredictRequest, UpdateBundle

        btb = standard_library().factory("BTB")("btb_x", 2)
        vector = self._vector(8)
        before = [slot.copy() for slot in vector.slots]
        btb.on_update(
            UpdateBundle(
                fetch_pc=8,
                width=4,
                cfi_idx=1,
                cfi_taken=True,
                cfi_target=100,
                cfi_is_br=True,
            )
        )
        out, _ = btb.lookup(PredictRequest(8, 4), [vector])
        assert out is not vector
        assert out.slots[1] is not vector.slots[1]
        assert out.slots[1].target == 100
        for lane in (0, 2, 3):
            assert out.slots[lane] is vector.slots[lane]
        assert vector.slots == before
