"""Unit tests for the reproduction registry."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import ARTEFACTS, ReproductionSession
from repro.telemetry.manifest import config_hash


class TestRegistryCompleteness:
    def test_every_paper_artefact_present(self):
        """DESIGN.md's experiment index: Fig. 4 and Tables 5-9 must all have
        a registered reproduction (Tables 1-4 are parameter presets tested in
        test_config_presets; Figs. 1-2 are executable examples).  "mobility"
        is the extension artefact comparing network mobility regimes."""
        assert set(ARTEFACTS) == {
            "fig4",
            "table5",
            "table6",
            "table7",
            "table8",
            "table9",
            "mobility",
            "exchange",
        }

    def test_specs_are_well_formed(self):
        for aid, spec in ARTEFACTS.items():
            assert spec.artefact_id == aid
            assert spec.title
            assert spec.cases
            assert callable(spec.render)
            assert aid in str(spec) or spec.title in str(spec)

    def test_cases_referenced_exist(self):
        from repro.experiments.cases import ALL_CASES

        for spec in ARTEFACTS.values():
            for case in spec.cases:
                assert case in ALL_CASES


class TestReproductionSession:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ReproductionSession(scale="galactic")

    def test_default_engine_is_the_config_default(self):
        session = ReproductionSession(scale="smoke")
        assert session.config_for("case1").engine == ExperimentConfig.engine
        assert ExperimentConfig.engine == "batch"

    def test_unknown_artefact_rejected(self):
        session = ReproductionSession(scale="smoke")
        with pytest.raises(KeyError, match="unknown artefact"):
            session.render("fig99")

    def test_result_for_caches(self):
        session = ReproductionSession(scale="smoke", processes=1)
        a = session.result_for("case1")
        b = session.result_for("case1")
        assert a is b

    def test_render_artefact_smoke(self):
        session = ReproductionSession(scale="smoke", processes=1)
        out = session.render("table5")
        assert "Table 5" in out

    def test_disk_cache_roundtrip(self, tmp_path):
        session = ReproductionSession(scale="smoke", processes=1, cache_dir=tmp_path)
        first = session.result_for("case1")
        key = config_hash(session.config_for("case1").describe())[:16]
        assert session.cache_path("case1") == tmp_path / f"case1_smoke_{key}.json"
        assert session.cache_path("case1").exists()
        # a fresh session loads from disk instead of re-simulating
        session2 = ReproductionSession(scale="smoke", processes=1, cache_dir=tmp_path)
        second = session2.result_for("case1")
        assert second.to_dict() == first.to_dict()

    def test_disk_cache_is_keyed_by_engine(self, tmp_path):
        """A cached batch result is never served to a fused session."""
        batch = ReproductionSession(
            scale="smoke", processes=1, cache_dir=tmp_path
        ).result_for("case1")
        fused = ReproductionSession(
            scale="smoke", processes=1, engine="fused", cache_dir=tmp_path
        ).result_for("case1")
        fresh = ReproductionSession(
            scale="smoke", processes=1, engine="fused"
        ).result_for("case1")
        assert batch.config["engine"] == "batch"
        assert fused.config["engine"] == "fused"
        assert fused.to_dict() == fresh.to_dict()
        assert fused.to_dict() != batch.to_dict()
        assert len(list(tmp_path.glob("case1_smoke_*.json"))) == 2

    def test_config_for(self):
        session = ReproductionSession(scale="smoke", seed=1, engine="reference")
        cfg = session.config_for("case2")
        assert cfg.seed == 1
        assert cfg.engine == "reference"
        assert cfg.case.name == "case2"
