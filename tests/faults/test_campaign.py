"""End-to-end campaigns: reproducibility, convergence, self-test, CLI."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.faults import (
    FaultCampaignSpec,
    FaultConfig,
    cross_system_convergence,
    oracle_selftest,
    report_json,
    run_campaign,
)
from repro.faults.payload import WritePayloadAdapter, static_word
from repro.trace.record import AccessKind, TraceRecord

pytestmark = pytest.mark.faults

SMALL = dict(target_requests=800)

#: sha256 of ``repro faults --smoke --seed 1 --json``'s stdout.
SMOKE_SEED1_REPORT_SHA256 = (
    "196deb346e483570384b89620423d5f20145192695d718de0e632df009449bc5"
)


class TestPayloadAdapter:
    def records(self):
        return [
            TraceRecord(gap_instructions=1, kind=AccessKind.READ, address=0),
            TraceRecord(gap_instructions=1, kind=AccessKind.WRITE_BACK,
                        address=64, dirty_mask=0b101),
            TraceRecord(gap_instructions=1, kind=AccessKind.WRITE_BACK,
                        address=128, dirty_mask=0),
        ]

    def test_fills_only_dirty_write_backs(self):
        out = list(WritePayloadAdapter(iter(self.records()), mode="random"))
        assert out[0].new_words is None               # read untouched
        assert out[1].new_words is not None
        assert out[1].new_words[0] != 0
        assert out[1].new_words[1] == 0               # clean slot zeroed
        assert out[2].new_words is None               # silent WB untouched
        assert out[2].dirty_mask == 0

    def test_static_mode_is_pure(self):
        a = list(WritePayloadAdapter(iter(self.records()), mode="static"))
        b = list(WritePayloadAdapter(iter(self.records()), mode="static"))
        assert a[1].new_words == b[1].new_words
        assert a[1].new_words[0] == static_word(1, 0)

    def test_random_mode_deterministic_per_seed_and_core(self):
        a = list(WritePayloadAdapter(iter(self.records()), seed=4, core_id=2))
        b = list(WritePayloadAdapter(iter(self.records()), seed=4, core_id=2))
        c = list(WritePayloadAdapter(iter(self.records()), seed=4, core_id=3))
        assert a[1].new_words == b[1].new_words
        assert a[1].new_words != c[1].new_words

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            WritePayloadAdapter(iter([]), mode="zeros")

    def test_static_word_differs_from_cold_pattern(self):
        from repro.memory.storage import _cold_pattern

        for line in (0, 7, 999):
            cold = _cold_pattern(line)
            assert all(static_word(line, w) != cold[w] for w in range(8))


class TestCampaignReproducibility:
    def test_same_seed_same_report(self):
        spec = FaultCampaignSpec(seed=11, **SMALL)
        assert report_json(run_campaign(spec)) == report_json(run_campaign(spec))

    def test_different_seed_different_faults(self):
        a = run_campaign(FaultCampaignSpec(seed=1, **SMALL))
        b = run_campaign(FaultCampaignSpec(seed=2, **SMALL))
        assert a["injected"] != b["injected"]

    def test_report_is_json_and_oracle_clean(self):
        report = run_campaign(FaultCampaignSpec(seed=3, **SMALL))
        parsed = json.loads(report_json(report))
        assert parsed["ok"] is True
        assert parsed["oracle"]["violations"] == 0
        assert parsed["row"]["within_paper_band"] is True
        assert parsed["injected"]["read_disturb_injected"] > 0

    def test_faults_off_campaign_injects_nothing(self):
        report = run_campaign(FaultCampaignSpec(
            seed=1, fault=FaultConfig.disabled(), **SMALL
        ))
        assert all(v == 0 for v in report["injected"].values())
        assert report["ok"]


class TestConvergenceAndSelftest:
    def test_six_systems_converge(self):
        report = cross_system_convergence(target_requests=600)
        assert report["converged"], report
        assert len(set(report["fingerprints"].values())) == 1
        assert all(report["oracle_ok"].values())

    def test_selftest_detects_planted_bug(self):
        report = oracle_selftest()
        assert report["clean_before_plant"]
        assert report["detected"]
        assert report["passed"]
        assert report["violations"]


class TestFaultsCli:
    def test_smoke_campaign_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "faults", "--smoke", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.faults.campaign/1"
        assert report["spec"]["seed"] == 5
        assert report["ok"] is True

    def test_selftest_mode(self, capsys):
        assert main(["faults-selftest"]) == 0
        assert '"passed": true' in capsys.readouterr().out

    def test_convergence_smoke_uses_the_smoke_budget(self, monkeypatch):
        import repro.faults

        budgets = []

        def convergence(workload, seed, target_requests):
            budgets.append(target_requests)
            return {"converged": True}

        monkeypatch.setattr(repro.faults, "cross_system_convergence",
                            convergence)
        assert main(["faults-convergence", "--smoke",
                     "--requests", "300"]) == 0
        assert budgets == [2_000]

    def test_json_output_is_bit_stable(self, capsys):
        main(["faults", "--smoke", "--json", "--seed", "7"])
        first = capsys.readouterr().out
        main(["faults", "--smoke", "--json", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_smoke_report_is_pinned(self, capsys):
        """The seed-1 smoke report, byte for byte (sha256 of the JSON)."""
        assert main(["faults", "--smoke", "--seed", "1", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
        assert digest.hexdigest() == SMOKE_SEED1_REPORT_SHA256
