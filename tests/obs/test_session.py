"""Session integration: one campaign + one compile produce, via repro.obs
alone, a nested v2 trace, a metrics delta snapshot, an event log, and a run
manifest — and the report CLI renders them (the ISSUE 3 acceptance
scenario)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.compiler import compile_circuit
from repro.core.characterization.campaign import (
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.device.presets import simulated_fleet
from repro.fleet import FleetController
from repro.obs import Session, read_manifest, read_trace, span
from repro.obs.events import read_events
from repro.obs.registry import push_registry
from repro.rb.executor import RBConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


def bench_circuit():
    circuit = QuantumCircuit(6, 6)
    for a, b in [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)]:
        circuit.cx(a, b)
    for q in range(6):
        circuit.measure(q, q)
    return circuit


@pytest.fixture(scope="module")
def finished_session(poughkeepsie, tmp_path_factory):
    """One campaign run + one xtalk compile captured by a Session."""
    campaign = CharacterizationCampaign(
        poughkeepsie, rb_config=RBConfig.fast(), workers=1
    )
    with push_registry():
        with Session("acceptance", config={"policy": "one_hop_packed"},
                     seeds={"campaign": 0}, workers=1) as session:
            outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED)
            compile_circuit(bench_circuit(), poughkeepsie,
                            report=outcome.report, scheduler="xtalk")
            session.results["experiments"] = outcome.num_experiments
    out_dir = tmp_path_factory.mktemp("session")
    paths = session.write(str(out_dir))
    return session, paths


class TestSessionTree:
    def test_span_tree_covers_all_layers(self, finished_session):
        session, _ = finished_session
        names = [s.name for s in session.trace.walk()]
        # pipeline passes
        assert "schedule[xtalk]" in names
        assert "routing" in names
        # parallel task fan-outs
        assert any(n.startswith("parallel.map[") for n in names)
        # SMT solve nested under the scheduling pass
        schedule = session.trace.span("schedule[xtalk]")
        assert "smt.solve" in [c.name for c in schedule.children]

    def test_trace_carries_solver_and_parallel_counters(self, finished_session):
        session, _ = finished_session
        assert session.trace.counter("smt.solve.seconds") > 0.0
        assert session.trace.counter("smt.solve.constraints") > 0.0
        assert session.trace.counter("parallel.map.tasks") > 0.0

    def test_metrics_delta_covers_campaign_and_solver(self, finished_session):
        session, _ = finished_session
        counters = session.metrics["counters"]
        assert counters["campaign.runs"] == 1.0
        assert counters["rb.experiments"] > 0.0
        assert counters["smt.solves"] >= 1.0
        assert counters["pipeline.runs"] == 1.0

    def test_event_log_brackets_the_run(self, finished_session):
        session, _ = finished_session
        events = [e["event"] for e in session.event_log]
        assert events[0] == "session.start"
        assert events[-1] == "session.end"
        assert "campaign.start" in events and "campaign.end" in events
        assert "smt.solve" in events and "pipeline.run" in events
        assert all(e["run_id"] == session.run_id for e in session.event_log)

    def test_campaign_event_carries_device_fingerprint(self, finished_session):
        session, _ = finished_session
        (start,) = session.event_log.of("campaign.start")
        assert len(start["device"]) == 64  # sha-256 hex

    def test_stage_roots_nest_under_the_session(self, finished_session):
        session, _ = finished_session
        assert [c.name for c in session.root.children] == [
            "characterize[one_hop_packed]", "compile[xtalk]",
        ]
        compile_root = session.trace.span("compile[xtalk]")
        assert [c.name for c in compile_root.children] == [
            "layout", "routing", "decompose", "schedule[xtalk]",
            "hardware_schedule",
        ]

    def test_campaign_run_seconds_is_its_root_span(self, finished_session):
        session, _ = finished_session
        root = session.trace.span("characterize[one_hop_packed]")
        hist = session.metrics["histograms"]["campaign.run_seconds"]
        assert hist["count"] == 1
        assert hist["sum"] == root.seconds
        (end,) = session.event_log.of("campaign.end")
        assert end["seconds"] == root.seconds


class TestArtifacts:
    def test_trace_file_round_trips(self, finished_session):
        session, paths = finished_session
        trace = read_trace(paths["trace"])
        assert trace.run_id == session.run_id
        assert trace.span("smt.solve").seconds > 0.0

    def test_manifest_file(self, finished_session):
        session, paths = finished_session
        manifest = read_manifest(paths["manifest"])
        assert manifest.run_id == session.run_id
        assert manifest.config == {"policy": "one_hop_packed"}
        assert manifest.workers == 1
        assert manifest.results["experiments"] > 0

    def test_events_file(self, finished_session):
        session, paths = finished_session
        records = read_events(paths["events"])
        assert len(records) == len(session.event_log)

    def test_metrics_file(self, finished_session):
        _, paths = finished_session
        doc = json.loads(Path(paths["metrics"]).read_text())
        assert doc["schema"] == "repro.obs.metrics/v1"

    def test_write_before_exit_raises(self):
        session = Session("unfinished")
        with pytest.raises(RuntimeError):
            session.write("/tmp/nowhere")


class TestReportCli:
    def run_cli(self, *args):
        env_path = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "report", *args],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        )

    def test_renders_trace_tree_and_top_counters(self, finished_session):
        _, paths = finished_session
        proc = self.run_cli(paths["trace"])
        assert proc.returncode == 0, proc.stderr
        assert "smt.solve" in proc.stdout
        assert "parallel.map[" in proc.stdout
        assert "counters" in proc.stdout

    def test_renders_manifest_and_metrics(self, finished_session):
        session, paths = finished_session
        proc = self.run_cli(paths["manifest"], paths["metrics"])
        assert proc.returncode == 0, proc.stderr
        assert session.run_id in proc.stdout
        assert "campaign.runs" in proc.stdout

    def test_missing_file_exits_nonzero(self):
        proc = self.run_cli("/nonexistent/trace.json")
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestStageTraces:
    """A stage's outcome trace is its root span's children; a Session
    around the stage holds the same records under the named root."""

    def test_fleet_tree_shape(self):
        devices = simulated_fleet(2, qubits=5, seed=0)
        controller = FleetController(devices, rb_config=RBConfig.fast(),
                                     seed=0)
        with push_registry():
            with Session("fleet") as session:
                outcome = controller.run(2)
        (fleet_run,) = session.root.children
        assert fleet_run.name == "fleet.run"
        assert [t.name for t in fleet_run.children] == [
            "fleet.tick[0]", "fleet.tick[1]",
        ]
        policies = ["one_hop_packed", "high_only"]
        for tick, policy in zip(fleet_run.children, policies):
            assert [c.name for c in tick.children] == [
                f"characterize[{policy}]",
            ] * len(devices)
            for campaign in tick.children:
                assert [s.name for s in campaign.children] == [
                    "plan", "independent_rb", "pair_srb", "merge",
                ]
        assert outcome.trace.name == "fleet.run"
        assert outcome.trace.pass_names == ["fleet.tick[0]", "fleet.tick[1]"]
        assert outcome.trace.spans == fleet_run.children
        assert outcome.trace.meta["devices"] == ["sim00", "sim01"]

    def test_campaign_trace_is_the_root_children(self):
        (device,) = simulated_fleet(1, qubits=5, seed=0)
        campaign = CharacterizationCampaign(device, rb_config=RBConfig.fast(),
                                            workers=1)
        with push_registry():
            with Session("campaign") as session:
                outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED)
        (root,) = session.root.children
        assert root.name == outcome.trace.name == "characterize[one_hop_packed]"
        assert outcome.trace.pass_names == [
            "plan", "independent_rb", "pair_srb", "merge",
        ]
        assert outcome.trace.spans == root.children
        assert outcome.trace.meta["policy"] == "one_hop_packed"
        assert len(outcome.trace.meta["device"]) == 64


class TestSessionIsolation:
    def test_sessions_do_not_leak_span_stack(self):
        with Session("s1"):
            pass
        with span("free") as record:
            pass
        assert record.children == []

    def test_session_inside_a_span_joins_the_enclosing_tree(self):
        with Session("outer") as outer:
            with span("before"):
                pass
            with Session("inner") as inner:
                with span("work"):
                    pass
            with span("after"):
                pass
        assert [c.name for c in outer.root.children] == [
            "before", "inner", "after",
        ]
        assert inner.trace.name == "inner"
        assert inner.trace.pass_names == ["inner"]
        assert [c.name for c in inner.root.children] == ["work"]

    def test_exception_inside_session_recorded(self):
        with pytest.raises(RuntimeError):
            with Session("boom") as session:
                raise RuntimeError("x")
        (end,) = session.event_log.of("session.end")
        assert "RuntimeError" in end["error"]
        assert session.trace is not None
