"""Tests for fault-tolerant execution (repro.recovery) and resume
through the campaign store.

The contracts under test:

* a sweep interrupted mid-run and then rerun on the same campaign
  store is **bit-identical** (arrays and fold-order combined event
  hash) to an uninterrupted run, for ``jobs in {1, 2, 4}``; serially,
  the rerun replays exactly the shards that finished before the fault;
* a shard retried after an injected worker crash or timeout reproduces
  the no-fault run exactly, because retries reuse the shard's own
  spawned seed;
* ``repro run`` reports a retry-exhausted shard's cause chain and
  exits non-zero instead of surfacing a raw executor traceback, and
  an unusable ``--campaign`` path fails before any simulation.

Faults are staged through :mod:`repro.recovery.faults`; nothing here
monkeypatches executor internals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignStore
from repro.circuit import build_set
from repro.core import SimulationConfig, sweep_iv, sweep_map
from repro.errors import RecoveryError, SimulationError
from repro.parallel import ensemble_iv
from repro.parallel.pool import execute_shards
from repro.recovery import (
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    injected_faults,
)
from repro.telemetry import registry as telemetry

# fast-but-fault-tolerant policy for tests: tiny deterministic backoff
FAST = ExecutionPolicy(backoff_base=0.01, backoff_cap=0.05)


def _double(x):
    return 2 * x


def _fragile(x):
    if x < 0:
        raise SimulationError(f"shard input {x} is negative")
    return x + 1


def _map_args(points=5, rows=3):
    return (
        build_set(),
        np.linspace(-0.04, 0.04, points),
        np.linspace(0.0, 0.01, rows),
    )


def _run_map(jobs=1, seed=7, policy=None, jumps=250, campaign=None):
    circuit, volts, gates = _map_args()
    return sweep_map(
        circuit, volts, gates,
        SimulationConfig(temperature=5.0, seed=seed, event_hash=True),
        jumps_per_point=jumps, jobs=jobs,
        policy=policy, campaign=campaign,
    )


def _interrupt_then_rerun(run, shard, store):
    """Run ``run(campaign=store)`` with a raise injected on ``shard``,
    then rerun it on the same store.  Returns the rerun's result and
    its ``(cell hits, cells computed)``."""
    plan = FaultPlan((FaultSpec(shard=shard, action="raise", attempts=()),))
    with injected_faults(plan):
        with pytest.raises(SimulationError):
            run(campaign=store)
    with telemetry.session(trace=False) as reg:
        resumed = run(campaign=store)
    counters = reg.metrics()["counters"]
    return resumed, (
        counters["campaign.cell_hits"], counters["campaign.cells_computed"]
    )


def _assert_replayed(jobs, counts, shard, shards):
    """Serially, exactly the shards before the faulted one finished and
    are replayed; pooled, which shards finished depends on scheduling."""
    hits, computed = counts
    assert hits + computed == shards
    if jobs == 1:
        assert hits == shard


class TestExecutionPolicy:
    def test_defaults_are_valid(self):
        ExecutionPolicy()

    @pytest.mark.parametrize("kwargs", (
        {"max_attempts": 0},
        {"shard_timeout": 0.0},
        {"shard_timeout": -1.0},
        {"backoff_base": -0.1},
        {"max_pool_rebuilds": -1},
    ))
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(SimulationError):
            ExecutionPolicy(**kwargs)

    def test_backoff_is_deterministic_and_capped(self):
        policy = ExecutionPolicy(backoff_base=0.1, backoff_cap=0.3)
        delays = [policy.backoff_delay(n) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.0, 0.1, 0.2, 0.3, 0.3]
        assert delays == [policy.backoff_delay(n) for n in (1, 2, 3, 4, 5)]


class TestFaultPlan:
    def test_spec_selection_by_shard_and_attempt(self):
        plan = FaultPlan((
            FaultSpec(shard=1, action="raise", attempts=(2,)),
            FaultSpec(shard=1, action="kill", attempts=(3,)),
        ))
        assert plan.spec_for(0, 1) is None
        assert plan.spec_for(1, 1) is None
        assert plan.spec_for(1, 2).action == "raise"
        assert plan.spec_for(1, 3).action == "kill"

    def test_empty_attempts_fire_every_attempt(self):
        plan = FaultPlan((FaultSpec(shard=0, action="raise", attempts=()),))
        assert all(plan.spec_for(0, n) is not None for n in range(1, 6))

    def test_rejects_unknown_action(self):
        with pytest.raises(SimulationError, match="unknown fault action"):
            FaultSpec(shard=0, action="explode")

    def test_injection_context_is_scoped(self):
        from repro.recovery import current_plan

        assert current_plan() is None
        with injected_faults(FaultPlan()):
            assert current_plan() is not None
        assert current_plan() is None


class TestResumeEquivalence:
    """The acceptance contract: interrupt, rerun on the same store, get
    identical bits."""

    @pytest.mark.parametrize("jobs", (1, 2, 4))
    def test_interrupted_sweep_map_resumes_bit_identical(self, tmp_path, jobs):
        base = _run_map(jobs=jobs)
        resumed, counts = _interrupt_then_rerun(
            lambda campaign: _run_map(jobs=jobs, campaign=campaign),
            1, CampaignStore(tmp_path),
        )
        assert np.array_equal(base.currents, resumed.currents)
        assert base.event_hash is not None
        assert base.event_hash == resumed.event_hash
        _assert_replayed(jobs, counts, shard=1, shards=3)

    def test_pooled_failure_keeps_finished_siblings(self, tmp_path):
        # row 1 raises while row 0 is in flight: row 0 still finishes
        # and reaches the store before the failure propagates
        _, (hits, computed) = _interrupt_then_rerun(
            lambda campaign: _run_map(jobs=2, campaign=campaign),
            1, CampaignStore(tmp_path),
        )
        assert hits >= 1
        assert hits + computed == 3

    def test_resume_hits_counted(self, tmp_path):
        _, counts = _interrupt_then_rerun(
            lambda campaign: _run_map(jobs=1, campaign=campaign),
            2, CampaignStore(tmp_path),
        )
        # serially, shards 0 and 1 completed before shard 2 detonated
        assert counts == (2, 1)

    def test_interrupted_chunked_sweep_iv_resumes_bit_identical(self, tmp_path):
        circuit = build_set()
        volts = np.linspace(-0.02, 0.02, 6)
        cfg = SimulationConfig(temperature=5.0, seed=11, event_hash=True)
        for jobs in (1, 2):
            base = sweep_iv(
                circuit, volts, cfg, jumps_per_point=200, chunks=3, jobs=jobs
            )
            resumed, counts = _interrupt_then_rerun(
                lambda campaign: sweep_iv(
                    circuit, volts, cfg, jumps_per_point=200, chunks=3,
                    jobs=jobs, campaign=campaign,
                ),
                2, CampaignStore(tmp_path / f"jobs{jobs}"),
            )
            assert np.array_equal(base.currents, resumed.currents)
            assert base.event_hash == resumed.event_hash
            # merged solver work survives the round-trip through the store
            assert base.stats is not None and resumed.stats is not None
            assert base.stats.events == resumed.stats.events
            _assert_replayed(jobs, counts, shard=2, shards=3)

    def test_interrupted_ensemble_resumes_bit_identical(self, tmp_path):
        circuit = build_set()
        volts = np.linspace(-0.02, 0.02, 4)
        cfg = SimulationConfig(temperature=5.0, seed=3, event_hash=True)
        for jobs in (1, 2):
            base = ensemble_iv(
                circuit, volts, 3, cfg, jumps_per_point=200, jobs=jobs
            )
            resumed, counts = _interrupt_then_rerun(
                lambda campaign: ensemble_iv(
                    circuit, volts, 3, cfg, jumps_per_point=200, jobs=jobs,
                    campaign=campaign,
                ),
                1, CampaignStore(tmp_path / f"jobs{jobs}"),
            )
            assert np.array_equal(
                base.replica_currents, resumed.replica_currents
            )
            assert base.event_hash == resumed.event_hash
            _assert_replayed(jobs, counts, shard=1, shards=3)


class TestRetryEquivalence:
    def test_killed_shard_retries_bit_identical(self):
        base = _run_map(jobs=2)
        with telemetry.session(trace=False) as reg:
            with injected_faults(
                FaultPlan((FaultSpec(shard=0, action="kill"),))
            ):
                recovered = _run_map(jobs=2, policy=FAST)
        assert np.array_equal(base.currents, recovered.currents)
        assert base.event_hash == recovered.event_hash
        counters = reg.metrics()["counters"]
        assert counters["recovery.shards_retried"] >= 1
        assert counters["recovery.pool_rebuilds"] >= 1

    def test_inline_retry_after_raise_bit_identical(self):
        base = _run_map(jobs=1)
        policy = ExecutionPolicy(retry_raised=True, backoff_base=0.01)
        with injected_faults(
            FaultPlan((FaultSpec(shard=1, action="raise", attempts=(1,)),))
        ):
            recovered = _run_map(jobs=1, policy=policy)
        assert np.array_equal(base.currents, recovered.currents)
        assert base.event_hash == recovered.event_hash

    def test_pooled_exhaustion_raises_recovery_error(self):
        policy = ExecutionPolicy(
            max_attempts=2, backoff_base=0.01, inline_fallback=False,
            max_pool_rebuilds=10,
        )
        plan = FaultPlan((FaultSpec(shard=0, action="kill", attempts=()),))
        with injected_faults(plan):
            with pytest.raises(RecoveryError, match="failed after"):
                execute_shards(
                    _fragile, [1, 2, 3], jobs=2, policy=policy
                )

    def test_inline_exhaustion_chains_the_cause(self):
        policy = ExecutionPolicy(
            max_attempts=2, retry_raised=True, backoff_base=0.01
        )
        plan = FaultPlan((FaultSpec(shard=0, action="raise", attempts=()),))
        with injected_faults(plan):
            with pytest.raises(RecoveryError, match="failed after 2") as info:
                execute_shards(_fragile, [1, 2], jobs=1, policy=policy)
        assert info.value.shard == 0
        assert info.value.attempts == 2
        assert isinstance(info.value.__cause__, InjectedFault)

    def test_raised_exception_propagates_unchanged_by_default(self):
        # the historical contract: no retry_raised means a worker
        # exception reaches the caller as-is, inline and pooled
        with pytest.raises(SimulationError, match="negative"):
            execute_shards(_fragile, [1, -2, 3], jobs=1)
        with pytest.raises(SimulationError, match="negative"):
            execute_shards(_fragile, [1, -2, 3], jobs=2)


class TestTimeoutAndDegradation:
    def test_hung_shard_times_out_and_retries_bit_identical(self):
        base = _run_map(jobs=2, jumps=150)
        policy = ExecutionPolicy(
            shard_timeout=0.5, backoff_base=0.01, max_pool_rebuilds=5
        )
        plan = FaultPlan((
            FaultSpec(shard=0, action="hang", attempts=(1,), delay=2.0),
        ))
        with telemetry.session(trace=False) as reg:
            with injected_faults(plan):
                recovered = _run_map(jobs=2, jumps=150, policy=policy)
        assert np.array_equal(base.currents, recovered.currents)
        assert base.event_hash == recovered.event_hash
        assert reg.metrics()["counters"]["recovery.pool_rebuilds"] >= 1

    def test_degrades_to_inline_after_rebuild_budget(self):
        policy = ExecutionPolicy(
            max_attempts=5, backoff_base=0.01, max_pool_rebuilds=0,
            inline_fallback=True,
        )
        plan = FaultPlan((FaultSpec(shard=0, action="kill", attempts=(1,)),))
        with telemetry.session(trace=False) as reg:
            with injected_faults(plan):
                out = execute_shards(_fragile, [1, 2, 3], jobs=2, policy=policy)
        assert out == [2, 3, 4]
        assert reg.metrics()["counters"]["recovery.pool_rebuilds"] == 1

    def test_rebuild_budget_without_fallback_fails(self):
        policy = ExecutionPolicy(
            max_attempts=5, backoff_base=0.01, max_pool_rebuilds=0,
            inline_fallback=False,
        )
        plan = FaultPlan((FaultSpec(shard=0, action="kill", attempts=(1,)),))
        with injected_faults(plan):
            with pytest.raises(RecoveryError, match="pool broke"):
                execute_shards(_fragile, [1, 2, 3], jobs=2, policy=policy)


DECK = """\
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
temp 5
record 1 2 2
jumps 400 1
sweep 2 0.02 0.01
"""

NO_SWEEP_DECK = """\
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
temp 5
record 1 2 2
jumps 400 1
"""


class TestDeckCampaign:
    def test_campaign_forces_event_hash(self, tmp_path):
        from repro.netlist import parse_semsim

        curve = parse_semsim(DECK).run(
            seed=3, chunks=2, campaign=CampaignStore(tmp_path)
        )
        assert curve.event_hash is not None

    def test_operating_point_deck_rejects_campaign(self, tmp_path):
        from repro.netlist import parse_semsim

        with pytest.raises(SimulationError, match="sweep deck"):
            parse_semsim(NO_SWEEP_DECK).run(
                seed=3, campaign=CampaignStore(tmp_path)
            )


class TestCliRecovery:
    def _write_deck(self, tmp_path):
        deck_file = tmp_path / "tiny.deck"
        deck_file.write_text(DECK)
        return deck_file

    def test_campaign_resume_roundtrip_matches_plain_run(
        self, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        deck_file = self._write_deck(tmp_path)
        store = tmp_path / "store"
        assert cli_main(["run", str(deck_file), "--chunks", "2"]) == 0
        plain = capsys.readouterr().out
        plan = FaultPlan((FaultSpec(shard=1, action="raise", attempts=()),))
        with injected_faults(plan):
            code = cli_main([
                "run", str(deck_file), "--chunks", "2",
                "--campaign", str(store),
            ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert cli_main([
            "run", str(deck_file), "--chunks", "2", "--campaign", str(store),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        # chunk 0 finished before the fault and is replayed from the store
        assert "campaign cache: 1 cached, 1 computed" in captured.err

    def test_retry_exhaustion_exits_nonzero_with_cause_chain(
        self, tmp_path, capsys
    ):
        # the bugfix: a sweep shard that exhausts its retries must
        # surface as exit 1 + the shard's cause chain on stderr, not as
        # a raw ProcessPoolExecutor traceback
        from repro.cli import main as cli_main

        deck_file = self._write_deck(tmp_path)
        plan = FaultPlan((FaultSpec(shard=0, action="kill", attempts=()),))
        with injected_faults(plan):
            code = cli_main([
                "run", str(deck_file), "--chunks", "2", "--jobs", "2",
                "--retries", "1",
            ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err
        assert "attempt" in err
        assert "caused by:" in err
        assert "Traceback" not in err

    def test_campaign_on_regular_file_is_a_clean_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        deck_file = self._write_deck(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file")
        for store in (blocker, blocker / "store"):
            with telemetry.session(trace=False) as reg:
                code = cli_main([
                    "run", str(deck_file), "--campaign", str(store),
                ])
            assert code == 1
            err = capsys.readouterr().err
            assert "not a directory" in err
            assert "Traceback" not in err
            # rejected before any simulation ran
            assert reg.peek_counter("solver.events") == 0


@pytest.mark.slow
class TestLongCampaign:
    """A fuller campaign: many shards, a retried worker crash and a
    mid-run raise at jobs=4, then a rerun on the same store — the
    scaled-up version of the tier-1 equivalence tests."""

    def test_large_map_interrupt_resume_and_retry(self, tmp_path):
        circuit = build_set()
        volts = np.linspace(-0.04, 0.04, 7)
        gates = np.linspace(0.0, 0.012, 8)
        cfg = SimulationConfig(temperature=5.0, seed=23, event_hash=True)
        base = sweep_map(
            circuit, volts, gates, cfg, jumps_per_point=800, jobs=4
        )
        store = CampaignStore(tmp_path)
        plan = FaultPlan((
            FaultSpec(shard=3, action="kill", attempts=(1,)),
            FaultSpec(shard=5, action="raise", attempts=()),
        ))
        with injected_faults(plan):
            with pytest.raises(SimulationError):
                sweep_map(
                    circuit, volts, gates, cfg, jumps_per_point=800,
                    jobs=4, policy=FAST, campaign=store,
                )
        with telemetry.session(trace=False) as reg:
            resumed = sweep_map(
                circuit, volts, gates, cfg, jumps_per_point=800, jobs=4,
                campaign=store,
            )
        assert np.array_equal(base.currents, resumed.currents)
        assert base.event_hash == resumed.event_hash
        counters = reg.metrics()["counters"]
        assert (
            counters["campaign.cell_hits"] + counters["campaign.cells_computed"]
            == len(gates)
        )
