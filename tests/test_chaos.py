"""Tests for the chaos subsystem: plans, fault injection, and the
supervised harness's recovery guarantees."""

import json
import os

import numpy as np
import pytest

from repro.config import ParallelConfig, tiny_test_model
from repro.resilience import (
    ChaosHarness,
    ChaosPlan,
    ChaosReport,
    CorruptCheckpoint,
    HarnessGaveUpError,
    Kill,
    RankFailureError,
    SaveFailure,
    TransientSaveError,
    batch_for_iteration,
    corrupt_file,
    run_baseline,
    run_reset_reference,
    shrink_parallel,
)
from repro.verify.differential import state_failures

CFG = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)


def dp2(batch=4):
    return ParallelConfig(data_parallel_size=2, microbatch_size=1,
                          global_batch_size=batch)


def harness(tmp_path, plan, **kw):
    kw.setdefault("total_iterations", 6)
    kw.setdefault("checkpoint_every", 2)
    kw.setdefault("seed", 0)
    kw.setdefault("sleep", lambda s: None)
    return ChaosHarness(CFG, dp2(), str(tmp_path), plan=plan, **kw)


class TestChaosPlan:
    def test_json_round_trip(self):
        plan = ChaosPlan(
            kills=(Kill(at_iteration=5, rank=1, permanent=True),
                   Kill(at_iteration=2)),
            corruptions=(CorruptCheckpoint(at_iteration=4, mode="truncate"),),
            save_failures=(SaveFailure(at_iteration=2, times=3),),
        )
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_kills_sorted_by_iteration(self):
        plan = ChaosPlan(kills=(Kill(at_iteration=5), Kill(at_iteration=2)))
        assert [k.at_iteration for k in plan.kills] == [2, 5]

    def test_healthy(self):
        assert ChaosPlan().is_healthy
        assert not ChaosPlan(kills=(Kill(at_iteration=0),)).is_healthy

    def test_duplicate_save_failures_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ChaosPlan(save_failures=(SaveFailure(at_iteration=2),
                                     SaveFailure(at_iteration=2)))

    @pytest.mark.parametrize("text,match", [
        ("not json", "unparseable"),
        ("[1, 2]", "JSON object"),
        ('{"explosions": []}', "unknown chaos plan keys"),
        ('{"kills": [{"at": 3}]}', "bad kill entry"),
        ('{"kills": [3]}', "entries must be objects"),
        ('{"corruptions": [{"at_iteration": 1, "mode": "melt"}]}',
         "mode must be one of"),
    ])
    def test_from_json_rejects_garbage(self, text, match):
        with pytest.raises(ValueError, match=match):
            ChaosPlan.from_json(text)

    @pytest.mark.parametrize("bad", [
        lambda: Kill(at_iteration=-1),
        lambda: Kill(at_iteration=0, rank=-2),
        lambda: CorruptCheckpoint(at_iteration=1, file="../escape"),
        lambda: CorruptCheckpoint(at_iteration=1, file=""),
        lambda: SaveFailure(at_iteration=1, times=0),
    ])
    def test_entry_validation(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestCorruptFile:
    def test_flip_changes_bytes_keeps_size(self, tmp_path):
        path = tmp_path / "f"
        blob = bytes(range(256)) * 4
        path.write_bytes(blob)
        corrupt_file(str(path), "flip")
        after = path.read_bytes()
        assert len(after) == len(blob)
        assert after != blob

    def test_truncate_halves(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x" * 100)
        corrupt_file(str(path), "truncate")
        assert path.stat().st_size == 50

    def test_delete_removes(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x")
        corrupt_file(str(path), "delete")
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            corrupt_file(str(tmp_path / "nope"), "flip")

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x")
        with pytest.raises(ValueError, match="mode"):
            corrupt_file(str(path), "melt")


class TestDeterministicData:
    def test_pure_function_of_seed_and_iteration(self):
        a = batch_for_iteration(CFG, 4, seed=7, iteration=3)
        b = batch_for_iteration(CFG, 4, seed=7, iteration=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = batch_for_iteration(CFG, 4, seed=7, iteration=4)
        assert not np.array_equal(a[0], c[0])

    def test_shapes_and_range(self):
        ids, targets = batch_for_iteration(CFG, 4, seed=0, iteration=0)
        assert ids.shape == targets.shape == (4, CFG.seq_length)
        assert ids.min() >= 0 and ids.max() < CFG.vocab_size


class TestShrinkParallel:
    def test_world_of_one_unchanged(self):
        serial = ParallelConfig(microbatch_size=1, global_batch_size=4)
        assert shrink_parallel(CFG, serial) is serial

    def test_shrinks_world(self):
        small = shrink_parallel(CFG, dp2())
        world = (small.pipeline_parallel_size * small.tensor_parallel_size
                 * small.data_parallel_size)
        assert world == 1
        assert small.global_batch_size == 4
        small.validate_for_model(CFG)


class TestKillRecovery:
    def test_kill_and_resume_is_bit_exact(self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=3),))
        report = harness(tmp_path, plan).run()
        assert report.restarts == 1
        assert not report.resharded
        base_losses, base_state = run_baseline(
            CFG, dp2(), total_iterations=6, seed=0
        )
        assert report.losses == base_losses
        assert not state_failures(report.final_state, base_state, exact=True)

    def test_kill_before_first_checkpoint_restarts_from_scratch(
            self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=1),))
        report = harness(tmp_path, plan, checkpoint_every=4).run()
        kinds = [r.kind for r in report.records]
        assert "restart-from-scratch" in kinds
        base_losses, base_state = run_baseline(
            CFG, dp2(), total_iterations=6, seed=0
        )
        assert report.losses == base_losses
        assert not state_failures(report.final_state, base_state, exact=True)

    def test_multiple_kills(self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=2), Kill(at_iteration=4)))
        report = harness(tmp_path, plan).run()
        assert report.restarts == 2
        base_losses, _ = run_baseline(CFG, dp2(), total_iterations=6, seed=0)
        assert report.losses == base_losses

    def test_restart_budget_enforced(self, tmp_path):
        # Two kills, budget of one restart.
        plan = ChaosPlan(kills=(Kill(at_iteration=2), Kill(at_iteration=4)))
        with pytest.raises(HarnessGaveUpError, match="restarts"):
            harness(tmp_path, plan, max_restarts=1).run()

    def test_kill_fires_exactly_once(self, tmp_path):
        # After restore the trainer's iteration moves back past the kill
        # point; the kill must not re-fire on the replayed iteration.
        plan = ChaosPlan(kills=(Kill(at_iteration=3),))
        report = harness(tmp_path, plan, checkpoint_every=2).run()
        assert report.restarts == 1


class TestSaveRetry:
    def test_transient_failures_retried_with_backoff(self, tmp_path):
        sleeps = []
        plan = ChaosPlan(save_failures=(SaveFailure(at_iteration=2,
                                                    times=3),))
        report = harness(tmp_path, plan, sleep=sleeps.append,
                         backoff_base=0.05, backoff_cap=0.15).run()
        assert report.save_retries == 3
        # Exponential 0.05, 0.10 then capped at 0.15.
        assert sleeps == [0.05, 0.1, 0.15]
        base_losses, _ = run_baseline(CFG, dp2(), total_iterations=6, seed=0)
        assert report.losses == base_losses

    def test_save_retry_budget_enforced(self, tmp_path):
        plan = ChaosPlan(save_failures=(SaveFailure(at_iteration=2,
                                                    times=99),))
        with pytest.raises(HarnessGaveUpError, match="still"):
            harness(tmp_path, plan, max_save_attempts=3).run()

    def test_transient_failure_leaves_no_partial_checkpoint(self, tmp_path):
        plan = ChaosPlan(save_failures=(SaveFailure(at_iteration=2,
                                                    times=1),))
        report = harness(tmp_path, plan).run()
        # Every committed checkpoint verifies.
        from repro.parallel.checkpoint import CheckpointStore, verify_checkpoint

        store = CheckpointStore(str(tmp_path))
        for iteration in store.iterations():
            verify_checkpoint(store.path_for(iteration))
        assert report.checkpoints_written == 3


class TestCorruptionFallback:
    def test_falls_back_to_older_verified_checkpoint(self, tmp_path):
        plan = ChaosPlan(
            kills=(Kill(at_iteration=5),),
            corruptions=(CorruptCheckpoint(at_iteration=4),),
        )
        report = harness(tmp_path, plan, total_iterations=8).run()
        assert report.skipped_checkpoints == 1
        restores = [r for r in report.records if r.kind == "restore"]
        assert restores[0].at_iteration == 2
        base_losses, base_state = run_baseline(
            CFG, dp2(), total_iterations=8, seed=0
        )
        assert report.losses == base_losses
        assert not state_failures(report.final_state, base_state, exact=True)

    @pytest.mark.parametrize("mode", ["flip", "truncate", "delete"])
    def test_every_corruption_mode_detected(self, tmp_path, mode):
        plan = ChaosPlan(
            kills=(Kill(at_iteration=5),),
            corruptions=(CorruptCheckpoint(at_iteration=4, mode=mode),),
        )
        report = harness(tmp_path, plan, total_iterations=6).run()
        assert report.skipped_checkpoints == 1
        base_losses, _ = run_baseline(CFG, dp2(), total_iterations=6, seed=0)
        assert report.losses == base_losses


class TestReshard:
    def test_permanent_kill_reshards(self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=3, permanent=True),))
        report = harness(tmp_path, plan).run()
        assert report.resharded
        world = (report.final_parallel.pipeline_parallel_size
                 * report.final_parallel.tensor_parallel_size
                 * report.final_parallel.data_parallel_size)
        assert world == 1
        restores = [r for r in report.records if r.kind == "restore"]
        assert restores and restores[0].detail == "optimizer reset"
        ref_losses, ref_state = run_reset_reference(
            CFG, 4, total_iterations=6, reset_at=restores[0].at_iteration,
            seed=0,
        )
        np.testing.assert_allclose(report.losses, ref_losses,
                                   rtol=1e-9, atol=1e-12)
        for name, want in ref_state.items():
            if name == "head.tied":
                continue
            np.testing.assert_allclose(report.final_state[name], want,
                                       rtol=1e-8, atol=1e-11, err_msg=name)

    def test_reshard_disabled_keeps_config(self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=3, permanent=True),))
        report = harness(tmp_path, plan, allow_reshard=False).run()
        assert not report.resharded
        assert report.final_parallel.data_parallel_size == 2
        base_losses, _ = run_baseline(CFG, dp2(), total_iterations=6, seed=0)
        assert report.losses == base_losses


class TestHarnessValidation:
    @pytest.mark.parametrize("kw", [
        {"total_iterations": 0},
        {"checkpoint_every": 0},
        {"max_restarts": -1},
        {"max_save_attempts": 0},
        {"backoff_base": 0.0},
        {"backoff_base": 1.0, "backoff_cap": 0.5},
    ])
    def test_constructor_rejects(self, tmp_path, kw):
        with pytest.raises(ValueError):
            harness(tmp_path, ChaosPlan(), **kw)

    def test_healthy_plan_writes_checkpoints_only(self, tmp_path):
        report = harness(tmp_path, ChaosPlan()).run()
        assert report.restarts == 0
        assert report.checkpoints_written == 3
        assert isinstance(report, ChaosReport)
        assert "restarts" in report.describe()

    def test_error_types(self):
        assert issubclass(TransientSaveError, OSError)
        failure = RankFailureError(3, rank=1, permanent=True)
        assert failure.iteration == 3
        assert "permanently lost" in str(failure)
