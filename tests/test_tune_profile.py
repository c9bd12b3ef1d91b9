"""TuningProfile persistence: fail-open stores on unwritable roots,
stale-version invalidation, and LRU eviction of the tune directory."""

import os
import pickle
import time

import pytest

from repro.tune import (
    TUNE_DIR_ENV,
    TuneProfileCache,
    TuningProfile,
    default_tune_dir,
    load_profile,
    machine_fingerprint,
    new_profile,
    profile_key,
    save_profile,
)
from repro.util import CACHE_MAX_BYTES_ENV, source_digest


def _profile(spec_fp="spec-fp", **kwargs):
    kwargs.setdefault("default_grid_batch_blocks", 24)
    return new_profile(spec_fp, {2: 5000}, {2: 16}, **kwargs)


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        profile = _profile()
        save_profile(profile, directory=tmp_path)
        loaded = load_profile("spec-fp", directory=tmp_path)
        assert loaded == profile

    def test_machine_keyed(self, tmp_path):
        save_profile(_profile(), directory=tmp_path)
        assert (
            load_profile("spec-fp", directory=tmp_path, machine="other-box")
            is None
        )

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TUNE_DIR_ENV, str(tmp_path / "custom"))
        assert default_tune_dir() == str(tmp_path / "custom")
        path = save_profile(_profile())
        assert path.startswith(str(tmp_path / "custom"))
        assert load_profile("spec-fp") is not None

    def test_default_dir_under_cache_root(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TUNE_DIR_ENV, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_tune_dir() == os.path.join(str(tmp_path), "tune")


class TestFailOpen:
    def test_unwritable_root_fails_open(self, tmp_path):
        # A *file* where the cache root should be: makedirs fails for
        # any user (root included, where chmod-based denial is moot).
        blocked = tmp_path / "blocked"
        blocked.write_bytes(b"in the way")
        # Store must not raise; subsequent load is simply a miss.
        save_profile(_profile(), directory=blocked / "tune")
        assert load_profile("spec-fp", directory=blocked / "tune") is None

    def test_unwritable_root_via_permissions(self, tmp_path):
        blocked = tmp_path / "ro"
        blocked.mkdir()
        blocked.chmod(0o500)
        try:
            probe = blocked / "probe"
            try:
                probe.write_bytes(b"x")
            except OSError:
                save_profile(_profile(), directory=blocked / "tune")
                assert (
                    load_profile("spec-fp", directory=blocked / "tune")
                    is None
                )
            else:  # pragma: no cover - privileged user, chmod moot
                probe.unlink()
                pytest.skip("permissions not enforced for this user")
        finally:
            blocked.chmod(0o700)

    def test_corrupt_file_is_a_miss(self, tmp_path):
        path = save_profile(_profile(), directory=tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert load_profile("spec-fp", directory=tmp_path) is None

    def test_non_profile_payload_is_a_miss(self, tmp_path):
        cache = TuneProfileCache(tmp_path)
        key = profile_key(machine_fingerprint(), "spec-fp")
        cache.store_payload(key, {"not": "a profile"})
        assert load_profile("spec-fp", directory=tmp_path) is None


class TestStaleVersion:
    def test_stale_version_profiles_are_ignored(self, tmp_path):
        profile = _profile()
        key = profile_key(profile.machine, profile.spec)
        payload = {"version": "other-" + source_digest(), "value": profile}
        path = os.path.join(tmp_path, f"{key}.tune.pkl")
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        assert load_profile("spec-fp", directory=tmp_path) is None

    def test_current_version_loads(self, tmp_path):
        save_profile(_profile(), directory=tmp_path)
        assert isinstance(
            load_profile("spec-fp", directory=tmp_path), TuningProfile
        )


class TestLruEviction:
    def test_store_evicts_old_entries_beyond_budget(
        self, monkeypatch, tmp_path
    ):
        # Two old sibling files way over a tiny budget: storing a fresh
        # profile must evict them (oldest first) but keep the fresh one.
        old_a = tmp_path / "a.tune.pkl"
        old_b = tmp_path / "b.tune.pkl"
        for path, age in ((old_a, 500), (old_b, 400)):
            path.write_bytes(b"x" * 4096)
            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "4096")
        fresh = save_profile(_profile(), directory=tmp_path)
        assert os.path.exists(fresh)
        assert not old_a.exists()
        assert load_profile("spec-fp", directory=tmp_path) is not None

    def test_disabled_budget_keeps_everything(self, monkeypatch, tmp_path):
        junk = tmp_path / "junk.tune.pkl"
        junk.write_bytes(b"x" * 4096)
        stamp = time.time() - 500
        os.utime(junk, (stamp, stamp))
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "0")
        save_profile(_profile(), directory=tmp_path)
        assert junk.exists()


class TestEnsureProfile:
    """First-use auto-tuning, the way calibration self-populates."""

    def _spec_fp(self):
        from repro.arch.specs import GTX285
        from repro.util import spec_fingerprint

        return spec_fingerprint(GTX285)

    def test_existing_profile_returned_without_tuning(
        self, monkeypatch, tmp_path
    ):
        import repro.tune as tune

        profile = _profile(self._spec_fp())
        save_profile(profile, directory=tmp_path)
        monkeypatch.setattr(
            tune, "autotune", lambda **k: pytest.fail("must not measure")
        )
        monkeypatch.setenv(tune.TUNE_AUTO_ENV, "1")
        assert tune.ensure_profile(directory=tmp_path) == profile

    def test_missing_profile_triggers_autotune_and_persists(
        self, monkeypatch, tmp_path
    ):
        import repro.tune as tune

        monkeypatch.setenv(tune.TUNE_AUTO_ENV, "1")
        calls = []

        def fake_autotune(spec=None, save=True, directory=None, **kwargs):
            calls.append((save, directory))
            profile = _profile(self._spec_fp())
            if save:
                save_profile(profile, directory=directory)
            return profile

        monkeypatch.setattr(tune, "autotune", fake_autotune)
        announced = []
        got = tune.ensure_profile(
            directory=tmp_path, on_tune=lambda: announced.append(True)
        )
        assert calls == [(True, tmp_path)]
        assert announced == [True]
        assert got is not None
        # Second call resolves from disk: no measurement.
        monkeypatch.setattr(
            tune, "autotune", lambda **k: pytest.fail("must not re-measure")
        )
        assert tune.ensure_profile(directory=tmp_path) == got

    def test_dry_run_opts_out(self, monkeypatch, tmp_path):
        import repro.tune as tune

        monkeypatch.setenv(tune.TUNE_AUTO_ENV, "1")
        monkeypatch.setattr(
            tune, "autotune", lambda **k: pytest.fail("must not measure")
        )
        assert tune.ensure_profile(directory=tmp_path, dry_run=True) is None

    @pytest.mark.parametrize("value", ("0", "no", "false", "OFF"))
    def test_env_opts_out(self, monkeypatch, tmp_path, value):
        import repro.tune as tune

        monkeypatch.setenv(tune.TUNE_AUTO_ENV, value)
        monkeypatch.setattr(
            tune, "autotune", lambda **k: pytest.fail("must not measure")
        )
        assert tune.ensure_profile(directory=tmp_path) is None
