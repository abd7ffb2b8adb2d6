"""Selection contract of the execution-backend registry.

``get_backend``/``set_backend``/``use_backend`` plus the
``REPRO_EXEC_BACKEND`` environment switch — the surface a CuPy/JAX
module drop-in plugs into via ``register_backend``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.exec.backend as backend_module
from repro.exec import narrow
from repro.exec import (
    ENV_VAR,
    ExecutionBackend,
    FusedBackend,
    GenericBackend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)


@pytest.fixture
def restore_backend():
    """Snapshot and restore the process-wide active backend."""
    previous = backend_module._active
    yield
    backend_module._active = previous


def test_builtin_backends_registered():
    names = available_backends()
    assert "generic" in names
    assert "fused" in names


def test_default_backend_is_fused(restore_backend, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    backend_module._active = None
    assert get_backend().name == "fused"
    assert isinstance(get_backend(), FusedBackend)
    # the oracle stays one environment switch away
    monkeypatch.setenv(ENV_VAR, "generic")
    backend_module._active = None
    assert get_backend().name == "generic"
    assert type(get_backend()) is GenericBackend


def test_env_var_selects_backend(restore_backend, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "fused")
    backend_module._active = None
    backend = get_backend()
    assert backend.name == "fused"
    assert isinstance(backend, FusedBackend)


def test_env_var_unknown_name_raises(restore_backend, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "cuda-someday")
    backend_module._active = None
    with pytest.raises(ValueError, match="cuda-someday"):
        get_backend()


def test_set_backend_by_name_and_instance(restore_backend):
    assert set_backend("fused").name == "fused"
    assert get_backend().name == "fused"
    instance = GenericBackend()
    assert set_backend(instance) is instance
    assert get_backend() is instance


def test_set_backend_rejects_non_backend(restore_backend):
    with pytest.raises(TypeError):
        set_backend(42)


def test_use_backend_scopes_and_restores(restore_backend):
    set_backend("generic")
    with use_backend("fused") as fused:
        assert get_backend() is fused
        assert fused.name == "fused"
    assert get_backend().name == "generic"


def test_use_backend_restores_on_error(restore_backend):
    set_backend("generic")
    with pytest.raises(RuntimeError):
        with use_backend("fused"):
            raise RuntimeError("boom")
    assert get_backend().name == "generic"


def test_register_backend_round_trip(restore_backend):
    class ProbeBackend(GenericBackend):
        name = "probe"

    register_backend("probe", ProbeBackend)
    try:
        assert "probe" in available_backends()
        with use_backend("probe") as probe:
            assert isinstance(probe, ProbeBackend)
    finally:
        backend_module._FACTORIES.pop("probe", None)


def test_backend_owns_array_module_and_arena():
    backend = FusedBackend()
    assert backend.xp is np
    assert backend.arena.xp is np
    assert isinstance(backend, ExecutionBackend)


def test_arena_stats_report_bundle_reuse(monkeypatch):
    monkeypatch.setattr(narrow, "_WIDEST", {})  # two elements: the kernel, not the replay
    backend = FusedBackend()
    x = np.array([[1.5, 2.5], [1e-20, 2e-20]])
    assert backend.arena.stats["allocated"] == 0
    backend.mul(x, x)
    first = backend.arena.stats
    assert first["allocated"] == 1
    assert 0 < first["peak_bytes"] <= first["workspace_bytes"]
    backend.mul(x, x)
    assert backend.arena.stats == first  # a repeated launch allocates nothing new
