"""Saving, loading and rebuilding Decima models.

Two serialization forms live here:

* :class:`CheckpointStore` — the only way a policy reaches disk: a directory
  of versioned npz checkpoints with monotonic version ids, fingerprint-verified
  loads, bounded retention and an atomically replaced ``latest.json`` pointer
  that alone says which version is latest.  Training runs save into a store;
  the serving layer and the online-learning loop load from and append to the
  same store.
* in-memory :class:`AgentSpec` records that let another process reconstruct
  an architecturally identical agent (used by the parallel rollout workers
  and the fleet's shard processes, which rebuild the agent once and then
  refresh its weights from ``state_dict`` payloads).
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .agent import DecimaAgent, DecimaConfig
from .features import FeatureConfig
from .nn import Module

__all__ = [
    "CheckpointInfo",
    "CheckpointStore",
    "AgentSpec",
    "agent_spec",
    "build_agent",
    "parameter_fingerprint",
    "LATEST_POINTER",
]

# The store's pointer file: names the latest version and its fingerprint.
LATEST_POINTER = "latest.json"

# Store checkpoints are named ckpt-<version>.npz with a fixed-width version so
# lexicographic and numeric order agree.
_CHECKPOINT_PATTERN = re.compile(r"^ckpt-(\d{6,})\.npz$")


def parameter_fingerprint(model: Module, decimals: int = 5) -> str:
    """Stable hash of a model's parameters, rounded to ``decimals`` places.

    Used by the equivalence suite to assert that fixed-seed training lands on
    the same weights under the sparse and dense inference paths: the two paths
    sum child messages in different floating-point orders, so parameters agree
    to ~1e-12 but not bit-for-bit — rounding before hashing absorbs that while
    still catching any real divergence.
    """
    digest = hashlib.sha256()
    for parameter in model.parameters():
        # ``+ 0.0`` normalises -0.0 (np.round(-1e-9, 5)) to +0.0 so the two
        # byte patterns hash identically.
        rounded = np.round(parameter.data, decimals) + 0.0
        digest.update(rounded.tobytes())
        digest.update(str(rounded.shape).encode())
    return digest.hexdigest()


@dataclass
class AgentSpec:
    """Picklable description of an agent's architecture (not its weights)."""

    total_executors: int
    config: DecimaConfig


def agent_spec(agent: DecimaAgent) -> AgentSpec:
    """Capture everything needed to rebuild ``agent`` in another process.

    Another process always rebuilds a plain :class:`DecimaAgent`, so a
    subclass (the reference agents of :mod:`repro.verify.oracles`) is refused
    rather than silently turned into the product agent on the other side.
    """
    if type(agent) is not DecimaAgent:
        raise TypeError(
            f"only a DecimaAgent can cross a process boundary, not {type(agent).__name__}"
        )
    return AgentSpec(
        total_executors=agent.total_executors,
        config=copy.deepcopy(agent.config),
    )


def build_agent(
    spec: AgentSpec, state: Optional[dict[str, np.ndarray]] = None
) -> DecimaAgent:
    """Construct a fresh agent from ``spec``, optionally loading weights."""
    agent = DecimaAgent(spec.total_executors, config=copy.deepcopy(spec.config))
    if state is not None:
        agent.load_state_dict(state)
    return agent


def _config_from_jsonable(payload: dict) -> DecimaConfig:
    """Rebuild a :class:`DecimaConfig` from checkpoint metadata.

    Unknown keys are ignored (newer checkpoints read by older code) and
    missing keys keep their defaults (older checkpoints, which only stored
    scalar fields, read by newer code).
    """
    known = {field.name for field in DecimaConfig.__dataclass_fields__.values()}
    kwargs = {key: value for key, value in payload.items() if key in known}
    if isinstance(kwargs.get("feature"), dict):
        feature_known = {f.name for f in FeatureConfig.__dataclass_fields__.values()}
        kwargs["feature"] = FeatureConfig(
            **{k: v for k, v in kwargs["feature"].items() if k in feature_known}
        )
    else:
        kwargs.pop("feature", None)
    if "hidden_sizes" in kwargs:
        kwargs["hidden_sizes"] = tuple(kwargs["hidden_sizes"])
    return DecimaConfig(**kwargs)


def _write_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` under a temporary name (one that matches neither the
    pointer nor ``ckpt-*.npz``), then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_archive(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """``(metadata, state_dict)`` of one checkpoint file, opened once."""
    import zipfile  # np.load imports it here too; serving processes never do

    try:
        archive = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError) as error:
        raise ValueError(f"checkpoint {path.name!r} is not an npz: {error}") from None
    with archive:
        if "__meta__" not in archive.files:
            raise ValueError(f"checkpoint {path.name!r} has no __meta__ entry")
        try:
            meta = json.loads(str(archive["__meta__"]))
        except json.JSONDecodeError as error:
            raise ValueError(f"checkpoint metadata is corrupt: {error}") from None
        if not isinstance(meta, dict) or "total_executors" not in meta:
            raise ValueError(
                "checkpoint metadata is corrupt: missing the 'total_executors' entry"
            )
        state = {key: archive[key] for key in archive.files if key != "__meta__"}
    return meta, state


@dataclass(frozen=True)
class CheckpointInfo:
    """One versioned checkpoint inside a :class:`CheckpointStore`."""

    version: int
    path: Path
    fingerprint: str


class CheckpointStore:
    """Directory of versioned agent checkpoints with an atomic latest pointer.

    Checkpoints are named ``ckpt-<version>.npz`` with strictly increasing
    version ids.  Which one is *latest* is whatever ``latest.json`` says and
    nothing else: :meth:`save` writes the npz under a temporary name, renames
    it, then replaces the pointer, so a save that dies at any point leaves
    the store answering with the previous complete version.  The directory
    listing only picks the next id and feeds garbage collection — a stray or
    half-written ``ckpt-*.npz`` the pointer never named is not served.

    ``retain`` bounds disk usage: after each save, versions older than the
    newest ``retain`` are deleted.  Pass ``retain=None`` to keep everything.
    """

    def __init__(self, directory: Union[str, Path], retain: Optional[int] = 8):
        if retain is not None and retain < 1:
            raise ValueError(f"retain must be >= 1 or None, got {retain}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retain = retain

    # -- enumeration ------------------------------------------------------

    def versions(self) -> list[int]:
        """Sorted version ids of every checkpoint file currently on disk."""
        matches = map(_CHECKPOINT_PATTERN.match, os.listdir(self.directory))
        return sorted(int(match.group(1)) for match in matches if match)

    def latest_version(self) -> Optional[int]:
        """The version the pointer names, or None for a store never saved to."""
        pointer = self._read_pointer()
        return None if pointer is None else pointer["version"]

    def path_for(self, version: int) -> Path:
        return self.directory / f"ckpt-{version:06d}.npz"

    def info(self, version: Optional[int] = None) -> CheckpointInfo:
        """Version, path and recorded fingerprint of ``version`` (default: latest)."""
        version, path, _ = self._locate(version)
        meta, _ = _read_archive(path)
        return CheckpointInfo(version, path, meta.get("fingerprint", ""))

    # -- save / load ------------------------------------------------------

    def save(self, agent: DecimaAgent) -> CheckpointInfo:
        """Write ``agent`` as the next version (one past every ``ckpt-*.npz``
        on disk, pointed-to or not) and move the latest pointer to it."""
        on_disk = self.versions()
        version = max(on_disk, default=0) + 1
        path = self.path_for(version)
        fingerprint = parameter_fingerprint(agent)
        meta = {
            "total_executors": agent.total_executors,
            "num_parameters": agent.num_parameters(),
            "config": asdict(agent.config),
            "fingerprint": fingerprint,
        }
        archive = io.BytesIO()
        np.savez(archive, __meta__=json.dumps(meta), **agent.state_dict())
        _write_atomically(path, archive.getvalue())
        pointer = json.dumps({"fingerprint": fingerprint, "version": version}, indent=2)
        _write_atomically(self.directory / LATEST_POINTER, (pointer + "\n").encode())
        if self.retain is not None:
            for old in on_disk:
                if old <= version - self.retain:
                    self.path_for(old).unlink(missing_ok=True)
        return CheckpointInfo(version, path, fingerprint)

    def load(self, version: Optional[int] = None) -> DecimaAgent:
        """Rebuild ``version`` (default: latest) — architecture and weights.

        The fingerprint stored inside the npz metadata must match the loaded
        weights; for the latest version, the pointer's fingerprint is checked
        too, so a file swapped behind the pointer's back fails loudly.
        """
        _, path, pointer_fingerprint = self._locate(version)
        meta, state = _read_archive(path)
        agent = DecimaAgent(
            int(meta["total_executors"]),
            config=_config_from_jsonable(meta.get("config", {})),
        )
        agent.load_state_dict(state)
        actual = parameter_fingerprint(agent)
        for voucher, expected in (
            ("its recorded", meta.get("fingerprint")),
            (f"the {LATEST_POINTER}", pointer_fingerprint),
        ):
            if expected not in (None, actual):
                raise ValueError(
                    f"checkpoint {path.name!r} does not match {voucher} fingerprint "
                    f"(expected {expected}, loaded {actual}) — was the file "
                    "changed after it was saved?"
                )
        return agent

    def load_state(self, version: Optional[int] = None) -> dict[str, np.ndarray]:
        """Raw ``state_dict`` payload of ``version`` (default: latest)."""
        _, path, _ = self._locate(version)
        return _read_archive(path)[1]

    # -- internals --------------------------------------------------------

    def _locate(self, version: Optional[int]) -> tuple[int, Path, Optional[str]]:
        """``(version, path, pointer fingerprint)``: ``None`` asks the pointer,
        an explicit version carries no pointer fingerprint."""
        fingerprint = None
        if version is None:
            pointer = self._read_pointer()
            if pointer is None:
                raise FileNotFoundError(
                    f"{self.directory / LATEST_POINTER} not found — the checkpoint "
                    "store is empty, save() first"
                )
            version, fingerprint = pointer["version"], pointer.get("fingerprint")
        path = self.path_for(version)
        if not path.exists():
            raise FileNotFoundError(
                f"checkpoint version {version} not found in {self.directory} "
                f"(have {self.versions() or 'none'})"
            )
        return version, path, fingerprint

    def _read_pointer(self) -> Optional[dict]:
        pointer = self.directory / LATEST_POINTER
        try:
            text = pointer.read_text()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"{pointer} is corrupt: {error}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("version"), int):
            raise ValueError(f"{pointer} is corrupt: missing the 'version' entry")
        return payload
