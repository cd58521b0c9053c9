"""Model serialization, including DropBack's sparse checkpoint format.

A DropBack-trained network needs to persist only:

* the global **seed** (every untracked weight regenerates from it),
* the **tracked set**: flat indices + trained values (k entries),
* BatchNorm running statistics (training statistics, not weights).

Everything else is recomputed on load.  This is the storage story behind
the paper's "weight compression" column: a 25x-compressed LeNet checkpoint
really is ~25x smaller than the dense one.

:func:`save_sparse` / :func:`load_sparse` implement that format on top of
``numpy.savez``; :func:`save_dense` / :func:`load_dense` store the full
state for baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import DropBack
from repro.nn import Module

__all__ = [
    "save_dense",
    "load_dense",
    "save_sparse",
    "load_sparse",
    "read_sparse_payload",
    "apply_sparse_payload",
    "SparsePayload",
    "PayloadError",
    "sparse_size_bytes",
    "dense_size_bytes",
    "compression_report",
]

_FORMAT_VERSION = 1


class PayloadError(ValueError):
    """A sparse payload whose tracked set cannot address a weight plane."""


@dataclass
class SparsePayload:
    """In-memory content of a sparse (or quantized-sparse) checkpoint.

    This is the wire format decoded once: everything a serving layer needs
    to materialize the full weight plane on demand — seed, tracked
    indices/values (already dequantized for the quantized format), and the
    BatchNorm running statistics.  ``kind`` is ``"sparse"`` or
    ``"quantized"``; ``bits`` is set only for the latter.

    Construction validates the tracked set once — 1-D, non-negative,
    strictly increasing indices with one value each — so every consumer
    can scatter or slice it without re-checking; a bad set raises
    :class:`PayloadError`.  The range check needs the architecture and
    lives in :meth:`check_fits`.
    """

    seed: int
    indices: np.ndarray
    values: np.ndarray
    zero_untracked: bool = False
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    kind: str = "sparse"
    bits: int | None = None

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float32)
        idx = self.indices
        if idx.ndim != 1:
            raise PayloadError(f"tracked indices must be 1-D, got shape {idx.shape}")
        if self.values.shape != idx.shape:
            raise PayloadError(
                f"{idx.size} tracked indices but values of shape {self.values.shape}"
            )
        lowest = idx.min(initial=0)
        if lowest < 0:
            raise PayloadError(f"negative tracked index {lowest}")
        steps = np.flatnonzero(np.diff(idx) <= 0)
        if steps.size:
            i = int(steps[0])
            raise PayloadError(
                "tracked indices must be strictly increasing: "
                f"{idx[i]} then {idx[i + 1]} at position {i + 1}"
            )

    def check_fits(self, model: Module) -> None:
        """Raise :class:`PayloadError` unless every tracked index addresses
        one of ``model``'s parameters (finalized or not)."""
        total = model.num_parameters()
        if self.indices.size and self.indices[-1] >= total:
            raise PayloadError(
                f"checkpoint indices exceed model parameter count: tracked "
                f"index {self.indices[-1]} >= {total}"
            )

    @property
    def k(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Bytes this decoded payload pins in memory (indices + values + buffers)."""
        return int(
            self.indices.nbytes
            + self.values.nbytes
            + sum(b.nbytes for b in self.buffers.values())
        )


def read_sparse_payload(path: str) -> SparsePayload:
    """Decode a sparse or quantized-sparse checkpoint into a payload.

    Accepts both on-disk formats (:func:`save_sparse` and
    :func:`~repro.io.quantized.save_sparse_quantized`); quantized values
    come back dequantized to float32.  Dense checkpoints are rejected —
    they carry no (seed, tracked set) pair to regenerate from.
    """
    with np.load(path) as data:
        if "__qformat__" in data.files:
            from repro.quant import UniformQuantizer

            version = int(data["__qformat__"])
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported quantized checkpoint version: {version}")
            bits = int(data["bits"])
            quant = UniformQuantizer(bits=bits)
            values = quant.dequantize(data["q_values"], float(data["scale"]))
            payload = SparsePayload(
                seed=int(data["seed"]),
                indices=data["indices"],
                values=values,
                kind="quantized",
                bits=bits,
            )
        elif "__format__" in data.files:
            version = int(data["__format__"])
            if version == 0:
                raise ValueError(
                    "dense checkpoint: no (seed, tracked set) to regenerate from; "
                    "use load_dense"
                )
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported sparse checkpoint version: {version}")
            payload = SparsePayload(
                seed=int(data["seed"]),
                indices=data["indices"],
                values=data["values"],
                zero_untracked=bool(int(data["zero_untracked"])),
            )
        else:
            raise ValueError(f"not a repro checkpoint: {path}")
        payload.buffers = {
            key[len("buffer::"):]: np.array(data[key])
            for key in data.files
            if key.startswith("buffer::")
        }
    return payload


def save_dense(model: Module, path: str) -> None:
    """Save all parameters and buffers densely."""
    state = model.state_dict()
    np.savez(path, __format__=np.int64(0), **state)


def load_dense(model: Module, path: str) -> Module:
    """Load a dense checkpoint into a compatible model."""
    with np.load(path) as data:
        state = {k: data[k] for k in data.files if k != "__format__"}
    model.load_state_dict(state)
    return model


def save_sparse(model: Module, optimizer: DropBack, path: str) -> None:
    """Save seed + tracked (index, value) pairs + BN buffers.

    Parameters
    ----------
    model:
        The trained, finalized model.
    optimizer:
        The DropBack optimizer that trained it (owns the tracked mask).
    path:
        Output ``.npz`` path.
    """
    indices, values = optimizer.tracked_set()
    payload: dict[str, np.ndarray] = {
        "__format__": np.int64(_FORMAT_VERSION),
        "seed": np.int64(model.seed),
        "k": np.int64(optimizer.k),
        "zero_untracked": np.int64(int(optimizer.zero_untracked)),
        "indices": indices,
        "values": values,
    }
    # Buffers (BatchNorm running stats) are statistics and stored densely.
    for mod_name, buf_name, buf in model._named_buffers():
        payload[f"buffer::{mod_name}{buf_name}"] = buf
    np.savez(path, **payload)


def load_sparse(model: Module, path: str) -> Module:
    """Reconstruct a DropBack-trained model from a sparse checkpoint.

    The model must be the same architecture; it is re-finalized with the
    stored seed (regenerating all initial values), untracked weights keep
    those values (or zero, if the run used the zeroing ablation), and the
    tracked values are scattered back in.
    """
    payload = read_sparse_payload(path)
    if payload.kind != "sparse":
        raise ValueError(
            f"{payload.kind} checkpoint; use load_sparse_quantized (or read_sparse_payload)"
        )
    return apply_sparse_payload(model, payload)


def apply_sparse_payload(model: Module, payload: SparsePayload) -> Module:
    """Materialize a decoded payload into ``model``: the dense weight path.

    Finalizing with the payload's seed regenerates W(0) into a fresh
    weight plane that every parameter views; the checkpoint's flat index
    space *is* that plane's layout, so the tracked values land in one
    vectorized scatter (after zeroing the plane for ``zero_untracked``
    payloads).  BatchNorm buffers are then restored.
    """
    payload.check_fits(model)
    plane = model.finalize(payload.seed).weight_plane
    if payload.zero_untracked:
        plane.fill(0.0)
    plane[payload.indices] = payload.values
    for dotted, arr in payload.buffers.items():
        model._set_buffer(dotted, arr)
    return model


def sparse_size_bytes(optimizer: DropBack) -> int:
    """Idealized sparse checkpoint payload: k x (int32 index + float32 value)."""
    n = int(min(optimizer.k, optimizer.total_prunable))
    return n * (4 + 4) + 8  # + seed


def dense_size_bytes(model: Module) -> int:
    """Idealized dense checkpoint payload: one float32 per parameter."""
    return model.num_parameters() * 4


def compression_report(model: Module, optimizer: DropBack) -> dict[str, float]:
    """Storage comparison between dense and sparse formats."""
    dense = dense_size_bytes(model)
    sparse = sparse_size_bytes(optimizer)
    return {
        "dense_bytes": float(dense),
        "sparse_bytes": float(sparse),
        "byte_ratio": dense / sparse,
        "weight_compression": optimizer.compression_ratio,
    }
