"""Checkpoint serialization: text manifest plus raw float32 payload.

Layout, in one file:

    forge-checkpoint <format version>
    config <config fields as JSON>
    tensor <name> <dim,dim,...> <byte offset into payload>
    ...                                  (names sorted lexicographically)
    payload
    <raw little-endian IEEE-754 float32, tensors in directory order>

The payload is written verbatim from the tensor buffers, so a load
followed by a save reproduces the file byte for byte.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .model import CHECKPOINT_FORMAT_VERSION, Checkpoint, ModelConfig, validate_checkpoint
from .tensor import Tensor

_MAGIC = "forge-checkpoint"


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write a validated checkpoint; float64 tensors are cast to float32."""
    validate_checkpoint(ckpt)
    names = sorted(ckpt.params)
    header = io.StringIO()
    header.write(f"{_MAGIC} {ckpt.format_version}\n")
    header.write(f"config {json.dumps(ckpt.config.to_dict(), sort_keys=True)}\n")
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(ckpt.params[name].data, dtype=np.float32)
        dims = ",".join(str(d) for d in arr.shape)
        header.write(f"tensor {name} {dims} {offset}\n")
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header.write("payload\n")
    with open(path, "wb") as f:
        f.write(header.getvalue().encode("utf-8"))
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file, validating directory and payload extents."""
    raw = Path(path).read_bytes()
    sep = raw.find(b"payload\n")
    if sep < 0:
        raise ValueError(f"{path}: missing payload marker; not a checkpoint file")
    head_lines = raw[:sep].decode("utf-8").splitlines()
    payload = raw[sep + len(b"payload\n"):]

    if not head_lines or not head_lines[0].startswith(_MAGIC + " "):
        raise ValueError(f"{path}: bad magic line")
    version = int(head_lines[0].split()[1])
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if len(head_lines) < 2 or not head_lines[1].startswith("config "):
        raise ValueError(f"{path}: missing config line")
    try:
        config = ModelConfig.from_dict(json.loads(head_lines[1][len("config "):]))
    except ValueError as e:
        raise ValueError(f"{path}: bad config line ({e})") from None

    params: dict[str, Tensor] = {}
    expected_offset = 0
    for line in head_lines[2:]:
        kind, name, dims, offset = line.split(" ")
        if kind != "tensor":
            raise ValueError(f"{path}: unexpected manifest line {line!r}")
        shape = tuple(int(d) for d in dims.split(","))
        offset = int(offset)
        if offset != expected_offset:
            raise ValueError(f"{path}: tensor {name} offset {offset}, expected {expected_offset}")
        nbytes = int(np.prod(shape)) * 4
        blob = payload[offset : offset + nbytes]
        if len(blob) != nbytes:
            raise ValueError(f"{path}: payload truncated at tensor {name}")
        arr = np.frombuffer(blob, dtype="<f4").reshape(shape).copy()
        params[name] = Tensor(arr, requires_grad=True)
        expected_offset += nbytes
    if expected_offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - expected_offset} trailing payload bytes")

    ckpt = Checkpoint(config=config, params=params, format_version=version)
    validate_checkpoint(ckpt)
    return ckpt
