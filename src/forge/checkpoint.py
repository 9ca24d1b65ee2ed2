"""Checkpoint serialization: text manifest plus raw float32 payload.

Layout, in one file:

    forge-checkpoint <format version>
    config <config fields as JSON>
    tensor <name> <dim,dim,...> <byte offset into payload>
    ...                                  (names sorted lexicographically)
    payload
    <raw little-endian IEEE-754 float32, tensors in directory order>

The payload is streamed: a save writes each tensor's buffer to the file in
turn, and a load reads each tensor from the file straight into its array, so
neither stages a copy of the whole payload. The bytes are the tensor buffers
verbatim, so a load followed by a save reproduces the file byte for byte.
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np

from .model import Checkpoint, ModelConfig, validate_checkpoint
from .tensor import Tensor

_MAGIC = "forge-checkpoint"
CHECKPOINT_FORMAT_VERSION = 1


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write a validated checkpoint one tensor buffer at a time; a float64 or
    non-contiguous tensor is cast to a float32 copy, one tensor at a time."""
    validate_checkpoint(ckpt)
    names = sorted(ckpt.params)
    header = io.StringIO()
    header.write(f"{_MAGIC} {CHECKPOINT_FORMAT_VERSION}\n")
    header.write(f"config {json.dumps(ckpt.config.to_dict(), sort_keys=True)}\n")
    offset = 0
    for name in names:
        shape = ckpt.params[name].shape
        header.write(f"tensor {name} {','.join(str(d) for d in shape)} {offset}\n")
        offset += math.prod(shape) * 4
    header.write("payload\n")
    with open(path, "wb") as f:
        f.write(header.getvalue().encode("utf-8"))
        for name in names:
            f.write(np.ascontiguousarray(ckpt.params[name].data, dtype=np.float32))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file, validating directory and payload extents; a
    malformed header or payload raises ValueError naming the path. Each
    tensor is read from the file straight into its array."""
    with open(path, "rb") as f:
        head = []  # the header ends at the first b"payload\n", which ends a line
        while not (line := f.readline()).endswith(b"payload\n"):
            if not line:
                raise ValueError(f"{path}: missing payload marker; not a checkpoint file")
            head.append(line)
        head.append(line[: -len(b"payload\n")])
        head_lines = b"".join(head).decode("utf-8", errors="replace").splitlines()  # bad bytes fail a check below
        payload_len = os.fstat(f.fileno()).st_size - f.tell()

        if not head_lines or not head_lines[0].startswith(_MAGIC + " "):
            raise ValueError(f"{path}: bad magic line")
        version = head_lines[0][len(_MAGIC) + 1:]
        if version != str(CHECKPOINT_FORMAT_VERSION):
            raise ValueError(f"{path}: unsupported format version {version!r}")
        if len(head_lines) < 2 or not head_lines[1].startswith("config "):
            raise ValueError(f"{path}: missing config line")
        try:
            config = ModelConfig.from_dict(json.loads(head_lines[1][len("config "):]))
        except ValueError as e:
            raise ValueError(f"{path}: bad config line ({e})") from None

        params: dict[str, Tensor] = {}
        expected_offset = 0
        for line in head_lines[2:]:
            try:
                kind, name, dims, offset = line.split(" ")
                shape, offset = tuple(int(d) for d in dims.split(",")), int(offset)
            except ValueError:  # too few or too many fields, or a non-integer size
                kind = None
            if kind != "tensor" or min(shape) < 0:
                raise ValueError(f"{path}: unexpected manifest line {line!r}")
            if offset != expected_offset:
                raise ValueError(f"{path}: tensor {name} offset {offset}, expected {expected_offset}")
            nbytes = math.prod(shape) * 4
            # the extent is checked before the array is allocated; a short read fails too
            if offset + nbytes > payload_len or f.readinto(arr := np.empty(shape, dtype="<f4")) != nbytes:
                raise ValueError(f"{path}: payload truncated at tensor {name}")
            params[name] = Tensor(arr, requires_grad=True)
            expected_offset += nbytes
    if expected_offset != payload_len:
        raise ValueError(f"{path}: {payload_len - expected_offset} trailing payload bytes")

    ckpt = Checkpoint(config=config, params=params)
    try:
        validate_checkpoint(ckpt)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return ckpt
