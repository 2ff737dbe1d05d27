"""Text and binary formats: point configs, triangulations, checkpoints, logs.

All writers are canonical (sorted, stable field order) so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .errors import CheckpointError, DegenerateConfig, FormatError
from .geometry import PointConfig
from .triangulation import Triangulation

CHECKPOINT_MAGIC = b"FFCK"
CHECKPOINT_VERSION = 1


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _content_lines(text: str):
    """``(lineno, content)`` of each line left nonempty once its comment is stripped."""
    stripped = ((lineno, _strip(raw)) for lineno, raw in enumerate(text.splitlines(), start=1))
    return [(lineno, content) for lineno, content in stripped if content]


def _read_text(path) -> str:
    """The file's UTF-8 text; any other byte is a data error naming its line."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode()
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason})", line=line) from None


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad rational {token!r}", line=lineno) from None


def parse_point_config(text: str) -> PointConfig:
    """Format: line 1 ``d n is_lattice``, then n lines of d rationals.

    Rationals are ``p/q`` or plain integers, whitespace separated; ``#``
    starts a comment anywhere.  The points must number at least d+1 and span
    dimension d, and ``is_lattice 1`` needs integer coordinates.
    """
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty point configuration file", line=1)
    (header_line, header), body = lines[0], lines[1:]
    tokens = header.split()
    if len(tokens) != 3:
        raise FormatError("header must be 'd n is_lattice'", line=header_line)
    try:
        dim, count, lattice_flag = int(tokens[0]), int(tokens[1]), int(tokens[2])
    except ValueError:
        raise FormatError("non-integer header field", line=header_line) from None
    if lattice_flag not in (0, 1):
        raise FormatError("is_lattice must be 0 or 1", line=header_line)
    if len(body) != count:
        raise FormatError(
            f"expected {count} point lines, found {len(body)}",
            line=body[-1][0] if body else header_line,
        )
    points = []
    for lineno, content in body:
        toks = content.split()
        if len(toks) != dim:
            raise FormatError(f"expected {dim} coordinates", line=lineno)
        points.append(tuple(_parse_rational(t, lineno) for t in toks))
    try:
        return PointConfig(dim, points, is_lattice=bool(lattice_flag))
    except (DegenerateConfig, ValueError) as exc:
        raise FormatError(str(exc)) from None


def format_point_config(config: PointConfig) -> str:
    lines = [f"{config.dim} {config.n} {1 if config.is_lattice else 0}"]
    for p in config.points:
        lines.append(" ".join(_format_rational(c) for c in p))
    return "\n".join(lines) + "\n"


def _format_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def read_point_config(path) -> PointConfig:
    return parse_point_config(_read_text(path))


def write_point_config(path, config: PointConfig):
    Path(path).write_text(format_point_config(config))


def _parse_block(lines) -> Triangulation:
    """The triangulation of ``(lineno, content)`` lines: distinct integer vertex
    indices on each, as many as on most lines of the block."""
    simplices = []
    for lineno, content in lines:
        try:
            simplices.append(tuple(int(t) for t in content.split()))
        except ValueError:
            raise FormatError("non-integer vertex index", line=lineno) from None
    try:
        return Triangulation(simplices)
    except ValueError:  # some simplex repeats an index or has a size other lines lack
        size = Counter(map(len, simplices)).most_common(1)[0][0]
        bad = (line for line, s in zip(lines, simplices) if not len(set(s)) == len(s) == size)
        lineno, content = next(bad)
        raise FormatError(f"simplex {content!r} is not {size} distinct indices", line=lineno) from None


def parse_triangulation(text: str) -> Triangulation:
    """One simplex per line: space-separated sorted vertex indices."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("no simplices in triangulation block", line=1)
    return _parse_block(lines)


def format_triangulation(tri: Triangulation) -> str:
    # lines ordered by the numeric vertex tuples, which makes files canonical
    return "\n".join(" ".join(str(v) for v in s) for s in tri.simplices) + "\n"


def read_triangulation(path) -> Triangulation:
    return parse_triangulation(_read_text(path))


def write_triangulation(path, tri: Triangulation):
    Path(path).write_text(format_triangulation(tri))


def parse_triangulation_set(text: str):
    """Blank-line separated blocks, each a triangulation in the line format; a
    comment-only line is skipped, and splits no block."""
    blocks = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = _strip(raw)
        if content:
            blocks[-1].append((lineno, content))
        elif not raw.strip() and blocks[-1]:
            blocks.append([])
    return [_parse_block(b) for b in blocks if b]


def format_triangulation_set(tris) -> str:
    return "\n".join(format_triangulation(t) for t in tris)


def read_triangulation_set(path):
    return parse_triangulation_set(_read_text(path))


def write_triangulation_set(path, tris):
    Path(path).write_text(format_triangulation_set(tris))


def write_checkpoint(path, model: PolicyModel, extra: dict | None = None):
    """Binary layout: magic, version, config digest, config JSON, named blocks.

    Parameter blocks are shape-prefixed row-major float64, little-endian.
    """
    import numpy as np

    config_json = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    extra_json = json.dumps(extra or {}, sort_keys=True).encode()
    digest = model.config.digest().encode()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    for blob in (digest, config_json, extra_json):
        out += struct.pack("<I", len(blob))
        out += blob
    names = sorted(model.params)
    out += struct.pack("<I", len(names))
    for name in names:
        encoded = name.encode()
        array = np.ascontiguousarray(model.params[name], dtype="<f8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", array.ndim)
        for d in array.shape:
            out += struct.pack("<I", d)
        out += array.tobytes()
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, count):
        if self.pos + count > len(self.blob):
            raise CheckpointError("truncated checkpoint file")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))


def read_checkpoint(path):
    """Returns (PolicyModel, extra dict); validates magic, version, digest, and that
    the blocks have the names and shapes ``init_parameters`` gives the stored config."""
    import numpy as np

    from .policy import ModelConfig, PolicyModel, init_parameters

    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = reader.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch: expected {CHECKPOINT_VERSION}, found {version}"
        )
    blobs = []
    for _ in range(3):
        (length,) = reader.unpack("<I")
        blobs.append(reader.take(length))
    digest, config_json, extra_json = blobs
    try:
        config = ModelConfig.from_dict(json.loads(config_json.decode()))
        extra = json.loads(extra_json.decode())
        want = {k: v.shape for k, v in init_parameters(config, np.random.default_rng(0)).items()}
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from None
    if config.digest().encode() != digest:
        raise CheckpointError("model config digest mismatch")
    (nblocks,) = reader.unpack("<I")
    params = {}
    for _ in range(nblocks):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"parameter block name is not UTF-8: {exc}") from None
        if name in params:
            raise CheckpointError(f"repeated parameter block {name!r}")
        (ndim,) = reader.unpack("<B")
        shape = tuple(reader.unpack("<I")[0] for _ in range(ndim))
        data = np.frombuffer(reader.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        params[name] = np.array(data, dtype=np.float64)
    if reader.pos != len(reader.blob):
        raise CheckpointError("trailing bytes after parameter blocks")
    got = {k: v.shape for k, v in params.items()}
    if got != want:
        name = min(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        found, needed = (shapes.get(name, "no block") for shapes in (got, want))
        raise CheckpointError(f"parameter block {name!r}: found {found}, the config needs {needed}")
    return PolicyModel(config, params), extra


def append_jsonl(path, record: dict):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path):
    records = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw))
        except ValueError:
            raise FormatError("bad JSON record", line=lineno) from None
    return records


def write_tsv(path, header, rows):
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:
        raise FormatError(f"bad JSON in {path}: {exc}") from None
