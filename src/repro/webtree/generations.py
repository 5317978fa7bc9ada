"""Generational files: one manifest publishes every payload of a corpus.

A corpus at ``<store>`` carries two payloads over one page set: the
page planes (:mod:`repro.webtree.store`) and, once built, the inverted
index (:mod:`repro.retrieval.index`).  Both share one generation
counter and one manifest, so a single atomic rename publishes both and
no reader can see one payload ahead of the other.  This module owns
everything the payloads share; their modules keep only their codecs.

Files of a corpus (``G`` is the generation that published the file)::

    <store>               store base; alone it is generation 0
    <store>.seg-<G>       store segment: the pages generation G added
    <store>.idx-<G>       full index built at generation G
    <store>.idx.seg-<G>   index segment: postings of the pages G added
    <store>.gen           the manifest

The manifest::

    {"format": 2, "generation": G,
     "removed": ["<fingerprint>", ...],  # hidden in both payloads
     "store": ["<store>.seg-1", ...],    # segments over the base, in order
     "index": ["<store>.idx-1", ...]}    # absent until an index is built

Within a payload, later files shadow earlier ones per fingerprint and
``removed`` hides fingerprints in every file.  One ``removed`` set
serves both payloads because the index's page set *is* the store's.

A generation is published in a fixed order: every new payload file is
written to ``<file>.tmp``, fsynced and renamed into place, and only then
is the manifest written the same way.  The manifest rename is the one
commit point, so a crash at any byte leaves either the previous
manifest (whose files are all intact) or the new one.  Published
payload files are never rewritten (their names carry the generation),
except the store base, which compaction replaces in place: content
addressing makes the old manifest resolve every live fingerprint to
the same bytes in the new base.  Unreferenced files and ``*.tmp``
debris of both payloads are inert and :func:`collect_garbage` deletes
them.  One writer at a time; any number of readers.
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import IngestError

#: Format tag of the ``<store>.gen`` manifest.
MANIFEST_FORMAT = 2

_HEADER = struct.Struct("<8sII")
_FOOTER = struct.Struct("<QQ8s")

#: Names of payload files: ``.seg-G``, ``.idx-G``, ``.idx.seg-G``.
_PAYLOAD_FILE = re.compile(r"\.(seg|idx|idx\.seg)-\d+")


def _dump(value: object) -> bytes:
    return json.dumps(value, ensure_ascii=False, sort_keys=True).encode("utf-8")


class FileFormat:
    """The framing every payload file shares::

        header    magic (8 bytes) + u32 version + u32 flags
        body      payload bytes
        manifest  JSON object
        footer    u64 manifest offset + u64 manifest length + footer magic

    :meth:`open` validates the framing exactly (the manifest must end
    where the footer begins) and raises :class:`IngestError` naming the
    payload on any violation; the codec validates its own manifest.
    """

    header_size = _HEADER.size
    version = 1

    def __init__(self, noun: str, magic: bytes, footer_magic: bytes) -> None:
        self.noun = noun
        self.magic = magic
        self.footer_magic = footer_magic

    def corrupt(self, path: str, reason: str) -> IngestError:
        return IngestError(f"{self.noun} {path!r} is unreadable: {reason}")

    def header(self) -> bytes:
        return _HEADER.pack(self.magic, self.version, 0)

    def trailer(self, manifest_offset: int, manifest: dict) -> bytes:
        """Manifest JSON plus footer, for a manifest at ``manifest_offset``."""
        payload = _dump(manifest)
        return payload + _FOOTER.pack(
            manifest_offset, len(payload), self.footer_magic
        )

    def open(self, path: str) -> "tuple[np.memmap, dict, int]":
        """Map ``path``; return ``(raw bytes, manifest, manifest offset)``."""
        try:
            raw = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as exc:
            raise self.corrupt(path, str(exc)) from exc
        size = int(raw.size)
        if size < _HEADER.size + _FOOTER.size:
            raise self.corrupt(path, f"file too short ({size} bytes)")
        magic, version, _flags = _HEADER.unpack(raw[: _HEADER.size].tobytes())
        if magic != self.magic:
            raise self.corrupt(path, f"bad magic {magic!r}")
        if version != self.version:
            raise self.corrupt(path, f"unsupported version {version}")
        offset, length, footer_magic = _FOOTER.unpack(
            raw[size - _FOOTER.size :].tobytes()
        )
        if footer_magic != self.footer_magic:
            raise self.corrupt(path, "bad footer magic (truncated or corrupt)")
        if offset < _HEADER.size or offset + length + _FOOTER.size != size:
            raise self.corrupt(path, "manifest bounds do not match file size")
        try:
            manifest = json.loads(raw[offset : offset + length].tobytes())
        except (ValueError, UnicodeDecodeError) as exc:
            raise self.corrupt(path, f"manifest unreadable: {exc}") from exc
        if not isinstance(manifest, dict):
            raise self.corrupt(path, "manifest is not a JSON object")
        return raw, manifest, offset


def _fsync_dir(path: str) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class AtomicFile:
    """A file that appears at ``path`` whole or not at all.

    Writes go to ``<path>.tmp``; :meth:`commit` fsyncs it and renames it
    over ``path``, :meth:`abort` deletes it, and :meth:`abandon` stops
    writing and leaves it behind, as a crash would.  As a context
    manager it commits on success and aborts on an exception.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.tmp_path = self.path + ".tmp"
        self._file = open(self.tmp_path, "wb")
        self.closed = False

    def __enter__(self) -> "AtomicFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def write(self, data) -> int:
        return self._file.write(data)

    def commit(self) -> None:
        if self.closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self.abandon()
        os.replace(self.tmp_path, self.path)
        _fsync_dir(self.path)

    def abort(self) -> None:
        if self.closed:
            return
        self.abandon()
        try:
            os.unlink(self.tmp_path)
        except OSError:
            pass

    def abandon(self) -> None:
        """Close the tmp file and leave it where it is."""
        if not self.closed:
            self._file.close()
            self.closed = True


def publish_bytes(path: str, payload: bytes) -> None:
    """Atomically publish ``payload`` at ``path`` (tmp, fsync, rename)."""
    with AtomicFile(path) as out:
        out.write(payload)


def payload_file(store_path: str, kind: str, generation: int) -> str:
    """``<store>.<kind>-<G>``: the file payload ``kind`` publishes at G."""
    return f"{os.fspath(store_path)}.{kind}-{generation}"


@dataclass(frozen=True)
class Manifest:
    """One published generation of a corpus (see the module docstring).

    ``store`` and ``index`` hold file names relative to the store's
    directory; ``index`` is None while no index has been built.
    """

    generation: int = 0
    removed: frozenset = field(default_factory=frozenset)
    store: "tuple[str, ...]" = ()
    index: "tuple[str, ...] | None" = None


def manifest_path(store_path: str) -> str:
    return os.fspath(store_path) + ".gen"


def _names(value: object, what: str) -> "tuple[str, ...]":
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(value)


def read_manifest(store_path: str) -> Manifest:
    """The published manifest; generation 0 (base only) when there is none."""
    path = manifest_path(store_path)
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except FileNotFoundError:
        return Manifest()
    except OSError as exc:
        raise IngestError(f"corpus manifest {path!r} is unreadable: {exc}") from exc
    try:
        data = json.loads(payload.decode("utf-8"))
        version = data["format"]
        if version != MANIFEST_FORMAT:
            raise IngestError(
                f"corpus manifest {path!r} has format {version!r}, which this "
                "version does not read; rebuild the corpus with `repro corpus "
                "build` and `repro corpus index`"
            )
        generation = data["generation"]
        if not isinstance(generation, int) or generation < 0:
            raise ValueError("generation must be a non-negative integer")
        index = data.get("index")
        return Manifest(
            generation=generation,
            removed=frozenset(_names(data["removed"], "removed")),
            store=_names(data["store"], "store"),
            index=None if index is None else _names(index, "index"),
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise IngestError(
            f"corpus manifest {path!r} is unreadable: {exc}"
        ) from exc


def write_manifest(store_path: str, manifest: Manifest) -> None:
    """Publish ``manifest``: the commit point of its generation."""
    data = {
        "format": MANIFEST_FORMAT,
        "generation": manifest.generation,
        "removed": sorted(manifest.removed),
        "store": list(manifest.store),
    }
    if manifest.index is not None:
        data["index"] = list(manifest.index)
    publish_bytes(manifest_path(store_path), _dump(data))


class Layers:
    """One payload at one generation: its files composed into one view.

    ``files`` are opened payload files, each with a ``pages`` collection
    of fingerprints; ``owner`` maps every live fingerprint to the file
    that serves it (later files shadow earlier ones, ``removed`` hides).
    """

    __slots__ = ("manifest", "files", "owner")

    def __init__(self, manifest: Manifest, files: list) -> None:
        owner: dict = {}
        for opened in files:
            for fingerprint in opened.pages:
                owner[fingerprint] = opened
        for fingerprint in manifest.removed:
            owner.pop(fingerprint, None)
        self.manifest = manifest
        self.files = files
        self.owner = owner


class GenerationalReader:
    """What the store and index readers share: a :class:`Layers` view of
    one payload at one generation, behind a reader that is cheap to
    open, safe to share across threads and picklable by path.

    Every read takes ``self._view`` once, so a concurrent
    :meth:`_advance` never mixes two generations inside one call.
    :meth:`pinned` freezes a reader at its current generation.
    Subclasses implement :meth:`_open` (their codec).
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._view = self._open(read_manifest(self.path))

    def _open(self, manifest: Manifest) -> Layers:
        raise NotImplementedError

    def _resolve(self, name: str) -> str:
        return os.path.join(os.path.dirname(os.path.abspath(self.path)), name)

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"])

    @property
    def generation(self) -> int:
        return self._view.manifest.generation

    @property
    def manifest(self) -> Manifest:
        return self._view.manifest

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._view.owner

    def fingerprints(self):
        return iter(self._view.owner)

    def pinned(self) -> "GenerationalReader":
        """A reader of this reader's current generation that reloads
        never move (no file I/O).  Pinned readers may still advance
        explicitly, which only ever affects themselves."""
        clone = object.__new__(type(self))
        clone.path = self.path
        clone._lock = self._lock
        clone._view = self._view
        return clone

    def _advance(self, manifest: Manifest) -> bool:
        """Open ``manifest``'s generation if it is newer; True if moved.

        Readers only move forward, so a slow caller holding an older
        manifest can never undo a newer reload.
        """
        with self._lock:
            if manifest.generation <= self._view.manifest.generation:
                return False
            self._view = self._open(manifest)
            return True


def collect_garbage(store_path: str) -> "list[str]":
    """Delete corpus files the published manifest does not reference.

    Covers both payloads: unreferenced store segments, index files and
    index segments (superseded by a rebuild or compaction, or published
    by an update that crashed before its manifest swap), plus every
    ``*.tmp`` of an interrupted write.  Returns the deleted paths.
    Readers are unaffected: they only open referenced files, and
    unlinking never disturbs an open memmap.  Assumes the single-writer
    rule (a writer in another process would lose its in-flight tmp).
    """
    store_path = os.fspath(store_path)
    manifest = read_manifest(store_path)
    referenced = set(manifest.store) | set(manifest.index or ())
    directory = os.path.dirname(os.path.abspath(store_path))
    base = os.path.basename(store_path)
    deleted: list[str] = []
    for name in sorted(os.listdir(directory)):
        if not name.startswith(base + "."):
            continue
        suffix = name[len(base) :]
        if suffix.endswith(".tmp"):
            stem = suffix[: -len(".tmp")]
            stale = stem in ("", ".gen") or _PAYLOAD_FILE.fullmatch(stem)
        else:
            stale = _PAYLOAD_FILE.fullmatch(suffix) and name not in referenced
        if not stale:
            continue
        target = os.path.join(directory, name)
        try:
            os.unlink(target)
        except OSError:
            continue
        deleted.append(target)
    return deleted
