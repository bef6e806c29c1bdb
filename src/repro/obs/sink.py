"""The observation directory: every stream of an observed run, fixed names.

``repro-experiment ... --obs DIR`` writes each stream the run produced
into ``DIR`` under a fixed file name; ``tools/trace_report.py DIR`` and
``tools/obs_dashboard.py DIR`` read the same names back.  The names are
the whole contract — there is no manifest, so what is on disk is the only
record of what the run wrote:

=================  ===========================  ==============================
file               stream                       ``--validate`` checks
=================  ===========================  ==============================
``trace.json``     Chrome trace (tracer)        the whole file, schema root
``metrics.jsonl``  metrics registry             —
``requests.jsonl`` per-request lifecycles       ``request`` → request_event
``slo.jsonl``      SLO states + alerts          ``slo_state`` → slo_state,
                                                ``alert`` → alert_event
``critpath.jsonl`` critical-path profiles and   ``critpath_profile`` →
                   what-if records              critpath_record, ``whatif``
                                                → whatif_record
=================  ===========================  ==============================

Schema names are ``$defs`` of ``tools/trace_schema.json``.  The tracer,
metrics registry and request log live in the runner's process and
:func:`write` exports them; ``slo.jsonl`` and ``critpath.jsonl`` are
written by the experiments that take the matching ``slo_log`` /
``critpath_log`` parameter, which the runner points into the directory.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Union

from .schema import validate, validate_def

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hooks import Observation

__all__ = ["LAYOUT", "Stream", "prepare", "read", "stream_path", "violations", "write"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Stream:
    """One file of the observation directory.

    ``meta_kind`` names a JSONL stream's header record (never validated);
    ``defs`` maps every other record ``kind`` to its ``$defs`` schema, and
    a kind missing from a non-empty ``defs`` is a violation.  ``param`` is
    the experiment parameter the runner routes the file through, for
    streams the experiments write themselves.
    """

    name: str
    filename: str
    meta_kind: Optional[str] = None
    defs: Mapping[str, str] = field(default_factory=dict)
    param: Optional[str] = None


#: The directory layout, in the order every reader reports the streams.
LAYOUT = (
    Stream("trace", "trace.json"),
    Stream("metrics", "metrics.jsonl"),
    Stream("requests", "requests.jsonl", "request_log_meta", {"request": "request_event"}),
    Stream(
        "slo", "slo.jsonl", "slo_log_meta",
        {"slo_state": "slo_state", "alert": "alert_event"}, param="slo_log",
    ),
    Stream(
        "critpath", "critpath.jsonl", "critpath_log_meta",
        {"critpath_profile": "critpath_record", "whatif": "whatif_record"},
        param="critpath_log",
    ),
)

_BY_NAME = {stream.name: stream for stream in LAYOUT}


def stream_path(obs_dir: PathLike, name: str) -> Path:
    """Where stream ``name`` lives inside ``obs_dir``."""
    return Path(obs_dir) / _BY_NAME[name].filename


def prepare(obs_dir: PathLike) -> None:
    """Create ``obs_dir`` and remove every stream file a previous run left.

    A stream this run does not produce must be absent, not stale.
    """
    Path(obs_dir).mkdir(parents=True, exist_ok=True)
    for stream in LAYOUT:
        with contextlib.suppress(FileNotFoundError):
            stream_path(obs_dir, stream.name).unlink()


def _jsonl(path: Path) -> List[Dict[str, object]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write(obs_dir: PathLike, observation: "Observation") -> List[str]:
    """Export the observation's own streams; describe every stream present.

    Returns one ``[name: count -> path]`` line per stream file now in
    ``obs_dir``, in layout order.
    """
    Path(obs_dir).mkdir(parents=True, exist_ok=True)
    observation.tracer.to_chrome(stream_path(obs_dir, "trace"))
    observation.metrics.to_jsonl(stream_path(obs_dir, "metrics"))
    counts = {
        "trace": f"{len(observation.tracer.events)} events",
        "metrics": f"{len(observation.metrics.snapshot())} series",
    }
    if observation.requests is not None:
        n_requests = observation.requests.to_jsonl(stream_path(obs_dir, "requests"))
        counts["requests"] = f"{n_requests} requests"
    lines = []
    for stream in LAYOUT:
        path = stream_path(obs_dir, stream.name)
        if not path.exists():
            continue
        count = counts.get(stream.name)
        if count is None:
            records = [r for r in _jsonl(path) if r.get("kind") != stream.meta_kind]
            count = f"{len(records)} records"
        lines.append(f"[{stream.name}: {count} -> {path}]")
    return lines


def read(obs_dir: PathLike) -> Dict[str, object]:
    """Every stream present in ``obs_dir``, keyed by stream name.

    ``trace`` is the parsed Chrome-trace document; every JSONL stream is
    its list of records (header included), in file order.
    """
    streams: Dict[str, object] = {}
    for stream in LAYOUT:
        path = stream_path(obs_dir, stream.name)
        if not path.exists():
            continue
        if stream.name == "trace":
            with open(path) as fh:
                streams[stream.name] = json.load(fh)
        else:
            streams[stream.name] = _jsonl(path)
    return streams


def violations(stream: Stream, content: object, schema: Dict) -> Optional[List[str]]:
    """Schema violations of one stream's content (as :func:`read` returns it).

    None for a stream without a schema (metrics).  JSONL violations name
    their 1-based line, counting non-blank lines.
    """
    if stream.name == "trace":
        return validate(content, schema)
    if not stream.defs:
        return None
    errors: List[str] = []
    for line, record in enumerate(content, 1):  # type: ignore[arg-type]
        kind = record.get("kind")
        if kind == stream.meta_kind:
            continue
        def_name = stream.defs.get(kind)
        if def_name is None:
            errors.append(f"line {line}: unknown record kind {kind!r}")
            continue
        errors.extend(f"line {line}: {err}" for err in validate_def(record, schema, def_name))
    return errors
