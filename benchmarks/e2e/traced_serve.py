"""``repro serve`` with every layer's public entry points timed.

Usage (run.py starts it this way for ``--trace 1``)::

    PYTHONPATH=src python benchmarks/e2e/traced_serve.py --spans-out FILE \\
        -- --ruleset RULES --port 0 --artifact-dir DIR

The launcher imports the serve stack, replaces each timed function with
a wrapper wherever the name is looked up (a module that did ``from x
import f`` holds its own reference, so every module attribute bound to
the original is rebound), then runs :func:`repro.cli.serve_main` with
the remaining arguments.  Spans stay in memory and are written as JSON
lines to ``FILE`` when the server shuts down.  Nothing under ``src/`` is
edited.

A call made while the same span name is already open on the thread
(one layer entry point calling another of the same layer) is not
recorded twice.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


class Recorder:
    """In-memory span store shared by every wrapper."""

    def __init__(self) -> None:
        #: (name, thread id, start, end, attrs); list.append is atomic
        self.spans: list[tuple] = []
        self._open = threading.local()

    def wrap(self, name, function, describe=None):
        """``function`` timed under ``name``; ``describe(bound_args,
        result)`` returns the span's attributes."""
        signature = inspect.signature(function)
        spans = self.spans
        state = self._open

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            open_names = getattr(state, "names", None)
            if open_names is None:
                open_names = state.names = set()
            if name in open_names:
                return function(*args, **kwargs)
            open_names.add(name)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_names.discard(name)
            attrs = {}
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = describe(bound.arguments, result)
            spans.append((name, threading.get_ident(), start, end, attrs))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, thread, start, end, attrs in self.spans:
                handle.write(json.dumps(
                    {"name": name, "thread": thread, "start": start, "end": end,
                     "attrs": attrs}
                ) + "\n")


def patch_everywhere(original, replacement) -> None:
    """Rebind every loaded module attribute that is ``original``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attribute, value in list(namespace.items()):
            if value is original:
                setattr(module, attribute, replacement)


def _registers(mfsas) -> int:
    return sum(len(getattr(mfsa, "counting", ())) for mfsa in mfsas)


def install(recorder: Recorder) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro.cli  # noqa: F401  (binds every name the server looks up)
    import repro.engine.chunkscan  # noqa: F401
    import repro.serve.server  # noqa: F401
    from repro.engine import sfa
    from repro.engine.imfant import IMfantEngine
    from repro.pipeline import compiler
    from repro.serve import protocol
    from repro.serve.artifacts import ArtifactStore
    from repro.serve.shards import ShardPool

    def compile_attrs(args, result):
        times = result.stage_times
        return {
            "rules": len(args["patterns"]),
            "frontend": times.frontend,
            "ast_to_fsa": times.ast_to_fsa,
            "single_opt": times.single_opt,
            "merging": times.merging,
            "backend": times.backend,
            "states_out": result.total_output_states,
        }

    def payload_bytes(args, result):
        return {"bytes": len(result)}

    def body_attrs(args, result):
        return {"bytes": len(args["body"]), "op": result.get("op", "match"),
                "id": result.get("id")}

    def frame_attrs(args, result):
        document = args["document"]
        return {"bytes": len(result), "id": document.get("id"),
                "match": "matches" in document}

    def scan_attrs(args, result):
        return {"bytes": result.payload_len, "shards": result.shards,
                "partial": result.partial}

    def engine_attrs(args, result):
        return {"bytes": len(args["data"]), "stats": bool(args["collect_stats"]),
                "dense": args["self"].backend == "dense"}

    def chunk_attrs(args, result):
        collect = bool(args["collect_stats"])
        # collect_stats=False takes the dense bulk kernel
        return {"bytes": len(args["data"]), "stats": collect, "dense": not collect}

    def artifact_attrs(args, result):
        return {"rules": result.num_rules, "cached": result.loaded_from_cache,
                "registers": _registers(result.mfsas)}

    for module, name, span, describe in (
        (compiler, "compile_ruleset", "pipeline.compile", compile_attrs),
        (protocol, "decode_body", "protocol.decode_body", body_attrs),
        (protocol, "decode_payload", "protocol.decode_payload", payload_bytes),
        (protocol, "encode_frame", "protocol.encode_frame", frame_attrs),
        (sfa, "fold_mappings", "sfa.fold", None),
    ):
        original = getattr(module, name)
        patch_everywhere(original, recorder.wrap(span, original, describe))
    for cls, name, span, describe in (
        (ArtifactStore, "get_or_compile", "artifacts.get_or_compile", artifact_attrs),
        (ArtifactStore, "save", "artifacts.save", None),
        (ArtifactStore, "load", "artifacts.load", None),
        (ShardPool, "scan", "shards.scan", scan_attrs),
        (IMfantEngine, "run", "engine.run", engine_attrs),
        (sfa.SfaScanner, "scan_chunk", "sfa.scan_chunk", chunk_attrs),
        (sfa.SfaScanner, "apply", "sfa.fold", None),
    ):
        setattr(cls, name, recorder.wrap(span, getattr(cls, name), describe))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", type=Path, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    recorder = Recorder()
    install(recorder)
    from repro.cli import serve_main

    try:
        return serve_main(serve_args)
    finally:
        recorder.write(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
