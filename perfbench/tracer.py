"""Run one ``poprank`` command with its module functions traced from outside.

Usage: python3 tracer.py TRACE_JSON poprank-args...

Before the command starts, every public function of every loaded ``poprank``
module is replaced, in each module namespace that holds it (names one module
imports from another included), by a wrapper that records a span
``[function, start, end, parent span]``. Spans and counts stay in memory and
are written to TRACE_JSON when the command ends. Functions called per value
or per candidate pair (COUNT_ONLY) are counted without a span, so their time
stays in their caller's self time; ``util.fmt_float`` (called once per written
number) is not wrapped at all.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

COUNT_ONLY = {"mining.captions_compatible", "mining.pdip_probability", "mining.normal_cdf",
              "corpus.log_likes", "corpus.serialize_post"}
UNWRAPPED = {"util.fmt_float"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {"posts_parsed": 0, "candidates": 0, "pairs": 0, "rows_loaded": 0,
                       "values_loaded": 0, "bytes_hashed": 0}
        self.result_hooks = {
            "corpus.parse_posts": lambda args, r: self.add("posts_parsed", len(r.posts)),
            "corpus.filter_candidates": lambda args, r: self.add("candidates", len(r)),
            "mining.mine_pairs": lambda args, r: self.add("pairs", len(r)),
            "features.load_features": self.count_features,
            "util.sha256_file": lambda args, r: self.add("bytes_hashed", os.path.getsize(args[0])),
        }

    def add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def count_features(self, args, features) -> None:
        with open(args[0], encoding="utf-8") as f:
            dim = int(f.readline().strip().rsplit("=", 1)[1])  # header "post_id,dim=D"
        self.add("rows_loaded", len(features))
        self.add("values_loaded", len(features) * dim)

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, spans, stack, clock = self.calls, self.spans, self.stack, time.perf_counter
        hook = self.result_hooks.get(name)

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[fid] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[fid] += 1
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result
        return spanned

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("poprank.")]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self.wrap(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                elif isinstance(obj, dict):  # dispatch tables such as cli.HANDLERS
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "names": self.names, "calls": self.calls,
                       "counts": self.counts, "spans": self.spans}, f)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import poprank.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return poprank.cli.main(argv)
    finally:
        tracer.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
