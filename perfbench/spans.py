"""In-memory span recorder for the traced benchmark run.

Layer functions are wrapped at module attribute, under every name an evfam
module binds them to, so calls made inside the CLI and nested calls (such as
certify_fixed_points -> follows_check) are recorded with their parent.  The
wrappers exist only while ``installed()`` is active and only in this process;
nothing under src/ changes.
"""

import contextlib
import functools
import gzip
import json
import sys
import time


class SpanRecorder:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, counts or None]
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                # counted after the span closes, so counting costs no layer time
                self.spans[idx][4] = measure(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, layers, package="evfam"):
        """Patches ``layers`` — (span name, owner, attribute, measure) rows,
        owner a module or a class — for the duration of the block."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        patches = []
        try:
            for name, owner, attr, measure in layers:
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrap(name, orig.__func__, measure))
                    patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self._wrap(name, orig, measure)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for target, key, orig in reversed(patches):
                setattr(target, key, orig)

    def summarize(self):
        """Per span name: calls, total and self seconds, summed counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "counts": {}})
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[i]
            for key, val in (counts or {}).items():
                row["counts"][key] = row["counts"].get(key, 0) + val
        return out

    def outermost_total(self, names):
        """Seconds in spans named in ``names`` that no such span encloses."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def write(self, path):
        """Gzipped JSON lines, one span per line, its id the line number:
        [name, start us, end us, parent id or -1, counts or null], times
        from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, counts in self.spans:
                row = [name, round((start - origin) * 1e6), round((end - origin) * 1e6),
                       parent, counts]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
