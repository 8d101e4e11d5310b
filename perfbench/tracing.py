"""Outside-in tracing of the unicomplex modules.

The tracer replaces every public function of the package's modules, and the
`SimplicialComplex` methods `link`, `facets` and `from_simplices`, with a
wrapper, and rebinds every module-level alias of them (for example
`zlattice.smith_normal_form` or `cli.morse_summary`), so calls across modules
are caught too.  Nothing in the library is edited; `uninstall` restores the
originals.  A function that a later version deletes simply stops appearing.

Generator functions are left unwrapped: their body runs interleaved with the
caller, so a span around the call would measure only the generator's creation.

Two passes use it:
- `SpanTracer` records a span per call (name, start, end, parent, job id),
  kept in memory and written out at the end, plus the self time per function:
  a span's duration minus the part covered by its child spans.
- `MemoryTracer` records, per module, the tracemalloc peak above the level
  at entry of each top-level call into that module (one with no open call of
  the same module below it on the stack).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import tracemalloc

METHODS = ("link", "facets", "from_simplices")


def traced_functions():
    """[(layer name, original)] for every public, non-generator function
    defined in a module of the package, and the list of those modules."""
    import unicomplex

    mods = [importlib.import_module(f"unicomplex.{info.name}")
            for info in pkgutil.iter_modules(unicomplex.__path__)]
    targets = []
    for mod in mods:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                targets.append((f"{short}.{attr}", obj))
    return targets, mods


class _Installer:
    """Swap wrappers in for the originals and back."""

    def __init__(self):
        self._undo = []

    def install(self):
        from unicomplex.scomplex import SimplicialComplex

        targets, mods = traced_functions()
        wrapper_of = {}
        for name, fn in targets:
            wrapper_of[id(fn)] = self._wrap(name, name.split(".")[0], fn)
        # Rebind the defining attribute and every alias in any traced module.
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = wrapper_of.get(id(obj))
                if w is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for meth in METHODS:
            raw = SimplicialComplex.__dict__.get(meth)
            if raw is None:
                continue
            self._undo.append((SimplicialComplex, meth, raw))
            if isinstance(raw, classmethod):
                w = classmethod(self._wrap(f"scomplex.{meth}", "scomplex", raw.__func__))
            else:
                w = self._wrap(f"scomplex.{meth}", "scomplex", raw)
            setattr(SimplicialComplex, meth, w)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class SpanTracer(_Installer):
    """`hooks` maps a layer name to hook(counts, result), called after each
    successful call of that layer to add its counters to `counts`."""

    def __init__(self, hooks=None):
        super().__init__()
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self.job = None
        self._hooks = hooks or {}
        self._stack = []  # [span index, seconds covered by children]

    def _wrap(self, name, _module, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook, counts = self._hooks.get(name), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (name, start, end,
                                   parent[0] if parent else -1, self.job)
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def calls_under(self, name, ancestor):
        """Calls of `name` that have an open call of `ancestor` above them."""
        spans, n = self.spans, 0
        for s in spans:
            if s[0] != name:
                continue
            i = s[3]
            while i >= 0:
                if spans[i][0] == ancestor:
                    n += 1
                    break
                i = spans[i][3]
        return n


class MemoryTracer(_Installer):
    """tracemalloc runs only while a call into one of `modules` is open, so
    the rest of the pass runs at full speed."""

    def __init__(self, modules):
        super().__init__()
        self.modules = frozenset(modules)
        self.peak = {}  # module -> bytes above entry level, max over calls
        self._open = []  # [traced bytes at entry, peak seen so far]
        self._depth = {}

    def _wrap(self, _name, module, fn):
        if module not in self.modules:
            return fn
        frames, depth = self._open, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth.get(module, 0):
                return fn(*args, **kwargs)
            if frames:
                current, peak = tracemalloc.get_traced_memory()
                for f in frames:
                    f[1] = max(f[1], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                current = 0
            frame = [current, current]
            frames.append(frame)
            depth[module] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[module] = 0
                frames.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                self.peak[module] = max(self.peak.get(module, 0), top - frame[0])
                if not frames:
                    tracemalloc.stop()

        return wrapper
