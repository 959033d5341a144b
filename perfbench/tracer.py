"""Per-layer call counts and self times for circulus, measured from outside.

Tracer.install() wraps every traced function and rebinds it in every
circulus namespace that holds it: module globals (``from .exact import ...``
binds copies), dispatch tables such as ``exact._TRIG``, and the Enclosure
class, whose operators and reflected aliases are wrapped one by one.  It
then asks the garbage collector for anything still holding an original
function and fails if it finds one.  Self time is a span's duration minus
the durations of the traced spans it called.

Run as a script, it traces one CLI invocation: the arguments are those of
``python -m circulus.cli``; the output and exit code are the CLI's, and
the trace summary is written to stderr as one line starting with MARKER.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types

MARKER = "perfbench-trace "

EXACT_NAMES = {
    "exact.round": ("round_down", "round_up", "ulp"),
    "exact.ring": ("enc_arith",),
    "exact.sqrt": ("enc_sqrt",),
    "exact.trig": ("enc_sin", "enc_cos", "enc_tan", "enc_arctan", "enc_arcsin", "enc_trig"),
    "exact.pi": ("pi_reference",),
    "exact.render": ("decimal_string", "render", "correct_digits"),
}
RING_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "square", "rounded", "at_precision", "intersect",
)
RING_CLASSMETHODS = ("from_endpoints", "from_rational", "point")
# every public function defined in these modules is its own layer's
MODULE_LAYERS = ("polygon", "bounds", "barycenter", "parasect", "analysis", "verdict")
CLI_NAMES = ("execute",)  # cli self time: row building and emission

LAYERS = tuple(EXACT_NAMES) + MODULE_LAYERS + ("cli",)
BANDS = ("le128", "le1024", "gt1024")
_RING, _ROUND, _VERDICT = (LAYERS.index(n) for n in ("exact.ring", "exact.round", "verdict"))


class SelfCheckError(RuntimeError):
    """A traced name is still bound, unwrapped, somewhere in circulus."""


class Tracer:
    def __init__(self) -> None:
        self.layers = [[0, 0.0] for _ in LAYERS]  # calls, self seconds
        self.correct_digits_s = 0.0
        self.bands = [[0, 0.0] for _ in BANDS]  # ring calls, ring+rounding self seconds
        self.pi_max_bits = 0
        self.verdicts = [0, 0]  # returned by an outermost verdict call, indeterminate
        self.root = [0.0]  # summed durations of outermost spans
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._wrappers: list = []
        self._originals: list = []
        self._swap: dict = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        index = LAYERS.index(layer)
        rec = self.layers[index]
        stack, root, clock = self._stack, self.root, time.perf_counter
        push, pop = stack.append, stack.pop
        post = self._post(index, name)

        # ring operators and rounding are most of the calls, so their
        # bookkeeping is inlined and takes positional arguments only
        if index == _RING:
            bands = self.bands

            def traced(*args):
                frame = [0.0, index, 0.0]  # child seconds, layer, rounding self
                push(frame)
                start = clock()
                try:
                    result = fn(*args)
                finally:
                    dur = clock() - start
                    pop()
                    own = dur - frame[0]
                    rec[0] += 1
                    rec[1] += own
                    if stack:
                        stack[-1][0] += dur
                    else:
                        root[0] += dur
                precision = getattr(result, "precision", None)
                if precision is not None:
                    bits = precision.bits
                    band = bands[0 if bits <= 128 else 1 if bits <= 1024 else 2]
                    band[0] += 1
                    band[1] += own + frame[2]
                return result
        elif index == _ROUND:
            def traced(*args):
                frame = [0.0, index, 0.0]
                push(frame)
                start = clock()
                try:
                    return fn(*args)
                finally:
                    dur = clock() - start
                    pop()
                    own = dur - frame[0]
                    rec[0] += 1
                    rec[1] += own
                    if stack:
                        parent = stack[-1]
                        parent[0] += dur
                        if parent[1] == _RING:
                            parent[2] += own
                    else:
                        root[0] += dur
        else:
            def traced(*args, **kwargs):
                frame = [0.0, index, 0.0]
                push(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    pop()
                    own = dur - frame[0]
                    rec[0] += 1
                    rec[1] += own
                    if stack:
                        stack[-1][0] += dur
                    else:
                        root[0] += dur
                if post is not None:
                    post(args, result, own)
                return result

        traced.__name__ = traced.__qualname__ = fn.__name__
        self._wrappers.append(traced)
        return traced

    def _post(self, index: int, name: str):
        """Extra bookkeeping for the layers that report more than calls and self time."""
        stack = self._stack
        if index == _VERDICT:
            tally = self.verdicts

            def post(args, result, own):
                if not (stack and stack[-1][1] == _VERDICT):
                    tally[0] += 1
                    tally[1] += result.outcome.value == "indeterminate"
            return post
        if name == "pi_reference":
            def post(args, result, own):
                self.pi_max_bits = max(self.pi_max_bits, args[0].bits)
            return post
        if name == "correct_digits":
            def post(args, result, own):
                self.correct_digits_s += own
            return post
        return None

    def install(self) -> None:
        self._originals, self._swap = self._patch()
        self._self_check()

    def _patch(self) -> tuple[list, dict]:
        import circulus

        for info in pkgutil.iter_modules(circulus.__path__):
            importlib.import_module(f"circulus.{info.name}")
        exact = sys.modules["circulus.exact"]
        swap = {}
        for layer, names in EXACT_NAMES.items():
            self._collect(swap, exact, names, layer)
        for layer in MODULE_LAYERS:
            module = sys.modules[f"circulus.{layer}"]
            names = [n for n, v in vars(module).items()
                     if inspect.isfunction(v) and v.__module__ == module.__name__
                     and not n.startswith("_")]
            self._collect(swap, module, names, layer)
        self._collect(swap, sys.modules["circulus.cli"], CLI_NAMES, "cli")

        originals = list(swap)
        enc = exact.Enclosure
        methods = {}  # name -> (original function, wrapped class attribute)
        for name in RING_METHODS + RING_CLASSMETHODS:
            attr = enc.__dict__.get(name)
            if attr is None:
                self.absent.append(f"exact.Enclosure.{name}")
            elif isinstance(attr, classmethod):
                wrapped = self._wrap(attr.__func__, "exact.ring", name)
                methods[name] = (attr.__func__, classmethod(wrapped))
            else:
                methods[name] = (attr, self._wrap(attr, "exact.ring", name))
        originals += [fn for fn, _ in methods.values()]
        # dataclass(slots=True) leaves its pre-slots copy of the class alive,
        # holding the same functions; patch every class that holds them
        for owner in {enc, *_classes_holding([fn for fn, _ in methods.values()])}:
            for name, (fn, wrapped) in methods.items():
                if getattr(owner.__dict__.get(name), "__func__", owner.__dict__.get(name)) is fn:
                    setattr(owner, name, wrapped)

        for key in sorted(sys.modules):
            if key == "circulus" or key.startswith("circulus."):
                _rebind(vars(sys.modules[key]), swap, 0)
        return originals, swap

    def _collect(self, swap: dict, module, names, layer: str) -> None:
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                self.absent.append(f"{module.__name__}.{name}")
            elif fn not in swap:
                swap[fn] = self._wrap(fn, layer, name)

    def _self_check(self) -> None:
        """Fail if any container outside the tracer still holds an original."""
        gc.collect()
        originals = self._originals
        ours = {id(originals), id(self._swap), id(self._wrappers)}
        ours.update(id(cell) for w in self._wrappers for cell in w.__closure__ or ())
        leaks = []
        for ref in gc.get_referrers(*originals):
            if id(ref) in ours or isinstance(ref, types.FrameType):
                continue
            held = [f"{fn.__module__}.{fn.__qualname__}" for fn in originals
                    if _holds(ref, fn)]
            leaks.append(f"{type(ref).__name__} holding {', '.join(held) or '?'}")
        if leaks:
            raise SelfCheckError("unwrapped traced names: " + "; ".join(leaks))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "layers": {name: list(rec) for name, rec in zip(LAYERS, self.layers)},
            "correct_digits_s": self.correct_digits_s,
            "bands": {name: list(rec) for name, rec in zip(BANDS, self.bands)},
            "pi_max_bits": self.pi_max_bits,
            "verdicts": list(self.verdicts),
            "root_s": self.root[0],
            "absent": list(self.absent),
        }


def _classes_holding(fns: list) -> set:
    holders = set()
    refs = gc.get_referrers(*fns)
    refs += gc.get_referrers(*[r for r in refs if isinstance(r, classmethod)])
    for ref in refs:
        if isinstance(ref, dict):
            holders.update(o for o in gc.get_referrers(ref) if isinstance(o, type))
    return holders


def _holds(container, fn) -> bool:
    if isinstance(container, dict):
        return any(v is fn for v in container.values())
    if isinstance(container, (list, tuple, set, frozenset)):
        return any(v is fn for v in container)
    return False


def _rebind(obj, swap: dict, depth: int):
    """Return obj with traced functions replaced; dicts and lists change in place."""
    if isinstance(obj, types.FunctionType):
        return swap.get(obj, obj)
    if depth > 3:
        return obj
    if isinstance(obj, dict):
        for key, value in list(obj.items()):
            new = _rebind(value, swap, depth + 1)
            if new is not value:
                obj[key] = new
    elif isinstance(obj, list):
        obj[:] = [_rebind(v, swap, depth + 1) for v in obj]
    elif type(obj) is tuple:
        items = tuple(_rebind(v, swap, depth + 1) for v in obj)
        if any(a is not b for a, b in zip(items, obj)):
            return items
    return obj


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    total = Tracer().summary()
    for s in summaries:
        for key in ("layers", "bands"):
            for name, (calls, secs) in s[key].items():
                total[key][name][0] += calls
                total[key][name][1] += secs
        total["correct_digits_s"] += s["correct_digits_s"]
        total["pi_max_bits"] = max(total["pi_max_bits"], s["pi_max_bits"])
        total["verdicts"] = [a + b for a, b in zip(total["verdicts"], s["verdicts"])]
        total["root_s"] += s["root_s"]
        total["absent"] = sorted(set(total["absent"]) | set(s["absent"]))
    return total


def _main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from circulus.cli import main

    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
