"""Outside-in tracer: spans around the public functions of each qcmt module.

Nothing in ``src/`` changes.  ``Tracer.install`` replaces each traced
function by a wrapper in every ``qcmt`` module that holds it by name
(``qcmt.cli`` and ``qcmt.verify`` import ``wick_expect`` and the field
kernels directly, so patching only the home module would miss calls), and
replaces traced methods on their defining class.  ``Tracer.restore`` puts
every original back.

Spans are kept in memory as ``(parent, name, start, end, note)``; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from qcmt import algebra, cli, fields, gaussian, gns, koopman, vacuum, verify

VERIFY_CHECKS = (
    "check_algebra_laws",
    "check_wick_oracle",
    "check_bracket_relations",
    "check_gram_psd",
    "check_extended_positivity",
    "check_vacuum_boost_invariance",
    "check_thermal_boost_discrimination",
    "check_thermal_vacuum_limit",
    "check_microcausality",
)

PAIR_KERNELS = ("fields.vacuum_kernel", "fields.thermal_kernel")
LAYERS = ("gaussian", "gns", "fields", "koopman", "vacuum", "algebra", "verify", "cli")


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._seen_words = set()
        self._seen_pairs = set()

    # --- notes: computed before the call, attached to its span -------------
    def _note_wick(self, kernel, w):
        key = (id(kernel), tuple(ix.tag for ix in w))
        repeat = key in self._seen_words
        self._seen_words.add(key)
        return (len(w), repeat)

    def _note_pair(self, spec, f, g):
        key = (spec, f.key(), g.key())
        repeat = key in self._seen_pairs
        self._seen_pairs.add(key)
        return repeat

    def _wrap(self, name, fn, note=None, error=()):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = note(*args, **kwargs) if note is not None else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except error:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (stack[-1] if stack else None, name, start, end, info)

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every qcmt module holding it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "qcmt" and not modname.startswith("qcmt."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        """Wrap every traced function and method; undo with ``restore``."""
        notes = {
            (gaussian, "wick_expect"): self._note_wick,
            (gaussian, "moment_from_generating_series"): None,
            (gns, "gram"): lambda basis, state, tolerance=1e-10: (basis.degree, len(basis)),
            (gns, "build_basis"): None,
            (fields, "vacuum_kernel"): self._note_pair,
            (fields, "thermal_kernel"): self._note_pair,
            (fields, "kernel_as_gaussian"): lambda spec, packets, tol=1e-10: len(packets),
            (koopman, "poisson"): None,
            (koopman, "bracket_residuals"): None,
            (vacuum, "extended_word_expect"): None,
            (vacuum, "extended_positivity_probe"): None,
            (cli, "main"): None,
            (cli, "build_kernel"): None,
        }
        notes.update({(verify, name): None for name in VERIFY_CHECKS})
        for (module, attr), note in notes.items():
            original = getattr(module, attr)
            name = f"{module.__name__.removeprefix('qcmt.')}.{attr}"
            error = fields.QuadratureError if module is fields else ()
            self._replace(original, self._wrap(name, original, note, error))
        combination = algebra.LinearCombination
        self._replace_method(combination, "__mul__", self._wrap("algebra.mul", combination.__mul__))
        self._replace_method(combination, "adjoint", self._wrap("algebra.adjoint", combination.adjoint))
        self._replace_method(
            fields.Wavepacket, "fourier", self._count("fields.fourier.calls", fields.Wavepacket.fourier)
        )

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def new_command(self):
        """Repeats are counted within one command, as a memo would see them."""
        self._seen_words.clear()
        self._seen_pairs.clear()

    # --- aggregation --------------------------------------------------------
    def metrics(self, traced_s: float, untraced_s: float, output_bytes: int) -> dict:
        """Per-layer metrics over every span recorded so far.

        Times are totals over the traced commands, except ``s_per_call`` and
        the ``.s.<bucket>`` metrics, which are mean inclusive seconds per call
        in that bucket (0 when the bucket saw no call).
        """
        child = defaultdict(float)
        for parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        incl = defaultdict(float)
        bucket_s = defaultdict(list)
        repeats = Counter()
        matchings = gram_entries = 0
        for sid, (_, name, start, end, info) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]
            incl[name] += end - start
            if name == "gaussian.wick_expect":
                length, repeat = info
                repeats[name] += repeat
                bucket_s[(name, length)].append(end - start)
                if length and length % 2 == 0:
                    matchings += _double_factorial(length - 1)
            elif name == "gns.gram":
                degree, size = info
                gram_entries += size * size
                bucket_s[(name, degree)].append(end - start)
            elif name == "fields.kernel_as_gaussian":
                bucket_s[(name, info)].append(end - start)
            elif name in PAIR_KERNELS:
                repeats["pairs"] += info

        def ratio(num, den):
            return num / den if den else 0.0

        def mean(name, bucket):
            times = bucket_s.get((name, bucket), ())
            return ratio(sum(times), len(times))

        pair_calls = sum(calls[name] for name in PAIR_KERNELS)
        wick = "gaussian.wick_expect"
        oracle = "gaussian.moment_from_generating_series"
        m = {
            f"{wick}.calls": calls[wick],
            f"{wick}.self_s": self_s[wick],
            f"{wick}.repeat_ratio": ratio(repeats[wick], calls[wick]),
            f"{wick}.matchings": matchings,
        }
        for n in (4, 8, 10, 12):
            m[f"{wick}.s_per_call.len{n}"] = mean(wick, n)
        m[f"{oracle}.calls"] = calls[oracle]
        m[f"{oracle}.self_s"] = self_s[oracle]
        m["gns.gram.calls"] = calls["gns.gram"]
        m["gns.gram.self_s"] = self_s["gns.gram"]
        m["gns.gram.entries"] = gram_entries
        for d in (3, 4, 5):
            m[f"gns.gram.s.deg{d}"] = mean("gns.gram", d)
        m["gns.build_basis.self_s"] = self_s["gns.build_basis"]
        for name in PAIR_KERNELS + ("fields.kernel_as_gaussian",):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for pk in (2, 3):
            m[f"fields.kernel_as_gaussian.s.pk{pk}"] = mean("fields.kernel_as_gaussian", pk)
        m["fields.fourier.calls"] = self.counts["fields.fourier.calls"]
        m["fields.pair_repeat_ratio"] = ratio(repeats["pairs"], pair_calls)
        m["fields.quadrature_errors"] = sum(self.counts[f"{name}.errors"] for name in PAIR_KERNELS)
        for name in ("koopman.poisson", "koopman.bracket_residuals",
                     "vacuum.extended_word_expect", "algebra.mul", "algebra.adjoint"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        m["vacuum.extended_positivity_probe.self_s"] = self_s["vacuum.extended_positivity_probe"]
        for name in VERIFY_CHECKS:
            m[f"verify.{name}.s"] = incl[f"verify.{name}"]
        m["cli.main.calls"] = calls["cli.main"]
        m["cli.build_kernel.self_s"] = self_s["cli.build_kernel"]
        m["cli.output.bytes"] = output_bytes
        m["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
        # time inside main() that no deeper span accounts for
        m["trace.unattributed_s"] = self_s["cli.main"]
        layer_self = defaultdict(float)
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        for layer in LAYERS:
            m[f"{layer}.self_share"] = ratio(layer_self[layer], traced_s)
        return m
