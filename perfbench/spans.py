"""Per-layer spans recorded around the program's public calls.

``install`` replaces each traced function with a timing wrapper in every
loaded ``timeop`` module that holds it, because ``runner``, ``markov``
and ``profiles`` import their callees by name; the two traced
constructors are wrapped on their class.  Nothing in the package itself
changes.  A layer's self time is its span minus the time its traced
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> (module, attribute) pairs; an attribute of a class is "Class.method"
LAYERS = {
    "config.parse": [("timeop.config", "parse_config")],
    "cascade.build": [("timeop.cascade", "build_baker_cascade"),
                      ("timeop.cascade", "build_shift_cascade")],
    "cascade.verify": [("timeop.cascade", "verify_covariance"),
                       ("timeop.cascade", "verify_imprimitivity")],
    "cascade.walsh": [("timeop.cascade", "walsh_to_grid"), ("timeop.cascade", "grid_to_walsh")],
    "profiles.certify": [("timeop.profiles", "check_admissible")],
    "profiles.decay": [("timeop.profiles", "build_decay_operator")],
    "profiles.transform_verify": [("timeop.profiles", "verify_covariant_transform")],
    "markov.evolution": [("timeop.markov", "MarkovEvolution.__init__")],
    "markov.step": [("timeop.markov", "markov_step")],
    "markov.trace": [("timeop.markov", "lyapunov_trace")],
    "markov.probe": [("timeop.markov", "positivity_probe")],
    "rigging.tower": [("timeop.rigging", "build_tower"), ("timeop.rigging", "isometry_check")],
    "rigging.spectrum": [("timeop.rigging", "classify_spectrum"),
                         ("timeop.rigging", "kothe_nuclearity")],
    "duals.web": [("timeop.duals", "build_operator_web")],
    "duals.verify": [("timeop.duals", "verify_web")],
    "hilbert.vector": [("timeop.hilbert", "HVector.__post_init__")],
    "runner.self": [("timeop.runner", "run_experiments")],
    "runner.emit": [("timeop.runner", "emit_report")],
}


class Tracer:
    """Aggregated spans: per layer, calls and self time."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._covered = [0.0]  # per open span, seconds covered by its child spans

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._covered.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self.calls[layer] += 1
                self.self_s[layer] += span - self._covered.pop()
                self._covered[-1] += span
        return traced

    def install(self):
        """Wrap every traced call wherever a timeop module can look it up."""
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "timeop" or name.startswith("timeop.")) and m is not None]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, method, self.wrap(layer, getattr(cls, method)))
                    continue
                original = getattr(owner, attr)
                traced = self.wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, traced)

    def layers(self) -> dict:
        return {layer: {"calls": self.calls[layer], "self_s": self.self_s[layer]}
                for layer in LAYERS}
