"""Per-module stage timers installed from outside the library.

The traced run replaces the module attributes through which the library's
layers call each other with timing wrappers, and restores them afterwards.
Nothing in the library changes.  A name bound by `from x import y` is a
separate attribute of the importing module, so `product`'s bindings of the
component decoders and `soft_fht`'s binding of `fht` are replaced too;
missing one would make its span read zero.

Spans are summed in memory per name: inclusive seconds, exclusive seconds
(minus the direct child spans) and calls.  Worker processes of a sweep are
forked with the wrappers in place; each worker sums its own spans and
rewrites a small JSON file after every chunk, which the parent folds in
with `collect()` once the sweep has returned.
"""

import functools
import json
import os
import time
import uuid
from collections import defaultdict


class Tracer:
    """Span sums for one process; a forked worker starts its own sums."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.home_pid = os.getpid()
        self.installed = []  # (module, attribute, original)
        self._start_process()

    def _start_process(self):
        self.pid = os.getpid()
        self.dump_path = os.path.join(self.dump_dir, f"{self.pid}-{uuid.uuid4().hex}.json")
        self.totals = defaultdict(float)
        self.stack = []  # child seconds of each open span
        self.muted = False
        self.axis = 0
        self.component = 0
        self.q_count = 1

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        if os.getpid() != self.pid:
            self._start_process()
        self.stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self.stack.pop()
            self.totals[name + ".time"] += elapsed
            self.totals[name + ".self"] += elapsed - children
            self.totals[name + ".calls"] += 1
            if self.stack:
                self.stack[-1] += elapsed
            elif self.pid != self.home_pid:
                self._dump()

    def count(self, name: str, amount: float = 1) -> None:
        if os.getpid() != self.pid:
            self._start_process()
        self.totals[name] += amount

    def _dump(self) -> None:
        partial = self.dump_path + ".part"
        with open(partial, "w", encoding="utf-8") as stream:
            json.dump(self.totals, stream)
        os.replace(partial, self.dump_path)

    def collect(self) -> None:
        """Fold the sums that finished worker processes left in dump_dir."""
        for name in sorted(os.listdir(self.dump_dir)):
            path = os.path.join(self.dump_dir, name)
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as stream:
                    for key, value in json.load(stream).items():
                        self.totals[key] += value
            os.remove(path)

    def get(self, key: str) -> float:
        return self.totals.get(key, 0.0)

    # -- installation -----------------------------------------------------

    def _replace(self, module, attribute: str, make_wrapper) -> None:
        original = getattr(module, attribute)
        self.installed.append((module, attribute, original))
        setattr(module, attribute, make_wrapper(original))

    def install(self, lib) -> None:
        """Wrap the library's layer boundaries; `lib` maps module names to modules."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        sim, product, soft_fht = lib["sim"], lib["product"], lib["soft_fht"]
        self._replace(sim, "run_point", self._run_point)
        self._replace(sim, "_run_chunk", lambda fn: self._plain(fn, "sim"))
        self._replace(sim, "ProcessPoolExecutor", self._counting_pool)
        self._replace(sim, "emit", lambda fn: self._plain(fn, "cli.emit"))
        self._replace(lib["channel"], "bpsk_modulate", lambda fn: self._plain(fn, "channel.modulate"))
        self._replace(product, "product_encode_batch", lambda fn: self._plain(fn, "product.encode"))
        self._replace(product, "product_decode_batch", self._product_decode)
        for attribute, name, per_axis in (
            ("soft_fht_decode_batch", "soft_fht.decode", True),
            ("fht_ml_decode_batch", "fht.ml_decode", True),
            ("brute_force_soft_map_batch", "soft_fht.bfmap", False),
            ("brute_force_ml_decode_batch", "soft_fht.bfml", False),
        ):
            self._replace(product, attribute,
                          lambda fn, name=name, per_axis=per_axis: self._component(fn, name, per_axis))
        self._replace(soft_fht, "fht", lambda fn: self._axis(fn, "fht.fht", count_bytes=True))
        self._replace(soft_fht, "info_bit_llrs_batch", lambda fn: self._axis(fn, "soft_fht.info"))
        self._replace(soft_fht, "encoded_bit_llrs_batch", lambda fn: self._axis(fn, "soft_fht.minsum"))
        self._replace(lib["rm_core"], "encode_batch", lambda fn: self._plain(fn, "rm_core.encode"))
        self._replace(lib["rm_core"], "build_rm_code", lambda fn: self._plain(fn, "rm_core.build"))
        self._replace(lib["gf2"], "row_space_equal", lambda fn: self._plain(fn, "gf2.row_space_check"))

    def uninstall(self) -> None:
        while self.installed:
            module, attribute, original = self.installed.pop()
            setattr(module, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _plain(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _run_point(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # With a pool, run_point mostly waits on workers; keep that apart
            # from the sim layer's own work.
            name = "sim" if kwargs.get("workers", 1) == 1 else "sim.wait"
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _counting_pool(self, pool_class):
        tracer = self

        class CountingPool(pool_class):
            def __init__(self, *args, **kwargs):
                tracer.count("sim.pools_created")
                super().__init__(*args, **kwargs)

        return CountingPool

    def _product_decode(self, fn):
        @functools.wraps(fn)
        def traced(code, received, *args, **kwargs):
            counter = kwargs.get("counter", args[3] if len(args) > 3 else None)
            if counter is not None:
                # run_point's one-frame operation count: not a chunk
                self.muted = True
                try:
                    return self.span("product.ops", fn, code, received, *args, **kwargs)
                finally:
                    self.muted = False
            self.count("product.rows", len(received))
            self.q_count = code.q_count
            self.component = 0
            return self.span("product.decode", fn, code, received, *args, **kwargs)
        return traced

    def _component(self, fn, name: str, per_axis: bool):
        """A component decoder as bound in `product`; calls come in axis order."""
        @functools.wraps(fn)
        def traced(fibers, *args, **kwargs):
            if self.muted:
                return fn(fibers, *args, **kwargs)
            self.axis = self.component % self.q_count + 1
            self.component += 1
            self.count("product.component_calls")
            if name == "fht.ml_decode":
                self._count_fht_bytes(fibers)
            label = f"{name}.axis{self.axis}" if per_axis else name
            return self.span(label, fn, fibers, *args, **kwargs)
        return traced

    def _axis(self, fn, name: str, count_bytes: bool = False):
        @functools.wraps(fn)
        def traced(values, *args, **kwargs):
            if self.muted:
                return fn(values, *args, **kwargs)
            if count_bytes:
                self._count_fht_bytes(values)
            return self.span(f"{name}.axis{self.axis}", fn, values, *args, **kwargs)
        return traced

    def _count_fht_bytes(self, values) -> None:
        """Computed, not measured: each butterfly stage reads and writes the
        float64 block once, 16 bytes per element per stage."""
        n = values.shape[-1]
        self.count("fht.bytes", 16 * values.size * (n.bit_length() - 1))
