"""Traced launcher: one vicalc call, or one sweep pass, with layer spans.

    PYTHONPATH=src python3 perfbench/traced.py SPANS_OUT cli ARGV...
    PYTHONPATH=src python3 perfbench/traced.py SPANS_OUT sweep SEED

It imports vicalc, wraps each layer's public functions from the outside
(nothing in src/ changes), runs the call exactly as the untraced launcher
would, and at exit writes per-layer aggregates to SPANS_OUT as JSON.
A span's self time is its duration minus the time of the traced spans it
encloses.  Aggregates are kept in memory instead of single spans because
the cyclotomic layer sees tens of thousands of calls per sweep.  Worker
processes of a pool are not traced; their time shows as pool wait.
A layer whose function no longer exists is listed as absent.

What each layer should move, written down before any change is measured:

    backend (subset_power_sum)    slowest_query_s and wall_s on heavy_queries,
                                  ops_per_s on batch_mixed; not oracle_sweep
    pool (Pool.map, start-up)     wall_s on heavy_queries
    engine (evaluate)             ops_per_s on batch_mixed
    reference (vi_reference)      ops_per_s on oracle_sweep
    count_max (count_maximal)     wall_s on heavy_queries, ops_per_s on batch_mixed
    cyclotomic reduce             ops_per_s on batch_mixed
    cyclotomic mul, inverse       ops_per_s on oracle_sweep
    fusion                        ops_per_s on oracle_sweep
    symfunc                       ops_per_s on oracle_sweep and batch_mixed
    cli                           ops_per_s and trivial_call_s on batch_mixed
    parabolic                     ops_per_s on batch_mixed
"""

import json
import sys
import time


class Tracer:
    """Per-name [calls, total_s, self_s] plus free counters, in memory."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self.absent = []
        self.kernel_args = []
        self._stack = []

    def wrap(self, name, fn, after=None, traced_if=None):
        """fn timed under `name`; after(args, result) runs once it returns."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if traced_if is not None and not traced_if(args):
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - inner
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def patch(self, name, module, path, **options):
        """Replace module.path (a function or Class.method) everywhere it is bound."""
        owner, attr = module, path
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        wrapped = self.wrap(name, original, **options)
        if owner is module:
            # functions imported by name into other vicalc modules are rebound too
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("vicalc"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        else:
            for key, value in list(vars(owner).items()):
                if value is original:  # aliases such as __rmul__ = __mul__
                    setattr(owner, key, wrapped)

    def install(self):
        import multiprocessing.pool

        from vicalc import backend, cli, cyclotomic, engine, fusion, parabolic, symfunc

        self.patch("backend.subset_power_sum", backend, "subset_power_sum",
                   after=lambda args, _: self.kernel_args.append(args[:6]))
        self.patch("pool", multiprocessing.pool, "Pool.map")
        self.patch("engine.evaluate", engine, "evaluate",
                   after=lambda _, r: self.add("engine.terms_summed", r.terms_summed))
        self.patch("reference", engine, "vi_reference",
                   after=lambda _, r: self.add("reference.subsets", r.terms_summed))
        self.patch("count_max", engine, "count_maximal",
                   after=lambda _, r: self.add("count_max.subsets", r.terms_summed))
        self.patch("cyclotomic.reduce", cyclotomic, "from_power_vector")
        self.patch("cyclotomic.mul", cyclotomic, "CyclotomicNumber.__mul__")
        self.patch("cyclotomic.inverse", cyclotomic, "CyclotomicNumber.inverse")
        tables = getattr(cyclotomic, "_TABLES", None)
        if tables is None:
            self.absent.append("cyclotomic.table_fill")
        else:
            self.patch("cyclotomic.table_fill", cyclotomic, "cyclotomic_polynomial",
                       traced_if=lambda args: args[0] not in tables)
        self.patch("fusion.build", fusion, "FusionAlgebra.__init__")
        self.patch("fusion.build", fusion, "FusionAlgebra.handle_element",
                   traced_if=lambda args: getattr(args[0], "_handle", None) is None)
        self.patch("fusion.correlator", fusion, "FusionAlgebra.correlator")
        self.patch("fusion.spectral", fusion, "correlator_via_spectrum")
        self.patch("symfunc.quantum_product", symfunc, "quantum_product")
        self.patch("symfunc.lr_coefficient", symfunc, "lr_coefficient")
        self.patch("cli.build_parser", cli, "build_parser")
        self.patch("cli.execute", cli, "_execute")
        for fn in ("parabolic_degree", "s_invariant"):
            self.patch("parabolic", parabolic, fn)

    def dump(self, path, import_s):
        from vicalc import backend

        bits = getattr(backend, "term_bound_bits", None)
        subsets = 0
        bits_max = 0
        for n, k, genus, sig, lo, hi in self.kernel_args:
            subsets += hi - lo
            if bits is not None:
                bits_max = max(bits_max, bits(n, k, genus, tuple(sig), hi - lo))
        counters = dict(self.counters)
        counters["backend.subset_power_sum.subsets"] = subsets
        counters["backend.bound_bits_max"] = bits_max
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": counters,
                       "absent": sorted(set(self.absent)), "cli.import_s": import_s}, handle)


def main(argv):
    out_path, mode, rest = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    from vicalc.cli import main as cli_main

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        if mode == "cli":
            code = cli_main(rest)
        else:
            import sweep

            print(json.dumps(sweep.run(int(rest[0]))))
            code = 0
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
