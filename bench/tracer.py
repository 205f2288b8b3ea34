"""Run one modk3 CLI command with its layers traced from outside the program.

    python3 bench/tracer.py CMD_ID SPANS.json ARG...

runs `modk3 ARG...` in this process after wrapping the layer functions
below, keeps one span per call in memory (name, start, end, parent span,
command id) plus a few counters, and writes them to SPANS.json when the
command returns.  The program itself is not changed: the wrappers replace
the function objects in every modk3 namespace that bound them by name
(`generate`, `catalog`, `lifts` and `torsion` all do `from .hypermap import
...`, so patching `hypermap` alone would miss their calls), and in the
`catalog.REPORTS` table.
"""

import json
import os
import sys
import time

# Functions that get a span; each gives <module>.<name>.{calls,s,self_s}.
LAYERS = {
    "cli": ["main"],
    "generate": ["enumerate_classes"],
    "hypermap": ["canonical_code", "subgroup_type", "automorphism_group",
                 "validate"],
    "torsion": ["expand_classes", "tf_retract", "substitute"],
    "lifts": ["lift_profile", "totals"],
    "catalog": ["read_records", "write_records", "validate_record",
                "export_dot", "verify_records"],
    "slwords": ["coset_action", "word_of_matrix"],
}


class Tracer:
    """Spans and counters of one CLI process, kept in memory until dump()."""

    def __init__(self, cmd_id):
        self.cmd_id = cmd_id
        self.spans = []            # [span id, parent id, name, start, end]
        self.stack = [-1]
        self.counters = {}

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(args, result) counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], name, clock(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, modules):
        """Wrap LAYERS plus the private hooks that expose the search counts."""
        import modk3.errors

        generate, torsion, lifts, catalog = (
            modules["generate"], modules["torsion"], modules["lifts"],
            modules["catalog"])

        def read(args, records):
            self.count("catalog.records_read", len(records))
            self.count("catalog.bytes_read", os.path.getsize(args[0]))

        def written(args, _):
            self.count("catalog.records_written", len(args[1]))
            self.count("catalog.bytes_written", os.path.getsize(args[0]))

        after = {"catalog.read_records": read, "catalog.write_records": written}
        replaced = {}
        for mod, names in LAYERS.items():
            for name in names:
                fn = getattr(modules[mod], name)
                replaced[fn] = self.wrap(f"{mod}.{name}", fn,
                                         after.get(f"{mod}.{name}"))

        # every leaf the backtracker completes goes through its emit callback
        search = generate._search

        def counted_search(n, torsion_free, emit):
            def counted_emit(sigma, alpha):
                self.count("generate.leaves")
                emit(sigma, alpha)
            return search(n, torsion_free, counted_emit)

        classes_at = generate._classes_at

        def counted_classes_at(n, genus_filter, torsion_free):
            codes, kept = classes_at(n, genus_filter, torsion_free)
            self.count("generate.leaves_kept", kept)
            self.count("generate.classes", len(codes))
            return codes, kept

        generate._search = counted_search
        generate._classes_at = counted_classes_at
        lifts._tf_expansion_counts = self.wrap(
            "lifts.totals.reenumerate", lifts._tf_expansion_counts)

        substitute = replaced[torsion.substitute]
        degenerate = modk3.errors.DegenerateSubstitution

        def counted_substitute(*args, **kwargs):
            try:
                return substitute(*args, **kwargs)
            except degenerate:
                self.count("torsion.degenerate")
                raise

        replaced[torsion.substitute] = counted_substitute

        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replaced:
                    setattr(module, attr, replaced[value])
        report = {}
        for table, fn in catalog.REPORTS.items():
            report[table] = self.wrap("catalog.report", fn)
        catalog.REPORTS.update(report)

    def dump(self, path, imported_at):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"cmd": self.cmd_id, "imported_at": imported_at,
                       "counters": self.counters, "spans": self.spans}, fh,
                      separators=(",", ":"))


def main():
    cmd_id, out_path, *argv = sys.argv[1:]
    import modk3.cli
    from modk3 import catalog, generate, hypermap, lifts, slwords, torsion
    imported_at = time.monotonic()
    modules = {"cli": modk3.cli, "generate": generate, "hypermap": hypermap,
               "torsion": torsion, "lifts": lifts, "catalog": catalog,
               "slwords": slwords}
    tracer = Tracer(int(cmd_id))
    tracer.install(modules)
    try:
        status = modk3.cli.main(argv)
    finally:
        tracer.dump(out_path, imported_at)
    return status


if __name__ == "__main__":
    sys.exit(main())
