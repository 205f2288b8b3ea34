"""Command-line front end: enumerate, expand, lifts, report, export-dot, verify.

The catalog, and with it the rest of the package, is imported only once
the arguments parse, so `--help` and every usage error load nothing but
this module and errors.
"""

import argparse
import sys

from .errors import Modk3Error

_ERRORS = (Modk3Error, OSError, ValueError)

# the --table choices: sorted(catalog.REPORTS), which a test keeps in step
TABLES = ("k12", "k18", "k24", "k24sym", "k6", "tf-counts", "totals")


def _emit(catalog, records, out):
    if out is None:
        for rec in records:
            print(catalog.record_to_json(rec))
    else:
        catalog.write_records(out, records)


def cmd_enumerate(args, catalog):
    records = catalog.enumerate_records(
        args.index, genus=args.genus, torsion_free=args.torsion_free)
    _emit(catalog, records, args.out)
    return 0


def cmd_expand(args, catalog):
    tf = catalog.read_records(args.infile)
    _emit(catalog, catalog.expand_records(tf), args.out)
    return 0


def cmd_lifts(args, catalog):
    records = catalog.read_records(args.infile)
    _emit(catalog, catalog.add_lift_fields(records), args.out)
    return 0


def cmd_report(args, catalog):
    records = catalog.read_records(args.infile)
    for line in catalog.REPORTS[args.table](records):
        print(line)
    return 0


def cmd_export_dot(args, catalog):
    records = catalog.read_records(args.infile)
    dot = catalog.export_dot(records, args.id)
    if args.out is None:
        sys.stdout.write(dot)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    return 0


def cmd_verify(args, catalog):
    records = catalog.read_records(args.infile)
    print(catalog.verify_records(records))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modk3",
        description="Catalog of modular subgroups and their K3 realizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate conjugacy classes")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--torsion-free", action="store_true")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("expand", help="apply all loop substitutions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("lifts", help="attach lift counts to records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lifts)

    p = sub.add_parser("report", help="print a summary table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--table", required=True, choices=TABLES)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export-dot", help="write one dessin as a DOT graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("verify", help="re-derive and spot-check a catalog")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    from . import catalog
    try:
        return args.func(args, catalog)
    except _ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
