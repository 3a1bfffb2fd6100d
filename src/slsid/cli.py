"""Command-line entry point.

Subcommands: simulate, fit, oracle, pe-check, min-samples, select-order,
consistency-sweep, bench, repro.  All outputs are UTF-8 CSV or JSON with a
stable key order, so a rerun with the same seed is byte-identical apart
from wall-clock timing columns.

Exit codes: 0 success, 1 usage error (a count too large to allocate is one),
2 reproduction mismatch, 3 enumeration limit exceeded, 4 no usable fit (every
fit restart degenerated, or the descent broke: a half-step raised its
objective, which only a broken update does).  Each failure but argparse's own
usage errors is one ``error:`` line, printed by ``main``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import bench, fixtures, pe
from .bcd import DescentError, SolverConfig, SolverFailure, bcd_solve
from .dataio import load_dataset, load_model, save_dataset, save_model
from .model import _noise, generate_random_scenario
from .oracle import DEFAULT_ENUM_LIMIT, EnumerationLimitError, oracle_global, unique_optimum
from .order import OrderSelectConfig, SweepScenario, consistency_sweep, select_order

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_ENUM_LIMIT = 3
EXIT_NO_FIT = 4
# the exit code of each failure main reports; numpy's allocation failure,
# from a count too large to hold, is a MemoryError
_FAILURES = {
    EnumerationLimitError: EXIT_ENUM_LIMIT,
    **dict.fromkeys((SolverFailure, DescentError), EXIT_NO_FIT),
    **dict.fromkeys((ValueError, OSError, MemoryError), EXIT_USAGE),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # argparse applies type= to command-line strings and string defaults
        # only, and checks choices on command-line values only.  Any other
        # --config value still in place (a JSON number, bool, list or null)
        # goes through type= here, a list element by element where the
        # option takes a list; null, a list for a one-value option and a
        # non-string for an option without a type are invalid.  A config
        # value, converted or not, is the only kind that can be a non-list
        # for an option that takes a list, and is invalid there too.  A flag,
        # which takes no value, takes a JSON boolean only.
        for action in self._actions:
            if action.dest not in self._defaults:
                continue
            value = getattr(namespace, action.dest)
            flag = "/".join(action.option_strings)
            invalid = f"argument {flag}: invalid value {value!r} in --config"
            from_config = value is self.get_default(action.dest)
            if action.nargs == 0:
                if from_config and not isinstance(value, bool):
                    self.error(invalid)
                continue
            many = action.nargs == "+" or isinstance(action, _FreshAppend)
            if from_config and not isinstance(value, str):
                try:
                    if value is None or action.type is None or isinstance(value, list) and not many:
                        raise ValueError
                    if isinstance(value, list):
                        value = [action.type(str(v)) for v in value]
                    else:
                        value = action.type(str(value))
                except (ValueError, TypeError, argparse.ArgumentTypeError):
                    self.error(invalid)
                setattr(namespace, action.dest, value)
            if many and not isinstance(value, list):
                command = self.prog.rsplit(" ", 1)[-1]
                raise ValueError(f"config key {action.dest!r} must be a list for {command}")
            if action.choices is not None and value not in action.choices:
                self.error(invalid)
        return namespace, extras


class _FreshAppend(argparse.Action):
    # action="append" whose first explicit value replaces a --config list
    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [*([] if items is self.default else items), values])


def _emit(args, text: str, filename: str) -> None:
    if args.output is not None:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / filename).write_text(text)
        print(f"wrote {outdir / filename}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _cmd_simulate(args) -> int:
    if args.example is not None:
        make = {1: fixtures.example_one, 2: fixtures.example_two}[args.example]
        model, data = make()
        stem = f"example{args.example}"
    else:
        if args.n is None or args.S is None or args.N is None:
            raise ValueError("provide --example or all of --n/--S/--N")
        model, data = generate_random_scenario(
            args.n, args.S, args.N, (args.range_lo, args.range_hi), _noise(args.sigma), args.seed
        )
        stem = f"scenario_n{args.n}_S{args.S}_N{args.N}_seed{args.seed}"
    outdir = Path(args.output) if args.output is not None else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    data_path = outdir / f"{stem}.csv"
    model_path = outdir / f"{stem}_model.json"
    save_dataset(data_path, data)
    save_model(model_path, model)
    print(f"wrote {data_path} ({data.N} samples, n={data.n}) and {model_path}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    data = load_dataset(args.data)
    cfg = SolverConfig(
        S=args.S,
        max_iters=args.max_iters,
        restarts=args.restarts,
        seed=args.seed,
        keep_history=args.trace,
    )
    report = bcd_solve(data, cfg)
    _emit(args, _json(report.to_dict()), "fit.json")
    if args.trace:
        columns = ["iteration"]
        S, n = report.model.S, report.model.n
        columns += [f"theta{s}_{j}" for s in range(1, S + 1) for j in range(1, n + 1)]
        columns += ["zeta", "obj"]
        rows = []
        for rec in report.history or ():
            row = {"iteration": rec.iteration}
            for s in range(S):
                for j in range(n):
                    row[f"theta{s + 1}_{j + 1}"] = repr(float(rec.params[s, j]))
            row["zeta"] = " ".join(str(int(v)) for v in rec.labels)
            row["obj"] = repr(float(rec.objective))
            rows.append(row)
        _emit(args, _csv_text(columns, rows), "fit_trace.csv")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    data = load_dataset(args.data)
    optimum, classes = oracle_global(data, args.S, limit=args.limit)
    # the indented layout, but one compact line per class: on all-zero
    # outputs every split is a class, and indenting each label and parameter
    # took most of the run and nearly tripled the file
    rows = ",\n".join(f"    {json.dumps(c.to_dict(), sort_keys=True)}" for c in classes)
    text = (
        f'{{\n  "classes": [\n{rows}\n  ],\n'
        f'  "optimum": {json.dumps(optimum)},\n'
        f'  "unique": {json.dumps(unique_optimum(classes))}\n}}\n'
    )
    _emit(args, text, "oracle.json")
    return EXIT_OK


def _cmd_pe_check(args) -> int:
    data = load_dataset(args.data)
    model = load_model(args.model)
    report = pe.pe_report(data, model)
    _emit(args, _json(report.to_dict()), "pe_report.json")
    return EXIT_ENUM_LIMIT if report.undecided else EXIT_OK


def _cmd_min_samples(args) -> int:
    if args.table:
        cells = sorted(pe.min_samples_table(args.n, args.S).items())
    else:
        count = (pe.min_samples_ours, pe.min_samples_bako, pe.min_samples_vidal)
        cells = [((args.n, args.S), pe.SampleCounts(*(f(args.n, args.S) for f in count)))]
    # the columns after n and S are the fields of SampleCounts
    rows = [{"n": n, "S": S, **asdict(counts)} for (n, S), counts in cells]
    if args.table:
        _emit(args, _csv_text(list(rows[0]), rows), "min_samples.csv")
    else:
        _emit(args, _json(rows[0]), "min_samples.json")
    return EXIT_OK


def _penalty(text: str) -> float | str:
    # argparse also passes a string config default through here
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}") from None


def _order_config(args) -> OrderSelectConfig:
    return OrderSelectConfig(
        S_bar=args.s_bar,
        penalty=args.penalty,
        solver=SolverConfig(S=1, restarts=args.restarts, seed=args.seed),
    )


def _cmd_select_order(args) -> int:
    data = load_dataset(args.data)
    report = select_order(data, _order_config(args))
    _emit(args, _json(report.to_dict()), "order.json")
    return EXIT_OK


def _cmd_consistency_sweep(args) -> int:
    scenario = SweepScenario(n=args.n, S=args.S, sigma=args.sigma)
    rows = consistency_sweep(scenario, args.N, args.trials, _order_config(args), seed=args.seed)
    _emit(args, _csv_text(["N", "trials", "recovery_rate"], rows), "consistency.csv")
    return EXIT_OK


def _cell(text: str) -> tuple[int, int, int]:
    try:
        n, S, N = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n,S,N, got {text!r}") from None
    return n, S, N


def _cmd_bench(args) -> int:
    specs = []
    for n, S, N in args.cell:
        specs.append(
            bench.ScenarioSpec(
                n=n,
                S=S,
                N=N,
                sigma=args.sigma,
                repetitions=args.repetitions,
                restarts=args.restarts,
                seed=args.seed,
            )
        )
    results = bench.run_bench(specs)
    summary = [r.summary for r in results]
    raw = [row for r in results for row in r.raw]
    _emit(args, _csv_text(bench.SUMMARY_COLUMNS, summary), "bench_summary.csv")
    _emit(args, _csv_text(bench.RAW_COLUMNS, raw), "bench_raw.csv")
    return EXIT_OK


def _cmd_repro(args) -> int:
    mismatches = bench.repro(args.table_id)
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH: {line}")
        print(f"{args.table_id}: {len(mismatches)} mismatch(es)")
        return EXIT_MISMATCH
    print(f"{args.table_id}: ok")
    return EXIT_OK


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Build the CLI; ``defaults`` (from a config file) both pre-fills values
    and waives the requiredness of the options it covers."""
    defaults = defaults or {}
    parser = _Parser(prog="slsid", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        default=None,
        help="flat JSON file of option defaults; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def need(dest: str) -> bool:
        return dest not in defaults

    def add_output(p):
        p.add_argument("--output", default=None, help="directory for output files")
        p.set_defaults(**defaults)

    p = sub.add_parser("simulate", help="write a dataset CSV and model JSON")
    p.add_argument("--example", type=int, choices=(1, 2), default=None)
    p.add_argument("--n", type=int)
    p.add_argument("--S", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--range-lo", type=float, default=-5.0)
    p.add_argument("--range-hi", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="block-coordinate descent fit; fixed stall stop 1e-12")
    p.add_argument("--data", required=need("data"))
    p.add_argument("--S", type=int, required=need("S"))
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="emit per-iteration CSV")
    add_output(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("oracle", help="exact global optimum on a small instance")
    p.add_argument("--data", required=need("data"))
    p.add_argument("--S", type=int, required=need("S"))
    p.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ENUM_LIMIT,
        help="node budget: label prefixes and strings the exact search may build"
        " (never more than 2*S^N are needed); exit 3 when it would go over",
    )
    add_output(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("pe-check", help="excitation certificate; fixed rank tolerance 1e-10")
    p.add_argument("--data", required=need("data"))
    p.add_argument("--model", required=need("model"))
    add_output(p)
    p.set_defaults(func=_cmd_pe_check)

    p = sub.add_parser("min-samples", help="minimum sample counts")
    p.add_argument("--n", type=int, required=need("n"))
    p.add_argument("--S", type=int, required=need("S"))
    p.add_argument("--table", action="store_true", help="emit the full grid as CSV")
    add_output(p)
    p.set_defaults(func=_cmd_min_samples)

    p = sub.add_parser("select-order", help="penalized subsystem-count selection")
    p.add_argument("--data", required=need("data"))
    p.add_argument("--s-bar", type=int, required=need("s_bar"))
    p.add_argument("--penalty", "--lambda", dest="penalty", type=_penalty, default="auto")
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_select_order)

    p = sub.add_parser("consistency-sweep", help="order-selection recovery vs N")
    p.add_argument("--n", type=int, required=need("n"))
    p.add_argument("--S", type=int, required=need("S"))
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--N", type=int, nargs="+", required=need("N"))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--s-bar", type=int, required=need("s_bar"))
    p.add_argument("--penalty", "--lambda", dest="penalty", type=_penalty, default="auto")
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_consistency_sweep)

    p = sub.add_parser("bench", help="Monte-Carlo sweep over scenario cells")
    p.add_argument(
        "--cell",
        action=_FreshAppend,
        type=_cell,
        required=need("cell"),
        metavar="n,S,N",
        help="repeatable scenario cell, e.g. --cell 2,2,500",
    )
    p.add_argument("--sigma", type=float, default=bench.ScenarioSpec.sigma)
    p.add_argument("--repetitions", type=int, default=bench.ScenarioSpec.repetitions)
    p.add_argument("--restarts", type=int, default=bench.ScenarioSpec.restarts)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("repro", help="regenerate a stored reference result")
    p.add_argument("table_id", choices=tuple(bench.REPRO))
    p.set_defaults(**defaults)
    p.set_defaults(func=_cmd_repro)

    return parser


def _config_path(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _config(argv) -> dict | None:
    path = _config_path(argv)
    if path is None:
        return None
    try:
        defaults = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        # ValueError: not UTF-8, or not JSON
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ValueError("config must be a flat JSON object")
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # precedence: explicit flags > config file > built-in defaults; the
        # file is read before parsing so its values can satisfy required options
        args = build_parser(_config(argv)).parse_args(argv)
        return args.func(args)
    except tuple(_FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _FAILURES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
