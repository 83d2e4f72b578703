"""Cold, layer-by-layer benchmark of blockgraph.

    python3 perfbench/run.py --workload graph_tables --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout: the program is imported from ./src and
the CLI is started as ``python -m blockgraph`` with ./src on PYTHONPATH.
One workload runs in this process.  Every package cache is cleared before
each operation.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Everything
else goes to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from cold import ColdCache  # noqa: E402

SETUP_STARTS = 7  # timed fresh starts per run, after one untimed start
CLI_REPEATS = 4  # times the CLI sequence is run; cli_s sums the per-call medians
CALL_TIMEOUT = 120


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


# -- set-up ----------------------------------------------------------------------------------


def fresh_start(workload: str, env: dict) -> tuple[float, float]:
    """Set-up and import time of one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["import_s"]


# -- operations --------------------------------------------------------------------------------


def observe_tables(bg, item, out) -> dict:
    table, graph = out
    return {
        "text": bg.chartab.print_table(table),
        "partitions": {p: bg.blocks.block_partition(table, p).blocks for p in graph.vertices},
    }


def observe_dixon(bg, item, out) -> dict:
    _, _, parsed, graph = out
    return {
        "reprinted": bg.chartab.print_table(parsed),
        "partitions": {p: bg.blocks.block_partition(parsed, p).blocks for p in graph.vertices},
    }


OBSERVERS = {"graph_tables": observe_tables, "dixon_ladder": observe_dixon}


def one_pass(wl, bg, items, cold, light_rounds=0, tracer=None, observe=None, tick=None):
    """Every operation once, then `light_rounds` more rounds over the light
    ones; each operation starts after clearing the caches and collecting
    garbage.  Observations are taken after an operation's clock stops,
    while its caches are warm, and `tick` is then called with its latency.
    The pass's outputs are those of its first round, and a later round
    must repeat them."""
    pass_ = SimpleNamespace(
        samples=[[] for _ in items], outputs=[], observed=[], attempted=0, failed=0, differs=False
    )
    light = [index for index, (_, item) in enumerate(items) if wl.light(item)]
    for round_ in range(1 + light_rounds):
        for index in light if round_ else range(len(items)):
            item = items[index][1]
            cold.clear()
            gc.collect()
            if tracer is not None:
                tracer.op = index
            start = perf_counter()
            try:
                out = wl.op(bg, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            pass_.samples[index].append(perf_counter() - start)
            if tick is not None:
                tick(pass_.samples[index][-1])
            pass_.attempted += 1
            pass_.failed += isinstance(out, Exception)
            if round_:
                pass_.differs |= not same_outputs(pass_.outputs[index], out)
                continue
            pass_.outputs.append(out)
            if observe is not None and not isinstance(out, Exception):
                pass_.observed.append(observe(bg, item, out))
            else:
                pass_.observed.append(None)
        if not round_:
            # Later rounds add allocator fragmentation that varies from run
            # to run, so the peak is read once the first cold round is done.
            pass_.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_.seconds = sum(samples[0] for samples in pass_.samples)
    return pass_


def geomean_ms(latencies) -> float:
    return math.exp(statistics.fmean(math.log(t * 1000.0) for t in latencies))


def same_outputs(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


# -- CLI calls ---------------------------------------------------------------------------------------


def cli_argvs(workload: str, workdir: Path) -> list[list[str]]:
    if workload == "graph_tables":
        return workloads.GRAPH_TABLES_CLI
    if workload == "dixon_ladder":
        return workloads.dixon_cli_argvs(workdir)
    return workloads.LIE_CLI


def prepare_cli_files(workload: str, workdir: Path, items) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "dixon_ladder":
        for name, group in items:
            if name in workloads.DIXON_CLI_GROUPS:
                workloads.write_generator_file(workdir, group)


def keep_dixon_output(argv, code, stdout) -> None:
    """A dixon call's table becomes the input of the graph calls after it."""
    if argv[0] == "dixon" and code == 0:
        Path(argv[1].replace(".gens.json", ".table.json")).write_text(stdout)


def run_cli_subprocess(argvs, env) -> tuple[list, list]:
    times = []
    results = []
    for argv in argvs:
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "blockgraph", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT,
        )
        times.append(perf_counter() - start)
        keep_dixon_output(argv, done.returncode, done.stdout)
        results.append((argv, done.returncode, done.stdout))
    return times, results


def run_cli_in_process(bg, argvs, cold) -> tuple[float, list]:
    total = 0.0
    results = []
    for argv in argvs:
        cold.clear()
        buffer = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = bg.cli.run(list(argv))
        total += perf_counter() - start
        keep_dixon_output(argv, code, buffer.getvalue())
        results.append((argv, code, buffer.getvalue()))
    return total, results


# -- checks --------------------------------------------------------------------------------------


def verify_graph_tables(bg, raw, items, outputs, observed) -> list[str]:
    problems = []
    for (name, _), (_, graph), seen in zip(items, outputs, observed):
        t = checks.TableData(seen["text"])
        problems += checks.check_character_table(t)
        problems += checks.check_corpus_graph(name, t.order, graph.vertices, graph.edges)
        for p, blocks in seen["partitions"].items():
            problems += checks.check_partition(t, p, blocks)
        problems += checks.check_graph_agrees_with_blocks(name, graph, seen["partitions"])
    return problems


def verify_dixon(bg, raw, items, outputs, observed) -> list[str]:
    problems = []
    for (name, group), (order, text, _, graph), seen in zip(items, outputs, observed):
        t = checks.TableData(text)
        if group.kind == "S":
            expected_order = math.factorial(group.param)
        else:
            expected_order = group.param * (group.param**2 - 1) // 2
        if order != expected_order or t.order != expected_order:
            problems.append(f"{name}: order {order}, table order {t.order}, expected {expected_order}")
        if seen["reprinted"] != text:
            problems.append(f"{name}: print_table(parse_table(text)) differs from text")
        problems += checks.check_character_table(t)
        for p, blocks in seen["partitions"].items():
            problems += checks.check_partition(t, p, blocks)
        problems += checks.check_graph_agrees_with_blocks(name, graph, seen["partitions"])
        if group.kind == "S":
            problems += checks.check_symmetric(group.param, t, seen["partitions"], graph)
        else:
            problems += checks.check_psl2(group.param, t, graph)
    return problems


def verify_lie(bg, raw, items, outputs, observed) -> list[str]:
    problems = []
    for (name, descriptor), result in zip(items, outputs):
        problems += checks.check_lie(name, descriptor, result)
    return problems


VERIFIERS = {
    "graph_tables": verify_graph_tables,
    "dixon_ladder": verify_dixon,
    "lie_sweep": verify_lie,
}


def _flag(argv, flag) -> int:
    return int(argv[argv.index(flag) + 1])


def verify_cli(workload, bg, raw, items, outputs, results) -> list[str]:
    problems = []
    by_name = {name: out for (name, _), out in zip(items, outputs)}
    for argv, code, stdout in results:
        label = " ".join(argv)
        if code != 0:
            problems.append(f"`{label}` exited with {code}")
            continue
        try:
            if workload == "graph_tables":
                problems += check_table_cli(bg, raw, argv, stdout)
            elif workload == "dixon_ladder":
                problems += check_dixon_cli(by_name, argv, stdout)
            else:
                problems += check_lie_cli(argv, stdout)
        except Exception as exc:  # output the checks cannot read is wrong output
            problems.append(f"`{label}` printed what the checks cannot read: {exc!r}")
    return problems


def check_table_cli(bg, raw, argv, stdout) -> list[str]:
    command, name = argv[0], argv[1]
    order = json.loads(raw[name])["order"]
    if command == "graph" and "--dot" in argv:
        vertices = [int(v) for v in re.findall(r'^\s*"(\d+)";$', stdout, re.M)]
        edges = [(int(a), int(b)) for a, b in re.findall(r'"(\d+)" -- "(\d+)"', stdout)]
        return checks.check_corpus_graph(name, order, vertices, edges)
    doc = json.loads(stdout)
    if command == "graph":
        n = len(doc["vertices"])
        problems = checks.check_corpus_graph(name, order, doc["vertices"], doc["edges"])
        if doc["complete"] != (len(doc["edges"]) == n * (n - 1) // 2):
            problems.append(f"graph {name}: 'complete' disagrees with the edge count")
        return problems
    if command == "blocks":
        p = _flag(argv, "-p")
        t = checks.TableData(bg.chartab.print_table(bg.chartab.parse_table(raw[name])))
        blocks = [b["rows"] for b in doc["blocks"]]
        problems = checks.check_partition(t, p, blocks)
        nu = checks.p_part(order, p)
        for b in doc["blocks"]:
            smallest = min(checks.p_part(t.degrees[r], p) for r in b["rows"])
            if b["degrees"] != [t.degrees[r] for r in b["rows"]]:
                problems.append(f"blocks {name}: degrees of {b['rows']}")
            if p ** b["defect"] != nu // smallest:
                problems.append(f"blocks {name}: defect of {b['rows']} is {b['defect']}")
            if b["principal"] != (0 in b["rows"]):
                problems.append(f"blocks {name}: principal flag on {b['rows']}")
        return problems
    if command == "psolv":
        # S4 is solvable, so the criterion must certify 2-solvability.
        if doc["p_solvable_certified"] is not True or doc["triangles"]:
            return [f"psolv {name}: not certified p-solvable"]
        return []
    if command == "validate":
        if doc["valid"] is not True or doc["violations"]:
            return [f"validate {name}: {doc['violations']}"]
        return []
    return [f"no check for `{' '.join(argv)}`"]


def check_dixon_cli(by_name, argv, stdout) -> list[str]:
    stem = Path(argv[1]).name.split(".")[0]
    name = next(n for n in by_name if workloads.dixon_file_stem(n) == stem)
    _, text, _, graph = by_name[name]
    if argv[0] == "dixon":
        # The pass output for the same generators was checked on its own.
        return [] if stdout == text else [f"dixon {name}: CLI table differs from the library's"]
    doc = json.loads(stdout)
    if doc["vertices"] != list(graph.vertices) or [tuple(e) for e in doc["edges"]] != list(graph.edges):
        return [f"graph {name}: CLI graph differs from the library's"]
    return []


def check_lie_cli(argv, stdout) -> list[str]:
    doc = json.loads(stdout)
    command = argv[0]
    if command == "zsigmondy":
        t, n = _flag(argv, "-t"), _flag(argv, "-n")
        expected = checks.zsigmondy_by_scan(t, n)
        return [] if doc["prime"] == expected else [f"zsigmondy {t} {n}: {doc['prime']} != {expected}"]
    family, rank = argv[argv.index("--family") + 1], _flag(argv, "--rank")
    regular = checks.regular_numbers_known(family, rank)
    if command == "regnum":
        e = _flag(argv, "--e")
        return [] if doc["regular"] == (e in regular) else [f"regnum {family} {e}: {doc['regular']}"]
    q = _flag(argv, "--q")
    if command == "order":
        order = checks.textbook_order(family, rank, q)
        product = math.prod(int(p) ** k for p, k in doc["factorization"].items())
        if doc["order"] != order or product != order:
            return [f"order {family}{rank}({q}): {doc['order']}"]
        return []
    if command == "steinberg":
        ell = _flag(argv, "--ell")
        e = checks.e_by_scan(ell, q)
        if doc["e"] != e or doc["in_principal_block"] != (e in regular):
            return [f"steinberg {family}{rank}({q}) ell={ell}: e={doc['e']}"]
        return []
    return [f"no check for `{' '.join(argv)}`"]


# -- the run --------------------------------------------------------------------------------------


def import_program():
    from blockgraph import blocks, chartab, cli, errors, graph, lietype, tablegen

    return SimpleNamespace(
        blocks=blocks,
        chartab=chartab,
        cli=cli,
        errors=errors,
        graph=graph,
        lietype=lietype,
        tablegen=tablegen,
    )


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "blockgraph" / "__init__.py").is_file():
        print(f"no blockgraph sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = child_env(src)
    wl = workloads.WORKLOADS[args.workload]
    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"

    fresh_start(args.workload, env)  # compiles byte code; not timed
    bg = import_program()
    raw = wl.load()
    items = wl.vary(raw, random.Random(args.seed))
    cold = ColdCache()
    observe = OBSERVERS.get(args.workload)
    # What is loaded by now lives for the whole run.  Frozen, it is left out
    # of the collection made before each operation, which then costs
    # microseconds instead of milliseconds.
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    starts: list[tuple[float, float]] = []
    cli_times: list[list[float]] = []
    cli_results: list = []
    prepare_cli_files(args.workload, workdir, items)
    argvs = cli_argvs(args.workload, workdir)

    def fresh() -> None:
        starts.append(fresh_start(args.workload, env))

    def cli() -> None:
        times, results = run_cli_subprocess(argvs, env)
        cli_times.append(times)
        cli_results.extend(results)

    # The fresh starts and CLI sequences fall due at even steps of the
    # operations' measured time, so that every metric samples the machine
    # over the whole run rather than over one stretch of it; the machine's
    # speed drifts over seconds to minutes.
    side = [(args.seconds * (i + 0.5) / SETUP_STARTS, fresh) for i in range(SETUP_STARTS)]
    if tracer is None:
        side += [(args.seconds * (i + 0.5) / CLI_REPEATS, cli) for i in range(CLI_REPEATS)]
    side.sort(key=lambda task: task[0])
    ticked = [0.0]

    def tick(latency: float) -> None:
        ticked[0] += latency
        while side and side[0][0] <= ticked[0]:
            side.pop(0)[1]()

    problems: list[str] = []
    attempted = failed = 0
    first = None
    passes, traced, layers = [], [], []
    measured = 0.0
    try:
        while True:
            pass_ = one_pass(
                wl,
                bg,
                items,
                cold,
                light_rounds=0 if tracer else wl.light_rounds,
                observe=None if first else observe,
                tick=tick,
            )
            passes.append(pass_)
            measured += sum(map(sum, pass_.samples))
            outputs_seen = [pass_]
            if tracer is not None:
                missing = tracer.install()
                if missing and not layers:
                    print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
                tracer.reset()
                hits = cold.seed_hits
                traced_pass = one_pass(wl, bg, items, cold, tracer=tracer)
                tracer.uninstall()
                traced.append(traced_pass.seconds)
                measured += traced_pass.seconds
                layers.append(tracer.layer_values(cold.seed_hits - hits))
                outputs_seen.append(traced_pass)
            if first is None:
                first = (pass_.outputs, pass_.observed)
                peak_rss_mb = pass_.rss_mb
            for seen in outputs_seen:
                attempted += seen.attempted
                failed += seen.failed
                if seen.differs or not all(same_outputs(a, b) for a, b in zip(first[0], seen.outputs)):
                    problems.append("an operation gave different outputs in two passes")
            if measured >= args.seconds:
                break
        for _, task in side:
            task()
        if tracer is not None:
            cli_run_s, cli_results = run_cli_in_process(bg, argvs, cold)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outputs, observed = first
    for (name, _), out in zip(items, outputs):
        if isinstance(out, Exception):
            print(f"operation {name} failed: {out!r}", file=sys.stderr)
    problems += verify_cli(args.workload, bg, raw, items, outputs, cli_results)

    ok = [(item, out, seen) for item, out, seen in zip(items, outputs, observed) if not isinstance(out, Exception)]
    try:
        if ok:
            problems += VERIFIERS[args.workload](bg, raw, *map(list, zip(*ok)))
    except Exception as exc:  # output the checks cannot read is wrong output
        problems.append(f"checking the outputs raised {exc!r}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    pass_s = statistics.median(p.seconds for p in passes)
    if tracer is None:
        # Per-operation medians over every sample of the run first: a short
        # slowdown of the machine then moves one sample of an operation, not
        # a whole pass's mean.  The same holds for the CLI calls.
        op_medians = [statistics.median(s for p in passes for s in p.samples[i]) for i in range(len(items))]
        metrics = {
            "setup_s": metric(statistics.median(s for s, _ in starts), "s"),
            "pass_s": metric(pass_s, "s"),
            "op_geomean_ms": metric(geomean_ms(op_medians), "ms"),
            "cli_s": metric(sum(map(statistics.median, zip(*cli_times))), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        from spans import PER_LAYER

        values = {key: statistics.median(v[key] for v in layers) for key in layers[0]}
        values["cli.import_s"] = statistics.median(i for _, i in starts)
        values["cli.run_s"] = cli_run_s
        values["trace.overhead_s"] = statistics.median(traced) - pass_s
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
        (HERE / "out").mkdir(exist_ok=True)
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans of the last traced pass: {trace_path}", file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
