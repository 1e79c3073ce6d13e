"""curveclust benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload align-g500 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

Workloads (inputs come from the s31 simulation at the given seed):

* ``align-g500``  one ``similarity(f, g, lambda0=0)`` per unordered pair of
  s31 (4,4,4), grid 500, in id order: the pair kernel alone.
* ``cluster-s31`` ``curveclust cluster`` in-process on the CSV of s31
  (4,4,4), grid 100, lambda0 0.5: the end-to-end job.
* ``stages-n60``  for each of the 4 combination thresholds, the non-kernel
  half of one pipeline iteration (distances, assign, candidate, combine,
  update) on s31 (20,20,20), grid 100, over an identity-warp similarity
  matrix: updating, combining and indices with no warping.

An op is one pair, one cluster run, or one threshold stage.  With ``--trace 0``
ops run in repetition order: one whole repetition, then more for as long as
they fit in ``--seconds``; the end-to-end metrics are printed:

* ``setup_s``    import, plus the median of 3 input set-ups (generation,
                 smoothing, the stages matrix);
* ``run_s``      seconds per repetition: each op's median time, summed;
* ``op_s_p50``, ``op_s_p80``  percentiles of those per-op medians (per pair
                 on align-g500);
* ``quality``    align-g500: mean optimized rho; cluster-s31: adjusted Rand
                 index against the natural truth; stages-n60: mean
                 identity-warp rho of the updated curves (higher is better);
* ``ok_frac``    share of ops that passed every check;
* ``peak_rss_mb`` peak resident memory.

Times are scaled to a reference machine speed by ``speed.SpeedProbe``; the
raw times are in the record line.  With ``--trace 1`` one untraced and two
traced repetitions run, unprobed; per-layer metrics come from the first traced
one, and its counts must equal the second's exactly or nothing is reported.

Every op is checked against invariants and, where ``perfbench/refs`` has an
entry for the seed, against the reference outputs; ``--record`` writes that
entry from this run instead.  The last stdout line is the result object; the
line before it holds the environment and per-op details.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
SETUP_REPEATS = 3
RHO_TOL = 1e-6  # reference tolerance on rho, index values and curve checksums

WORKLOADS = ("align-g500", "cluster-s31", "stages-n60")


def _import_package():
    src = ROOT / "src"
    if not (src / "curveclust" / "__init__.py").is_file():
        sys.exit(f"error: no curveclust package under {src}")
    sys.path.insert(0, str(src))
    import curveclust

    if Path(curveclust.__file__).resolve().parent != src / "curveclust":
        sys.exit(f"error: curveclust imported from {curveclust.__file__}, not {src}")
    return curveclust


def _s31(cc, sizes, seed):
    return cc.generate(cc.scenario_preset("s31", sizes=sizes, sigma=0.15, seed=seed))


def _identity_warp():
    from curveclust.warping import make_warping, n_raw_params

    return make_warping([0.0] * n_raw_params())


def _close(value, want) -> bool:
    """Within the reference tolerance; equal infinities and Nones match."""
    return value == want or (
        value is not None and want is not None and abs(value - want) <= RHO_TOL
    )


def _checksums(curves):
    """One number per curve: its samples projected on a fixed oscillating
    vector, so that a change anywhere in a curve moves its number."""
    import numpy as np

    return [float(c.samples @ np.cos(2.1 * np.arange(c.samples.size) + 0.3)) for c in curves]


def _covers_once(groups, ids) -> bool:
    flat = [i for g in groups for i in g]
    return len(flat) == len(set(flat)) and set(flat) == set(ids)


def _as_groups(groups):
    return sorted(sorted(int(i) for i in g) for g in groups)


class AlignG500:
    """One maximized similarity per unordered pair at the default grid."""

    name = "align-g500"
    root = ("similarity.similarity", "similarity")

    def __init__(self, cc, seed):
        self.cc = cc
        data = _s31(cc, (4, 4, 4), seed)
        config = cc.RunConfig(lambda0=0.0, grid_size=500)
        self.curves = cc.prepare_curves(data.points, data.samples, config)
        n = len(self.curves)
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.identity = _identity_warp()

    def ops(self):
        sim = self.cc.similarity
        return [
            (lambda f=self.curves[i], g=self.curves[j]: sim(f, g, 0.0).rho)
            for i, j in self.pairs
        ]

    def check(self, k, rho, ref):
        f, g = (self.curves[i] for i in self.pairs[k])
        floor = self.cc.rho_given_psi(f, g, self.identity, 0.0).rho
        problems = []
        if not rho <= 1.0 + 1e-12:
            problems.append(f"rho {rho} above 1")
        if not rho >= floor - 1e-12:
            problems.append(f"rho {rho} below identity-warp rho {floor}")
        if ref is not None and not _close(rho, ref["rho"][k]):
            problems.append(f"rho {rho} != reference {ref['rho'][k]}")
        return problems

    def reference(self, first_rep):
        return {"rho": first_rep}

    def quality(self, first_rep):
        return statistics.fmean(first_rep)


class ClusterS31:
    """`curveclust cluster` in-process on the scaled s31 CSV."""

    name = "cluster-s31"
    root = ("cli.main", "cli")

    def __init__(self, cc, seed, workdir):
        from curveclust.io import write_curves_csv

        self.cc = cc
        data = _s31(cc, (4, 4, 4), seed)
        self.truth = [sorted(g) for g in data.truths["natural"]]
        self.ids = data.ids
        self.input = os.path.join(workdir, "curves.csv")
        self.output = os.path.join(workdir, "result.json")
        write_curves_csv(self.input, data.ids, data.points, data.samples)

    def ops(self):
        from curveclust.cli import main

        args = ["cluster", "--input", self.input, "--lambda0", "0.5", "--grid", "100",
                "--output", self.output]

        def op():
            code = main(args)
            if code != 0:
                raise RuntimeError(f"cluster exited with code {code}")
            with open(self.output, "rb") as fh:
                raw = fh.read()
            result = json.loads(raw)
            return {
                "partition": _as_groups(result["partition"]),
                "index_value": result["index_value"],
                "sha256": hashlib.sha256(raw).hexdigest(),
            }

        return [op]

    def check(self, k, out, ref):
        problems = []
        if not _covers_once(out["partition"], self.ids):
            problems.append(f"partition {out['partition']} does not cover every id once")
        if ref is not None:
            if out["partition"] != ref["partition"]:
                problems.append(f"partition {out['partition']} != reference {ref['partition']}")
            if not _close(out["index_value"], ref["index_value"]):
                problems.append(f"index {out['index_value']} != reference {ref['index_value']}")
            if out["sha256"] != ref["sha256"]:
                problems.append("result bytes differ from the reference")
        return problems

    def reference(self, first_rep):
        return first_rep[0]

    def quality(self, first_rep):
        return self.cc.adjusted_rand(first_rep[0]["partition"], self.truth)


class StagesN60:
    """Distances, assignment, candidate, combination and updating for each
    combination threshold, over a fixed identity-warp similarity matrix."""

    name = "stages-n60"
    root = ("pipeline.stage", "pipeline")
    lambda0 = 0.5

    def __init__(self, cc, seed):
        from curveclust.similarity import SimilarityMatrix

        self.cc = cc
        data = _s31(cc, (20, 20, 20), seed)
        self.ids = data.ids
        config = cc.RunConfig(lambda0=self.lambda0, grid_size=100)
        self.settings = config.splines
        self.curves = cc.prepare_curves(data.points, data.samples, config)
        self.matrix = SimilarityMatrix(self._identity_entries(self.curves), data.ids)
        sims = self.matrix.values()
        self.tau = cc.weight_exponent([s for s in sims if s < 1.0 - 1e-12])
        self.thresholds = cc.combination_thresholds(sims)

    def _identity_entries(self, curves):
        identity = _identity_warp()
        return {
            (f.id, g.id): self.cc.rho_given_psi(f, g, identity, self.lambda0)
            for i, f in enumerate(curves)
            for g in curves[i + 1 :]
        }

    def ops(self):
        return [lambda c=c: self._stage(c) for c in self.thresholds]

    def _stage(self, c_star):
        # names are looked up on the pipeline module, as run_single_threshold
        # does, so a traced repetition sees the same call boundaries
        p = importlib.import_module("curveclust.pipeline")
        bank = {c.id: c for c in self.curves}
        members_of = {i: c.members for i, c in bank.items()}
        dist = p.distances_from_similarity(self.matrix)
        index_fn = p.index_function("silhouette")

        def nu(groups):
            groups = [set(g) for g in groups]
            if len(groups) < 2:
                return -math.inf
            value = index_fn(groups, dist)
            return value if math.isfinite(value) else -math.inf

        partial = p.assign_groups(list(bank), self.matrix, c_star, nu)
        if partial.groups:
            part = p.candidate_partition(partial, self.matrix, c_star, nu, members_of)
            groups = [sorted(g) for g in part.groups]
        else:
            groups = [[i] for i in bank]
        reps = [
            p.combine_group(g, bank, self.matrix, settings=self.settings)
            for g in partial.groups
        ]
        # a combined curve has no row in the matrix until its pairs are
        # optimized, so the update runs over the curves the matrix describes
        updated = p.update_all(self.curves, self.matrix, self.lambda0, self.tau, self.settings)
        self.updated = updated
        return {
            "partition": _as_groups(groups),
            "index_value": nu(groups),
            "curves": _checksums(reps + updated),
        }

    def check(self, k, out, ref):
        problems = []
        if not _covers_once(out["partition"], self.ids):
            problems.append(f"threshold {k}: partition does not cover every id once")
        if ref is not None:
            want = ref["stages"][k]
            if out["partition"] != want["partition"]:
                problems.append(f"threshold {k}: partition differs from the reference")
            if not _close(out["index_value"], want["index_value"]):
                problems.append(f"threshold {k}: index {out['index_value']} != reference")
            if len(out["curves"]) != len(want["curves"]) or not all(
                _close(a, b) for a, b in zip(out["curves"], want["curves"])
            ):
                problems.append(f"threshold {k}: combined or updated curves differ")
        return problems

    def reference(self, first_rep):
        return {"stages": first_rep}

    def quality(self, first_rep):
        # updating exists to raise each curve's similarity to its neighbors
        # at fixed warps; the update does not depend on the threshold
        return statistics.fmean(e.rho for e in self._identity_entries(self.updated).values())


def _make(cc, name, seed, workdir):
    if name == "align-g500":
        return AlignG500(cc, seed)
    if name == "cluster-s31":
        return ClusterS31(cc, seed, workdir)
    return StagesN60(cc, seed)


def _attempt(op):
    try:
        return op(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def _timed_loop(ops, seconds):
    """Ops in repetition order: one whole repetition, then more while each is
    expected to end within `seconds` of the start.  Returns
    [(op index, output, error, start, end)]."""
    clock = time.perf_counter
    done = []
    start = clock()
    while True:
        for k, op in enumerate(ops):
            elapsed = clock() - start
            if len(done) >= len(ops) and elapsed * (1 + 1 / len(done)) > seconds:
                return done
            t0 = clock()
            out, err = _attempt(op)
            done.append((k, out, err, t0, clock()))


def _traced_rep(work, ops, tracing):
    with tracing.Tracer() as tracer:
        done = _timed_loop([tracer.wrap(*work.root, op) for op in ops], 0)
    return done, tracing.layer_metrics(tracer.spans)


def _traced_run(work, ops):
    """One untraced and two traced repetitions, unprobed; the per-layer
    metrics of the first traced one, once its counts match the second's."""
    import tracing

    done = _timed_loop(ops, 0)
    untraced_s = done[-1][4] - done[0][3]
    traced = [_traced_rep(work, ops, tracing) for _ in range(2)]
    first, second = traced[0][1], traced[1][1]
    differ = [m for m in tracing.COUNT_METRICS if first[m] != second[m]]
    if differ:
        sys.exit("error: counts differ between two traced repetitions: "
                 + ", ".join(f"{m} {first[m]} vs {second[m]}" for m in differ))
    traced_s = [rep[-1][4] - rep[0][3] for rep, _ in traced]
    first["trace.overhead_s"] = statistics.fmean(traced_s) - untraced_s
    return done + traced[0][0] + traced[1][0], first


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def _environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def _load_ref(name, seed):
    path = REFS / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def _save_ref(name, seed, entry):
    path = REFS / f"{name}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    refs[str(seed)] = entry
    seeds = sorted(refs, key=int)
    lines = [f"{json.dumps(seed)}: {json.dumps(refs[seed])}" for seed in seeds]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the seed's reference")
    args = parser.parse_args(argv)
    load_start = list(os.getloadavg())
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    from speed import SpeedProbe

    clock = time.perf_counter
    workroot = ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as workdir:
        with SpeedProbe() as probe:
            cc = _import_package()
            import_end = clock()
            setup = []
            for _ in range(SETUP_REPEATS):
                t0 = clock()
                work = _make(cc, args.workload, args.seed, workdir)
                setup.append((t0, clock()))
            ops = work.ops()
            if not args.trace:
                done = _timed_loop(ops, args.seconds)
        if args.trace:
            done, layers = _traced_run(work, ops)

    env = _environment(args)
    ref = None if args.record else _load_ref(work.name, args.seed)
    first_rep = [out for _, out, *_ in done[: len(ops)]]
    failures, failed = [], 0
    for k, out, err, _, _ in done:
        problems = [err] if err else work.check(k, out, ref)
        failed += bool(problems)
        failures.extend(f"op {k}: {p}" for p in problems)
    if args.record and not failures:
        _save_ref(work.name, args.seed, work.reference(first_rep))

    attempted = len(done)
    record = {
        **env,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "reference": ref is not None,
        "failures": failures[:20],
        "ops": attempted,
    }
    if args.trace:
        values = layers
    else:
        # each op's median over the run, so that the ops of a last partial
        # repetition count without weighting the early ops twice
        n = len(ops)
        op_s = [probe.scaled(t0, t1) for *_, t0, t1 in done]
        raw_op_s = [probe.raw(t0, t1) for *_, t0, t1 in done]
        op_med = [statistics.median(op_s[k::n]) for k in range(n)]
        raw_run_s = sum(statistics.median(raw_op_s[k::n]) for k in range(n))
        setup_s = [probe.scaled(t0, t1) for t0, t1 in setup]
        import_s = probe.scaled(_T_START, import_end)
        record.update(
            raw_run_s=raw_run_s,
            op_s=op_s,
            raw_op_s=raw_op_s,
            setup_runs_s=setup_s,
            import_s=import_s,
            probe_samples=len(probe.lengths),
            probe_s_p50=statistics.median(probe.lengths),
        )
        values = {
            "setup_s": import_s + statistics.median(setup_s),
            "run_s": sum(op_med),
            "op_s_p50": statistics.median(op_med),
            "op_s_p80": _percentile(op_med, 0.8),
            "quality": 0.0 if None in first_rep else work.quality(first_rep),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
