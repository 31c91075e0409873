#!/usr/bin/env python
"""Mutation census: which tier-1 tests kill which hand-written mutant.

Every row of :data:`MUTANTS` is one small edit to ``src/repro`` that
breaks a guarantee the repository claims: Definition 1 (``f(s_t) <= C``),
the LGM transforms and ``OPT_LGM <= 2 OPT``, ONLINE's score, a consistent
A* heuristic, view contents equal to the view query at the applied
snapshot, and the engine's charge sites.  For each mutant the census

1. copies the repository's files (``git ls-files``, untracked but not
   ignored ones too) to a temporary directory -- the working tree is
   never edited -- and applies the edit there;
2. runs tier-1 (``tests/``) without ``-x``, with ``-p no:cacheprovider``
   and a fixed hypothesis seed (no deadlines, so a slow mutant is not a
   kill, and no shrinking, which changes no verdict), and records every
   failing test id.  ``tests/tools/test_mutants.py`` is left out: it
   fails on every mutant, because the mutant's old text is gone;
3. for a mutant tier-1 leaves alive, regenerates the paper tables
   (``benchmarks/bench_*.py``) and compares them byte for byte with the
   copy's committed ones (``ablation_control.txt`` has a wall-clock
   column and is not compared).

A clean copy runs first and must pass, or the census stops.  The result
is one row per mutant in ``benchmarks/results/mutation_census.txt``:
``killed`` (the killer count and the first killers), ``tables`` (only the
table gate sees it) or ``equivalent`` (it survives both, and its row in
:data:`MUTANTS` says why no test can tell).  The full kill matrix is
printed.  Named mutants re-run only their own rows::

    python tools/mutants.py                      # the whole census
    python tools/mutants.py slack online-tiebreak

Two copies run at a time; the whole census takes about 20 minutes on a
2-core host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
CENSUS = REPO / "benchmarks" / "results" / "mutation_census.txt"
SEED = 0
#: The one paper table with a wall-clock column.
TIMED_TABLE = "ablation_control.txt"


class Mutant(NamedTuple):
    name: str
    #: Relative to ``src/repro``.
    path: str
    old: str
    new: str
    guarantee: str
    #: Why no test can tell the mutant from the code, if none can.
    equivalent: str = ""


MUTANTS = (
    # -- Definition 1: CostModel.check_action and fullness -------------
    Mutant("slack", "core/problem.py",
           "self.full_above = self.limit + 1e-9",
           "self.full_above = self.limit * 1.01",
           "Definition 1: f(s_t) <= C"),
    Mutant("check-ignores-c", "core/problem.py",
           "if not forced and cost > self.full_above:",
           "if not forced and cost > self.full_above * 2:",
           "Definition 1: f(s_t) <= C"),
    Mutant("check-negative-action", "core/problem.py",
           "and min(action, default=0) >= 0",
           "and min(action, default=0) >= -1",
           "Definition 1: 0 <= p_t"),
    Mutant("check-exceeds-backlog", "core/problem.py",
           "and min(post, default=0) >= 0",
           "and min(post, default=0) >= -1",
           "Definition 1: p_t <= s_t"),
    Mutant("live-check-forced", "ivm/maintainer.py",
           "post, _ = model.check_action(pre, action, forced)",
           "post, _ = model.check_action(pre, action, True)",
           "Definition 1 on the live maintainer"),
    Mutant("sim-final-flush", "core/simulator.py",
           "action = pre  # forced refresh",
           "action = decide(t, pre)",
           "the refresh at T processes everything: p_T = s_T"),
    # -- Greedy minimal actions and the LGM transforms ------------------
    Mutant("minimality-strict", "core/actions.py",
           "if any(remaining + costs[i] <= limit for i in emptied):",
           "if any(remaining + costs[i] < limit for i in emptied):",
           "LGM: an enumerated action is minimal"),
    Mutant("minimality-dropped", "core/actions.py",
           "if any(remaining + costs[i] <= limit for i in emptied):",
           "if False:",
           "LGM: an enumerated action is minimal"),
    Mutant("minimize-strict", "core/actions.py",
           "if restored <= problem.full_above:",
           "if restored < problem.full_above:",
           "LGM: MinimizeAction returns a minimal action"),
    Mutant("lgm-no-minimize", "core/transforms.py",
           "actions.append(minimize_action(tentative, state, problem))",
           "actions.append(tentative)",
           "Theorem 1: MakeLGMPlan returns a minimal plan within 2 OPT"),
    Mutant("lgm-reference-ge", "core/transforms.py",
           "state[i] if state[i] > reference_posts[t][i] else 0",
           "state[i] if state[i] >= reference_posts[t][i] else 0",
           "Theorem 1: MakeLGMPlan empties only what the input plan did"),
    Mutant("lazy-not-lazy", "core/transforms.py",
           "if problem.is_full(state) or t == problem.horizon:",
           "if any(state) or t == problem.horizon:",
           "Lemma 1: MakeLazyPlan acts only on full states"),
    # -- ONLINE: H and TimeToFull ---------------------------------------
    Mutant("online-drop-spent", "core/online.py",
           "score = (self._spent + cost) / max(denom, 1e-9)",
           "score = cost / max(denom, 1e-9)",
           "ONLINE: H = (F_t + f(q)) / (t + TimeToFull)"),
    Mutant("online-drop-t", "core/online.py",
           "denom = t + horizon",
           "denom = horizon",
           "ONLINE: H = (F_t + f(q)) / (t + TimeToFull)"),
    Mutant("online-tiebreak", "core/online.py",
           "abs(score - best_score) <= 1e-12 and cost < best_cost",
           "abs(score - best_score) <= 1e-12 and cost > best_cost",
           "ONLINE: an exact tie in H goes to the cheaper action"),
    Mutant("ttf-last-unfull", "core/online.py",
           "                hi = mid\n        return hi",
           "                hi = mid\n        return lo",
           "TimeToFull: the first step whose projected state is full"),
    Mutant("ttf-ewma-swapped", "core/online.py",
           "a * x + (1 - a) * r for x, r in zip(arrivals, self._rates)",
           "a * r + (1 - a) * x for x, r in zip(arrivals, self._rates)",
           "TimeToFull: EWMA weighs the newest arrivals by alpha"),
    # -- A*: heuristic and goal test ------------------------------------
    Mutant("astar-h-inflated", "core/astar.py",
           "h = h + (s + k) * r",
           "h = h + (s + k) * r * 2",
           "Theorem 3: A* returns an optimal LGM plan"),
    Mutant("heuristic-inflated", "core/astar.py",
           "total = total + (s + k) * r",
           "total = total + (s + k) * r * 2",
           "the A* heuristic is consistent"),
    Mutant("min-rate-max", "core/problem.py",
           "rate = min(map(truediv, costs, sizes))",
           "rate = max(map(truediv, costs, sizes))",
           "the A* heuristic is consistent (a lower bound)"),
    Mutant("astar-goal-early", "core/astar.py",
           "            if lo == horizon:\n                # Never full",
           "            if lo >= horizon - 1:\n                # Never full",
           "Theorem 3: A*'s edges are valid lazy steps"),
    # -- ADAPT ----------------------------------------------------------
    Mutant("adapt-period", "core/adapt.py",
           "period = self.plan_t0.horizon + 1",
           "period = self.plan_t0.horizon",
           "Theorem 4: ADAPT replays Q_T0 with period T_0 + 1"),
    Mutant("adapt-no-remedy", "core/adapt.py",
           "if not self.is_full(post):\n            return action",
           "if True:\n            return action",
           "Definition 1 under ADAPT when arrivals deviate"),
    # -- Engine charge sites --------------------------------------------
    Mutant("index-maintain-created", "engine/table.py",
           'charge("index_maintains", writes * len(self.indexes))',
           'charge("index_maintains", created * len(self.indexes))',
           "charges: both images of a write maintain every index"),
    Mutant("row-writes-per-event", "engine/table.py",
           "writes = deleted + created",
           "writes = count",
           "charges: an update writes two row images"),
    Mutant("index-probe-charge", "engine/join.py",
           'self.counter.charge("index_probes", len(lblock))',
           'self.counter.charge("index_probes", 1)',
           "charges: one index probe per outer row"),
    Mutant("hash-build-charge", "engine/join.py",
           'self.counter.charge("hash_builds", build_rows)',
           'self.counter.charge("hash_builds", 0)',
           "charges: a hash join pays its build side"),
    Mutant("plan-build-charges", "engine/join.py",
           "self._right_pos = resolve_column(right_column, right.layout)\n",
           "self._right_pos = resolve_column(right_column, right.layout)\n"
           "        table = self.build(1024)\n"
           "        self.build = lambda block_size: table\n",
           "charges: building a plan (plain EXPLAIN) charges nothing; the "
           "build is the join's first pull"),
    Mutant("recompute-charge", "engine/aggregate.py",
           'self.counter.charge("sort_items", max(1, len(multiset)))',
           'self.counter.charge("sort_items", len(multiset))',
           "charges: an extremum recomputation costs at least one item"),
    Mutant("shared-scan-charge", "ivm/sharedscan.py",
           'self.database.counter.charge("tuple_cpu", interval.rows)',
           'self.database.counter.charge("tuple_cpu", hi - lo)',
           "charges: a window read costs one tuple per row image"),
    # -- Snapshot visibility --------------------------------------------
    Mutant("visibility-xmin", "engine/snapshot.py",
           "if v.xmin <= lsn and (v.xmax is None or v.xmax > lsn)",
           "if v.xmin < lsn and (v.xmax is None or v.xmax > lsn)",
           "a snapshot at L sees xmin <= L < xmax"),
    Mutant("visibility-xmax", "engine/snapshot.py",
           "if v.xmin <= lsn and (v.xmax is None or v.xmax > lsn)",
           "if v.xmin <= lsn and (v.xmax is None or v.xmax >= lsn)",
           "a snapshot at L sees xmin <= L < xmax"),
    Mutant("roll-forward-stale", "engine/snapshot.py",
           "rolled.pop(key, None)",
           "rolled.get(key)",
           "a rolled-forward keyed map equals a direct build"),
    Mutant("failed-batch-drops-prefix", "engine/table.py",
           "        finally:\n"
           "            lsns = self._commit(olds, [None] * len(olds))",
           "        except ExecutionError:\n"
           "            raise\n"
           "        else:\n"
           "            lsns = self._commit(olds, [None] * len(olds))",
           "a batch failing at a row id keeps the rows before it"),
    Mutant("truncate-past-reader", "engine/table.py",
           "if applied < floor:\n                floor = applied",
           "if applied > floor:\n                floor = applied",
           "ModLog.truncate keeps what a live reader has not applied"),
    # -- Delta windowing and the maintenance statement ------------------
    Mutant("window-newest", "ivm/sharedscan.py",
           "lo = delta.applied_lsn\n        return self._scan_of(delta.table)",
           "lo = delta.seen_lsn - k\n        return self._scan_of(delta.table)",
           "a flush of k takes the k oldest modifications"),
    Mutant("advance-before-fold", "ivm/maintenance.py",
           "    batch = round_.batch_for(delta, k)\n"
           "    with obs.trace(\"ivm.apply_batch\", alias=alias, k=k):\n"
           "        _propagate(view, alias, batch)\n"
           "    delta.advance(k)\n",
           "    batch = round_.batch_for(delta, k)\n"
           "    delta.advance(k)\n"
           "    with obs.trace(\"ivm.apply_batch\", alias=alias, k=k):\n"
           "        _propagate(view, alias, batch)\n",
           "a flush that raises leaves its view at a consistent applied LSN"),
    Mutant("remove-view-pins", "ivm/multiview.py",
           "view.close()\n        dropped",
           "dropped",
           "remove_view lets a log truncate history only that view pinned"),
    Mutant("log-window-shifted", "engine/table.py",
           "lo, hi = lsn_from - self._base, lsn_to - self._base - 1",
           "lo, hi = lsn_from - self._base + 1, lsn_to - self._base",
           "a log window (a, b] holds exactly LSNs a+1..b"),
    Mutant("read-current-state", "ivm/maintenance.py",
           "other: d.applied_lsn",
           "other: d.table.current_lsn",
           "view = query at the applied snapshot (the state bug)"),
    Mutant("evaluation-key-sign", "ivm/maintenance.py",
           "key = (sign, view.delta_keys[alias], tuple(snapshot_lsns.items()))",
           "key = (view.delta_keys[alias], tuple(snapshot_lsns.items()))",
           "view = query: a shared evaluation is the same statement"),
    Mutant("evaluation-key-lsns", "ivm/maintenance.py",
           "key = (sign, view.delta_keys[alias], tuple(snapshot_lsns.items()))",
           "key = (sign, view.delta_keys[alias])",
           "view = query: a shared evaluation is the same statement"),
    # -- Fingerprint suppression ----------------------------------------
    Mutant("fingerprint-all", "ivm/sharedscan.py",
           "if any(old[p] != new[p] for p in positions):",
           "if all(old[p] != new[p] for p in positions):",
           "view = query: only a no-op window is suppressed"),
    Mutant("suppression-off", "ivm/maintainer.py",
           "fingerprinted = bool(shared.fingerprints)",
           "fingerprinted = False",
           "charges: a proven no-op window runs no join"),
    Mutant("signature-drops-filter", "ivm/view.py",
           "for name in stages[0].keeps[0]",
           "for name in stages[0].keeps[-1]",
           "view = query: an update that flips filter membership is "
           "never suppressed"),
    # -- Fold kernels ---------------------------------------------------
    Mutant("sum-delete-adds", "engine/aggregate.py",
           "total -= value",
           "total += value",
           "view = query: SUM folds deletes out"),
    Mutant("extremum-no-recompute", "engine/aggregate.py",
           "if value == best:",
           "if value != best:",
           "view = query: deleting a MIN/MAX recomputes it"),
    Mutant("count-keeps-empty", "engine/aggregate.py",
           "                elif left == 0:\n                    del counts[key]",
           "                elif left == 0:\n                    counts[key] = 0",
           "view = query: a group leaves when its last row does"),
    # -- The ledger and the fleet round ---------------------------------
    Mutant("ledger-no-charges", "ivm/maintainer.py",
           "charges=window.charges,",
           "charges=NO_CHARGES,",
           "ledger: an entry holds its round's charges"),
    Mutant("ledger-predicts-pre", "ivm/maintainer.py",
           "sum(post), model.refresh_cost(action)",
           "sum(post), model.refresh_cost(pre)",
           "ledger: the predicted cost is f(p_t)"),
    Mutant("ledger-join-fields", "ivm/ledger.py",
           'JOIN_FIELDS = ("index_probes", "hash_builds", "hash_probes")',
           'JOIN_FIELDS = ("index_probes", "hash_builds")',
           "ledger: join_ms weighs every join charge"),
    Mutant("memo-ignores-model", "ivm/maintainer.py",
           "case = (self.model, type(policy), pre)",
           "case = (type(policy), pre)",
           "a fleet decides what standalone maintainers decide"),
    # -- Shared contents ------------------------------------------------
    Mutant("fold-shared-in-place", "ivm/view.py",
           "if state is not None and state.holders == 1 and "
           "state.kept != serial:",
           "if state is not None:",
           "view = query: a state another view or the round holds is "
           "folded in place only when the round runs its holders alike"),
    Mutant("adopt-any-state", "ivm/view.py",
           "key = (evaluation, self._fold_key, self._func, state)",
           "key = (evaluation, self._fold_key, self._func)",
           "view = query: a fold is adopted only by a holder of the state it "
           "was made from"),
    Mutant("fold-memo-ignores-func", "ivm/view.py",
           "key = (evaluation, self._fold_key, self._func, state)",
           "key = (evaluation, self._fold_key, state)",
           "view = query: a fold is adopted only by a view of the same "
           "aggregate function"),
    Mutant("lockstep-any-plan", "ivm/multiview.py",
           "                if len(ways) == state.holders\n"
           "                and ways.count(ways[0]) == len(ways)\n",
           "                if len(ways) == state.holders\n",
           "view = query: a state is folded in place only when the round "
           "runs all its holders alike"),
    Mutant("replay-any-state", "ivm/maintainer.py",
           "worked = shared.worked if state in shared.memo.lockstep else None",
           "worked = shared.worked",
           "view = query: a view-round is replayed only on a state the round "
           "runs all its holders alike on"),
    Mutant("raised-fold-forgotten", "ivm/view.py",
           "                error,\n            )\n",
           "                None,\n            )\n",
           "a holder adopting a fold that raised raises too, as it would "
           "alone"),
    Mutant("round-aborts-on-error", "ivm/multiview.py",
           "                except Exception as exc:\n"
           "                    failed.append((name, exc))\n"
           "                    # Its mates",
           "                except PolicyError as exc:\n"
           "                    failed.append((name, exc))\n"
           "                    # Its mates",
           "one view's error is its own: the views after it execute"),
    # -- The governor ---------------------------------------------------
    Mutant("governor-reads-post", "ivm/governor.py",
           "model.refresh_cost(entry.pre_state)",
           "model.refresh_cost(tuple(p - a for p, a in "
           "zip(entry.pre_state, entry.action)))",
           "the governor's verdict is f(s_t) against C, before the action"),
)


#: What runs in the copy: tier-1 with a collector of failing test ids.
RUNNER = """
import json, sys
import pytest
from hypothesis import Phase, settings

settings.register_profile(
    "census", deadline=None, database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.load_profile("census")


class Failures:
    def __init__(self):
        self.ids = []

    def pytest_collectreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)


failures = Failures()
pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=%d",
             "--ignore=tests/tools/test_mutants.py", "tests"],
            plugins=[failures])
with open(sys.argv[1], "w") as out:
    json.dump(failures.ids, out)
""" % SEED


def copy_tree(dest: Path) -> None:
    """The repository's files, as the working tree has them, into ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, listed):
        source = REPO / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, target)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / "src" / "repro" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text not found exactly once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}


def tier1(root: Path) -> list[str]:
    """Failing tier-1 test ids in the copy at ``root``."""
    out = root / "failures.json"
    subprocess.run(
        [sys.executable, "-c", RUNNER, str(out)], cwd=root, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=1800,
    )
    return json.loads(out.read_text())


def tables_move(root: Path) -> bool:
    """Whether regenerating the paper tables fails or changes a byte."""
    results = root / "benchmarks" / "results"
    before = {p.name: p.read_bytes() for p in results.glob("*.txt")}
    ran = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks",
         "--ignore=benchmarks/layered", "-q", "-p", "no:cacheprovider"],
        cwd=root, env=_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=1800,
    )
    return ran.returncode != 0 or any(
        (results / name).read_bytes() != data
        for name, data in before.items()
        if name != TIMED_TABLE
    )


def census(mutant: Mutant | None) -> tuple[list[str], bool]:
    """``(tier-1 killers, tables moved)`` of ``mutant`` (None: the clean
    copy), in a temporary copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        if mutant is not None:
            apply(mutant, root)
        killers = tier1(root)
        moved = mutant is not None and not killers and tables_move(root)
    return killers, moved


def row(mutant: Mutant, killers: list[str], moved: bool) -> str:
    if killers:
        verdict, detail = "killed", ", ".join(killers[:3])
    elif moved:
        verdict, detail = "tables", "only the paper tables move"
    elif mutant.equivalent:
        verdict, detail = "equivalent", mutant.equivalent
    else:
        verdict, detail = "SURVIVED", "no test and no table tells"
    return (f"{mutant.name:<26s} {verdict:<10s} {len(killers):>5d}  "
            f"{mutant.guarantee} | {detail}")


def _rows() -> dict[str, str]:
    if not CENSUS.exists():
        return {}
    return {
        line.split()[0]: line
        for line in CENSUS.read_text().splitlines()
        if line and not line.startswith("#")
    }


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise SystemExit(f"unknown mutants: {' '.join(unknown)}")
    chosen = [by_name[n] for n in names] or list(MUTANTS)

    clean, _ = census(None)
    if clean:
        raise SystemExit(f"the clean copy fails tier-1: {clean}")
    workers = min(2, os.cpu_count() or 1)
    with ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(census, chosen))

    rows = _rows()
    for mutant, (killers, moved) in zip(chosen, results):
        rows[mutant.name] = row(mutant, killers, moved)
        print(f"{mutant.name}: {len(killers)} killers", *killers, sep="\n  ")
    header = [
        f"# Mutation census of tier-1 (tests/, hypothesis seed {SEED}):"
        " python tools/mutants.py",
        "# mutant, verdict, tier-1 killers, guarantee broken | first"
        " killers, or why it survives",
    ]
    body = [rows[m.name] for m in MUTANTS if m.name in rows]
    CENSUS.write_text("\n".join(header + body) + "\n")
    survived = [line.split()[0] for line in body if " SURVIVED " in line]
    if survived:
        print("survived:", *survived)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
