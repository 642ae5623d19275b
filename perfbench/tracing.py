"""In-memory span tracing for the benchmark's traced run.

Wrappers are installed from here, at the names callers look up, so the
program itself is unchanged:

* ``colnmpc.kernels.<fn>`` for the five hot kernels;
* ``colnmpc.ocp.integrate`` and ``colnmpc.ocp.integrate_with_sensitivities``
  (the prediction integrations; the plant is spanned in the loop);
* ``colnmpc.column.{steady_state_solve,hybrid_steady_state,
  section_steady_solve}`` (the benchmark calls them through the module);
* ``colnmpc.learner.{replay_sample,lm_train,grow_and_train,init_new_node}``;
* methods of ``SurrogateModel``, ``HybridPrediction``, ``FullPrediction``
  and ``DataStore``.

Each span records (name, start, end, parent, period).  A layer's self
time is its spans' durations minus the time covered by their child
spans.  Spans are kept in flat arrays and written once, at exit.
"""

import math
import time
from array import array

import numpy as np

_clock = time.perf_counter

KERNELS = ("full_rhs", "full_state_jac", "full_input_jac", "hybrid_rhs_jac",
           "section_chain_solve")
INTEGRATOR_STATS = ("steps", "accepted", "rejected", "newton_failures",
                    "nfev", "njev", "nlu")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for the tracer in untraced runs: every hook is a no-op."""

    period = None

    def span(self, name):
        return _NullSpan()

    def count(self, name, n=1):
        pass

    def failure(self, kind):
        pass

    def reconstruction(self, rec, x_F):
        pass

    def train_reports(self, reports):
        pass


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "stats", "solution")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.stats = None
        self.solution = None

    def __enter__(self):
        self.tracer._enter(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._exit()
        if self.name == "integrate.plant":
            self.tracer._integration("integrate.plant",
                                     self.stats or getattr(exc, "stats", {}))
        elif self.name == "ocp.solve":
            self.tracer._solve(self.solution, exc)
        return False


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.period = None
        self._names = {}
        self._stack = []            # [name_id, span_id, start, child_time]
        self._next_id = 0
        self.rec_name = array("i")
        self.rec_parent = array("i")
        self.rec_period = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.maxima = {}
        self.sums = {}
        self.failures = []          # (period, exception type)
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def _enter(self, name):
        nid = self._names.setdefault(name, len(self._names))
        self._stack.append([nid, self._next_id, _clock(), 0.0])
        self._next_id += 1

    def _exit(self):
        end = _clock()
        nid, sid, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][1]
        else:
            parent = -1
        self.rec_name.append(nid)
        self.rec_parent.append(parent)
        self.rec_period.append(-1 if self.period is None else self.period)
        self.rec_start.append(start)
        self.rec_end.append(end)
        self.calls[nid] = self.calls.get(nid, 0) + 1
        self.self_s[nid] = self.self_s.get(nid, 0.0) + dur - child

    def wrap(self, fn, name, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit()
                if on_error is not None:
                    on_error(exc)
                raise
            self._exit()
            if on_result is not None:
                on_result(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **hooks):
        """Replace owner.attr by a traced wrapper until uninstall()."""
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self.wrap(orig, name, **hooks))
        self._undo.append((owner, attr, orig))

    def install(self):
        import colnmpc.column as column
        import colnmpc.kernels as kern
        import colnmpc.learner as learner
        import colnmpc.ocp as ocp
        from colnmpc.surrogate import SurrogateModel

        for fn in KERNELS:
            self.patch(kern, fn, f"kernels.{fn}")
        pred = dict(on_result=lambda tr: self._integration(
                        "integrate.pred", tr.stats),
                    on_error=self._prediction_error)
        self.patch(ocp, "integrate", "integrate.pred", **pred)
        self.patch(ocp, "integrate_with_sensitivities", "integrate.pred",
                   **pred)
        self.patch(column, "steady_state_solve", "column.steady_state")
        self.patch(column, "hybrid_steady_state", "column.hybrid_steady_state")
        self.patch(column, "section_steady_solve",
                   "column.section_steady_solve")
        self.patch(learner, "replay_sample", "learner.replay")
        self.patch(learner, "lm_train", "learner.lm_train")
        self.patch(learner, "grow_and_train", "learner.grow_and_train")
        self.patch(learner, "init_new_node", "learner.init_new_node")
        self.patch(learner.DataStore, "append", "learner.store_append")
        for meth in ("eval_scaled", "weight_jacobian_scaled"):
            self.patch(SurrogateModel, meth, f"surrogate.{meth}")
        for cls in (ocp.HybridPrediction, ocp.FullPrediction):
            self.patch(cls, "rhs", "ocp.model.rhs")
            self.patch(cls, "rhs_jac", "ocp.model.rhs_jac")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- counters ------------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, -math.inf), value)

    def _sum(self, name, value):
        self.sums[name] = self.sums.get(name, 0.0) + value

    def failure(self, kind):
        self.failures.append((self.period, kind))

    def _integration(self, prefix, stats):
        for key in INTEGRATOR_STATS:
            self.count(f"{prefix}.{key}", int(stats.get(key, 0)))

    def _prediction_error(self, exc):
        self.count("integrate.pred.errors")
        self._integration("integrate.pred", getattr(exc, "stats", {}))

    def _solve(self, sol, exc):
        self.count("ocp.solves")
        if sol is None:
            self.count("ocp.raised")
            return
        self.count("ocp.iterations", sol.iterations)
        self.count("ocp.evaluations", sol.n_evaluations)
        self.count(f"ocp.{sol.status}")
        self.count("ocp.n_clamped", sol.n_clamped)
        self._sum("ocp.wall_s", sol.wall_time)

    def reconstruction(self, rec, x_F):
        kept = sum(q is not None for q in rec.points)
        self.count("pipeline.points_kept", kept)
        self.count("pipeline.points_discarded", rec.n_discarded)
        self._sum("pipeline.weight_sum", rec.weight)
        self.count("pipeline.reconstructions")
        self._max("pipeline.reboiler_residual_max",
                  abs(float(rec.reboiler_residual)))
        self._max("pipeline.feed_err_max", abs(float(rec.x_f_hat - x_F)))

    def train_reports(self, reports):
        trained = [r for r in reports if r is not None]
        ok = [r for r in trained if not r.error]
        self.count("learner.sections_trained", len(ok))
        self.count("learner.goal_met", sum(r.goal_met for r in ok))
        self.count("learner.section_errors", len(trained) - len(ok))
        self.count("learner.lm_iterations", sum(r.iterations for r in ok))
        self.count("learner.nodes_added", sum(r.nodes_added for r in ok))

    # -- results -------------------------------------------------------------

    def _by_name(self, table, name, default=0):
        nid = self._names.get(name)
        return default if nid is None else table.get(nid, default)

    def metrics(self, extra):
        """Per-layer metrics as {name: (value, unit)}.  `extra` supplies
        figures only the loop knows (store sizes, hidden_max, ...)."""
        out = {}
        calls = lambda n: self._by_name(self.calls, n)
        self_s = lambda n: self._by_name(self.self_s, n, 0.0)
        c = lambda n: self.counters.get(n, 0)

        for fn in KERNELS:
            name = f"kernels.{fn}"
            n = calls(name)
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
            out[f"{name}.us_per_call"] = (
                1e6 * self_s(name) / n if n else 0.0, "us")
        for kind in ("pred", "plant"):
            name = f"integrate.{kind}"
            out[f"{name}.calls"] = (calls(name), "count")
            for key in INTEGRATOR_STATS:
                out[f"{name}.{key}"] = (c(f"{name}.{key}"), "count")
            steps = c(f"{name}.steps")
            out[f"{name}.self_s"] = (self_s(name), "s")
            out[f"{name}.us_per_step"] = (
                1e6 * self_s(name) / steps if steps else 0.0, "us")
            out[f"{name}.accept_ratio"] = (
                c(f"{name}.accepted") / steps if steps else 0.0, "ratio")
        out["integrate.pred.errors"] = (c("integrate.pred.errors"), "count")
        evals = c("ocp.evaluations")
        for key in ("solves", "iterations", "evaluations", "converged",
                    "budget", "fail", "raised", "n_clamped"):
            out[f"ocp.{key}"] = (c(f"ocp.{key}"), "count")
        out["ocp.self_s"] = (self_s("ocp.solve"), "s")
        out["ocp.s_per_eval"] = (
            self.sums.get("ocp.wall_s", 0.0) / evals if evals else 0.0, "s")
        out["ocp.model.rhs.calls"] = (calls("ocp.model.rhs"), "count")
        out["ocp.model.rhs_jac.calls"] = (calls("ocp.model.rhs_jac"), "count")
        out["ocp.model.self_s"] = (
            self_s("ocp.model.rhs") + self_s("ocp.model.rhs_jac"), "s")
        for fn in ("steady_state", "hybrid_steady_state",
                   "section_steady_solve"):
            out[f"column.{fn}.calls"] = (calls(f"column.{fn}"), "count")
            out[f"column.{fn}.self_s"] = (self_s(f"column.{fn}"), "s")
        out["column.hybrid_model.builds"] = (
            c("column.hybrid_model.builds"), "count")
        n_rec = c("pipeline.reconstructions")
        out["pipeline.reconstruct.calls"] = (
            calls("pipeline.reconstruct"), "count")
        out["pipeline.reconstruct.self_s"] = (
            self_s("pipeline.reconstruct"), "s")
        out["pipeline.points_kept"] = (c("pipeline.points_kept"), "count")
        out["pipeline.points_discarded"] = (
            c("pipeline.points_discarded"), "count")
        out["pipeline.weight_mean"] = (
            self.sums.get("pipeline.weight_sum", 0.0) / n_rec
            if n_rec else 0.0, "1")
        for key, unit in (("reboiler_residual_max", "mol/s"),
                          ("feed_err_max", "1")):
            out[f"pipeline.{key}"] = (
                self.maxima.get(f"pipeline.{key}", 0.0), unit)
        trained = c("learner.sections_trained")
        out["learner.adapt.calls"] = (calls("learner.adapt"), "count")
        out["learner.adapt.self_s"] = (self_s("learner.adapt"), "s")
        out["learner.sections_trained"] = (trained, "count")
        out["learner.goal_met_ratio"] = (
            c("learner.goal_met") / trained if trained else 0.0, "ratio")
        for key in ("section_errors", "lm_iterations", "nodes_added"):
            out[f"learner.{key}"] = (c(f"learner.{key}"), "count")
        for key in ("lm_train", "replay"):
            out[f"learner.{key}.calls"] = (calls(f"learner.{key}"), "count")
            out[f"learner.{key}.self_s"] = (self_s(f"learner.{key}"), "s")
        out["learner.init_new_node.self_s"] = (
            self_s("learner.init_new_node"), "s")
        out["learner.store_points"] = (extra.get("store_points", 0), "count")
        out["learner.store_append.self_s"] = (
            self_s("learner.store_append"), "s")
        for meth in ("eval_scaled", "weight_jacobian_scaled"):
            out[f"surrogate.{meth}.calls"] = (
                calls(f"surrogate.{meth}"), "count")
            out[f"surrogate.{meth}.self_s"] = (
                self_s(f"surrogate.{meth}"), "s")
        out["surrogate.hidden_max"] = (extra.get("hidden_max", 0), "count")
        out["trace.spans"] = (len(self.rec_name), "count")
        return out

    def failure_types(self):
        kinds = {}
        for _, kind in self.failures:
            kinds[kind] = kinds.get(kind, 0) + 1
        return dict(sorted(kinds.items()))

    def write(self, path):
        """Write the spans as arrays plus the name table and the failed
        periods with their exception types (npz)."""
        names = sorted(self._names, key=self._names.get)
        np.savez(path, names=np.array(names),
                 failures=np.array([f"{p}:{k}" for p, k in self.failures],
                                   dtype=str),
                 name=np.frombuffer(self.rec_name, dtype=np.int32),
                 parent=np.frombuffer(self.rec_parent, dtype=np.int32),
                 period=np.frombuffer(self.rec_period, dtype=np.int32),
                 start=np.frombuffer(self.rec_start, dtype=np.float64),
                 end=np.frombuffer(self.rec_end, dtype=np.float64))
