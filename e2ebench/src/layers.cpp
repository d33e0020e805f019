#include "layers.hpp"

#include <fstream>

#include "core/pastix.hpp"
#include "rt/comm.hpp"
#include "simul/runtime_trace.hpp"
#include "sparse/gen.hpp"
#include "verify/verify.hpp"

namespace e2e {

using namespace pastix;

PlanPtr analyze_by_stage(const SparsePattern& pattern, const SolverOptions& opt,
                         SpanLog& spans, std::uint64_t op, StageSeconds& t) {
  // Mirrors core/analysis.cpp step for step; probe_layers cross-checks the
  // result against pastix::analyze so this copy cannot drift unnoticed.
  pattern.validate();
  auto plan = std::make_shared<AnalysisPlan>();
  AnalysisPlan& p = *plan;
  p.options = opt;
  p.options.mapping.nprocs = opt.nprocs;
  p.fingerprint = fingerprint_pattern(pattern);

  t.order = spans.time("order", "compute_ordering", op, [&] {
    p.order = compute_ordering(pattern, opt.ordering);
  });
  t.symbolic = spans.time("symbolic", "symbolic_factorization+split", op, [&] {
    p.symbol = split_symbol(
        block_symbolic_factorization(p.order.permuted, p.order.rangtab),
        opt.split);
  });
  t.mapping = spans.time("map", "proportional_mapping", op, [&] {
    p.cand = proportional_mapping(p.symbol, opt.model, p.options.mapping);
  });
  t.taskgraph = spans.time("map", "build_task_graph", op, [&] {
    p.tg = build_task_graph(p.symbol, p.cand, opt.model);
  });
  t.schedule = spans.time("map", "static_schedule", op, [&] {
    p.sched = static_schedule(p.tg, p.cand, opt.model, opt.nprocs,
                              opt.scheduler);
    if (opt.fanin.hybrid.enabled)
      compute_split(p.tg, p.sched, opt.fanin.hybrid.tail_fraction);
  });
  t.simul = spans.time("simul", "simulate_schedule(factor)", op, [&] {
    p.sim = simulate_schedule(p.tg, p.sched, opt.model);
  });
  t.plan = spans.time("solver", "build_comm_plan+build_solve_plan", op, [&] {
    p.comm = build_comm_plan(p.symbol, p.tg, p.sched, opt.fanin.partial_chunk);
    p.solve = build_solve_plan(p.symbol, p.tg, p.sched, opt.model);
  });
  t.simul += spans.time("simul", "simulate_schedule(solve)", op, [&] {
    p.solve.sim = simulate_schedule(p.solve.tg, p.solve.sched, opt.model);
  });

  p.stats.nnz_l = p.order.scalar.nnz_l;
  p.stats.opc = p.order.scalar.opc;
  p.stats.nnz_blocks = p.symbol.nnz_blocks();
  p.stats.ncblk = p.symbol.ncblk;
  p.stats.nblok = p.symbol.nblok();
  p.stats.ntask = p.tg.ntask();
  for (const auto& c : p.cand.cblk)
    if (c.dist == DistType::k2D) p.stats.n_2d_cblks++;
  p.stats.total_flops = p.tg.total_flops();
  p.stats.predicted_time = p.sim.makespan;

  t.verify = spans.time("verify", "require_valid", op,
                        [&] { verify::require_valid(p, "staged analysis"); });
  return plan;
}

namespace {

double median_of(const std::vector<double>& v) {
  Samples s;
  for (const double x : v) s.add(x);
  return s.median();
}

/// What one traced factorize + solve shows through Solver::runtime_trace.
struct NumericBreakdown {
  double kernel_s = 0, recv_wait_s = 0, idle_frac = 0;
  double type_s[4] = {0, 0, 0, 0};  ///< indexed by TaskType
  double solve_recv_wait_s = 0;
  std::uint64_t messages = 0, bytes = 0;
};

bool same_counts(const AnalysisStats& x, const AnalysisStats& y) {
  return x.nnz_l == y.nnz_l && x.opc == y.opc && x.ncblk == y.ncblk &&
         x.nblok == y.nblok && x.ntask == y.ntask &&
         x.n_2d_cblks == y.n_2d_cblks && x.predicted_time == y.predicted_time;
}

}  // namespace

void probe_layers(const Matrix& a, const SolverOptions& opt, int reps,
                  std::uint64_t seed, SpanLog& spans, Report& rep,
                  const std::string& numeric_trace_path) {
  auto& L = rep.layer;
  const auto ms = [](double s) { return s * 1e3; };
  std::uint64_t op = 1u << 30;  // probe spans sort after the workload's ops

  // --- analysis, stage by stage, and the cross-check --------------------
  std::vector<StageSeconds> st(static_cast<std::size_t>(reps));
  std::vector<double> wall;
  PlanPtr staged, ref;
  for (int r = 0; r < reps; ++r) {
    PlanPtr p = analyze_by_stage(a.pattern, opt, spans, ++op,
                                 st[static_cast<std::size_t>(r)]);
    rep.check(!staged || same_counts(p->stats, staged->stats),
              "staged analysis counts differ between repetitions");
    staged = p;
    const double t0 = spans.now();
    PlanPtr q = analyze(a.pattern, opt);
    wall.push_back(spans.now() - t0);
    spans.record("core", "pastix::analyze", t0, wall.back(), op);
    rep.check(same_counts(q->stats, p->stats),
              "staged analysis disagrees with pastix::analyze (nnz_l, opc, "
              "ncblk, nblok, ntask, n_2d_cblks or predicted_time)");
    rep.check(!ref || same_counts(q->stats, ref->stats),
              "pastix::analyze counts differ between repetitions");
    ref = q;
  }
  const auto stage = [&](double StageSeconds::*f) {
    std::vector<double> v;
    for (const auto& s : st) v.push_back(s.*f);
    return median_of(v);
  };
  StageSeconds med;
  for (double StageSeconds::*f :
       {&StageSeconds::order, &StageSeconds::symbolic, &StageSeconds::mapping,
        &StageSeconds::taskgraph, &StageSeconds::schedule, &StageSeconds::simul,
        &StageSeconds::plan, &StageSeconds::verify})
    med.*f = stage(f);
  const double analyze_s = median_of(wall);
  const double cover = med.analysis(opt.verify_plan) / analyze_s;
  rep.check(std::abs(cover - 1.0) <= kStageCoverBound,
            "analysis stage spans cover " + std::to_string(cover) +
                " of pastix::analyze wall time (bound 1 +- " +
                std::to_string(kStageCoverBound) + ")");

  const AnalysisStats& as = ref->stats;
  L["order.ms"] = {ms(med.order), "ms"};
  L["order.nnz_l"] = {static_cast<double>(as.nnz_l), "count"};
  L["order.opc"] = {static_cast<double>(as.opc), "count"};
  L["symbolic.ms"] = {ms(med.symbolic), "ms"};
  L["symbolic.ncblk"] = {static_cast<double>(as.ncblk), "count"};
  L["symbolic.nblok"] = {static_cast<double>(as.nblok), "count"};
  L["map.mapping_ms"] = {ms(med.mapping), "ms"};
  L["map.taskgraph_ms"] = {ms(med.taskgraph), "ms"};
  L["map.schedule_ms"] = {ms(med.schedule), "ms"};
  L["map.ntask"] = {static_cast<double>(as.ntask), "count"};
  L["map.n2d_cblks"] = {static_cast<double>(as.n_2d_cblks), "count"};
  L["simul.ms"] = {ms(med.simul), "ms"};
  L["solver.plan_ms"] = {ms(med.plan), "ms"};
  L["verify.ms"] = {ms(med.verify), "ms"};
  L["verify.frac_of_analysis"] = {med.verify / med.analysis(false), "frac"};
  L["analysis.ms"] = {ms(analyze_s), "ms"};
  L["analysis.stage_cover"] = {cover, "frac"};

  // --- numeric layers on the adopted plan -------------------------------
  // Adoption is timed without the strict-mode re-verification: the verifier
  // is its own layer (verify.ms above).
  SolverOptions no_verify = opt;
  no_verify.verify_plan = false;
  Rng rng(seed ^ 0x9e0be);
  std::vector<double> x_ref;
  std::vector<double> attach, refill, factor, ratio, scrub, panel;
  std::vector<NumericBreakdown> nb;
  for (int r = 0; r < reps; ++r) {
    const Matrix ar = fresh_values(a, rng);
    const std::vector<double> b = reference_rhs(ar, &x_ref);
    Solver<double> sv(no_verify);
    attach.push_back(spans.time("core", "Solver::analyze(A,plan)", ++op,
                                [&] { sv.analyze(a, ref); }));
    double fs = 0;
    const double rw = spans.time("core", "Solver::refactorize", op,
                                 [&] { fs = sv.refactorize(ar); });
    refill.push_back(rw - fs);
    factor.push_back(fs);
    ratio.push_back(fs / as.predicted_time);

    NumericBreakdown n;
    sv.enable_tracing(true);
    spans.time("core", "Solver::refactorize(traced)", op,
               [&] { sv.refactorize(ar); });
    const RuntimeTrace ft = sv.runtime_trace();
    for (const auto& e : ft.tasks) {
      n.kernel_s += e.kernel_seconds;
      n.recv_wait_s += e.recv_wait_seconds;
      n.type_s[static_cast<int>(e.type)] += e.end - e.start;
    }
    for (const auto& c : ft.comm)
      if (c.is_send) {
        n.messages++;
        n.bytes += c.bytes;
      }
    const TraceComparison& cmp = sv.stats().trace;
    double idle = 0;
    for (const auto& row : cmp.per_rank) idle += row.idle;
    n.idle_frac = cmp.actual_makespan > 0
                      ? idle / (cmp.actual_makespan *
                                static_cast<double>(cmp.per_rank.size()))
                      : 0;
    std::vector<double> x;
    spans.time("solver", "solve(traced)", op, [&] { x = sv.solve(b); });
    rep.check(forward_error(x, x_ref) <= kAnswerTolerance,
              "layer probe: traced solve answer out of tolerance");
    const RuntimeTrace full = sv.runtime_trace();
    for (const auto& e : full.solve_items)
      n.solve_recv_wait_s += e.recv_wait_seconds;
    if (r + 1 == reps && !numeric_trace_path.empty()) {
      std::ofstream os(numeric_trace_path);
      write_chrome_trace(os, full);
    }
    sv.enable_tracing(false);
    const auto bs = panel_of(b);
    std::vector<std::vector<double>> xs;
    const double pt = spans.time("solver", "Solver::solve_many", op,
                                 [&] { xs = sv.solve_many(bs); });
    panel.push_back(static_cast<double>(kPanelRhs) / pt);
    rep.check(panel_ok(xs, x_ref),
              "layer probe: panel solve answer out of tolerance");
    scrub.push_back(spans.time("solver", "Solver::scrub", op,
                               [&] { (void)sv.scrub(); }));
    rep.check(nb.empty() || (nb.front().messages == n.messages &&
                             nb.front().bytes == n.bytes),
              "rt message/byte counts differ between repeated factorizations");
    nb.push_back(n);
  }
  const auto nbm = [&](double NumericBreakdown::*f) {
    std::vector<double> v;
    for (const auto& n : nb) v.push_back(n.*f);
    return median_of(v);
  };
  const auto type_s = [&](TaskType t) {
    std::vector<double> v;
    for (const auto& n : nb) v.push_back(n.type_s[static_cast<int>(t)]);
    return median_of(v);
  };
  const double kernel_s = nbm(&NumericBreakdown::kernel_s);
  L["core.attach_ms"] = {ms(median_of(attach)), "ms"};
  L["core.refill_ms"] = {ms(median_of(refill)), "ms"};
  L["model.factor_ratio"] = {median_of(ratio), "x"};
  L["solver.kernel_s"] = {kernel_s, "s"};
  L["solver.recv_wait_s"] = {nbm(&NumericBreakdown::recv_wait_s), "s"};
  L["solver.idle_frac"] = {nbm(&NumericBreakdown::idle_frac), "frac"};
  L["solver.comp1d_s"] = {type_s(TaskType::kComp1d), "s"};
  L["solver.factor_s"] = {type_s(TaskType::kFactor), "s"};
  L["solver.bdiv_s"] = {type_s(TaskType::kBdiv), "s"};
  L["solver.bmod_s"] = {type_s(TaskType::kBmod), "s"};
  L["solver.solve_recv_wait_s"] = {nbm(&NumericBreakdown::solve_recv_wait_s),
                                   "s"};
  L["solver.panel_rhs_per_s"] = {median_of(panel), "1/s"};
  L["solver.scrub_ms"] = {ms(median_of(scrub)), "ms"};
  L["dkernel.gflops"] = {as.total_flops / kernel_s / 1e9, "GFLOP/s"};
  L["rt.messages"] = {static_cast<double>(nb.front().messages), "count"};
  L["rt.bytes"] = {static_cast<double>(nb.front().bytes), "bytes"};

  // --- speed-up of the same pattern: 4 ranks against 1 -----------------
  const auto factor_median = [&](idx_t nprocs) {
    SolverOptions o = opt;
    o.nprocs = nprocs;
    o.verify_plan = false;
    Solver<double> s(o);
    s.analyze(a, analyze(a.pattern, o));
    std::vector<double> f;
    for (int r = 0; r < reps; ++r)
      spans.time("core", "Solver::refactorize(baseline)", ++op,
                 [&] { f.push_back(s.refactorize(a)); });
    return median_of(f);
  };
  const double f4 = opt.nprocs == 4 ? median_of(factor) : factor_median(4);
  L["solver.speedup_4v1"] = {factor_median(1) / f4, "x"};

  // --- rank spawn: an empty run_ranks at the workload's rank count ------
  std::vector<double> spawn;
  for (int r = 0; r < 200; ++r) {
    const auto t0 = Clock::now();
    rt::run_ranks(static_cast<int>(opt.nprocs), [](int) {});
    spawn.push_back(seconds_since(t0));
  }
  L["rt.spawn_us"] = {median_of(spawn) * 1e6, "us"};
}

}  // namespace e2e
