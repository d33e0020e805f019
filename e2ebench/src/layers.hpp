#pragma once
//
// Per-layer measurement of the traced run: the analysis pipeline called
// stage by stage (and cross-checked against pastix::analyze), and a numeric
// probe that reads factorize/solve through the solver's public runtime
// trace.  Both work on one reference pattern per workload.
//
#include <string>

#include "bench.hpp"
#include "core/analysis.hpp"

namespace e2e {

/// Seconds spent in each analysis stage of one staged run.
struct StageSeconds {
  double order = 0;      ///< compute_ordering
  double symbolic = 0;   ///< block_symbolic_factorization + split_symbol
  double mapping = 0;    ///< proportional_mapping
  double taskgraph = 0;  ///< build_task_graph
  double schedule = 0;   ///< static_schedule (+ compute_split when hybrid)
  double simul = 0;      ///< factor + solve simulate_schedule
  double plan = 0;       ///< build_comm_plan + build_solve_plan
  double verify = 0;     ///< verify::require_valid

  /// The stages pastix::analyze runs for these options.
  [[nodiscard]] double analysis(bool with_verify) const {
    return order + symbolic + mapping + taskgraph + schedule + simul + plan +
           (with_verify ? verify : 0);
  }
};

/// pastix::analyze, one public stage function at a time, each timed and
/// recorded as a span named after its module.  Always runs the verifier
/// (so verify.ms is measured even where the production options skip it).
pastix::PlanPtr analyze_by_stage(const pastix::SparsePattern& pattern,
                                 const pastix::SolverOptions& opt,
                                 SpanLog& spans, std::uint64_t op,
                                 StageSeconds& t);

/// Bound on how far the staged analysis may be from pastix::analyze's wall
/// time: |sum of stage medians / analyze median - 1| <= this.
inline constexpr double kStageCoverBound = 0.2;

/// Fill every per-layer metric of the analysis, core, solver, dkernel, model
/// and rt layers from `reps` repetitions on `a` with `opt`: staged analysis
/// and its cross-check, adoption, refactorization, a traced factorize and
/// solve, a scrub, the 1-rank baseline and empty rank spawns.  Traced
/// numeric timelines are written as Chrome JSON to `numeric_trace_path`.
void probe_layers(const Matrix& a, const pastix::SolverOptions& opt, int reps,
                  std::uint64_t seed, SpanLog& spans, Report& rep,
                  const std::string& numeric_trace_path);

}  // namespace e2e
