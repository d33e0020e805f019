#pragma once
//
// The three workloads.  Each fills the end-to-end metrics (untraced
// operations), and in a traced run also the per-layer metrics and
// trace.overhead_frac (traced operations interleaved with untraced ones).
//
#include <cstdint>
#include <string>

#include "bench.hpp"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< result, span and timeline files
  std::string prefix;   ///< file stem: <out_dir>/<workload>-seed<seed>
};

void run_solid_steady(const RunConfig& cfg, SpanLog& spans, Report& rep);
void run_shell_cold(const RunConfig& cfg, SpanLog& spans, Report& rep);
void run_service_mix(const RunConfig& cfg, SpanLog& spans, Report& rep);

}  // namespace e2e
