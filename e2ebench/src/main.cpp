// End-to-end benchmark of the solver through its public API.
//
//   pastix_e2e --workload <solid-steady|shell-cold|service-mix> --seed <n>
//              --seconds <s> --trace <0|1> --out <dir> [--commit <id>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 interleaves traced
// and untraced operations and reports the per-layer metrics.  The last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}; a result file stamped with host and build goes to --out, and a
// traced run also writes its spans and one numeric timeline there as
// Chrome-trace JSON.  Exit status 0 iff every check passed.
//
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "workloads.hpp"

#ifndef E2E_CXX_FLAGS
#define E2E_CXX_FLAGS "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.  Every run reports every metric of its list.
// The solve tail is printed in the readable lines only: a 4-rank solve of
// 5-30 ms is short enough that its p90 follows the host's scheduling of
// the rank threads more than the solver (see README.md, Bounds).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},    {"peak_rss_mb", "MB"},  {"op_ms.p50", "ms"},
    {"op_ms.p90", "ms"}, {"ops_per_s", "1/s"},   {"solve_ms.p50", "ms"},
};

// The service-only layers (service, cache, plan_io) report 0 on the
// workloads that do not run them.
constexpr MetricDef kPerLayer[] = {
    {"order.ms", "ms"},
    {"order.nnz_l", "count"},
    {"order.opc", "count"},
    {"symbolic.ms", "ms"},
    {"symbolic.ncblk", "count"},
    {"symbolic.nblok", "count"},
    {"map.mapping_ms", "ms"},
    {"map.taskgraph_ms", "ms"},
    {"map.schedule_ms", "ms"},
    {"map.ntask", "count"},
    {"map.n2d_cblks", "count"},
    {"simul.ms", "ms"},
    {"model.factor_ratio", "x"},
    {"solver.plan_ms", "ms"},
    {"verify.ms", "ms"},
    {"verify.frac_of_analysis", "frac"},
    {"analysis.ms", "ms"},
    {"analysis.stage_cover", "frac"},
    {"core.attach_ms", "ms"},
    {"core.refill_ms", "ms"},
    {"plan_io.load_ms", "ms"},
    {"plan_io.save_ms", "ms"},
    {"plan_io.bytes", "bytes"},
    {"cache.mem_hit_frac", "frac"},
    {"cache.disk_hit_frac", "frac"},
    {"solver.kernel_s", "s"},
    {"solver.recv_wait_s", "s"},
    {"solver.idle_frac", "frac"},
    {"solver.comp1d_s", "s"},
    {"solver.factor_s", "s"},
    {"solver.bdiv_s", "s"},
    {"solver.bmod_s", "s"},
    {"solver.solve_recv_wait_s", "s"},
    {"solver.scrub_ms", "ms"},
    {"solver.panel_rhs_per_s", "1/s"},
    {"solver.speedup_4v1", "x"},
    {"dkernel.gflops", "GFLOP/s"},
    {"rt.messages", "count"},
    {"rt.bytes", "bytes"},
    {"rt.spawn_us", "us"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.exec_ms.p50", "ms"},
    {"service.retries", "count"},
    {"service.rejected", "count"},
    {"service.mem_peak_mb", "MB"},
    {"trace.overhead_frac", "frac"},
};

/// Counts that must repeat exactly on every run of one build and seed.
constexpr const char* kExactCounts[] = {
    "order.nnz_l", "order.opc",  "symbolic.ncblk", "symbolic.nblok",
    "map.ntask",   "map.n2d_cblks", "rt.messages", "rt.bytes",
};

/// Compare the exact counts against the previous traced run of the same
/// source, workload and seed (kept in `path`), then record them there.
void check_exact_counts(const std::string& path, const std::string& commit,
                        const std::map<std::string, Metric>& layer,
                        Report& rep) {
  std::ostringstream now;
  now << "commit " << commit << "\n";
  for (const char* k : kExactCounts) {
    const auto it = layer.find(k);
    now << k << " " << std::fixed
        << (it == layer.end() ? -1.0 : it->second.value) << "\n";
  }
  std::ifstream in(path);
  std::stringstream before;
  before << in.rdbuf();
  if (in && before.str().rfind("commit " + commit + "\n", 0) == 0)
    rep.check(before.str() == now.str(),
              "exact counts differ from the previous traced run of this "
              "build and seed (" + path + ")");
  std::ofstream(path) << now.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pastix_e2e: " << why
            << "\nusage: pastix_e2e --workload <solid-steady|shell-cold|"
               "service-mix> --seed <n> --seconds <s> --trace <0|1> "
               "--out <dir> [--commit <id>]\n";
  std::exit(2);
}

std::string read_first(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

/// Size of the highest-level cache of cpu0, as sysfs prints it ("32768K").
std::string last_level_cache() {
  std::string best = "unknown";
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string d =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first(d + "level");
    if (level.empty()) continue;
    if (std::stoi(level) >= best_level) {
      best_level = std::stoi(level);
      best = "L" + level + " " + read_first(d + "size");
    }
  }
  return best;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

/// Every digit of a measured value; non-finite values (a failed operation
/// inside a percentile) print as a huge finite number so the JSON stays
/// parseable.
std::string json_num(double v) {
  if (!std::isfinite(v)) v = 1e300;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string o = "{";
  for (auto it = m.begin(); it != m.end(); ++it) {
    if (it != m.begin()) o += ", ";
    o += json_str(it->first) + ": {\"value\": " + json_num(it->second.value) +
         ", \"unit\": " + json_str(it->second.unit) + "}";
  }
  return o + "}";
}

bool service_only(const std::string& name) {
  for (const char* p : {"service.", "cache.", "plan_io."})
    if (name.rfind(p, 0) == 0) return true;
  return false;
}

/// Keep exactly the metrics of `defs`, with their declared units; a metric
/// a workload set with another unit, or forgot, is a benchmark bug.
template <std::size_t N>
std::map<std::string, Metric> select(const MetricDef (&defs)[N],
                                     const std::map<std::string, Metric>& got,
                                     bool service_mix, Report& rep) {
  std::map<std::string, Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = got.find(d.name);
    if (it == got.end()) {
      rep.check(!service_mix && service_only(d.name),
                std::string("metric not measured: ") + d.name);
      out[d.name] = {0, d.unit};
      continue;
    }
    rep.check(it->second.unit == d.unit,
              std::string("metric ") + d.name + " measured in " +
                  it->second.unit + ", declared " + d.unit);
    out[d.name] = {it->second.value, d.unit};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") cfg.workload = v;
      else if (k == "--seed") cfg.seed = std::stoull(v);
      else if (k == "--seconds") cfg.seconds = std::stod(v);
      else if (k == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (k == "--out") cfg.out_dir = v;
      else if (k == "--commit") commit = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (cfg.out_dir.empty()) usage("--out is required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  std::filesystem::create_directories(cfg.out_dir);
  cfg.prefix = cfg.out_dir + "/" + cfg.workload + "-seed" +
               std::to_string(cfg.seed);

  SpanLog spans(cfg.trace);
  Report rep;
  const auto t0 = Clock::now();
  try {
    if (cfg.workload == "solid-steady") run_solid_steady(cfg, spans, rep);
    else if (cfg.workload == "shell-cold") run_shell_cold(cfg, spans, rep);
    else if (cfg.workload == "service-mix") run_service_mix(cfg, spans, rep);
    else usage("unknown workload " + cfg.workload);
  } catch (const std::exception& e) {
    rep.check(false, std::string("workload aborted: ") + e.what());
  }
  rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const double wall = seconds_since(t0);

  const bool service_mix = cfg.workload == "service-mix";
  if (cfg.trace)
    check_exact_counts(cfg.prefix + ".counts", commit, rep.layer, rep);
  const auto metrics =
      cfg.trace ? select(kPerLayer, rep.layer, service_mix, rep)
                : select(kEndToEnd, rep.e2e, service_mix, rep);
  rep.check(rep.attempted > 0, "no operation was attempted");
  rep.check(rep.failed == 0,
            std::to_string(rep.failed) + " of " +
                std::to_string(rep.attempted) + " operations failed");
  const bool correct = rep.check_failures.empty();

  // Host and build stamp, shared by the console and the result file.
  const std::vector<std::pair<std::string, std::string>> stamp = {
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"trace", cfg.trace ? "1" : "0"},
      {"seconds", json_num(cfg.seconds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu_model()},
      {"llc", last_level_cache()},
      {"compiler", __VERSION__},
      {"flags", E2E_CXX_FLAGS},
      {"build_type", E2E_BUILD_TYPE},
      {"commit", commit},
  };

  for (const auto& [k, v] : stamp) std::cout << "# " << k << ": " << v << "\n";
  std::cout << "# run wall: " << json_num(wall) << " s, attempted "
            << rep.attempted << ", failed " << rep.failed << " (failed_frac "
            << (rep.attempted ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0)
            << ")\n";
  for (const auto& [k, v] : rep.notes)
    std::cout << "# " << k << ": " << v << "\n";
  for (const auto& f : rep.check_failures)
    std::cout << "# CHECK FAILED: " << f << "\n";
  for (const auto& [k, m] : metrics)
    std::cout << k << " = " << json_num(m.value) << " " << m.unit << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": " << metrics_json(metrics) << "}";

  std::string stamp_json = "{";
  for (std::size_t i = 0; i < stamp.size(); ++i)
    stamp_json += (i ? ", " : "") + json_str(stamp[i].first) + ": " +
                  json_str(stamp[i].second);
  stamp_json += "}";
  {
    std::ofstream res(cfg.prefix + "-trace" + (cfg.trace ? "1" : "0") +
                      ".result.json");
    res << "{\"stamp\": " << stamp_json << ",\n \"notes\": [";
    for (std::size_t i = 0; i < rep.notes.size(); ++i)
      res << (i ? ", " : "") << json_str(rep.notes[i].first + ": " +
                                         rep.notes[i].second);
    res << "],\n \"check_failures\": [";
    for (std::size_t i = 0; i < rep.check_failures.size(); ++i)
      res << (i ? ", " : "") << json_str(rep.check_failures[i]);
    res << "],\n \"result\": " << js.str() << "}\n";
  }
  if (cfg.trace) {
    std::ofstream tr(cfg.prefix + ".spans.json");
    spans.write_chrome(tr, stamp_json);
  }

  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}
