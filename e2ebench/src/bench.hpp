#pragma once
//
// Shared pieces of the end-to-end benchmark: sample sets with percentiles,
// the metric record printed at exit, the benchmark's own span log (exported
// as Chrome-trace JSON), answer checks and the fresh-values generator.
//
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sparse/sym_sparse.hpp"
#include "support/rng.hpp"

namespace e2e {

using pastix::idx_t;
using Matrix = pastix::SymSparse<double>;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Latency samples.  A failed or refused operation enters as +inf, so it
/// misses every latency limit instead of vanishing from the percentiles.
class Samples {
public:
  void add(double v) { v_.push_back(v); }
  void add_failure() { v_.push_back(HUGE_VAL); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }

  /// Nearest-rank percentile, q in [0, 1].
  [[nodiscard]] double pct(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const auto n = static_cast<double>(s.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
  [[nodiscard]] double median() const { return pct(0.5); }

  /// Samples strictly above the q-percentile; a reported tail percentile
  /// should have at least ten of them.
  [[nodiscard]] std::size_t beyond(double q) const {
    const double t = pct(q);
    return static_cast<std::size_t>(
        std::count_if(v_.begin(), v_.end(), [t](double v) { return v > t; }));
  }

private:
  std::vector<double> v_;
};

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the end-to-end metrics (untraced run), the
/// per-layer metrics (traced run), readable lines under the per-workload
/// metric names, and the check outcome.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::pair<std::string, std::string>> notes;  ///< name, text
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok && std::find(check_failures.begin(), check_failures.end(),
                         what) == check_failures.end())
      check_failures.push_back(what);
  }
  void note(const std::string& name, const std::string& text) {
    notes.emplace_back(name, text);
  }
};

// ------------------------------------------------------------------ spans --

/// The benchmark's own trace: one span per call into a library layer,
/// recorded only while enabled (traced operations) and written out once at
/// exit in the Chrome trace-event format.
class SpanLog {
public:
  struct Span {
    std::string name;
    std::string cat;     ///< the layer (module) the call goes into
    double start = 0;    ///< seconds since the log epoch
    double dur = 0;
    int tid = 0;         ///< 0 = main thread, k = service job slot k - 1
    std::uint64_t op = 0;  ///< operation the span belongs to
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double now() const { return seconds_since(epoch_); }

  void record(std::string cat, std::string name, double start, double dur,
              std::uint64_t op, int tid = 0) {
    if (enabled_)
      spans_.push_back({std::move(name), std::move(cat), start, dur, tid, op});
  }

  /// Time `fn`, record it as a span when enabled, return its seconds.
  template <class Fn>
  double time(const char* cat, const char* name, std::uint64_t op, Fn&& fn) {
    const double t0 = now();
    fn();
    const double d = now() - t0;
    record(cat, name, t0, d, op);
    return d;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), with
  /// `other_data` (a JSON object) as the trace's metadata.
  void write_chrome(std::ostream& os, const std::string& other_data) const;

private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ the answers --

/// Tolerance of every answer check: max-norm forward error of x against the
/// known solution, relative to the solution's max norm.  The matrices are
/// diagonally dominant SPD, where the solver reaches ~1e-14; 1e-8 leaves
/// room for conditioning while still catching any wrong answer.
inline constexpr double kAnswerTolerance = 1e-8;

/// Relative max-norm distance between x and x_ref (inf on a size mismatch
/// or a non-finite entry).
double forward_error(const std::vector<double>& x,
                     const std::vector<double>& x_ref, double scale = 1.0);

/// Right-hand sides of one panel solve (Solver::solve_many).
inline constexpr std::size_t kPanelRhs = 32;

/// The panel of b: column k is (1 + k / kPanelRhs) b, so its known solution
/// is the same multiple of b's.
std::vector<std::vector<double>> panel_of(const std::vector<double>& b);

/// Every column of a panel solve within tolerance of its known solution.
bool panel_ok(const std::vector<std::vector<double>>& xs,
              const std::vector<double>& x_ref);

/// Fresh values on a fixed pattern: D A D with a seeded positive diagonal
/// scaling d_i in [0.5, 2], which keeps A symmetric positive definite and
/// changes every stored value.
Matrix fresh_values(const Matrix& a, pastix::Rng& rng);

// ----------------------------------------------------------------- output --

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

}  // namespace e2e
