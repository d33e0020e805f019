#include "bench.hpp"

#include <sys/resource.h>

#include <iomanip>

namespace e2e {

void SpanLog::write_chrome(std::ostream& os,
                           const std::string& other_data) const {
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_data
     << ",\"traceEvents\":[\n";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid
       << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << s.dur * 1e6
       << ",\"args\":{\"op\":" << s.op << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

double forward_error(const std::vector<double>& x,
                     const std::vector<double>& x_ref, double scale) {
  if (x.size() != x_ref.size() || x.empty()) return HUGE_VAL;
  double err = 0, ref = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = scale * x_ref[i];
    if (!std::isfinite(x[i])) return HUGE_VAL;
    err = std::max(err, std::abs(x[i] - r));
    ref = std::max(ref, std::abs(r));
  }
  return err / std::max(ref, 1e-300);
}

namespace {
double panel_scale(std::size_t k) {
  return 1.0 + static_cast<double>(k) / kPanelRhs;
}
}  // namespace

std::vector<std::vector<double>> panel_of(const std::vector<double>& b) {
  std::vector<std::vector<double>> bs(kPanelRhs, b);
  for (std::size_t k = 0; k < bs.size(); ++k)
    for (double& v : bs[k]) v *= panel_scale(k);
  return bs;
}

bool panel_ok(const std::vector<std::vector<double>>& xs,
              const std::vector<double>& x_ref) {
  if (xs.size() != kPanelRhs) return false;
  for (std::size_t k = 0; k < xs.size(); ++k)
    if (forward_error(xs[k], x_ref, panel_scale(k)) > kAnswerTolerance)
      return false;
  return true;
}

Matrix fresh_values(const Matrix& a, pastix::Rng& rng) {
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> d(n);
  for (double& v : d) v = 0.5 * std::exp2(2.0 * rng.next_double());
  Matrix b = a;
  for (std::size_t i = 0; i < n; ++i) b.diag[i] *= d[i] * d[i];
  for (idx_t j = 0; j < a.n(); ++j)
    for (idx_t p = a.pattern.colptr[static_cast<std::size_t>(j)];
         p < a.pattern.colptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const auto q = static_cast<std::size_t>(p);
      b.val[q] *= d[static_cast<std::size_t>(a.pattern.rowind[q])] *
                  d[static_cast<std::size_t>(j)];
    }
  return b;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
