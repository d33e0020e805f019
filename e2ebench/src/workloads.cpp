#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>

#include "core/pastix.hpp"
#include "core/plan_io.hpp"
#include "layers.hpp"
#include "service/service.hpp"
#include "sparse/gen.hpp"
#include "verify/verify.hpp"

namespace e2e {

using namespace pastix;

namespace {

constexpr int kSetupReps = 5;  ///< set-ups per run; setup_s is their median
constexpr int kProbeReps = 3;  ///< repetitions of each per-layer probe

/// Latencies of one operation stream (untraced or traced).
struct OpStream {
  Samples op;       ///< the workload's headline operation, seconds
  Samples solve;    ///< handing over one right-hand side -> x, seconds
  std::uint64_t ok = 0;
  double busy = 0;  ///< seconds the stream spent in its operations
};

void fail(Report& rep, OpStream& s, const std::string& why) {
  rep.failed++;
  s.op.add_failure();
  s.solve.add_failure();
  if (rep.failed <= 5) rep.note("failure", why);
}

void fill_end_to_end(Report& rep, const Samples& setup, const OpStream& u) {
  rep.e2e["setup_s"] = {setup.median(), "s"};
  rep.e2e["op_ms.p50"] = {u.op.median() * 1e3, "ms"};
  rep.e2e["op_ms.p90"] = {u.op.pct(0.9) * 1e3, "ms"};
  rep.e2e["ops_per_s"] = {u.busy > 0 ? static_cast<double>(u.ok) / u.busy : 0,
                          "1/s"};
  rep.e2e["solve_ms.p50"] = {u.solve.median() * 1e3, "ms"};
  if (u.op.beyond(0.9) < 10)
    rep.note("warning", "only " + std::to_string(u.op.beyond(0.9)) +
                            " samples beyond op_ms.p90 (want >= 10)");
}

void fill_overhead(Report& rep, const OpStream& u, const OpStream& t) {
  rep.layer["trace.overhead_frac"] = {t.op.median() / u.op.median() - 1,
                                      "frac"};
}

std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

/// Readable line under a per-workload metric name (README, end-to-end
/// metrics).
void note_latency(Report& rep, const std::string& name, const Samples& s,
                  double q_tail, const char* tail) {
  rep.note(name, "p50 " + fmt(s.median() * 1e3) + " ms, " + tail + " " +
                     fmt(s.pct(q_tail) * 1e3) + " ms, n=" +
                     std::to_string(s.size()));
}

}  // namespace

// ----------------------------------------------------------- solid-steady --
//
// Time stepping on the ROADMAP benchmark mesh: analysis once in set-up, then
// per step fresh values -> refactorize -> solve -> 32-RHS solve_many.

void run_solid_steady(const RunConfig& cfg, SpanLog& spans, Report& rep) {
  const Matrix a = gen_fe_mesh({20, 20, 8, 3, 1, cfg.seed});
  SolverOptions opt;
  opt.nprocs = 4;

  Samples setup;
  std::unique_ptr<Solver<double>> sv;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    auto s = std::make_unique<Solver<double>>(opt);
    s->analyze(a, analyze(a.pattern, opt));
    setup.add(seconds_since(t0));
    sv = std::move(s);
  }

  Rng rng(cfg.seed);
  OpStream stream[2];  // [traced]
  Samples panel;       // untraced solve_many right-hand sides per second
  const auto end = Clock::now() + std::chrono::duration<double>(cfg.seconds);
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const bool traced = cfg.trace && i % 2 == 1;
    OpStream& s = stream[traced];
    const Matrix ai = fresh_values(a, rng);
    std::vector<double> x_ref;
    const std::vector<double> b = reference_rhs(ai, &x_ref);
    const auto bs = panel_of(b);
    rep.attempted++;
    spans.set_enabled(traced);
    const auto t0 = Clock::now();
    try {
      sv->enable_tracing(traced);
      const double tf = spans.time("core", "Solver::refactorize", i,
                                   [&] { sv->refactorize(ai); });
      std::vector<double> x;
      const double ts =
          spans.time("solver", "Solver::solve", i, [&] { x = sv->solve(b); });
      std::vector<std::vector<double>> xs;
      const double tm = spans.time("solver", "Solver::solve_many", i,
                                   [&] { xs = sv->solve_many(bs); });
      s.busy += seconds_since(t0);
      if (forward_error(x, x_ref) > kAnswerTolerance ||
          !panel_ok(xs, x_ref)) {
        fail(rep, s, "step " + std::to_string(i) + ": answer out of tolerance");
        continue;
      }
      s.ok++;
      s.op.add(tf);
      s.solve.add(ts);
      if (!traced) panel.add(static_cast<double>(kPanelRhs) / tm);
    } catch (const std::exception& e) {
      s.busy += seconds_since(t0);
      fail(rep, s, "step " + std::to_string(i) + ": " + e.what());
    }
  }
  spans.set_enabled(cfg.trace);
  sv->enable_tracing(false);

  fill_end_to_end(rep, setup, stream[0]);
  note_latency(rep, "refactor_ms", stream[0].op, 0.9, "p90");
  note_latency(rep, "solve_ms", stream[0].solve, 0.9, "p90");
  rep.note("panel_rhs_per_s", fmt(panel.median(), 1) + " 1/s (32-RHS panel)");
  if (cfg.trace) {
    fill_overhead(rep, stream[0], stream[1]);
    probe_layers(a, opt, kProbeReps, cfg.seed, spans, rep,
                 cfg.prefix + ".numeric.json");
  }
}

// ------------------------------------------------------------- shell-cold --
//
// Time to first solve on never-seen shell/plate patterns: a fresh Solver per
// operation runs analyze (with the static verifier) -> factorize -> solve.

namespace {

/// Analogs of OILPAN, SHIP003 and QUER (paper Table 1), used in turn.
constexpr FeMeshSpec kShellFamilies[] = {
    {34, 34, 3, 3, 1, 0},
    {36, 36, 3, 3, 1, 0},
    {52, 52, 1, 3, 1, 0},
};
constexpr int kShellJitter = 4;  ///< grid dims vary by +-4 nodes per axis

/// Operation i's mesh: the families in turn.  Within a family, op j
/// perturbs the grid by (o[a], o[(a + b) mod 9]) with offsets o = -4..4,
/// block b = j / 9 and a drawn from a seeded permutation per block: every
/// 81 ops are the 81 (dx, dy) pairs once (a Latin square), so no
/// fingerprint repeats within 243 operations, and each block holds the
/// same sizes for every seed, which only orders them and sets the values.
class ShellStream {
public:
  explicit ShellStream(std::uint64_t seed) : rng_(seed) {}

  Matrix next(std::uint64_t i) {
    const std::size_t f = i % 3;
    const std::uint64_t j = i / 3;
    const auto block = static_cast<int>((j / kSide) % kSide);
    std::vector<int>& perm = perm_[f];
    if (j % kSide == 0) {  // a new block: draw its order
      perm.resize(kSide);
      for (int k = 0; k < kSide; ++k) perm[static_cast<std::size_t>(k)] = k;
      for (std::size_t k = perm.size(); k > 1; --k)
        std::swap(perm[k - 1], perm[rng_.next_below(k)]);
    }
    const int a = perm[j % kSide];
    FeMeshSpec spec = kShellFamilies[f];
    spec.nx += a - kShellJitter;
    spec.ny += (a + block) % kSide - kShellJitter;
    spec.seed = rng_.next_u64();
    return gen_fe_mesh(spec);
  }

private:
  static constexpr int kSide = 2 * kShellJitter + 1;
  Rng rng_;
  std::vector<int> perm_[3];
};

}  // namespace

void run_shell_cold(const RunConfig& cfg, SpanLog& spans, Report& rep) {
  SolverOptions opt;
  opt.nprocs = 4;
  opt.verify_plan = true;

  // Set-up: the first cold solves of the process (code, allocator and page
  // warm-up) on the plain QUER analog.
  Samples setup;
  {
    FeMeshSpec spec = kShellFamilies[2];
    spec.seed = cfg.seed;
    const Matrix a = gen_fe_mesh(spec);
    std::vector<double> x_ref;
    const std::vector<double> b = reference_rhs(a, &x_ref);
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t0 = Clock::now();
      Solver<double> sv(opt);
      sv.analyze(a);
      sv.factorize();
      const std::vector<double> x = sv.solve(b);
      setup.add(seconds_since(t0));
      rep.check(forward_error(x, x_ref) <= kAnswerTolerance,
                "shell-cold set-up solve out of tolerance");
    }
  }

  ShellStream gen(cfg.seed);
  const Matrix first = gen.next(0);
  OpStream stream[2];
  const auto end = Clock::now() + std::chrono::duration<double>(cfg.seconds);
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const bool traced = cfg.trace && i % 2 == 1;
    OpStream& s = stream[traced];
    const Matrix a = i == 0 ? first : gen.next(i);
    std::vector<double> x_ref;
    const std::vector<double> b = reference_rhs(a, &x_ref);
    rep.attempted++;
    spans.set_enabled(traced);
    Solver<double> sv(opt);
    const double t0 = spans.now();
    try {
      spans.time("core", "Solver::analyze", i, [&] { sv.analyze(a); });
      if (traced) sv.enable_tracing(true);
      spans.time("solver", "Solver::factorize", i, [&] { sv.factorize(); });
      std::vector<double> x;
      const double ts =
          spans.time("solver", "Solver::solve", i, [&] { x = sv.solve(b); });
      const double top = spans.now() - t0;
      spans.record("e2e", "first_solve n=" + std::to_string(a.n()), t0, top,
                   i);
      s.busy += top;
      if (forward_error(x, x_ref) > kAnswerTolerance) {
        fail(rep, s, "op " + std::to_string(i) + ": answer out of tolerance");
        continue;
      }
      s.ok++;
      s.op.add(top);
      s.solve.add(ts);
    } catch (const std::exception& e) {
      s.busy += spans.now() - t0;
      fail(rep, s, "op " + std::to_string(i) + ": " + e.what());
    }
  }
  spans.set_enabled(cfg.trace);

  fill_end_to_end(rep, setup, stream[0]);
  note_latency(rep, "first_solve_ms", stream[0].op, 0.9, "p90");
  note_latency(rep, "solve_ms", stream[0].solve, 0.9, "p90");
  if (cfg.trace) {
    fill_overhead(rep, stream[0], stream[1]);
    probe_layers(first, opt, kProbeReps, cfg.seed, spans, rep,
                 cfg.prefix + ".numeric.json");
  }
}

// ------------------------------------------------------------ service-mix --
//
// A SolverService (2 workers x 2 ranks) fed by one closed-loop submitter
// that keeps kOutstanding jobs in flight across 3 tenants, drawn with skewed
// popularity from a pool of small and medium patterns with fresh values per
// job.  The memory tier holds about half the pool's plans, the disk tier
// all of them.

namespace {

/// The pattern pool, most popular first (job draw weight 1 / (rank + 1)).
constexpr FeMeshSpec kPool[] = {
    {10, 10, 8, 3, 1, 0},  // solid, n = 2400
    {20, 20, 2, 3, 1, 0},  // shell, n = 2400
    {40, 4, 4, 3, 1, 0},   // rod,   n = 1920
    {8, 8, 8, 3, 1, 0},    // solid, n = 1536
    {16, 16, 3, 3, 1, 0},  // shell, n = 2304
    {30, 5, 5, 3, 1, 0},   // rod,   n = 2250
    {14, 14, 2, 3, 1, 0},  // shell, n = 1176
    {9, 9, 9, 3, 1, 0},    // solid, n = 2187
};
constexpr std::size_t kPoolSize = std::size(kPool);
constexpr int kTenants = 3;
/// Jobs kept in flight: two per tenant, far below the per-tenant cap (32),
/// so a healthy service refuses nothing.
constexpr int kOutstanding = 6;

std::size_t draw_pattern(Rng& rng) {
  static const std::vector<double> cdf = [] {
    std::vector<double> c;
    double sum = 0;
    for (std::size_t k = 0; k < kPoolSize; ++k)
      c.push_back(sum += 1.0 / static_cast<double>(k + 1));
    for (double& v : c) v /= sum;
    return c;
  }();
  const double u = rng.next_double();
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// One service instance with its disk tier populated and both tiers warm.
struct ServiceRig {
  std::string dir;
  std::unique_ptr<service::SolverService> svc;
  std::vector<std::string> plan_files;

  ServiceRig() = default;
  ServiceRig(const ServiceRig&) = delete;
  ServiceRig& operator=(const ServiceRig&) = delete;
  ~ServiceRig() {
    svc.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace

void run_service_mix(const RunConfig& cfg, SpanLog& spans, Report& rep) {
  std::vector<Matrix> pool;
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    FeMeshSpec spec = kPool[k];
    spec.seed = cfg.seed * kPoolSize + k;
    pool.push_back(gen_fe_mesh(spec));
  }
  std::atomic<bool> trace_jobs{false};
  Samples setup, save_s;
  std::unique_ptr<ServiceRig> rig;

  for (int r = 0; r < kSetupReps; ++r) {
    rig.reset();
    const auto t0 = Clock::now();
    auto next = std::make_unique<ServiceRig>();
    next->dir = cfg.out_dir + "/service-" + std::to_string(::getpid()) + "-" +
                std::to_string(r);
    std::filesystem::remove_all(next->dir);
    std::filesystem::create_directories(next->dir);
    service::ServiceOptions so;
    so.solver.nprocs = 2;
    so.workers = 2;
    so.memory_budget_bytes = std::size_t{1} << 30;
    so.cache.disk_dir = next->dir;
    so.cache.expect_nprocs = 2;
    so.before_attempt = [&trace_jobs](Solver<double>& sv,
                                      const service::AttemptContext&) {
      if (trace_jobs.load()) sv.enable_tracing(true);
    };
    // Disk tier: every pool plan analyzed, verified and saved up front.
    std::vector<PlanPtr> plans;
    std::size_t footprint = 0;
    for (const Matrix& a : pool) {
      plans.push_back(analyze(a.pattern, so.solver));
      verify::require_valid(*plans.back(), "service-mix set-up");
      footprint += plan_footprint_bytes(*plans.back());
    }
    so.cache.budget_bytes = footprint / 2;  // memory tier: about half
    next->svc = std::make_unique<service::SolverService>(so);
    for (const PlanPtr& p : plans) {
      next->plan_files.push_back(next->svc->cache().disk_path(p->fingerprint));
      const auto ts = Clock::now();
      save_plan(*p, next->plan_files.back());
      save_s.add(seconds_since(ts));
    }
    // Warm both tiers: one job per pattern, in pool order.
    for (const Matrix& a : pool) {
      std::vector<double> x_ref;
      const auto b = reference_rhs(a, &x_ref);
      const auto res = next->svc->submit({a, b, "warmup"});
      rep.check(res.admitted && res.ticket.wait().outcome ==
                                    service::JobOutcome::kDone &&
                    forward_error(res.ticket.wait().x, x_ref) <=
                        kAnswerTolerance,
                "service-mix warm-up job failed");
    }
    setup.add(seconds_since(t0));
    rig = std::move(next);
  }
  service::SolverService& svc = *rig->svc;
  const service::ServiceStats before = svc.stats();

  struct Slot {
    service::JobTicket ticket;
    bool busy = false;
    std::vector<double> x_ref;
    double submitted = 0;  ///< span-log time
    std::uint64_t id = 0;
  };
  std::vector<Slot> slots(kOutstanding);
  Rng rng(cfg.seed);
  OpStream stream[2];
  Samples queue_s, exec_s;
  std::uint64_t next_id = 0;

  const auto collect = [&](Slot& sl, bool traced) {
    const service::JobResult& r = sl.ticket.wait();
    sl.busy = false;
    OpStream& s = stream[traced];
    if (r.outcome != service::JobOutcome::kDone) {
      fail(rep, s, std::string("job ") + std::to_string(sl.id) + ": " +
                       service::job_error_name(r.error) + " " + r.message);
      return;
    }
    if (forward_error(r.x, sl.x_ref) > kAnswerTolerance) {
      fail(rep, s,
           "job " + std::to_string(sl.id) + ": answer out of tolerance");
      return;
    }
    s.ok++;
    s.op.add(r.total_seconds);
    s.solve.add(r.total_seconds);
    queue_s.add(r.queue_seconds);
    exec_s.add(r.total_seconds - r.queue_seconds);
    const auto tid = static_cast<int>(&sl - slots.data()) + 1;
    spans.record("service", "job", sl.submitted, r.total_seconds, sl.id, tid);
    spans.record("service", "queue", sl.submitted, r.queue_seconds, sl.id, tid);
    spans.record("service", "execute", sl.submitted + r.queue_seconds,
                 r.total_seconds - r.queue_seconds, sl.id, tid);
  };
  const auto submit = [&](Slot& sl, bool traced) {
    const std::size_t k = draw_pattern(rng);
    Matrix a = fresh_values(pool[k], rng);
    std::vector<double> b = reference_rhs(a, &sl.x_ref);
    const auto slot = static_cast<int>(&sl - slots.data());
    rep.attempted++;
    sl.id = next_id++;
    sl.submitted = spans.now();
    const std::string tenant = "tenant" + std::to_string(slot % kTenants);
    service::SubmitResult res =
        svc.submit({std::move(a), std::move(b), tenant});
    if (!res.admitted) {
      fail(rep, stream[traced], std::string("job refused: ") +
                                    service::job_error_name(res.reject));
      return;
    }
    sl.ticket = std::move(res.ticket);
    sl.busy = true;
  };

  // Untraced run: one closed-loop phase.  Traced run: four phases, untraced
  // and traced in turn, each drained before the next starts.
  const int phases = cfg.trace ? 4 : 1;
  for (int ph = 0; ph < phases; ++ph) {
    const bool traced = ph % 2 == 1;
    trace_jobs.store(traced);
    spans.set_enabled(traced);
    const auto t0 = Clock::now();
    const auto end =
        t0 + std::chrono::duration<double>(cfg.seconds / phases);
    while (Clock::now() < end) {
      for (Slot& sl : slots) {
        if (sl.busy && !sl.ticket.finished()) continue;
        if (sl.busy) collect(sl, traced);
        submit(sl, traced);
      }
      // Block on the oldest job in flight rather than poll: the submitter
      // then wakes only when an answer arrives and stays off the cores the
      // workers and ranks use.  Job latency is the service's own
      // submit-to-answer time, so waking late does not inflate it.
      Slot* oldest = nullptr;
      for (Slot& sl : slots)
        if (sl.busy && (oldest == nullptr || sl.id < oldest->id)) oldest = &sl;
      if (oldest != nullptr) (void)oldest->ticket.wait();
    }
    for (Slot& sl : slots)
      if (sl.busy) collect(sl, traced);
    stream[traced].busy += seconds_since(t0);
  }
  trace_jobs.store(false);
  spans.set_enabled(cfg.trace);
  const service::ServiceStats after = svc.stats();

  fill_end_to_end(rep, setup, stream[0]);
  rep.note("jobs_per_s",
           fmt(rep.e2e["ops_per_s"].value, 1) + " 1/s (completed jobs only)");
  note_latency(rep, "job_ms", stream[0].op, 0.99, "p99");
  rep.note("refused",
           std::to_string(after.total.rejected - before.total.rejected) +
               " submissions refused, " +
               std::to_string(after.total.failed - before.total.failed) +
               " failed, " +
               std::to_string(after.total.shed - before.total.shed) + " shed");
  if (!cfg.trace) return;

  fill_overhead(rep, stream[0], stream[1]);
  auto& L = rep.layer;
  L["service.queue_ms.p50"] = {queue_s.median() * 1e3, "ms"};
  L["service.queue_ms.p99"] = {queue_s.pct(0.99) * 1e3, "ms"};
  L["service.exec_ms.p50"] = {exec_s.median() * 1e3, "ms"};
  L["service.retries"] = {
      static_cast<double>(after.total.retried - before.total.retried), "count"};
  L["service.rejected"] = {
      static_cast<double>(after.total.rejected - before.total.rejected),
      "count"};
  L["service.mem_peak_mb"] = {
      static_cast<double>(after.mem_reserved_peak_bytes) / (1 << 20), "MB"};
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double disk =
      static_cast<double>(after.cache.disk_hits - before.cache.disk_hits);
  const double miss =
      static_cast<double>(after.cache.misses - before.cache.misses);
  const double lookups = std::max(1.0, hits + disk + miss);
  L["cache.mem_hit_frac"] = {hits / lookups, "frac"};
  L["cache.disk_hit_frac"] = {disk / lookups, "frac"};

  Samples load_s;
  double bytes = 0;
  for (const std::string& f : rig->plan_files) {
    bytes += static_cast<double>(std::filesystem::file_size(f));
    load_s.add(spans.time("plan_io", "load_plan", 1u << 29,
                          [&] { (void)load_plan(f); }));
  }
  L["plan_io.load_ms"] = {load_s.median() * 1e3, "ms"};
  L["plan_io.save_ms"] = {save_s.median() * 1e3, "ms"};
  L["plan_io.bytes"] = {bytes, "bytes"};

  probe_layers(pool[0], svc.options().solver, kProbeReps, cfg.seed, spans,
               rep, cfg.prefix + ".numeric.json");
}

}  // namespace e2e
