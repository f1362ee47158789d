// The sim_targeted workload: the Monte-Carlo grid behind the paper's
// Figs. 3-8 and 13-15, run through sim::simulate_many at a pinned thread
// count. One operation is one simulated trial; it fails when the trial does
// not reach the coverage target within the horizon.
//
// The grid is the paper's Fig. 3 (Drum, Push and Pull; an x sweep at
// alpha = 10 % and an alpha sweep at x = 128) plus every adversary-zoo
// strategy against Drum with peer scoring on, plus one all-correct point
// with scoring on (the zero-false-positive gate). The run repeats whole
// passes over the grid until --seconds have elapsed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "drum/adversary/adversary.hpp"
#include "drum/analysis/appendix_b.hpp"
#include "drum/analysis/appendix_c.hpp"
#include "drum/sim/engine.hpp"
#include "trace.hpp"

namespace drumbench {

namespace {

constexpr std::size_t kN = 120;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kTrialsPerPoint = 50;
constexpr std::size_t kCoverageRounds = 25;

enum class Group { kDrum, kPush, kPull, kZoo };

struct Point {
  std::string label;
  Group group = Group::kDrum;
  sim::SimParams params;
};

sim::SimParams fig3_params(sim::SimProtocol proto, double alpha, double x) {
  sim::SimParams p;
  p.protocol = proto;
  p.n = kN;
  p.alpha = alpha;
  p.x = x;
  return p;
}

std::vector<Point> make_grid() {
  std::vector<Point> grid;
  const struct {
    sim::SimProtocol proto;
    Group group;
    const char* name;
  } protos[] = {{sim::SimProtocol::kDrum, Group::kDrum, "drum"},
                {sim::SimProtocol::kPush, Group::kPush, "push"},
                {sim::SimProtocol::kPull, Group::kPull, "pull"}};
  for (const auto& pr : protos) {
    for (double x : {0.0, 32.0, 64.0, 128.0, 256.0}) {
      grid.push_back({std::string(pr.name) + " a=0.1 x=" +
                          std::to_string(static_cast<int>(x)),
                      pr.group, fig3_params(pr.proto, 0.1, x)});
    }
    for (double a : {0.2, 0.4}) {
      grid.push_back({std::string(pr.name) + " a=" +
                          std::to_string(a).substr(0, 3) + " x=128",
                      pr.group, fig3_params(pr.proto, a, 128.0)});
    }
  }
  for (const std::string& strat : adversary::registered()) {
    Point pt{"zoo " + strat, Group::kZoo,
             fig3_params(sim::SimProtocol::kDrum, 0.1, 0.0)};
    pt.params.attack.strategy = strat;
    pt.params.attack.params.x = 64.0;
    pt.params.scoring.enabled = true;
    grid.push_back(pt);
  }
  Point clean{"drum all-correct scoring", Group::kZoo,
              fig3_params(sim::SimProtocol::kDrum, 0.0, 0.0)};
  clean.params.malicious_fraction = 0.0;
  clean.params.scoring.enabled = true;
  grid.push_back(clean);
  return grid;
}

std::size_t find(const std::vector<Point>& grid, const std::string& label) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].label == label) return i;
  }
  return grid.size();
}

/// One Appendix C comparison: the analysis curve is computed during set-up,
/// apart from the simulator; the tolerance is the one crossval_test uses.
struct CoverageCase {
  std::string label;
  analysis::Protocol proto;
  double alpha, x, tolerance;
  std::vector<double> analysed;
};

std::vector<CoverageCase> coverage_cases(SpanLog* log) {
  std::vector<CoverageCase> cs = {
      {"drum a=0.1 x=0", analysis::Protocol::kDrum, 0, 0, 0.10, {}},
      {"push a=0.1 x=0", analysis::Protocol::kPush, 0, 0, 0.10, {}},
      {"pull a=0.1 x=0", analysis::Protocol::kPull, 0, 0, 0.10, {}},
      {"drum a=0.1 x=64", analysis::Protocol::kDrum, 0.1, 64, 0.10, {}},
      {"push a=0.1 x=64", analysis::Protocol::kPush, 0.1, 64, 0.10, {}},
      {"pull a=0.1 x=64", analysis::Protocol::kPull, 0.1, 64, 0.08, {}},
      {"drum a=0.4 x=128", analysis::Protocol::kDrum, 0.4, 128, 0.10, {}},
      {"pull a=0.4 x=128", analysis::Protocol::kPull, 0.4, 128, 0.08, {}},
  };
  for (auto& c : cs) {
    analysis::DetailedParams dp;
    dp.protocol = c.proto;
    dp.n = kN;
    dp.b = kN / 10;
    dp.alpha = c.alpha;
    dp.x = c.x;
    Scoped s(log, "analysis.expected_coverage");
    c.analysed = analysis::expected_coverage(dp, kCoverageRounds);
  }
  return cs;
}

std::uint64_t point_seed(std::uint64_t seed, std::size_t pass,
                         std::size_t point) {
  return seed * 1000003ull + pass * 7919ull + point + 1;
}

/// What the checks read from one grid point, summed over every pass. An
/// AggregateResult keeps every trial's coverage curve, so merging the
/// passes' aggregates would make memory grow with the simulator's speed.
struct PointSums {
  double runs = 0.0;
  /// Sum over passes of trials x the pass's mean coverage curve; a shorter
  /// curve extends with its last value, as CoverageCurve::average() does.
  std::vector<double> coverage;
  double rounds = 0.0;  ///< sum of rounds to the target
  double escape = 0.0;  ///< sum of rounds for M to leave the source
  bool greylist_free = true;

  void add(const sim::AggregateResult& a) {
    const auto k = static_cast<double>(a.rounds_to_target.count());
    std::vector<double> curve = a.coverage.average();
    if (curve.empty()) return;
    if (coverage.size() < curve.size()) {
      coverage.resize(curve.size(), coverage.empty() ? 0.0 : coverage.back());
    }
    for (std::size_t r = 0; r < coverage.size(); ++r) {
      coverage[r] += k * (r < curve.size() ? curve[r] : curve.back());
    }
    runs += k;
    rounds += k * a.rounds_to_target.mean();
    escape += static_cast<double>(a.rounds_to_leave_source.count()) *
              a.rounds_to_leave_source.mean();
    greylist_free = greylist_free && checks::no_greylist_entries(a);
  }
  [[nodiscard]] std::vector<double> mean_coverage() const {
    std::vector<double> out = coverage;
    for (double& v : out) v /= runs;
    return out;
  }
};

double correct_processes(const sim::SimParams& p) {
  return static_cast<double>(p.n) -
         std::round(p.malicious_fraction * static_cast<double>(p.n));
}

}  // namespace

Result run_sim(const RunArgs& args) {
  Result res;
  const std::vector<Point> grid = make_grid();
  std::vector<CoverageCase> cases = coverage_cases(nullptr);
  const double pull_escape_expected =
      analysis::pull_expected_rounds_to_leave_source(kN - kN / 10, 4,
                                                     128 * 0.99);

  obs::MetricsRegistry sim_reg;
  std::vector<PointSums> sums(grid.size());
  std::uint64_t trials = 0, unreached = 0;
  // Per-pass figures; each end-to-end metric is their median, so one burst
  // of outside load moves one sample.
  std::vector<double> tps, cpu_per_trial, cpu_per_msg, deliveries_per_s, p50,
      p99;

  const auto t0 = Clock::now();
  res.set("setup_s", seconds_between(process_start(), t0), "s");
  const auto deadline = t0 + std::chrono::seconds(args.seconds);
  for (std::size_t pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
    obs::MetricsRegistry pass_reg;
    sim::SimOptions so;
    so.threads = kThreads;
    so.metrics = &pass_reg;
    const double cpu0 = process_cpu_s();
    const auto p0 = Clock::now();
    std::vector<sim::AggregateResult> pass_agg;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      pass_agg.push_back(sim::simulate_many(
          grid[i].params, kTrialsPerPoint, point_seed(args.seed, pass, i), so));
    }
    const double wall_s = seconds_between(p0, Clock::now());
    const double cpu_s = process_cpu_s() - cpu0;

    std::uint64_t pass_trials = 0, pass_unreached = 0;
    double deliveries = 0.0, messages = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& a = pass_agg[i];
      const auto& p = grid[i].params;
      pass_trials += a.rounds_to_target.count();
      pass_unreached += a.unreached_runs;
      const double n_correct = correct_processes(p);
      deliveries += static_cast<double>(a.rounds_to_target.count()) *
                    a.coverage.average().back() * n_correct;
      double rounds = 0.0;
      for (double r : a.rounds_to_target.raw()) rounds += r;
      messages += rounds * n_correct * static_cast<double>(p.fanout);
      sums[i].add(a);
    }
    trials += pass_trials;
    unreached += pass_unreached;
    tps.push_back(static_cast<double>(pass_trials) / wall_s);
    cpu_per_trial.push_back(
        cpu_s * 1e3 /
        static_cast<double>(
            std::max<std::uint64_t>(1, pass_trials - pass_unreached)));
    cpu_per_msg.push_back(cpu_s * 1e6 / std::max(messages, 1.0));
    deliveries_per_s.push_back(deliveries / wall_s);
    p50.push_back(pass_reg.histogram_quantile("sim.trial_us", 0.50) * 1e-3);
    p99.push_back(pass_reg.histogram_quantile("sim.trial_us", 0.99) * 1e-3);
    sim_reg.merge(pass_reg);
  }
  res.attempted = trials;
  res.failed = unreached;

  // ---- checks (not timed) ----
  for (const auto& c : cases) {
    const std::size_t i = find(grid, c.label);
    if (i == grid.size()) {
      res.check(false, "grid lacks " + c.label);
      continue;
    }
    const double gap =
        checks::coverage_gap(sums[i].mean_coverage(), c.analysed,
                             kCoverageRounds);
    res.check(gap < c.tolerance, c.label + ": coverage differs from Appendix C by " +
                                     std::to_string(gap));
  }
  {
    const std::size_t i = find(grid, "pull a=0.1 x=128");
    const double esc = sums[i].escape / sums[i].runs;
    res.check(checks::escape_agrees(esc, pull_escape_expected),
              "Pull escape " + std::to_string(esc) + " vs Appendix B " +
                  std::to_string(pull_escape_expected));
  }
  for (auto [lo, hi] : {std::pair{"drum a=0.1 x=32", "drum a=0.1 x=128"},
                        std::pair{"drum a=0.1 x=64", "drum a=0.1 x=256"}}) {
    const PointSums& at_x = sums[find(grid, lo)];
    const PointSums& at_4x = sums[find(grid, hi)];
    const double a = at_x.rounds / at_x.runs;
    const double b = at_4x.rounds / at_4x.runs;
    res.check(checks::drum_bounded(a, b),
              std::string("Drum at 4x: ") + hi + " " + std::to_string(b) +
                  " vs " + lo + " " + std::to_string(a));
  }
  res.check(sums[find(grid, "drum all-correct scoring")].greylist_free,
            "all-correct run with scoring greylisted a correct peer");
  {
    const sim::SimParams& p = grid[find(grid, "drum a=0.1 x=128")].params;
    sim::SimOptions one;
    one.threads = 1;
    sim::SimOptions many;
    many.threads = kThreads;
    res.check(sim::simulate_many(p, kTrialsPerPoint, args.seed, one) ==
                  sim::simulate_many(p, kTrialsPerPoint, args.seed, many),
              "AggregateResult differs between 1 and " +
                  std::to_string(kThreads) + " threads");
  }

  const double median_tps = percentile(tps, 0.5);
  res.set("sim_trials_per_s", median_tps, "1/s");
  res.set("delivered_per_s", percentile(deliveries_per_s, 0.5), "1/s");
  res.set("defender_cpu_ms_per_delivered", percentile(cpu_per_trial, 0.5),
          "ms");
  res.set("defender_cpu_us_per_datagram", percentile(cpu_per_msg, 0.5), "us");
  res.set("latency_p50_ms", percentile(p50, 0.5), "ms");
  res.set("latency_p99_ms", percentile(p99, 0.5), "ms");
  res.set("peak_rss_mib", peak_rss_mib(), "MiB");
  res.set("sim.trial_us_p50", sim_reg.histogram_quantile("sim.trial_us", 0.5),
          "us");
  res.set("sim.trial_us_p99", sim_reg.histogram_quantile("sim.trial_us", 0.99),
          "us");
  res.set("sim.chunks", static_cast<double>(sim_reg.counter_value("sim.chunks")),
          "count");

  if (args.trace) {
    // One pass over the grid with a span per simulate_run, the trials
    // shared out over the same number of threads.
    struct Job {
      std::size_t point, trial;
    };
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      for (std::size_t t = 0; t < kTrialsPerPoint; ++t) jobs.push_back({i, t});
    }
    std::vector<util::Rng> rngs;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      util::Rng master(point_seed(args.seed, 0, i));
      for (std::size_t t = 0; t < kTrialsPerPoint; ++t) {
        rngs.push_back(master.fork());
      }
    }
    std::atomic<std::size_t> next{0};
    std::vector<SpanLog> logs(kThreads);
    const char* names[] = {"sim.drum_trial", "sim.push_trial",
                           "sim.pull_trial", "sim.zoo_trial"};
    const auto tt0 = Clock::now();
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < kThreads; ++w) {
      pool.emplace_back([&, w] {
        sim::SimScratch scratch;
        for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
          const Job& job = jobs[j];
          Scoped s(&logs[w], names[static_cast<int>(grid[job.point].group)]);
          util::Rng& r = rngs[job.point * kTrialsPerPoint + job.trial];
          (void)sim::simulate_run(grid[job.point].params, r, scratch);
        }
      });
    }
    for (auto& th : pool) th.join();
    const double traced_tps = static_cast<double>(jobs.size()) /
                              seconds_between(tt0, Clock::now());
    std::vector<const SpanLog*> all;
    for (const auto& l : logs) all.push_back(&l);
    auto spans = merge_summaries(all);
    res.set("sim.drum_trial_us", spans["sim.drum_trial"].mean_us(), "us");
    res.set("sim.push_trial_us", spans["sim.push_trial"].mean_us(), "us");
    res.set("sim.pull_trial_us", spans["sim.pull_trial"].mean_us(), "us");
    res.set("sim.zoo_trial_us", spans["sim.zoo_trial"].mean_us(), "us");
    res.set("trace.cpu_overhead_ratio", median_tps / traced_tps, "ratio");
    SpanLog analysis_log;
    (void)coverage_cases(&analysis_log);
    res.set("analysis.coverage_curve_us",
            analysis_log.summary().at("analysis.expected_coverage").mean_us(),
            "us");
    all.push_back(&analysis_log);
    write_spans(".bench_out/spans-" + args.workload + "-seed" +
                    std::to_string(args.seed) + ".jsonl",
                all);
  }
  return res;
}

}  // namespace drumbench
