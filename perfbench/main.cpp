// drumbench entry point.
//
//   drumbench --workload <flood_udp|gossip_mem|sim_targeted> --seed <n>
//             --seconds <s> --trace <0|1> [--scoring <0|1>]
//   drumbench --self-test
//
// Prints diagnostics, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (README.md lists both and what each should move).
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace drumbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"defender_cpu_ms_per_delivered", "ms"},
    {"defender_cpu_us_per_datagram", "us"},
    {"delivered_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"peak_rss_mib", "MiB"},
    {"sim_trials_per_s", "1/s"},
};

constexpr MetricName kPerLayer[] = {
    {"crypto.identity_generate_us", "us"},
    {"crypto.pair_key_us", "us"},
    {"crypto.pair_keys_derived", "count"},
    {"crypto.verify_call_us", "us"},
    {"crypto.verify_us_per_signature", "us"},
    {"crypto.signatures_verified", "count"},
    {"crypto.boxes_checked", "count"},
    {"core.multicast_us", "us"},
    {"core.drain_ingress_us", "us"},
    {"core.datagrams_per_drain", "count"},
    {"core.ingest_us", "us"},
    {"core.on_round_us", "us"},
    {"core.datagrams_read", "count"},
    {"core.flushed_unread", "count"},
    {"core.budget_exhausted", "count"},
    {"core.box_failures", "count"},
    {"core.decode_errors", "count"},
    {"core.duplicates", "count"},
    {"core.delivered_per_verified", "ratio"},
    {"net.udp_kernel_drops", "count"},
    {"net.udp_rx_backlog_bytes_p99", "bytes"},
    {"net.mem_queue_depth_p99", "count"},
    {"runtime.wakeups", "count"},
    {"runtime.posts", "count"},
    {"runtime.timers_fired", "count"},
    {"runtime.poll_us_p50", "us"},
    {"runtime.round_wait_us_p99", "us"},
    {"runtime.timer_slop_us_p99", "us"},
    {"runtime.timer_resyncs", "count"},
    {"runtime.batches", "count"},
    {"runtime.nodes_per_batch", "count"},
    {"runtime.ring_handoffs", "count"},
    {"adversary.sent_per_s", "1/s"},
    {"adversary.lag_ms_p99", "ms"},
    {"load.source_lag_ms_p99", "ms"},
    {"sim.trial_us_p50", "us"},
    {"sim.trial_us_p99", "us"},
    {"sim.chunks", "count"},
    {"sim.drum_trial_us", "us"},
    {"sim.push_trial_us", "us"},
    {"sim.pull_trial_us", "us"},
    {"sim.zoo_trial_us", "us"},
    {"analysis.coverage_curve_us", "us"},
    {"trace.cpu_overhead_ratio", "ratio"},
};

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

template <std::size_t N>
void print_result(const Result& r, const MetricName (&names)[N]) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    // A layer the workload does not exercise reports 0 (README.md).
    double v = 0.0;
    auto it = r.metrics.find(names[i].name);
    if (it != r.metrics.end() && std::isfinite(it->second.value)) {
      v = it->second.value;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ", ";
    out += std::string("\"") + names[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + names[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: drumbench --workload <flood_udp|gossip_mem|"
               "sim_targeted> --seed <n> --seconds <s> --trace <0|1>\n"
               "       drumbench --self-test\n");
  return 2;
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

}  // namespace drumbench

int main(int argc, char** argv) {
  using namespace drumbench;
  if (argc > 1 && std::strcmp(argv[1], "--attacker") == 0) {
    return attacker_main(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "--self-test") == 0) {
    return self_test();
  }
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v);
    } else if (a == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (a == "--scoring") {
      args.scoring = std::atoi(v) != 0;
    } else {
      return usage();
    }
  }
  if (args.seconds < 1) return usage();
  const bool live = args.workload == "flood_udp" || args.workload == "gossip_mem";
  if (!live && args.workload != "sim_targeted") return usage();
  ::mkdir(".bench_out", 0755);

  Result r;
  try {
    r = live ? run_live(args) : run_sim(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drumbench: %s\n", e.what());
    return 1;
  }
  for (const auto& f : r.check_failures) {
    std::printf("# check failed: %s\n", f.c_str());
  }
  for (const auto& [name, m] : r.metrics) {
    std::printf("# %s = %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    print_result(r, kPerLayer);
  } else {
    print_result(r, kEndToEnd);
  }
  return 0;
}
