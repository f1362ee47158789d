// drumbench — the repository benchmark (see README.md in this directory).
//
// One binary, one workload per invocation. The live workloads (flood_udp,
// gossip_mem) drive core::Node through runtime::ReactorRuntime on
// net::UdpTransport / net::MemNetwork; sim_targeted drives sim::simulate_many.
// Every run checks its outputs (checks.cpp) and reports a flat metric map.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace drum {
namespace adversary {}
namespace analysis {}
namespace core {}
namespace crypto {}
namespace net {}
namespace obs {}
namespace runtime {}
namespace sim {}
namespace util {}
}  // namespace drum

namespace drumbench {

namespace adversary = drum::adversary;
namespace analysis = drum::analysis;
namespace core = drum::core;
namespace crypto = drum::crypto;
namespace net = drum::net;
namespace obs = drum::obs;
namespace runtime = drum::runtime;
namespace sim = drum::sim;
namespace util = drum::util;

using Clock = std::chrono::steady_clock;

/// Steady-clock reading taken during static initialization: the process's
/// start as far as set-up time is concerned.
Clock::time_point process_start();

inline std::int64_t to_us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}
inline std::int64_t now_us() { return to_us(Clock::now()); }
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of this process (all threads).
double process_cpu_s();
/// Peak resident set of this process in MiB (ru_maxrss).
double peak_rss_mib();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the operation counts, the verdict of every
/// output check, and the metric map printed as the final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a check verdict; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Peer scoring on every live node (off in every workload, as in the
  /// paper's Drum; the option exists to reproduce scoring faults).
  bool scoring = false;
};

Result run_live(const RunArgs& args);
Result run_sim(const RunArgs& args);

/// The attacker process for flood_udp (started by run_live via exec of this
/// binary with --attacker). Returns the process exit code.
int attacker_main(int argc, char** argv);

/// Feeds every output check deliberately corrupted inputs and confirms each
/// one rejects them. Returns the process exit code.
int self_test();

/// Sorted-sample percentile with linear interpolation (p in [0, 1]).
double percentile(std::vector<double> xs, double p);

}  // namespace drumbench
