// NodeRunner — single-node compatibility facade over ReactorRuntime.
//
// Historically this was a dedicated thread sleep-polling the node on a
// fixed cadence. It is now a thin shim over a one-node ReactorRuntime with
// workers == 0: one thread total (the event loop), woken by socket readiness
// and the round timer instead of a sleep cadence. The public API and the
// "runner.*" telemetry names are unchanged.
//
// New code hosting more than one node should use ReactorRuntime directly
// (reactor.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "drum/core/node.hpp"
#include "drum/runtime/reactor.hpp"

namespace drum::runtime {

struct RunnerConfig {
  /// Mean local round duration (paper: ~1 s).
  std::chrono::milliseconds round{1000};
  /// Uniform jitter as a fraction of `round` (+/-): keeps rounds
  /// unsynchronized across nodes so an attacker cannot aim at round starts
  /// (paper §4).
  double jitter = 0.2;
  /// Record runner telemetry into the node's metrics registry:
  /// "runner.ticks" / "runner.polls" counters, the "runner.poll_us" poll-
  /// call duration histogram, and "runner.tick_interval_us" — the realized
  /// (jittered) gap between round ticks, whose spread is the evidence that
  /// rounds stay unsynchronized.
  bool instrument = true;
};

class NodeRunner {
 public:
  /// Does not start the thread; call start(). `node` must outlive the
  /// runner.
  NodeRunner(core::Node& node, RunnerConfig cfg, std::uint64_t seed);

  NodeRunner(const NodeRunner&) = delete;
  NodeRunner& operator=(const NodeRunner&) = delete;

  void start() { reactor_.start(); }
  /// Idempotent; blocks until the loop thread has joined.
  void stop() { reactor_.stop(); }
  [[nodiscard]] bool running() const { return reactor_.running(); }
  /// Event loops the runner used (0 before the first start): always 1.
  [[nodiscard]] std::size_t shard_count() const {
    return reactor_.shard_count();
  }

  /// Thread-safe multicast through the node.
  core::MessageId multicast(util::ByteSpan payload) {
    return reactor_.multicast(0, payload);
  }

  /// Runs `fn` with exclusive access to the node (for stats, directory
  /// updates, etc.). Keep it short — it blocks the protocol.
  void with_node(const std::function<void(core::Node&)>& fn) {
    reactor_.with_node(0, fn);
  }

 private:
  ReactorRuntime reactor_;
};

}  // namespace drum::runtime
