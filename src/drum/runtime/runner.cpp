#include "drum/runtime/runner.hpp"

namespace drum::runtime {

namespace {
ReactorConfig to_reactor(const RunnerConfig& cfg) {
  ReactorConfig rc;
  rc.round = cfg.round;
  rc.jitter = cfg.jitter;
  rc.shards = 1;   // the single-loop shape, whatever the core count
  rc.workers = 0;  // dispatch inline on the loop thread: one thread total
  rc.instrument = cfg.instrument;
  return rc;
}
}  // namespace

NodeRunner::NodeRunner(core::Node& node, RunnerConfig cfg, std::uint64_t seed)
    : reactor_(to_reactor(cfg)) {
  reactor_.add_node(node, seed);
}

}  // namespace drum::runtime
