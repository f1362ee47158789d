// Real-time threaded execution: NodeRunner drives nodes concurrently over
// the (thread-safe) in-memory network and real UDP loopback — the
// multithreaded unsynchronized-rounds deployment of paper §8, in miniature.
#include <gtest/gtest.h>

#include <chrono>

#include "drum/net/mem_transport.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/runtime/runner.hpp"

namespace drum::runtime {
namespace {

using namespace std::chrono_literals;

struct Fleet {
  util::Rng rng{21};
  net::MemNetwork net;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::vector<std::unique_ptr<NodeRunner>> runners;
  std::atomic<int> delivered{0};

  Fleet(std::size_t n, bool udp, std::uint16_t base_port) {
    const std::uint32_t udp_host = net::parse_ipv4("127.0.0.1");
    dir.resize(n);
    for (std::uint32_t id = 0; id < n; ++id) {
      ids.push_back(crypto::Identity::generate(rng));
      dir[id] = {id,
                 udp ? udp_host : id,
                 static_cast<std::uint16_t>(base_port + 2 * id),
                 static_cast<std::uint16_t>(base_port + 2 * id + 1),
                 0,
                 ids[id].sign_public(),
                 ids[id].dh_public(),
                 true};
    }
    for (std::uint32_t id = 0; id < n; ++id) {
      transports.push_back(
          udp ? std::unique_ptr<net::Transport>(
                    std::make_unique<net::UdpTransport>(udp_host))
              : net.transport(id));
      core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
      cfg.wk_pull_port = dir[id].wk_pull_port;
      cfg.wk_offer_port = dir[id].wk_offer_port;
      nodes.push_back(std::make_unique<core::Node>(
          cfg, ids[id], dir, *transports.back(), rng.next(),
          [this](const core::Node::Delivery&) { delivered.fetch_add(1); }));
      RunnerConfig rc;
      rc.round = 60ms;
      runners.push_back(
          std::make_unique<NodeRunner>(*nodes.back(), rc, rng.next()));
    }
  }

  void start() {
    for (auto& r : runners) r->start();
  }
  void stop() {
    for (auto& r : runners) r->stop();
  }
};

// Polls a condition with a deadline (threaded tests must not sleep blindly).
bool eventually(const std::function<bool()>& cond,
                std::chrono::milliseconds deadline) {
  auto end = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < end) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

TEST(Runtime, ConcurrentDisseminationOverMemNetwork) {
  Fleet f(6, false, 9000);
  f.start();
  f.runners[0]->multicast(util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("live"), 4));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 5; }, 5000ms));
  f.stop();
  EXPECT_EQ(f.delivered.load(), 5);
}

TEST(Runtime, ConcurrentDisseminationOverUdp) {
  Fleet f(5, true, 27000);
  f.start();
  f.runners[1]->multicast(util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("udp"), 3));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 4; }, 5000ms));
  f.stop();
}

TEST(Runtime, StopIsIdempotentAndRestartable) {
  Fleet f(4, false, 9100);
  f.start();
  f.stop();
  f.stop();  // no crash, no deadlock
  for (auto& r : f.runners) EXPECT_FALSE(r->running());
  f.start();
  f.runners[0]->multicast(util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("x"), 1));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 5000ms));
  f.stop();
}

// The runner promises one thread total. Its reactor must not inherit the
// ReactorConfig default (shards == 0 resolves to the core count), which
// would start one loop per core, all but one owning no node.
TEST(Runtime, RunnerRunsOneLoopOnAnyCoreCount) {
  Fleet f(2, false, 9250);
  f.start();
  for (auto& r : f.runners) EXPECT_EQ(r->shard_count(), 1u);
  f.stop();
}

TEST(Runtime, WithNodeGivesExclusiveAccess) {
  Fleet f(4, false, 9200);
  f.start();
  f.runners[0]->multicast(util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("y"), 1));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 5000ms));
  std::uint64_t rounds = 0;
  f.runners[2]->with_node(
      [&](core::Node& n) { rounds = n.registry().counter_value("node.rounds"); });
  EXPECT_GE(rounds, 1u);
  f.stop();
}

}  // namespace
}  // namespace drum::runtime
