// The event-driven runtime seam: EventLoop readiness/timer semantics and
// ReactorRuntime multiplexing many nodes over its event-loop shards
// (DESIGN.md §8, §13).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "drum/net/event_loop.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/check/annotations.hpp"
#include "drum/runtime/reactor.hpp"

namespace drum::runtime {
namespace {

using namespace std::chrono_literals;
using Clock = net::EventLoop::Clock;

bool eventually(const std::function<bool()>& cond,
                std::chrono::milliseconds deadline) {
  auto end = Clock::now() + deadline;
  while (Clock::now() < end) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

/// Runs an EventLoop on its own thread for the test's lifetime.
struct LoopFixture {
  net::EventLoop loop;
  std::thread thread;

  LoopFixture() : thread([this] { loop.run(); }) {}
  ~LoopFixture() {
    loop.stop();
    thread.join();
  }
};

TEST(EventLoop, TimerFiresAtDeadline) {
  LoopFixture f;
  std::atomic<int> fired{0};
  f.loop.add_timer_in(20ms, [&] { fired.fetch_add(1); });
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }, 2000ms));
  // One-shot: it must not fire again.
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(fired.load(), 1);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  LoopFixture f;
  check::Mutex mu;
  std::vector<int> order;
  auto at = Clock::now() + 30ms;
  f.loop.add_timer(at + 20ms, [&] {
    check::MutexLock l(mu);
    order.push_back(3);
  });
  f.loop.add_timer(at, [&] {
    check::MutexLock l(mu);
    order.push_back(1);
  });
  f.loop.add_timer(at + 10ms, [&] {
    check::MutexLock l(mu);
    order.push_back(2);
  });
  EXPECT_TRUE(eventually(
      [&] {
        check::MutexLock l(mu);
        return order.size() == 3;
      },
      2000ms));
  check::MutexLock l(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  LoopFixture f;
  std::atomic<int> fired{0};
  auto id = f.loop.add_timer_in(50ms, [&] { fired.fetch_add(1); });
  f.loop.cancel_timer(id);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fired.load(), 0);
}

TEST(EventLoop, PostRunsOnLoopThread) {
  LoopFixture f;
  std::atomic<bool> ran{false};
  std::thread::id loop_tid;
  f.loop.post([&] {
    loop_tid = std::this_thread::get_id();
    ran.store(true);
  });
  EXPECT_TRUE(eventually([&] { return ran.load(); }, 2000ms));
  EXPECT_EQ(loop_tid, f.thread.get_id());
}

/// Drains every datagram waiting on `sock`, returning how many it read.
int drain_all(net::Socket& sock) {
  net::Datagram batch[16];
  int total = 0;
  for (;;) {
    std::size_t n = sock.recv_batch(batch, 16);
    if (n == 0) return total;
    total += static_cast<int>(n);
  }
}

// Edge-triggered epoll never reports datagrams that arrived before the fd
// was registered; add_socket owes them one catch-up dispatch.
TEST(EventLoop, CatchesUpDatagramsDeliveredBeforeRegistration) {
  net::UdpTransport tr;
  auto rx = tr.bind(0).take();
  auto tx = tr.bind(0).take();
  ASSERT_TRUE(rx && tx);
  util::Bytes msg{42};
  tx->send(rx->local(), util::ByteSpan(msg));  // before add_socket
  std::this_thread::sleep_for(20ms);           // let loopback land it

  LoopFixture f;
  std::atomic<int> drained{0};
  f.loop.add_socket(*rx, [&] { drained.fetch_add(drain_all(*rx)); });
  EXPECT_TRUE(eventually([&] { return drained.load() == 1; }, 2000ms));
}

TEST(EventLoop, UdpSocketReadinessViaEpoll) {
  net::UdpTransport tr;
  auto rx = tr.bind(0).take();
  auto tx = tr.bind(0).take();
  ASSERT_TRUE(rx && tx);

  LoopFixture f;
  std::atomic<int> drained{0};
  f.loop.add_socket(*rx, [&] { drained.fetch_add(drain_all(*rx)); });

  util::Bytes msg{7, 7};
  tx->send(rx->local(), util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return drained.load() == 1; }, 2000ms));
  // Edge-triggered: each new datagram must produce a fresh wakeup.
  tx->send(rx->local(), util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return drained.load() == 2; }, 2000ms));
}

TEST(EventLoop, RemovedSocketStopsDispatching) {
  net::UdpTransport tr;
  auto rx = tr.bind(0).take();
  auto tx = tr.bind(0).take();
  ASSERT_TRUE(rx && tx);

  LoopFixture f;
  std::atomic<int> drained{0};
  auto id = f.loop.add_socket(*rx, [&] { drained.fetch_add(drain_all(*rx)); });
  util::Bytes msg{1};
  tx->send(rx->local(), util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return drained.load() == 1; }, 2000ms));

  // Let the catch-up dispatch that add_socket queued finish: a callback
  // collected before remove_socket() may still run once afterwards.
  std::this_thread::sleep_for(20ms);
  f.loop.remove_socket(id);
  tx->send(rx->local(), util::ByteSpan(msg));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(drained.load(), 1);  // the second datagram stays unread
}

// The tick-drift regression (satellite of DESIGN.md §8): re-arming a
// periodic timer from the *previous deadline* keeps the period exact even
// when every callback burns real time; re-arming from "now" (the old
// sleep-polling runner's behavior) stretches the period by the per-tick
// slop. Ten 30 ms periods with ~10 ms of work per tick: drift-free finishes
// in ~300 ms, the drifting variant needed >= 400 ms.
constexpr int kDriftTicks = 10;
constexpr auto kDriftPeriod = 30ms;

TEST(EventLoop, AbsoluteReArmDoesNotAccumulateDrift) {
  LoopFixture f;
  std::atomic<int> fired{0};
  std::atomic<std::int64_t> done_us{0};
  const auto start = Clock::now();

  struct Chain {
    net::EventLoop* loop;
    Clock::time_point deadline;
    std::atomic<int>* fired;
    std::atomic<std::int64_t>* done_us;
    Clock::time_point start;

    void fire() {
      std::this_thread::sleep_for(10ms);  // simulated round work
      int n = fired->fetch_add(1) + 1;
      if (n < kDriftTicks) {
        deadline += kDriftPeriod;  // from the previous deadline, not now
        loop->add_timer(deadline, [this] { fire(); });
      } else {
        done_us->store(std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start)
                           .count());
      }
    }
  };
  Chain chain{&f.loop, start + kDriftPeriod, &fired, &done_us, start};
  f.loop.add_timer(chain.deadline, [&chain] { chain.fire(); });

  EXPECT_TRUE(
      eventually([&] { return fired.load() == kDriftTicks; }, 5000ms));
  const double elapsed_ms = static_cast<double>(done_us.load()) / 1000.0;
  EXPECT_GE(elapsed_ms, 295.0);  // can't finish before the last deadline
  EXPECT_LT(elapsed_ms, 395.0);  // drifting re-arm needed >= 400 ms
}

/// A reactor-hosted fleet of real nodes.
struct Fleet {
  util::Rng rng{31};
  net::MemNetwork net;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::unique_ptr<ReactorRuntime> reactor;
  std::atomic<int> delivered{0};

  Fleet(std::size_t n, bool udp, std::uint16_t base_port, ReactorConfig rc) {
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
    reactor = std::make_unique<ReactorRuntime>(rc);
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
      reactor->add_node(*nodes.back(), rng.next());
    }
  }
};

ReactorConfig fast_config(std::size_t shards) {
  ReactorConfig rc;
  rc.round = 60ms;
  rc.shards = shards;
  return rc;
}

util::ByteSpan text(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

// The runtime's one shape at three sizes: one shard hosting every node, two
// shards (node ids alternate shards, so most gossip crosses the SPSC
// handoff), and the default auto count (one shard per core).
class ReactorFleet : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] ReactorConfig config() const { return fast_config(GetParam()); }
  /// Distinct UDP port ranges per shape: ctest runs the cases concurrently.
  [[nodiscard]] std::uint16_t udp_base(std::uint16_t base) const {
    return static_cast<std::uint16_t>(base + 20 * GetParam());
  }
};

TEST_P(ReactorFleet, DisseminationOverMemNetwork) {
  Fleet f(6, false, 9300, config());
  f.reactor->start();
  f.reactor->multicast(0, text("live"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 5; }, 5000ms));
  f.reactor->stop();
  EXPECT_EQ(f.delivered.load(), 5);
}

TEST_P(ReactorFleet, DisseminationOverUdp) {
  Fleet f(5, true, udp_base(28000), config());
  f.reactor->start();
  f.reactor->multicast(1, text("udp"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 4; }, 5000ms));
  f.reactor->stop();
}

TEST_P(ReactorFleet, StopDetachesAndRestartWorks) {
  Fleet f(4, false, 9500, config());
  f.reactor->start();
  f.reactor->stop();
  f.reactor->stop();  // idempotent
  EXPECT_FALSE(f.reactor->running());
  f.reactor->start();  // rebuilds the shard set + handoff mesh
  f.reactor->multicast(0, text("x"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 5000ms));
  f.reactor->stop();
}

TEST_P(ReactorFleet, TelemetryMergedIntoLoopRegistry) {
  Fleet f(6, false, 8800, config());
  f.reactor->start();
  f.reactor->multicast(0, text("m"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 5; }, 5000ms));
  f.reactor->stop();

  // stop() folds each shard's registry into loop_registry(), so the merged
  // view carries both the per-shard loop counters and the handoff
  // telemetry. Every drain runs as part of a batch.
  const auto& reg = f.reactor->loop_registry();
  const auto shards = f.reactor->shard_count();
  EXPECT_EQ(reg.gauge_value("reactor.shards"), static_cast<double>(shards));
  EXPECT_GT(reg.counter_value("loop.wakeups"), 0u);
  EXPECT_GT(reg.counter_value("loop.timers_fired"), 0u);
  EXPECT_GT(reg.histogram_count("loop.timer_slop_us"), 0u);
  EXPECT_GT(reg.counter_value("reactor.shard.batches"), 0u);
  if (shards >= 2) {
    // Node 0's gossip cannot reach the odd-id shard without at least one
    // cross-shard ring handoff.
    EXPECT_GT(reg.counter_value("reactor.shard.ring_handoffs"), 0u);
  } else {
    EXPECT_EQ(reg.counter_value("reactor.shard.ring_handoffs"), 0u);
  }
}

// Test names carry the shard count: .../1, .../2, and .../0 for auto.
INSTANTIATE_TEST_SUITE_P(
    Shards, ReactorFleet, ::testing::Values(1, 2, 0),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::to_string(info.param);
    });

TEST(Reactor, ShardedDisseminationOverMemNetwork) {
  // 5 nodes over 2 shards: node ids alternate shards (id % 2), so the
  // source's gossip partners mostly live on the other shard and every
  // delivery exercises the SPSC handoff path.
  Fleet f(5, false, 8600, fast_config(2));
  f.reactor->start();
  f.reactor->multicast(0, text("shrd"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 4; }, 5000ms));
  f.reactor->stop();
  EXPECT_EQ(f.delivered.load(), 4);
}

TEST(Reactor, RoundTicksTrackConfiguredRoundWithoutDrift) {
  ReactorConfig rc;
  rc.round = 50ms;
  rc.jitter = 0.0;  // deterministic period: interval spread is pure slop
  rc.shards = 1;
  Fleet f(4, false, 9600, rc);
  f.reactor->start();
  std::this_thread::sleep_for(1050ms);
  f.reactor->stop();

  const auto& reg = f.nodes[0]->registry();
  const auto ticks = reg.counter_value("runner.ticks");
  // Drift-free absolute deadlines: ~20 ticks of 50 ms in 1.05 s. The old
  // sleep-polling runner re-armed from now(), losing its poll interval each
  // tick; heavy load can still delay the loop, so the lower bound is loose.
  EXPECT_GE(ticks, 15u);
  EXPECT_LE(ticks, 22u);
  const double mean_us = reg.histogram_mean("runner.tick_interval_us");
  EXPECT_GE(mean_us, 47'000.0);
  EXPECT_LT(mean_us, 60'000.0);
  // Dispatch latency was recorded for every tick.
  EXPECT_EQ(reg.histogram_count("reactor.dispatch_us"), ticks);
}

TEST(Reactor, RegistryCountersReflectProgress) {
  Fleet f(4, false, 9700, fast_config(1));
  f.reactor->start();
  f.reactor->multicast(0, text("s"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 5000ms));
  f.reactor->stop();

  // Deliveries are readiness-driven, so they can all land before any round
  // ticks — only the delivered totals are guaranteed here.
  std::uint64_t delivered = 0;
  for (const auto& node : f.nodes) {
    delivered += node->registry().counter_value("node.delivered");
  }
  EXPECT_GE(delivered, 3u);
}

TEST(Reactor, ShardCountResolution) {
  // shards == 1 is one shard.
  Fleet one(2, false, 8300, fast_config(1));
  one.reactor->start();
  EXPECT_EQ(one.reactor->shard_count(), 1u);
  one.reactor->stop();

  // shards == 0 auto-resolves to the core count (>= 1 on any host).
  Fleet an(2, false, 8400, fast_config(0));
  an.reactor->start();
  EXPECT_GE(an.reactor->shard_count(), 1u);
  an.reactor->stop();

  // An explicit count is honored even above the core count (this host may
  // have a single CPU; the multi-shard path must still be exercisable).
  Fleet two(4, false, 8500, fast_config(2));
  two.reactor->start();
  EXPECT_EQ(two.reactor->shard_count(), 2u);
  two.reactor->stop();
}

}  // namespace
}  // namespace drum::runtime
