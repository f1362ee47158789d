// The live workloads: flood_udp and gossip_mem.
//
// A group of core::Node instances runs on runtime::ReactorRuntime, pinned to
// a fixed shard count. The source (node 0) multicasts on a fixed schedule
// (open loop); for flood_udp an attacker in a child process floods the
// victims' well-known ports on its own schedule. Latency counts from each
// multicast's due time. After the window the source stops, the group drains,
// and the checks in checks.hpp run over everything that was delivered.
//
// The traced run (--trace 1) repeats the same inputs without the reactor:
// one benchmark thread per shard calls the nodes' public entry points
// (drain_ingress, IngressBatch::verify, ingest, on_round, multicast) and
// records a span around each call (trace.hpp).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "drum/adversary/adversary.hpp"
#include "drum/core/message.hpp"
#include "drum/core/node.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/runtime/reactor.hpp"
#include "drum/sim/engine.hpp"
#include "trace.hpp"

extern char** environ;

namespace drumbench {

namespace {

/// The make-up of one live workload (README.md, "Workloads").
struct LiveSpec {
  bool udp = false;
  std::size_t n = 0;
  std::size_t shards = 2;
  int round_ms = 200;
  std::size_t rate = 10;  ///< source multicasts per round
  double alpha = 0.0;     ///< attacked fraction of the group, source included
  double x = 0.0;         ///< fabricated datagrams per victim per round
  std::size_t bursts = 20;
  int warmup_rounds = 0;
  int drain_rounds = 15;
  std::size_t payload = 64;
  bool scoring = false;
};

LiveSpec spec_for(const RunArgs& args) {
  const std::string& workload = args.workload;
  LiveSpec s;
  s.scoring = args.scoring;
  if (workload == "flood_udp") {
    s.udp = true;
    s.n = 128;
    s.round_ms = 400;
    s.rate = 10;
    s.alpha = 0.1;
    s.x = 2048;
    s.warmup_rounds = 2;
    s.drain_rounds = 12;
  } else {
    s.n = 256;
    s.round_ms = 200;
    s.rate = 10;
  }
  return s;
}

constexpr std::uint16_t kFirstBasePort = 24000;
constexpr int kBasePortAttempts = 8;
/// Smallest kernel accounting size of one queued loopback datagram; turns
/// the rx_queue byte count into an upper bound on queued datagrams.
constexpr std::uint64_t kMinSkbTruesize = 256;

std::size_t victims(const LiveSpec& sp) {
  return static_cast<std::size_t>(sp.alpha * static_cast<double>(sp.n) + 0.5);
}

// ---- delivery sink --------------------------------------------------------

struct Rec {
  std::uint32_t seq = 0;
  std::uint32_t hops = 0;
  std::int64_t at_us = 0;
};

/// Per-node delivery log. A node's delivery callback is serialized with
/// every other entry into that node, so each log has one writer at a time.
struct NodeLog {
  std::vector<std::uint8_t> seen;
  std::vector<Rec> recs;
  std::uint64_t bad_payload = 0;
  std::uint64_t duplicates = 0;
};

struct Sink {
  const std::vector<util::Bytes>* expected = nullptr;
  std::vector<NodeLog> logs;
  /// Traced run: the span log of each node's driving thread.
  std::vector<SpanLog*> span_of;
  std::atomic<std::uint64_t> delivered{0};

  Sink(const std::vector<util::Bytes>& exp, std::size_t n)
      : expected(&exp), logs(n), span_of(n, nullptr) {
    for (auto& l : logs) {
      l.seen.assign(exp.size(), 0);
      l.recs.reserve(exp.size());
    }
  }

  void on_delivery(std::uint32_t node, const core::Node::Delivery& d) {
    const std::int64_t at = now_us();
    NodeLog& log = logs[node];
    const std::int64_t seq =
        checks::payload_seq(util::ByteSpan(d.msg.payload), *expected);
    if (seq < 0) {
      ++log.bad_payload;
      return;
    }
    const auto s = static_cast<std::uint32_t>(seq);
    if (!checks::first_delivery(log.seen, s)) {
      ++log.duplicates;
      return;
    }
    log.recs.push_back(Rec{s, d.hops, at});
    delivered.fetch_add(1, std::memory_order_relaxed);
    if (span_of[node]) span_of[node]->event("deliver", seq);
  }
};

// ---- group construction ---------------------------------------------------

struct Group {
  std::unique_ptr<net::MemNetwork> mem;
  obs::MetricsRegistry mem_registry;
  std::vector<core::Peer> dir;
  std::vector<core::NodeConfig> cfgs;
  /// Traced UDP run: one registry per node's transport, written only by the
  /// thread that drives that node.
  std::vector<obs::MetricsRegistry> udp_regs;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::vector<std::uint64_t> tick_seeds;
  std::uint16_t base_port = 0;
};

/// Builds the group from `seed`: identities, directory, nodes bound to their
/// ports, pair keys prewarmed. The same seed gives the same group.
std::unique_ptr<Group> build_group(const LiveSpec& sp, std::uint64_t seed,
                                   Sink& sink, SpanLog* setup_log,
                                   bool net_registries) {
  auto g = std::make_unique<Group>();
  util::Rng rng(seed);
  if (!sp.udp) {
    net::MemNetwork::Options opts;
    opts.seed = rng.next();
    opts.latency_us = 0;
    g->mem = std::make_unique<net::MemNetwork>(opts);
    if (net_registries) g->mem->set_registry(&g->mem_registry);
  }
  std::vector<crypto::Identity> ids;
  ids.reserve(sp.n);
  for (std::size_t i = 0; i < sp.n; ++i) {
    Scoped s(setup_log, "crypto.identity_generate");
    ids.push_back(crypto::Identity::generate(rng));
  }
  std::vector<std::uint64_t> node_seeds(sp.n);
  for (auto& v : node_seeds) v = rng.next();
  g->tick_seeds.resize(sp.n);
  for (auto& v : g->tick_seeds) v = rng.next();

  const std::uint32_t loopback = net::parse_ipv4("127.0.0.1");
  for (int attempt = 0; attempt < kBasePortAttempts; ++attempt) {
    g->base_port =
        static_cast<std::uint16_t>(kFirstBasePort + attempt * 3 * 256);
    g->dir.assign(sp.n, core::Peer{});
    for (std::uint32_t id = 0; id < sp.n; ++id) {
      core::Peer& p = g->dir[id];
      p.id = id;
      p.host = sp.udp ? loopback : id;
      p.wk_pull_port = static_cast<std::uint16_t>(g->base_port + 3 * id);
      p.wk_offer_port = static_cast<std::uint16_t>(g->base_port + 3 * id + 1);
      p.wk_pull_reply_port =
          static_cast<std::uint16_t>(g->base_port + 3 * id + 2);
      p.sign_pub = ids[id].sign_public();
      p.dh_pub = ids[id].dh_public();
    }
    auto shared = std::make_shared<const std::vector<core::Peer>>(g->dir);
    g->nodes.clear();
    g->transports.clear();
    g->cfgs.clear();
    g->udp_regs.clear();
    g->udp_regs.resize(net_registries && sp.udp ? sp.n : 0);
    try {
      for (std::uint32_t id = 0; id < sp.n; ++id) {
        if (sp.udp) {
          auto t = std::make_unique<net::UdpTransport>(loopback);
          if (net_registries) t->set_registry(&g->udp_regs[id]);
          g->transports.push_back(std::move(t));
        } else {
          g->transports.push_back(g->mem->transport(id));
        }
        core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
        cfg.wk_pull_port = g->dir[id].wk_pull_port;
        cfg.wk_offer_port = g->dir[id].wk_offer_port;
        cfg.wk_pull_reply_port = g->dir[id].wk_pull_reply_port;
        cfg.scoring.enabled = sp.scoring;
        g->cfgs.push_back(cfg);
        g->nodes.push_back(std::make_unique<core::Node>(
            cfg, ids[id], shared, *g->transports.back(), node_seeds[id],
            [&sink, id](const core::Node::Delivery& d) {
              sink.on_delivery(id, d);
            }));
      }
    } catch (const std::exception&) {
      if (!sp.udp) throw;
      continue;  // a well-known port was taken: try the next range
    }
    for (auto& node : g->nodes) {
      Scoped s(setup_log, "crypto.prewarm_pair_keys");
      node->prewarm_pair_keys();
    }
    return g;
  }
  throw std::runtime_error("no free well-known port range for the group");
}

std::uint64_t disposed(const obs::MetricsRegistry& r) {
  return r.counter_value("node.datagrams_read") +
         r.counter_value("node.flushed_unread") +
         r.counter_value("score.greylist_drops");
}

// ---- helper processes -------------------------------------------------------

/// A process started from this binary (--attacker). It works until its stdin
/// reaches EOF, then prints "key value" pairs and exits, so that neither its
/// CPU nor its memory is billed to the defender.
class Helper {
 public:
  explicit Helper(const std::vector<std::string>& args) {
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    if (::pipe2(out, O_CLOEXEC) != 0) {
      ::close(in[0]);
      ::close(in[1]);
      throw std::runtime_error("pipe failed");
    }
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    const int rc = posix_spawn(&pid_, "/proc/self/exe", &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      finish();
      throw std::runtime_error("cannot start " + args[1]);
    }
  }
  ~Helper() { finish(); }
  Helper(const Helper&) = delete;
  Helper& operator=(const Helper&) = delete;

  /// Tells the helper to stop, waits until it has exited, and returns its
  /// report; empty when it did not exit cleanly.
  std::map<std::string, double> finish() {
    if (to_child_ >= 0) {
      ::close(to_child_);
      to_child_ = -1;
    }
    std::string text;
    if (from_child_ >= 0) {
      char buf[512];
      ssize_t got = 0;
      while ((got = ::read(from_child_, buf, sizeof buf)) > 0) {
        text.append(buf, static_cast<std::size_t>(got));
      }
      ::close(from_child_);
      from_child_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        std::istringstream in(text);
        std::string key;
        double v = 0.0;
        while (in >> key >> v) report_[key] = v;
      }
    }
    return report_;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::map<std::string, double> report_;
};

std::unique_ptr<Helper> start_attacker(const LiveSpec& sp,
                                       std::uint16_t base_port,
                                       std::uint64_t seed) {
  return std::make_unique<Helper>(std::vector<std::string>{
      "drumbench", "--attacker", "--n", std::to_string(sp.n), "--victims",
      std::to_string(victims(sp)), "--x",
      std::to_string(static_cast<long long>(sp.x)), "--round-ms",
      std::to_string(sp.round_ms), "--bursts", std::to_string(sp.bursts),
      "--base-port", std::to_string(base_port), "--seed",
      std::to_string(seed)});
}

/// The simulator's propagation for the live group's n, alpha, x and F: the
/// computation the measured hop counts are checked against.
sim::SimParams oracle_params(std::size_t n, double alpha, double x) {
  sim::SimParams s;
  s.protocol = sim::SimProtocol::kDrum;
  s.n = n;
  s.fanout = 4;
  s.loss = 0.0;
  s.malicious_fraction = 0.0;
  s.alpha = alpha;
  s.x = x;
  return s;
}

/// The oracle runs after the live run has stopped, on kOracleThreads
/// threads, in chunks of kOracleChunk trials for at least kOracleSeconds.
/// Its speed is the live workload's sim_trials_per_s.
constexpr std::size_t kOracleThreads = 2;
constexpr std::size_t kOracleChunk = 100;
constexpr std::size_t kOracleMinTrials = 400;
constexpr double kOracleSeconds = 6.0;

// ---- /proc/self/net/udp -----------------------------------------------------

struct UdpSockStats {
  std::uint64_t drops = 0;
  std::uint64_t rx_queue_bytes = 0;
};

/// Sums the kernel drop counters and queued bytes of the loopback UDP
/// sockets bound to ports in `ports`.
UdpSockStats udp_sock_stats(const std::set<std::uint16_t>& ports) {
  UdpSockStats out;
  std::ifstream f("/proc/self/net/udp");
  std::string line;
  std::getline(f, line);  // header
  while (std::getline(f, line)) {
    std::istringstream in(line);
    std::string sl, local, remote, st, queues, tr, retr, uid, timeout, inode,
        ref, ptr;
    std::uint64_t drops = 0;
    if (!(in >> sl >> local >> remote >> st >> queues >> tr >> retr >> uid >>
          timeout >> inode >> ref >> ptr >> drops)) {
      continue;
    }
    const auto colon = local.find(':');
    if (colon == std::string::npos) continue;
    const auto port = static_cast<std::uint16_t>(
        std::stoul(local.substr(colon + 1), nullptr, 16));
    if (!ports.count(port)) continue;
    out.drops += drops;
    const auto qc = queues.find(':');
    if (qc != std::string::npos) {
      out.rx_queue_bytes += std::stoull(queues.substr(qc + 1), nullptr, 16);
    }
  }
  return out;
}

std::set<std::uint16_t> wk_ports(const Group& g, std::size_t first,
                                 std::size_t last) {
  std::set<std::uint16_t> ports;
  for (std::size_t id = first; id < last; ++id) {
    ports.insert(g.dir[id].wk_pull_port);
    ports.insert(g.dir[id].wk_offer_port);
  }
  return ports;
}

// ---- evaluation -----------------------------------------------------------

/// The measurement window is cut into this many equal sub-windows by
/// message sequence number; each end-to-end figure is the median of its
/// per-sub-window values, so one burst of outside load moves one sample.
constexpr std::size_t kSubWindows = 6;

std::size_t sub_of(std::size_t seq, std::size_t k) {
  return seq * kSubWindows / k;
}

/// What the delivery logs say about one run (measured or traced).
struct Outcome {
  std::uint64_t failed = 0;  ///< window messages some correct node missed
  std::uint64_t delivered = 0;
  std::vector<double> latency_ms;
  /// Per sub-window: deliveries of its messages, latencies of its messages,
  /// and delivery times (µs) of every delivery, for the time-based count.
  std::vector<std::uint64_t> sub_delivered =
      std::vector<std::uint64_t>(kSubWindows, 0);
  std::vector<std::vector<double>> sub_latency_ms =
      std::vector<std::vector<double>>(kSubWindows);
  std::vector<std::int64_t> delivered_at_us;
  double mean_hops_99 = -1.0;
};

Outcome evaluate(const LiveSpec& sp, const Group& g, const Sink& sink,
                 const std::vector<std::int64_t>& due_us, Result& res) {
  Outcome o;
  const std::size_t k = due_us.size();
  std::uint64_t bad = 0;
  std::uint64_t dups = 0;
  std::vector<std::vector<std::uint32_t>> hops(k);
  for (std::size_t id = 1; id < sp.n; ++id) {
    const NodeLog& log = sink.logs[id];
    bad += log.bad_payload;
    dups += log.duplicates;
    for (const Rec& r : log.recs) {
      ++o.delivered;
      const double lat = static_cast<double>(r.at_us - due_us[r.seq]) * 1e-3;
      o.latency_ms.push_back(lat);
      const std::size_t sub = sub_of(r.seq, k);
      ++o.sub_delivered[sub];
      o.sub_latency_ms[sub].push_back(lat);
      o.delivered_at_us.push_back(r.at_us);
      hops[r.seq].push_back(r.hops);
    }
  }
  res.check(bad == 0, "payloads differ from the source's bytes: " +
                          std::to_string(bad));
  res.check(dups == 0, "duplicate deliveries: " + std::to_string(dups));
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t s = 0; s < k; ++s) {
    if (hops[s].size() < sp.n - 1) ++o.failed;
    const double h = checks::hops_at_coverage(hops[s], sp.n - 1, 0.99);
    if (h >= 0) {
      sum += h;
      ++counted;
    }
  }
  if (counted > 0) o.mean_hops_99 = sum / static_cast<double>(counted);
  for (std::size_t id = 0; id < sp.n; ++id) {
    const std::string v =
        checks::budget_violation(g.nodes[id]->registry(), g.cfgs[id]);
    res.check(v.empty(), "node " + std::to_string(id) + ": " + v);
  }
  return o;
}

// ---- the traced loop ------------------------------------------------------

struct TracedShared {
  const LiveSpec* sp = nullptr;
  Group* g = nullptr;
  const std::vector<util::Bytes>* payloads = nullptr;
  const std::vector<std::int64_t>* due_us = nullptr;
  std::atomic<bool> stop{false};
  std::vector<double> source_lag_ms;  ///< written by node 0's thread only
  std::uint64_t signatures = 0;       ///< summed after join
  std::uint64_t boxes = 0;
};

void traced_thread(TracedShared& sh, std::size_t t, std::size_t threads,
                   SpanLog& log, std::uint64_t* sigs_out,
                   std::uint64_t* boxes_out) {
  const LiveSpec& sp = *sh.sp;
  Group& g = *sh.g;
  const auto round = std::chrono::milliseconds(sp.round_ms);
  std::vector<std::size_t> owned;
  for (std::size_t id = t; id < sp.n; id += threads) owned.push_back(id);
  std::vector<util::Rng> jitter;
  std::vector<Clock::time_point> next_round;
  const auto start = Clock::now();
  auto jittered = [&](util::Rng& r) {
    const double f = 1.0 + 0.2 * (2.0 * r.uniform() - 1.0);
    return std::chrono::duration_cast<Clock::duration>(round * f);
  };
  for (std::size_t id : owned) {
    jitter.emplace_back(g.tick_seeds[id]);
    next_round.push_back(start + jittered(jitter.back()));
  }
  core::ingress::IngressBatch batch;
  std::size_t next_msg = 0;
  const bool source_thread = t == 0;
  std::uint64_t sigs = 0;
  std::uint64_t boxes = 0;
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const auto cycle_start = Clock::now();
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (cycle_start < next_round[i]) continue;
      {
        Scoped s(&log, "core.on_round");
        g.nodes[owned[i]]->on_round();
      }
      next_round[i] += jittered(jitter[i]);
      if (next_round[i] + round < cycle_start) {
        next_round[i] = cycle_start + jittered(jitter[i]);
      }
    }
    if (source_thread) {
      while (next_msg < sh.due_us->size() &&
             now_us() >= (*sh.due_us)[next_msg]) {
        const std::int64_t lag = now_us() - (*sh.due_us)[next_msg];
        sh.source_lag_ms.push_back(static_cast<double>(lag) * 1e-3);
        Scoped s(&log, "core.multicast", static_cast<std::int64_t>(next_msg));
        g.nodes[0]->multicast(util::ByteSpan((*sh.payloads)[next_msg]));
        ++next_msg;
      }
    }
    {
      Scoped cycle(&log, "runtime.cycle");
      for (std::size_t id : owned) {
        Scoped s(&log, "core.drain_ingress");
        g.nodes[id]->drain_ingress(batch);
      }
      if (!batch.empty()) {
        for (const auto& sec : batch.sections()) {
          for (const auto& f : sec.frames) {
            if (!f.boxed_port.empty()) ++boxes;
            for (const auto& c : f.candidates) {
              if (c.needs_verify) ++sigs;
            }
          }
        }
        {
          Scoped s(&log, "crypto.verify");
          batch.verify();
        }
        for (auto& sec : batch.sections()) {
          Scoped s(&log, "core.ingest");
          sec.node->ingest(sec.frames);
        }
      }
      batch.clear();
    }
    std::this_thread::sleep_until(cycle_start + std::chrono::milliseconds(1));
  }
  *sigs_out = sigs;
  *boxes_out = boxes;
}

// ---- shared schedule ------------------------------------------------------

struct Schedule {
  std::vector<util::Bytes> payloads;
  std::vector<std::int64_t> due_us;
  Clock::duration interval{};
};

Schedule make_schedule(const LiveSpec& sp, std::uint64_t seed, int seconds) {
  Schedule s;
  const std::size_t rounds = static_cast<std::size_t>(seconds) * 1000 /
                             static_cast<std::size_t>(sp.round_ms);
  const std::size_t k = std::max<std::size_t>(1, rounds * sp.rate);
  for (std::size_t i = 0; i < k; ++i) {
    s.payloads.push_back(
        checks::make_payload(seed, static_cast<std::uint32_t>(i), sp.payload));
  }
  s.interval = std::chrono::duration_cast<Clock::duration>(
                   std::chrono::milliseconds(sp.round_ms)) /
               static_cast<std::int64_t>(sp.rate);
  s.due_us.resize(k);
  return s;
}

void fill_due(Schedule& s, Clock::time_point t0) {
  for (std::size_t i = 0; i < s.due_us.size(); ++i) {
    s.due_us[i] = to_us(t0 + s.interval * static_cast<std::int64_t>(i));
  }
}

/// Waits until every window message reached every correct node, or the
/// drain period after `from` ends.
void drain(const LiveSpec& sp, const Sink& sink, std::size_t k,
           Clock::time_point from) {
  const std::uint64_t want = static_cast<std::uint64_t>(k) * (sp.n - 1);
  const auto limit = from + std::chrono::milliseconds(sp.round_ms) *
                                sp.drain_rounds;
  while (Clock::now() < limit &&
         sink.delivered.load(std::memory_order_relaxed) < want) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

double p99_of(std::vector<double> v) { return percentile(std::move(v), 0.99); }

// ---- the measured run -----------------------------------------------------

struct Measured {
  double cpu_ms_per_delivered = 0.0;
};

Measured measured_run(const LiveSpec& sp, const RunArgs& args, Result& res) {
  Schedule sched = make_schedule(sp, args.seed, args.seconds);
  const std::size_t k = sched.payloads.size();
  Sink sink(sched.payloads, sp.n);
  auto g = build_group(sp, args.seed, sink, nullptr, false);

  runtime::ReactorConfig rc;
  rc.round = std::chrono::milliseconds(sp.round_ms);
  rc.jitter = 0.2;
  rc.shards = sp.shards;
  rc.instrument = true;
  runtime::ReactorRuntime rt(rc);
  for (std::size_t id = 0; id < sp.n; ++id) {
    rt.add_node(*g->nodes[id], g->tick_seeds[id]);
  }
  rt.start();
  std::unique_ptr<Helper> attacker;
  if (sp.x > 0) attacker = start_attacker(sp, g->base_port, args.seed);
  std::this_thread::sleep_for(std::chrono::milliseconds(sp.round_ms) *
                              sp.warmup_rounds);

  auto snapshot = [&] {
    std::uint64_t total = 0;
    for (std::size_t id = 0; id < sp.n; ++id) {
      rt.with_node(id, [&](core::Node& n) { total += disposed(n.registry()); });
    }
    return total;
  };
  // A mark at the start of every sub-window and at the window's end.
  struct Mark {
    Clock::time_point t;
    double cpu_s = 0.0;
    std::uint64_t disposed = 0;
  };
  std::vector<Mark> marks;
  const std::uint64_t disposed0 = snapshot();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  marks.push_back(Mark{t0, cpu0, disposed0});
  fill_due(sched, t0);
  res.set("setup_s", seconds_between(process_start(), t0), "s");

  std::vector<double> source_lag_ms;
  for (std::size_t i = 0; i < k; ++i) {
    const auto due = t0 + sched.interval * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(due);
    if (i > 0 && sub_of(i, k) != sub_of(i - 1, k)) {
      const double cpu = process_cpu_s();
      marks.push_back(Mark{Clock::now(), cpu, snapshot()});
    }
    source_lag_ms.push_back(static_cast<double>(now_us() - sched.due_us[i]) *
                            1e-3);
    rt.multicast(0, util::ByteSpan(sched.payloads[i]));
  }
  const auto window_end = t0 + std::chrono::seconds(args.seconds);
  std::this_thread::sleep_until(window_end);
  const double cpu1 = process_cpu_s();
  const auto t1 = Clock::now();
  marks.push_back(Mark{t1, cpu1, snapshot()});

  drain(sp, sink, k, t1);
  std::map<std::string, double> att;
  if (attacker) {
    att = attacker->finish();
    res.check(att.count("elapsed_s") > 0, "attacker process did not report");
    // One more round so every victim flushes what the flood left queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(sp.round_ms) * 3 /
                                2);
  }
  rt.stop();

  const Outcome o = evaluate(sp, *g, sink, sched.due_us, res);
  res.attempted = k;
  res.failed = o.failed;

  obs::MetricsRegistry merged;
  for (const auto& n : g->nodes) merged.merge(n->registry());
  // Every group member is correct, so any greylist entry is a false
  // positive (only possible with --scoring 1; scoring is off by default).
  std::uint64_t grey_entries = 0;
  std::uint64_t grey_at_end = 0;
  for (const auto& n : g->nodes) {
    grey_entries += n->score_table().greylist_entries();
    grey_at_end += n->score_table().currently_greylisted();
  }
  res.check(grey_entries == 0,
            "correct peers greylisted: " + std::to_string(grey_entries) +
                " entries, " + std::to_string(grey_at_end) +
                " (node, peer) pairs at the end");
  if (sp.scoring) {
    res.set("score.greylist_entries", static_cast<double>(grey_entries),
            "count");
    res.set("score.greylisted_at_end", static_cast<double>(grey_at_end),
            "count");
  }
  if (attacker) {
    // Every attack datagram is accounted for at the victims' well-known
    // ports: read, flushed, dropped by the kernel, or still queued.
    const std::size_t nv = victims(sp);
    obs::MetricsRegistry vict;
    for (std::size_t id = 0; id < nv; ++id) vict.merge(g->nodes[id]->registry());
    const UdpSockStats ks = udp_sock_stats(wk_ports(*g, 0, nv));
    const std::uint64_t disposed_wk =
        vict.counter_value("chan.offer.read") +
        vict.counter_value("chan.offer.flushed_unread") +
        vict.counter_value("chan.pull_req.read") +
        vict.counter_value("chan.pull_req.flushed_unread") +
        vict.counter_value("score.greylist_drops") + ks.drops;
    const std::uint64_t legit_upper = merged.counter_value("runner.ticks") * 4;
    const auto sent = static_cast<std::uint64_t>(att["sent"]);
    const double elapsed = std::max(att["elapsed_s"], 1e-9);
    res.check(checks::attack_accounted(sent, disposed_wk,
                                       ks.rx_queue_bytes / kMinSkbTruesize,
                                       legit_upper),
              "attack datagrams unaccounted: sent " + std::to_string(sent) +
                  ", disposed " + std::to_string(disposed_wk));
    res.set("adversary.sent_per_s", static_cast<double>(sent) / elapsed, "1/s");
    res.set("adversary.lag_ms_p99", att["lag_p99_ms"], "ms");
    // Reported beside the results: what an in-process attacker would have
    // added to the defender's CPU over the same window.
    res.set("adversary.cpu_s_per_s", att["cpu_s"] / elapsed, "1/s");
    res.set("defender.cpu_s_per_s", (cpu1 - cpu0) / seconds_between(t0, t1),
            "1/s");
  }
  res.set("load.source_lag_ms_p99", p99_of(source_lag_ms), "ms");

  res.set("peak_rss_mib", peak_rss_mib(), "MiB");

  // Propagation in rounds against the simulator at the same n, alpha, x, F.
  obs::MetricsRegistry sim_reg;
  sim::SimOptions so;
  so.threads = kOracleThreads;
  so.metrics = &sim_reg;
  sim::AggregateResult agg;
  const auto s0 = Clock::now();
  for (std::uint64_t c = 0;
       agg.rounds_to_target.count() < kOracleMinTrials ||
       seconds_between(s0, Clock::now()) < kOracleSeconds;
       ++c) {
    agg.merge(sim::simulate_many(oracle_params(sp.n, sp.alpha, sp.x),
                                 kOracleChunk, args.seed * 1000003ull + c, so));
  }
  const double sim_tps = static_cast<double>(agg.rounds_to_target.count()) /
                         seconds_between(s0, Clock::now());
  const double sim_rounds = agg.rounds_to_target.mean();
  res.check(checks::propagation_agrees(o.mean_hops_99, sim_rounds),
            "propagation " + std::to_string(o.mean_hops_99) +
                " rounds vs simulator " + std::to_string(sim_rounds));
  res.check(agg.unreached_runs == 0, "simulator oracle missed its target");
  res.set("sim.trial_us_p50", sim_reg.histogram_quantile("sim.trial_us", 0.5),
          "us");
  res.set("sim.trial_us_p99", sim_reg.histogram_quantile("sim.trial_us", 0.99),
          "us");
  res.set("sim.chunks", static_cast<double>(sim_reg.counter_value("sim.chunks")),
          "count");

  // End-to-end figures: the median over sub-windows of each one's value.
  std::vector<double> cpu_per_delivered, cpu_per_datagram, rate, p50;
  for (std::size_t j = 0; j + 1 < marks.size() && j < kSubWindows; ++j) {
    const Mark& a = marks[j];
    const Mark& b = marks[j + 1];
    const double cpu_ms = (b.cpu_s - a.cpu_s) * 1e3;
    cpu_per_delivered.push_back(
        cpu_ms / static_cast<double>(
                     std::max<std::uint64_t>(1, o.sub_delivered[j])));
    cpu_per_datagram.push_back(
        cpu_ms * 1e3 /
        static_cast<double>(std::max<std::uint64_t>(1, b.disposed - a.disposed)));
    const std::int64_t from = to_us(a.t);
    const std::int64_t to = to_us(b.t);
    const auto in_sub = std::count_if(
        o.delivered_at_us.begin(), o.delivered_at_us.end(),
        [&](std::int64_t at) { return at >= from && at < to; });
    rate.push_back(static_cast<double>(in_sub) / seconds_between(a.t, b.t));
    p50.push_back(percentile(o.sub_latency_ms[j], 0.50));
  }
  Measured m;
  m.cpu_ms_per_delivered =
      (cpu1 - cpu0) * 1e3 /
      static_cast<double>(std::max<std::uint64_t>(1, o.delivered));
  res.set("defender_cpu_ms_per_delivered", percentile(cpu_per_delivered, 0.5),
          "ms");
  res.set("defender_cpu_us_per_datagram", percentile(cpu_per_datagram, 0.5),
          "us");
  res.set("delivered_per_s", percentile(rate, 0.5), "1/s");
  res.set("latency_p50_ms", percentile(p50, 0.5), "ms");
  // The tail is set by the few slowest messages, so p99 pools the whole
  // window rather than taking a median of six thinner tails.
  res.set("latency_p99_ms", percentile(o.latency_ms, 0.99), "ms");
  res.set("sim_trials_per_s", sim_tps, "1/s");

  // Runtime counters the reactor keeps, read after the measured run.
  const obs::MetricsRegistry& lr = rt.loop_registry();
  res.set("runtime.wakeups",
          static_cast<double>(lr.counter_value("loop.wakeups")), "count");
  res.set("runtime.posts", static_cast<double>(lr.counter_value("loop.posts")),
          "count");
  res.set("runtime.timers_fired",
          static_cast<double>(lr.counter_value("loop.timers_fired")), "count");
  res.set("runtime.poll_us_p50",
          merged.histogram_quantile("runner.poll_us", 0.5), "us");
  res.set("runtime.round_wait_us_p99",
          merged.histogram_quantile("reactor.dispatch_us", 0.99), "us");
  res.set("runtime.timer_slop_us_p99",
          lr.histogram_quantile("loop.timer_slop_us", 0.99), "us");
  res.set("runtime.timer_resyncs",
          static_cast<double>(lr.counter_value("reactor.timer_resyncs")),
          "count");
  const double batches =
      static_cast<double>(lr.counter_value("reactor.shard.batches"));
  res.set("runtime.batches", batches, "count");
  res.set("runtime.nodes_per_batch",
          static_cast<double>(merged.counter_value("runner.polls")) /
              std::max(batches, 1.0),
          "count");
  res.set("runtime.ring_handoffs",
          static_cast<double>(lr.counter_value("reactor.shard.ring_handoffs")),
          "count");
  return m;
}

// ---- the traced run -------------------------------------------------------

void traced_run(const LiveSpec& sp, const RunArgs& args, const Measured& m,
                Result& res) {
  Schedule sched = make_schedule(sp, args.seed, args.seconds);
  const std::size_t k = sched.payloads.size();
  Sink sink(sched.payloads, sp.n);
  SpanLog setup_log;
  auto g = build_group(sp, args.seed, sink, &setup_log, true);

  const std::size_t threads = sp.shards;
  std::vector<SpanLog> logs(threads);
  for (std::size_t id = 0; id < sp.n; ++id) sink.span_of[id] = &logs[id % threads];
  TracedShared sh;
  sh.sp = &sp;
  sh.g = g.get();
  sh.payloads = &sched.payloads;
  sh.due_us = &sched.due_us;

  std::unique_ptr<Helper> attacker;
  const auto start = Clock::now();
  const auto t0 = start + std::chrono::milliseconds(sp.round_ms) *
                              sp.warmup_rounds;
  fill_due(sched, t0);
  if (sp.x > 0) attacker = start_attacker(sp, g->base_port, args.seed);
  std::vector<std::uint64_t> sigs(threads, 0);
  std::vector<std::uint64_t> boxes(threads, 0);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back(traced_thread, std::ref(sh), t, threads,
                      std::ref(logs[t]), &sigs[t], &boxes[t]);
  }
  std::this_thread::sleep_until(t0);
  const double cpu0 = process_cpu_s();
  const auto window_end = t0 + std::chrono::seconds(args.seconds);
  std::this_thread::sleep_until(window_end);
  const double cpu1 = process_cpu_s();
  drain(sp, sink, k, window_end);
  if (attacker) attacker->finish();
  sh.stop.store(true);
  for (auto& th : pool) th.join();

  // The traced run's deliveries pass the same output checks; its operation
  // counts are not reported (the measured run's are).
  const Outcome o = evaluate(sp, *g, sink, sched.due_us, res);

  // Kernel drops at every node's well-known sockets, where the flood lands.
  const UdpSockStats ks =
      sp.udp ? udp_sock_stats(wk_ports(*g, 0, sp.n)) : UdpSockStats{};

  std::vector<const SpanLog*> all;
  for (const auto& l : logs) all.push_back(&l);
  auto spans = merge_summaries(all);
  for (const auto& [name, s] : setup_log.summary()) spans[name].merge(s);
  std::uint64_t total_sigs = 0;
  std::uint64_t total_boxes = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    total_sigs += sigs[t];
    total_boxes += boxes[t];
  }
  obs::MetricsRegistry merged;
  for (const auto& n : g->nodes) merged.merge(n->registry());
  obs::MetricsRegistry udp;
  for (const auto& r : g->udp_regs) udp.merge(r);

  const double pairs = static_cast<double>(sp.n) * static_cast<double>(sp.n - 1);
  res.set("crypto.identity_generate_us",
          spans["crypto.identity_generate"].mean_us(), "us");
  res.set("crypto.pair_key_us",
          spans["crypto.prewarm_pair_keys"].total_us / pairs, "us");
  res.set("crypto.pair_keys_derived", pairs, "count");
  res.set("crypto.verify_call_us", spans["crypto.verify"].mean_us(), "us");
  res.set("crypto.verify_us_per_signature",
          spans["crypto.verify"].total_us /
              static_cast<double>(std::max<std::uint64_t>(1, total_sigs)),
          "us");
  res.set("crypto.signatures_verified", static_cast<double>(total_sigs),
          "count");
  res.set("crypto.boxes_checked", static_cast<double>(total_boxes), "count");
  res.set("core.multicast_us", spans["core.multicast"].mean_us(), "us");
  res.set("core.drain_ingress_us", spans["core.drain_ingress"].mean_us(), "us");
  res.set("core.datagrams_per_drain",
          static_cast<double>(merged.counter_value("node.datagrams_read")) /
              static_cast<double>(
                  std::max<std::uint64_t>(1, spans["core.drain_ingress"].count)),
          "count");
  res.set("core.ingest_us", spans["core.ingest"].mean_us(), "us");
  res.set("core.on_round_us", spans["core.on_round"].mean_us(), "us");
  std::uint64_t exhausted = 0;
  for (const char* c :
       {"offer", "pull_req", "push_reply", "pull_data", "push_data"}) {
    exhausted +=
        merged.counter_value(std::string("chan.") + c + ".budget_exhausted");
  }
  auto count = [&](const char* metric, const char* counter) {
    res.set(metric, static_cast<double>(merged.counter_value(counter)),
            "count");
  };
  count("core.datagrams_read", "node.datagrams_read");
  count("core.flushed_unread", "node.flushed_unread");
  res.set("core.budget_exhausted", static_cast<double>(exhausted), "count");
  count("core.box_failures", "node.box_failures");
  count("core.decode_errors", "node.decode_errors");
  count("core.duplicates", "node.duplicates");
  res.set("core.delivered_per_verified",
          static_cast<double>(merged.counter_value("node.delivered")) /
              static_cast<double>(std::max<std::uint64_t>(1, total_sigs)),
          "ratio");
  res.set("net.udp_kernel_drops", static_cast<double>(ks.drops), "count");
  res.set("net.udp_rx_backlog_bytes_p99",
          udp.histogram_quantile("net.udp.rx_backlog_bytes", 0.99), "bytes");
  res.set("net.mem_queue_depth_p99",
          g->mem_registry.histogram_quantile("net.queue_depth", 0.99), "count");

  // The simulator oracle again, one span per simulate_run.
  SpanLog sim_log;
  util::Rng master(args.seed);
  sim::SimScratch scratch_sim;
  const sim::SimParams op = oracle_params(sp.n, sp.alpha, sp.x);
  for (std::size_t i = 0; i < kOracleMinTrials / 4; ++i) {
    util::Rng r = master.fork();
    Scoped s(&sim_log, "sim.drum_trial");
    (void)sim::simulate_run(op, r, scratch_sim);
  }
  res.set("sim.drum_trial_us", sim_log.summary().at("sim.drum_trial").mean_us(),
          "us");

  const double traced_cpu_per_delivered =
      (cpu1 - cpu0) * 1e3 /
      static_cast<double>(std::max<std::uint64_t>(1, o.delivered));
  res.set("trace.cpu_overhead_ratio",
          traced_cpu_per_delivered / std::max(m.cpu_ms_per_delivered, 1e-12),
          "ratio");
  res.set("trace.latency_p50_ms", percentile(o.latency_ms, 0.50), "ms");

  std::vector<const SpanLog*> out_logs = all;
  out_logs.push_back(&setup_log);
  write_spans(".bench_out/spans-" + args.workload + "-seed" +
                  std::to_string(args.seed) + ".jsonl",
              out_logs);
}

}  // namespace

Result run_live(const RunArgs& args) {
  const LiveSpec sp = spec_for(args);
  Result res;
  const Measured m = measured_run(sp, args, res);
  if (args.trace) traced_run(sp, args, m, res);
  return res;
}

// ---- attacker process main --------------------------------------------------

int attacker_main(int argc, char** argv) {
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  std::size_t n = 0, nv = 0, bursts = 20;
  double x = 0;
  int round_ms = 400;
  unsigned base_port = 0;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--n") n = std::strtoull(v, nullptr, 10);
    if (a == "--victims") nv = std::strtoull(v, nullptr, 10);
    if (a == "--x") x = std::strtod(v, nullptr);
    if (a == "--round-ms") round_ms = std::atoi(v);
    if (a == "--bursts") bursts = std::strtoull(v, nullptr, 10);
    if (a == "--base-port") base_port = static_cast<unsigned>(std::atoi(v));
    if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
  }
  if (n == 0 || nv == 0 || bursts == 0 || base_port == 0) return 2;

  net::UdpTransport tr(net::parse_ipv4("127.0.0.1"));
  auto sock = tr.bind(0).take();
  if (!sock) return 3;
  util::Rng rng(seed ^ 0xA77AC4E2ull);
  adversary::Params params;
  params.x = x;
  auto strategy = adversary::make("flood", params);
  const core::NodeConfig proto = core::make_node_config(core::Variant::kDrum, 0);
  std::vector<std::uint32_t> victim_ids(nv);
  for (std::size_t i = 0; i < nv; ++i) victim_ids[i] = static_cast<std::uint32_t>(i);

  auto craft = [&](const adversary::Flood& f) {
    const auto sender = static_cast<std::uint32_t>(rng.below(n));
    util::Bytes box(crypto::kPortBoxOverhead + 2);
    for (auto& b : box) b = static_cast<std::uint8_t>(rng.below(256));
    if (f.channel == adversary::Channel::kOffer) {
      core::PushOffer m;
      m.sender = sender;
      m.boxed_reply_port = std::move(box);
      return core::encode(m);
    }
    core::PullRequest m;
    m.sender = sender;
    m.boxed_reply_port = std::move(box);
    return core::encode(m);
  };
  auto stdin_closed = [] {
    pollfd p{0, POLLIN, 0};
    if (::poll(&p, 1, 0) <= 0) return false;
    char c;
    return ::read(0, &c, 1) <= 0;
  };

  const auto round = std::chrono::milliseconds(round_ms);
  const auto gap = std::chrono::duration_cast<Clock::duration>(round) /
                   static_cast<std::int64_t>(bursts);
  const auto start = Clock::now();
  std::uint64_t sent = 0;
  std::vector<double> lag_ms;
  std::vector<util::Bytes> payloads;
  std::vector<util::ByteSpan> spans;
  adversary::Plan plan;
  bool done = false;
  for (std::uint64_t r = 0; !done; ++r) {
    adversary::RoundView view;
    view.round = r;
    view.n = n;
    view.attacked = victim_ids;
    view.offer_budget = proto.offer_budget();
    view.pull_request_budget = proto.pull_request_budget();
    plan.clear();
    strategy->plan_round(view, rng, plan);
    for (std::size_t b = 0; b < bursts && !done; ++b) {
      const auto due = start + round * static_cast<std::int64_t>(r) +
                       gap * static_cast<std::int64_t>(b);
      std::this_thread::sleep_until(due);
      lag_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      for (const auto& f : plan.floods) {
        std::size_t count = f.count / bursts;
        if (b < f.count % bursts) ++count;
        if (count == 0 || f.target >= nv) continue;
        const auto port = static_cast<std::uint16_t>(
            base_port + 3 * f.target +
            (f.channel == adversary::Channel::kOffer ? 1 : 0));
        payloads.clear();
        spans.clear();
        for (std::size_t i = 0; i < count; ++i) payloads.push_back(craft(f));
        for (const auto& p : payloads) spans.emplace_back(p);
        sock->send_batch(net::Address{net::parse_ipv4("127.0.0.1"), port},
                         spans.data(), spans.size());
        sent += count;
      }
      done = stdin_closed();
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("sent %llu elapsed_s %.6f lag_p99_ms %.6f cpu_s %.6f\n",
              static_cast<unsigned long long>(sent), elapsed,
              percentile(lag_ms, 0.99), process_cpu_s());
  return 0;
}

}  // namespace drumbench
