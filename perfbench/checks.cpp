#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "drum/util/rng.hpp"

namespace drumbench::checks {

namespace {

constexpr const char* kChannels[5] = {"offer", "pull_req", "push_reply",
                                      "pull_data", "push_data"};

std::size_t channel_budget(const core::NodeConfig& cfg, int i) {
  switch (i) {
    case 0:
      return cfg.offer_budget();
    case 1:
      return cfg.pull_request_budget();
    case 2:
      return cfg.push_reply_budget();
    case 3:
      return cfg.pull_data_budget();
    default:
      return cfg.push_data_budget();
  }
}

}  // namespace

util::Bytes make_payload(std::uint64_t seed, std::uint32_t seq,
                         std::size_t size) {
  util::Bytes p(std::max<std::size_t>(size, 8));
  for (int i = 0; i < 8; ++i) {
    p[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(seq) >> (8 * i));
  }
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + seq + 1);
  for (std::size_t i = 8; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return p;
}

std::int64_t payload_seq(util::ByteSpan got,
                         const std::vector<util::Bytes>& expected) {
  if (got.size() < 8) return -1;
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    seq |= static_cast<std::uint64_t>(got[static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (seq >= expected.size()) return -1;
  const util::Bytes& want = expected[seq];
  if (want.size() != got.size() ||
      std::memcmp(want.data(), got.data(), got.size()) != 0) {
    return -1;
  }
  return static_cast<std::int64_t>(seq);
}

bool first_delivery(std::vector<std::uint8_t>& seen, std::uint32_t seq) {
  if (seq >= seen.size() || seen[seq] != 0) return false;
  seen[seq] = 1;
  return true;
}

std::string budget_violation(const obs::MetricsRegistry& reg,
                             const core::NodeConfig& cfg) {
  const std::uint64_t rounds = reg.counter_value("node.rounds");
  for (int i = 0; i < 5; ++i) {
    const std::string base = std::string("chan.") + kChannels[i] + ".";
    const std::uint64_t budget = channel_budget(cfg, i);
    const std::uint64_t read = reg.counter_value(base + "read");
    if (read > budget * (rounds + 1)) {
      return std::string(kChannels[i]) + " read " + std::to_string(read) +
             " > budget " + std::to_string(budget) + " x " +
             std::to_string(rounds + 1) + " rounds";
    }
    const obs::Histogram* used = reg.find_histogram(base + "budget_used");
    if (used && used->max() > budget) {
      return std::string(kChannels[i]) + " used " +
             std::to_string(used->max()) + " in one round > budget " +
             std::to_string(budget);
    }
  }
  return "";
}

double hops_at_coverage(std::vector<std::uint32_t> hops, std::size_t correct,
                        double target) {
  const auto need = static_cast<std::size_t>(
      std::ceil(target * static_cast<double>(correct)));
  if (need == 0 || hops.size() < need) return -1.0;
  std::nth_element(hops.begin(), hops.begin() + (need - 1), hops.end());
  return static_cast<double>(hops[need - 1]);
}

bool propagation_agrees(double measured_rounds, double simulated_rounds) {
  return measured_rounds >= 0 &&
         std::abs(measured_rounds - simulated_rounds) <= kPropagationTolerance;
}

bool attack_accounted(std::uint64_t sent, std::uint64_t disposed,
                      std::uint64_t queued_upper, std::uint64_t legit_upper) {
  return disposed + queued_upper >= sent && disposed <= sent + legit_upper;
}

double coverage_gap(const std::vector<double>& simulated,
                    const std::vector<double>& analysed, std::size_t rounds) {
  if (simulated.empty() || analysed.empty()) return 1.0;
  double gap = 0.0;
  for (std::size_t r = 0; r <= rounds; ++r) {
    const double a = r < analysed.size() ? analysed[r] : analysed.back();
    const double s = r < simulated.size() ? simulated[r] : simulated.back();
    gap = std::max(gap, std::abs(a - s));
  }
  return gap;
}

bool escape_agrees(double simulated_mean, double expected) {
  return std::abs(simulated_mean - expected) <= 0.25 * expected;
}

bool drum_bounded(double rounds_at_x, double rounds_at_4x) {
  return rounds_at_4x < 1.5 * rounds_at_x;
}

bool no_greylist_entries(const sim::AggregateResult& agg) {
  if (agg.greylist_entries.count() == 0) return false;
  for (double v : agg.greylist_entries.raw()) {
    if (v != 0.0) return false;
  }
  return true;
}

}  // namespace drumbench::checks
