// Shows that each output check can fail: every check accepts a sound input
// and rejects a corrupted one (a corrupted payload, a duplicate delivery, an
// over-budget read count, a shifted coverage curve, and so on).
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "drum/analysis/appendix_c.hpp"
#include "drum/sim/engine.hpp"

namespace drumbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

}  // namespace

int self_test() {
  using namespace checks;

  // Payloads regenerated from the seed.
  std::vector<util::Bytes> expected;
  for (std::uint32_t s = 0; s < 4; ++s) expected.push_back(make_payload(7, s, 64));
  expect(payload_seq(util::ByteSpan(expected[2]), expected) == 2,
         "payload: the source's bytes are accepted");
  util::Bytes corrupt = expected[2];
  corrupt[40] ^= 0x01;
  expect(payload_seq(util::ByteSpan(corrupt), expected) < 0,
         "payload: one flipped bit is rejected");
  util::Bytes other_seed = make_payload(8, 2, 64);
  expect(payload_seq(util::ByteSpan(other_seed), expected) < 0,
         "payload: bytes from another seed are rejected");
  util::Bytes truncated(expected[1].begin(), expected[1].begin() + 20);
  expect(payload_seq(util::ByteSpan(truncated), expected) < 0,
         "payload: a truncated payload is rejected");
  util::Bytes beyond = make_payload(7, 9, 64);
  expect(payload_seq(util::ByteSpan(beyond), expected) < 0,
         "payload: a sequence number never sent is rejected");

  // At-most-once delivery.
  std::vector<std::uint8_t> seen(4, 0);
  const bool first = first_delivery(seen, 3);
  expect(first && !first_delivery(seen, 3),
         "duplicate: a second delivery of one message is rejected");

  // Per-channel budgets.
  const core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, 0);
  {
    obs::MetricsRegistry ok;
    ok.counter("node.rounds").inc(10);
    ok.counter("chan.offer.read").inc(cfg.offer_budget() * 11);
    ok.histogram("chan.offer.budget_used").record(cfg.offer_budget());
    expect(budget_violation(ok, cfg).empty(),
           "budget: reads at the budget every round are accepted");
    obs::MetricsRegistry over = ok;
    over.counter("chan.offer.read").inc(1);
    expect(!budget_violation(over, cfg).empty(),
           "budget: one read past budget x rounds is rejected");
    obs::MetricsRegistry burst;
    burst.counter("node.rounds").inc(10);
    burst.histogram("chan.push_data.budget_used")
        .record(cfg.push_data_budget() + 1);
    expect(!budget_violation(burst, cfg).empty(),
           "budget: one round over its budget is rejected");
  }

  // Propagation in rounds against the simulator.
  expect(hops_at_coverage({1, 2, 3, 4}, 4, 0.99) == 4.0 &&
             hops_at_coverage({1, 2, 3}, 4, 0.99) < 0,
         "propagation: hops at 99 % need 99 % of the receivers");
  expect(propagation_agrees(5.0, 6.5) && !propagation_agrees(5.0, 8.5) &&
             !propagation_agrees(-1.0, 0.0),
         "propagation: a gap past the crossval tolerance is rejected");

  // Attack accounting.
  expect(attack_accounted(1000, 1010, 0, 20),
         "accounting: sent + legitimate traffic is accepted");
  expect(!attack_accounted(1000, 900, 10, 20),
         "accounting: datagrams that vanished are rejected");
  expect(!attack_accounted(1000, 1100, 0, 20),
         "accounting: more disposed than sent + legitimate is rejected");

  // Coverage curves against Appendix C, on a real simulator curve.
  {
    sim::SimParams s;
    s.protocol = sim::SimProtocol::kDrum;
    s.n = 120;
    const auto agg = sim::simulate_many(s, 200, 77, sim::SimOptions{1, nullptr});
    analysis::DetailedParams dp;
    dp.protocol = analysis::Protocol::kDrum;
    dp.n = 120;
    dp.b = 12;
    const auto ana = analysis::expected_coverage(dp, 25);
    auto curve = agg.coverage.average();
    expect(coverage_gap(curve, ana, 25) < 0.10,
           "coverage: the simulator's Drum curve matches Appendix C");
    curve.insert(curve.begin(), 2, curve.front());
    expect(coverage_gap(curve, ana, 25) >= 0.10,
           "coverage: a curve shifted by two rounds is rejected");
  }

  expect(escape_agrees(8.0, 8.6) && !escape_agrees(11.5, 8.6),
         "escape: Pull 30 % off Appendix B is rejected");
  expect(drum_bounded(6.0, 8.0) && !drum_bounded(6.0, 9.5),
         "bounded: Drum slowing past 1.5x at 4x the attack is rejected");
  {
    sim::AggregateResult clean;
    clean.greylist_entries.add(0);
    clean.greylist_entries.add(0);
    sim::AggregateResult dirty = clean;
    dirty.greylist_entries.add(1);
    expect(no_greylist_entries(clean) && !no_greylist_entries(dirty),
           "greylist: one entry in an all-correct run is rejected");
  }

  std::printf("%d check(s) failed to behave\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace drumbench
