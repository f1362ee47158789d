// Output checks. Each one compares a run's outputs against a property the
// protocol must have or against a computation made apart from the program
// (the seed-regenerated payloads, the Monte-Carlo simulator, the paper's
// Appendix B/C analysis). They are plain functions over plain data so that
// self_test() can feed each of them a corrupted input and see it rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "drum/core/config.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/sim/engine.hpp"
#include "drum/util/bytes.hpp"

namespace drumbench::checks {

/// The payload of window message `seq`: its sequence number (8 bytes, little
/// endian) followed by bytes drawn from an Rng seeded by (seed, seq).
util::Bytes make_payload(std::uint64_t seed, std::uint32_t seq,
                         std::size_t size);

/// Every delivered payload must equal the bytes the source sent for its
/// sequence number. Returns the sequence number, or -1 when the payload is
/// malformed, out of range, or differs from the regenerated bytes.
std::int64_t payload_seq(util::ByteSpan got,
                         const std::vector<util::Bytes>& expected);

/// At-most-once delivery per (node, message): `seen` is the node's
/// per-sequence delivery flag. Returns false on a second delivery.
bool first_delivery(std::vector<std::uint8_t>& seen, std::uint32_t seq);

/// Paper §4: a node reads at most its channel budget per round. Checks every
/// channel's read counter against budget × (rounds + 1) (the +1 is the round
/// in progress) and the per-round budget_used histogram's maximum against
/// the budget. Returns "" when within bounds, else a description.
std::string budget_violation(const obs::MetricsRegistry& node_registry,
                             const core::NodeConfig& cfg);

/// The hop count at which `target` of `correct` receivers hold a message:
/// the ceil(target × correct)-th smallest delivery hop count, or -1 when
/// fewer receivers delivered.
double hops_at_coverage(std::vector<std::uint32_t> hops, std::size_t correct,
                        double target);

/// The tolerance tests/crossval_test.cpp allows between the live
/// implementation's propagation in rounds and the simulator's.
inline constexpr double kPropagationTolerance = 3.0;
bool propagation_agrees(double measured_rounds, double simulated_rounds);

/// flood_udp: every datagram the attacker reports sent lands in one of the
/// victims' well-known-port outcomes — read, flushed unread, dropped by the
/// kernel, or still queued at the end. Those outcomes also hold the correct
/// peers' own control traffic to the victims, bounded by `legit_upper`.
bool attack_accounted(std::uint64_t sent, std::uint64_t disposed,
                      std::uint64_t queued_upper, std::uint64_t legit_upper);

/// Max |simulated − analysed| over rounds [0, rounds] of a coverage curve;
/// shorter curves extend with their last value.
double coverage_gap(const std::vector<double>& simulated,
                    const std::vector<double>& analysed, std::size_t rounds);

/// Pull's mean rounds for M to leave the source against Appendix B's 1/p̃,
/// within the 25 % crossval_test allows.
bool escape_agrees(double simulated_mean, double expected);

/// §6: Drum's propagation under 4x the attack stays within 1.5x.
bool drum_bounded(double rounds_at_x, double rounds_at_4x);

/// The scoring layer's false-positive gate: no greylist entry at all.
bool no_greylist_entries(const sim::AggregateResult& agg);

}  // namespace drumbench::checks
