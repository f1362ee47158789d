// GossipSub-style peer scoring + greylist — a protocol EXTENSION layered on
// Drum's per-operation resource bounds (DESIGN.md §10; cf. the libp2p
// GossipSub v1.1 peer-scoring design analysed in arXiv 2212.05197 /
// 2311.08859). Drum's bounds cap what an attacker can burn per round;
// scoring additionally identifies WHICH authenticated peer is burning it and
// takes that peer's share away.
//
// Score inputs, all attributable to a claimed sender id:
//  * decode errors     — malformed frames naming the peer, and bad data
//                        signatures blamed on the forwarding peer. Cheap to
//                        frame (anyone can claim any sender on a well-known
//                        port), so the penalty weight is low. A failed
//                        port-box is NOT an input: the box is what
//                        authenticates the claimed sender, so its failure
//                        is unattributable, and scoring it would let an
//                        off-path spoofer greylist correct peers at will.
//  * overuse           — budget-exhaustion attribution: valid control frames
//                        beyond a per-peer per-round allowance. A valid
//                        port-box proves possession of the pair key, so this
//                        signal cannot be framed by an off-path spoofer.
//  * pull futility     — the useless-pull ratio from the requester's side:
//                        a peer whose answers to our pull requests never
//                        arrive (black hole / colluding eclipse member) is
//                        penalized after `futility_streak` consecutive
//                        unanswered pulls.
//
// Scores decay multiplicatively toward 0 every round. A peer whose score
// falls below `greylist_threshold` is greylisted for `greylist_rounds`;
// re-offending within `strike_window` of release doubles the duration
// (capped), giving release/re-offend hysteresis. Greylisted peers lose their
// share of the bounded reception budgets (their frames are dropped without
// consuming budget) and are excluded from gossip view selection.
//
// One PeerScoreTable instance scores the peers of ONE node. The same class
// runs inside the Monte-Carlo simulator (one table per simulated correct
// process) and inside the live core::Node, which is what makes the
// sim-vs-live ablation honest. All bookkeeping is O(1) per event with lazy
// decay/expiry — nothing scans the peer set per round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace drum::core {

struct ScoringConfig {
  bool enabled = false;

  /// Per-round multiplicative decay toward 0. Slow by design: misbehavior
  /// signals for any single peer accrue at the pair interaction rate, which
  /// is O(fanout/n) per round.
  double decay = 0.995;

  /// Penalty per malformed frame naming the peer. Low: this signal can be
  /// framed by a spoofer (see header comment).
  double decode_error_penalty = 0.5;

  /// Valid control frames accepted from one peer per round before each
  /// further frame counts as overuse. Honest peers send at most one pull
  /// request plus one push offer to a given target per round, so 2 is the
  /// exact honest ceiling.
  std::uint32_t per_peer_allowance = 2;
  /// Penalty per control frame beyond the allowance (budget-exhaustion
  /// attribution).
  double overuse_penalty = 2.0;

  /// Consecutive unanswered pull requests to a peer before one futility
  /// penalty is charged (and the streak resets). Correct nodes ack every
  /// valid request that reaches them (the empty pull-reply extension), so
  /// an honest pull only goes unanswered on link loss; 3 makes an unlucky
  /// loss streak vanishingly rare while a true black hole still fires on
  /// every third pull.
  std::uint32_t futility_streak = 3;
  /// Below half the greylist magnitude on purpose: no two futility events,
  /// however closely spaced, can greylist on their own — it takes three
  /// inside the decay window, which honest loss rates never produce.
  double futility_penalty = 3.0;

  /// Score at or below which the peer is greylisted.
  double greylist_threshold = -6.0;
  /// Base greylist duration in rounds.
  std::uint32_t greylist_rounds = 64;
  /// A re-offense within this many rounds of release doubles the duration.
  std::uint32_t strike_window = 256;
  /// Cap on doubling: duration = greylist_rounds << min(strikes, this).
  std::uint32_t max_strike_shift = 5;

  /// Live-node CPU guard: with scoring on, a control socket is drained past
  /// its budget — greylisted frames are dropped without consuming it, and
  /// over-budget frames are decoded for attribution (offers) or the empty
  /// ack (pull requests) — so one poll may read up to
  /// budget * read_multiplier datagrams per control channel per round.
  std::uint32_t read_multiplier = 8;
};

class PeerScoreTable {
 public:
  PeerScoreTable() = default;

  /// Resets to `n_peers` peers, all at score 0, not greylisted. `self` is
  /// this node's own id — events naming it are ignored and it is never
  /// greylisted.
  void reset(std::size_t n_peers, const ScoringConfig& cfg,
             std::uint32_t self);

  /// Grows the table (certificate-admitted peers). Existing state is kept.
  void resize(std::size_t n_peers);

  /// Advances the local round clock. Decay and greylist expiry are applied
  /// lazily relative to this.
  void begin_round(std::uint64_t round);

  // ---- inbound events (p = claimed sender id) ---------------------------
  void on_decode_error(std::uint32_t p);
  /// A valid (box-authenticated) control frame from p; counts toward the
  /// per-round allowance and charges overuse_penalty beyond it.
  void on_control_arrival(std::uint32_t p);

  // ---- outbound pull bookkeeping ----------------------------------------
  /// The caller decides per pull request whether it was answered (any
  /// response activity from p this round) and reports the outcome.
  void on_pull_outcome(std::uint32_t p, bool answered);

  // ---- queries ----------------------------------------------------------
  /// True while p is greylisted. Applies lazy release (and records the
  /// release round for hysteresis), so callers need no explicit sweep.
  [[nodiscard]] bool greylisted(std::uint32_t p);
  /// Current (decayed) score of p.
  [[nodiscard]] double score(std::uint32_t p);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t round() const { return round_; }

  // ---- stats ------------------------------------------------------------
  [[nodiscard]] std::uint64_t greylist_entries() const {
    return n_greylist_entries_;
  }
  [[nodiscard]] std::uint64_t penalties_decode() const { return n_decode_; }
  [[nodiscard]] std::uint64_t penalties_overuse() const { return n_overuse_; }
  [[nodiscard]] std::uint64_t penalties_futility() const {
    return n_futility_;
  }
  /// O(n) scan; call at reporting points, not per event.
  [[nodiscard]] std::size_t currently_greylisted();

  /// drum::check invariants: self never greylisted, lazily-released entries
  /// consistent. O(n); call from checked builds only.
  void check_invariants() const;

 private:
  struct Entry {
    float score = 0.0F;
    std::uint32_t score_round = 0;   // round `score` was last brought to
    std::uint32_t ctrl_round = 0;    // round ctrl_count refers to
    std::uint16_t ctrl_count = 0;    // valid control arrivals this round
    std::uint8_t streak = 0;         // consecutive unanswered pulls
    std::uint8_t strikes = 0;        // greylist re-offense count
    std::uint32_t grey_until = 0;    // 0 = not greylisted (round bound excl.)
    std::uint32_t last_release = 0;  // round of last greylist release
  };

  /// Brings e.score to the current round (lazy decay).
  void settle(Entry& e);
  void penalize(std::uint32_t p, double weight);

  ScoringConfig cfg_;
  std::uint32_t self_ = 0;
  std::uint64_t round_ = 0;
  std::vector<Entry> entries_;
  std::vector<float> decay_pow_;  // decay^i for i in [0, horizon)

  std::uint64_t n_greylist_entries_ = 0;
  std::uint64_t n_decode_ = 0;
  std::uint64_t n_overuse_ = 0;
  std::uint64_t n_futility_ = 0;
};

}  // namespace drum::core
