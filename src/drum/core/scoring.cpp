#include "drum/core/scoring.hpp"

#include <algorithm>
#include <cmath>

#include "drum/check/check.hpp"

namespace drum::core {

namespace {
/// Decay powers are tabulated this far; an idle gap beyond it rounds the
/// score to zero (decay^4096 at any sane decay is negligible).
constexpr std::size_t kDecayHorizon = 4096;
}  // namespace

void PeerScoreTable::reset(std::size_t n_peers, const ScoringConfig& cfg,
                           std::uint32_t self) {
  cfg_ = cfg;
  self_ = self;
  round_ = 0;
  entries_.assign(n_peers, Entry{});
  if (decay_pow_.empty() || decay_pow_[1] != static_cast<float>(cfg.decay)) {
    decay_pow_.resize(kDecayHorizon);
    double p = 1.0;
    for (std::size_t i = 0; i < kDecayHorizon; ++i) {
      decay_pow_[i] = static_cast<float>(p);
      p *= cfg.decay;
    }
  }
  n_greylist_entries_ = 0;
  n_decode_ = 0;
  n_overuse_ = 0;
  n_futility_ = 0;
}

void PeerScoreTable::resize(std::size_t n_peers) {
  if (n_peers > entries_.size()) {
    entries_.resize(n_peers);
    // New entries start at round_ so their first settle() is a no-op.
    for (auto& e : entries_) {
      if (e.score_round == 0 && e.score == 0.0F) {
        e.score_round = static_cast<std::uint32_t>(round_);
      }
    }
  }
}

void PeerScoreTable::begin_round(std::uint64_t round) { round_ = round; }

void PeerScoreTable::settle(Entry& e) {
  const auto now = static_cast<std::uint32_t>(round_);
  if (e.score_round == now) {
    return;
  }
  const std::uint32_t gap = now - e.score_round;
  e.score = gap < decay_pow_.size() ? e.score * decay_pow_[gap] : 0.0F;
  e.score_round = now;
}

void PeerScoreTable::penalize(std::uint32_t p, double weight) {
  Entry& e = entries_[p];
  settle(e);
  e.score -= static_cast<float>(weight);
  const auto now = static_cast<std::uint32_t>(round_);
  const bool already_grey = e.grey_until != 0 && now < e.grey_until;
  if (e.score <= static_cast<float>(cfg_.greylist_threshold) &&
      !already_grey) {
    // Entering the greylist. Re-offending shortly after a release escalates
    // the strike count (duration doubling); offending long after a release
    // starts the ladder over.
    if (e.last_release != 0 && now - e.last_release <= cfg_.strike_window) {
      e.strikes = static_cast<std::uint8_t>(
          std::min<std::uint32_t>(e.strikes + 1, cfg_.max_strike_shift));
    } else {
      e.strikes = 0;
    }
    const std::uint32_t duration = cfg_.greylist_rounds
                                   << std::min<std::uint32_t>(
                                          e.strikes, cfg_.max_strike_shift);
    e.grey_until = now + std::max<std::uint32_t>(duration, 1);
    ++n_greylist_entries_;
  }
}

void PeerScoreTable::on_decode_error(std::uint32_t p) {
  if (p >= entries_.size() || p == self_) {
    return;
  }
  ++n_decode_;
  penalize(p, cfg_.decode_error_penalty);
}

void PeerScoreTable::on_control_arrival(std::uint32_t p) {
  if (p >= entries_.size() || p == self_) {
    return;
  }
  Entry& e = entries_[p];
  const auto now = static_cast<std::uint32_t>(round_);
  if (e.ctrl_round != now) {
    e.ctrl_round = now;
    e.ctrl_count = 0;
  }
  if (e.ctrl_count < 0xFFFF) {
    ++e.ctrl_count;
  }
  if (e.ctrl_count > cfg_.per_peer_allowance) {
    ++n_overuse_;
    penalize(p, cfg_.overuse_penalty);
  }
}

void PeerScoreTable::on_pull_outcome(std::uint32_t p, bool answered) {
  if (p >= entries_.size() || p == self_) {
    return;
  }
  Entry& e = entries_[p];
  if (answered) {
    e.streak = 0;
    return;
  }
  if (e.streak < 0xFF) {
    ++e.streak;
  }
  if (e.streak >= cfg_.futility_streak) {
    e.streak = 0;
    ++n_futility_;
    penalize(p, cfg_.futility_penalty);
  }
}

bool PeerScoreTable::greylisted(std::uint32_t p) {
  if (p >= entries_.size()) {
    return false;
  }
  Entry& e = entries_[p];
  if (e.grey_until == 0) {
    return false;
  }
  const auto now = static_cast<std::uint32_t>(round_);
  if (now < e.grey_until) {
    return true;
  }
  // Lazy release: record the release round for the strike window and clear
  // the residual score so the peer re-enters on fresh evidence only.
  e.last_release = e.grey_until;
  e.grey_until = 0;
  settle(e);
  e.score = std::max(e.score, static_cast<float>(cfg_.greylist_threshold) / 2);
  return false;
}

double PeerScoreTable::score(std::uint32_t p) {
  if (p >= entries_.size()) {
    return 0.0;
  }
  settle(entries_[p]);
  return entries_[p].score;
}

std::size_t PeerScoreTable::currently_greylisted() {
  std::size_t count = 0;
  for (std::uint32_t p = 0; p < entries_.size(); ++p) {
    if (greylisted(p)) {
      ++count;
    }
  }
  return count;
}

void PeerScoreTable::check_invariants() const {
  if (self_ < entries_.size()) {
    DRUM_INVARIANT(entries_[self_].grey_until == 0,
                   "a node never greylists itself");
    DRUM_INVARIANT(entries_[self_].score == 0.0F, "self score stays zero");
  }
  for ([[maybe_unused]] const Entry& e : entries_) {
    DRUM_INVARIANT(e.score <= 0.0F, "scores are non-positive penalties");
  }
}

}  // namespace drum::core
