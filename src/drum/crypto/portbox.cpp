#include "drum/crypto/portbox.hpp"

#include <cstring>
#include <random>
#include <stdexcept>

#include "drum/check/check.hpp"
#include "drum/crypto/api.hpp"
#include "drum/crypto/hmac.hpp"

namespace drum::crypto {

namespace {

// MAC over nonce || ciphertext, truncated.
std::array<std::uint8_t, kPortBoxTagSize> compute_tag(util::ByteSpan key,
                                                      util::ByteSpan nonce,
                                                      util::ByteSpan ct) {
  // Sized buffer + memcpy rather than insert-after-construct: GCC 12's
  // -Warray-bounds mis-attributes the vector growth to the fixed-size
  // nonce array the buffer was seeded from.
  util::Bytes mac_input(nonce.size() + ct.size());
  if (!nonce.empty()) {
    std::memcpy(mac_input.data(), nonce.data(), nonce.size());
  }
  if (!ct.empty()) {
    std::memcpy(mac_input.data() + nonce.size(), ct.data(), ct.size());
  }
  auto full = hmac_sha256(key, util::ByteSpan(mac_input.data(), mac_input.size()));
  std::array<std::uint8_t, kPortBoxTagSize> tag{};
  std::copy(full.begin(), full.begin() + kPortBoxTagSize, tag.begin());
  return tag;
}

util::Bytes seal_with(util::ByteSpan key, const PortBoxNonces::Nonce& nonce,
                      util::ByteSpan plaintext) {
  if (key.size() != kPortBoxKeySize) {
    throw std::invalid_argument("portbox key size");
  }
  // Checked builds: a (key, nonce) pair must never cover two different
  // plaintexts — that is keystream reuse, which breaks the stream cipher.
  // (A byte-identical replay is tolerated: deterministic simulations replay
  // seeded worlds on purpose; see check::note_nonce.)
  DRUM_INVARIANT(
      check::note_nonce(key, util::ByteSpan(nonce.data(), nonce.size()),
                        plaintext),
      "portbox nonce reuse under one pair key");

  util::Bytes ct = chacha20_xor_copy(
      key, util::ByteSpan(nonce.data(), nonce.size()), 1, plaintext);
  auto tag = compute_tag(key, util::ByteSpan(nonce.data(), nonce.size()),
                         util::ByteSpan(ct.data(), ct.size()));

  util::Bytes out(nonce.size() + ct.size() + tag.size());
  std::memcpy(out.data(), nonce.data(), nonce.size());
  if (!ct.empty()) {
    std::memcpy(out.data() + nonce.size(), ct.data(), ct.size());
  }
  std::memcpy(out.data() + nonce.size() + ct.size(), tag.data(), tag.size());
  return out;
}

std::array<std::uint8_t, 2> port_bytes(std::uint16_t port) {
  return {static_cast<std::uint8_t>(port), static_cast<std::uint8_t>(port >> 8)};
}

}  // namespace

PortBoxNonces::PortBoxNonces() {
  std::random_device rd;
  for (std::size_t i = 0; i < salt_.size(); i += 4) {
    const std::uint32_t word = rd();
    std::memcpy(salt_.data() + i, &word, 4);
  }
}

PortBoxNonces::Nonce PortBoxNonces::next() {
  Nonce n = salt_;
  const std::uint64_t c = counter_++;
  for (std::size_t i = 0; i < 8; ++i) {
    n[kPortBoxNonceSize - 8 + i] ^= static_cast<std::uint8_t>(c >> (8 * i));
  }
  return n;
}

util::Bytes portbox_seal(util::ByteSpan key, util::ByteSpan plaintext,
                         PortBoxNonces& nonces) {
  return seal_with(key, nonces.next(), plaintext);
}

util::Bytes portbox_seal(util::ByteSpan key, util::ByteSpan plaintext,
                         util::Rng& rng) {
  PortBoxNonces::Nonce nonce;
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.below(256));
  return seal_with(key, nonce, plaintext);
}

std::optional<util::Bytes> portbox_open(util::ByteSpan key,
                                        util::ByteSpan box) {
  if (key.size() != kPortBoxKeySize) {
    throw std::invalid_argument("portbox key size");
  }
  if (box.size() < kPortBoxOverhead) return std::nullopt;
  auto nonce = box.subspan(0, kPortBoxNonceSize);
  auto ct = box.subspan(kPortBoxNonceSize,
                        box.size() - kPortBoxOverhead);
  auto tag = box.subspan(box.size() - kPortBoxTagSize);

  auto expected = compute_tag(key, nonce, ct);
  if (!util::ct_equal(util::ByteSpan(expected.data(), expected.size()), tag)) {
    return std::nullopt;
  }
  return chacha20_xor_copy(key, nonce, 1, ct);
}

util::Bytes portbox_seal_port(util::ByteSpan key, std::uint16_t port,
                              PortBoxNonces& nonces) {
  const auto pt = port_bytes(port);
  return portbox_seal(key, util::ByteSpan(pt.data(), pt.size()), nonces);
}

util::Bytes portbox_seal_port(util::ByteSpan key, std::uint16_t port,
                              util::Rng& rng) {
  const auto pt = port_bytes(port);
  return portbox_seal(key, util::ByteSpan(pt.data(), pt.size()), rng);
}

std::optional<std::uint16_t> portbox_open_port(util::ByteSpan key,
                                               util::ByteSpan box) {
  auto pt = portbox_open(key, box);
  if (!pt || pt->size() != 2) return std::nullopt;
  return static_cast<std::uint16_t>((*pt)[0] | (*pt)[1] << 8);
}

std::vector<std::optional<std::uint16_t>> portbox_open_port_batch(
    std::span<const PortBoxOpenJob> jobs) {
  std::vector<std::optional<std::uint16_t>> out(jobs.size());
  if (jobs.empty()) return out;

  // Malformed boxes are settled without hashing; everything else feeds one
  // batched HMAC pass over nonce || ciphertext.
  std::vector<std::size_t> live;
  live.reserve(jobs.size());
  std::vector<util::Bytes> mac_inputs;
  mac_inputs.reserve(jobs.size());
  std::vector<util::ByteSpan> keys, datas;
  keys.reserve(jobs.size());
  datas.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    if (j.key.size() != kPortBoxKeySize) {
      throw std::invalid_argument("portbox key size");
    }
    if (j.box.size() < kPortBoxOverhead) continue;
    util::Bytes mac_input(j.box.size() - kPortBoxTagSize);
    std::memcpy(mac_input.data(), j.box.data(), mac_input.size());
    mac_inputs.push_back(std::move(mac_input));
    keys.push_back(j.key);
    live.push_back(i);
  }
  for (const auto& buf : mac_inputs) {
    datas.emplace_back(buf.data(), buf.size());
  }
  auto macs = hmac_sha256_batch(std::span<const util::ByteSpan>(keys),
                                std::span<const util::ByteSpan>(datas));

  for (std::size_t k = 0; k < live.size(); ++k) {
    const auto& j = jobs[live[k]];
    auto tag = j.box.subspan(j.box.size() - kPortBoxTagSize);
    if (!util::ct_equal(util::ByteSpan(macs[k].data(), kPortBoxTagSize), tag)) {
      continue;
    }
    auto nonce = j.box.subspan(0, kPortBoxNonceSize);
    auto ct = j.box.subspan(kPortBoxNonceSize, j.box.size() - kPortBoxOverhead);
    util::Bytes pt = chacha20_xor_copy(j.key, nonce, 1, ct);
    if (pt.size() != 2) continue;
    out[live[k]] = static_cast<std::uint16_t>(pt[0] | pt[1] << 8);
  }
  return out;
}

}  // namespace drum::crypto
