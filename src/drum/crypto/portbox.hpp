// The "port box": authenticated encryption of the random ephemeral port
// numbers Drum advertises in pull-requests and push-offers (paper §4: "The
// random ports transmitted during the push and pull operations are
// encrypted ... in order to prevent an adversary from discovering them").
//
// Construction: encrypt-then-MAC. ChaCha20 under a pairwise key encrypts the
// payload; HMAC-SHA256 (truncated to 16 bytes) authenticates nonce+ciphertext.
// The pairwise key is derived from an X25519 shared secret via HKDF (see
// keys.hpp). A 12-byte nonce, never repeated under one pair key, is carried
// alongside each box.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "drum/util/bytes.hpp"
#include "drum/util/rng.hpp"

namespace drum::crypto {

inline constexpr std::size_t kPortBoxNonceSize = 12;
inline constexpr std::size_t kPortBoxTagSize = 16;
inline constexpr std::size_t kPortBoxKeySize = 32;

/// Wire overhead added by seal() on top of the plaintext size.
inline constexpr std::size_t kPortBoxOverhead =
    kPortBoxNonceSize + kPortBoxTagSize;

/// Nonce source for a long-lived sealer (each core::Node owns one): a 96-bit
/// salt drawn once from std::random_device at construction, with a 64-bit
/// counter XORed into its last 8 bytes. One source never repeats a nonce;
/// two sources (the two ends of a pair key, or a node and its restarted
/// self) repeat one only if their random salts differ by the XOR of two
/// counter values — negligible at any realistic seal count. next() makes
/// no syscall and takes no lock. Neither copyable nor movable: a copy would
/// replay the sequence.
class PortBoxNonces {
 public:
  using Nonce = std::array<std::uint8_t, kPortBoxNonceSize>;

  PortBoxNonces();
  PortBoxNonces(const PortBoxNonces&) = delete;
  PortBoxNonces& operator=(const PortBoxNonces&) = delete;

  Nonce next();

 private:
  Nonce salt_{};
  std::uint64_t counter_ = 0;
};

/// Seals `plaintext` under `key` with the next nonce from `nonces`.
/// Output layout: nonce || ciphertext || tag.
util::Bytes portbox_seal(util::ByteSpan key, util::ByteSpan plaintext,
                         PortBoxNonces& nonces);
/// Same, with the nonce drawn from a seeded `rng`: reproducible, for tests,
/// fuzzers and the simulated attacker. Uniqueness is the caller's problem —
/// two equally seeded Rngs sealing under one key reuse the keystream.
util::Bytes portbox_seal(util::ByteSpan key, util::ByteSpan plaintext,
                         util::Rng& rng);

/// Opens a sealed box; returns nullopt if the tag does not verify or the
/// box is malformed. Constant-time tag comparison.
std::optional<util::Bytes> portbox_open(util::ByteSpan key,
                                        util::ByteSpan box);

/// Convenience for the common case of boxing a single u16 port.
util::Bytes portbox_seal_port(util::ByteSpan key, std::uint16_t port,
                              PortBoxNonces& nonces);
util::Bytes portbox_seal_port(util::ByteSpan key, std::uint16_t port,
                              util::Rng& rng);
std::optional<std::uint16_t> portbox_open_port(util::ByteSpan key,
                                               util::ByteSpan box);

/// One box to open under one pairwise key. Both spans are views; the caller
/// keeps the backing storage alive across the batch call.
struct PortBoxOpenJob {
  util::ByteSpan key;
  util::ByteSpan box;
};

/// Opens many port boxes at once. The HMAC tags are recomputed via
/// hmac_sha256_batch (multi-buffer SHA-256), so a batch of boxed control
/// frames costs two wide hash passes instead of 2·n scalar ones. Result i is
/// exactly portbox_open_port(jobs[i].key, jobs[i].box): nullopt on a bad tag,
/// malformed box, or non-port plaintext size.
std::vector<std::optional<std::uint16_t>> portbox_open_port_batch(
    std::span<const PortBoxOpenJob> jobs);

}  // namespace drum::crypto
