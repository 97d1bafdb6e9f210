// Seeded inputs shared by the workloads: a KGC with McCLS signers enrolled
// under given identities, and message bodies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cls/keys.hpp"
#include "common.hpp"
#include "crypto/drbg.hpp"

namespace perfbench {

struct SignerSet {
  mccls::cls::Kgc kgc;
  std::vector<mccls::cls::UserKeys> keys;  ///< same order as the ids given
};

/// KGC setup plus one McCLS enrolment per id, all drawn from `rng`.
SignerSet make_signers(mccls::crypto::HmacDrbg& rng, const std::vector<std::string>& ids);

/// `count` message bodies of `bytes` bytes each.
std::vector<mccls::crypto::Bytes> make_messages(InputRng& rng, std::size_t count,
                                                std::size_t bytes);

}  // namespace perfbench
