#include "corpus.hpp"

#include "cls/mccls.hpp"

namespace perfbench {

SignerSet make_signers(mccls::crypto::HmacDrbg& rng, const std::vector<std::string>& ids) {
  SignerSet set{mccls::cls::Kgc::setup(rng), {}};
  const mccls::cls::Mccls scheme;
  set.keys.reserve(ids.size());
  for (const std::string& id : ids) set.keys.push_back(scheme.enroll(set.kgc, id, rng));
  return set;
}

std::vector<mccls::crypto::Bytes> make_messages(InputRng& rng, std::size_t count,
                                                std::size_t bytes) {
  std::vector<mccls::crypto::Bytes> out(count, mccls::crypto::Bytes(bytes));
  for (auto& m : out) {
    for (auto& b : m) b = static_cast<std::uint8_t>(rng.next());
  }
  return out;
}

}  // namespace perfbench
