// Correctness checks of the program's outputs. Each compares against an
// independent computation or a property the method must have, never against
// a saved copy of earlier output, and each reports a failure as a message
// (empty = pass) so the self-tests can feed it a wrong input and see it
// fail.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aodv/scenario.hpp"
#include "cls/keys.hpp"
#include "kgc/wire.hpp"
#include "svc/wire.hpp"

namespace perfbench {

/// verify_tcp: every request id is answered exactly once, with the verdict
/// the corpus was built to produce (honest → kVerified, tampered →
/// kRejected). Ids are issued in order and at most `window` are ever
/// unanswered at once (the client's pipeline bound), so the ledger is a ring
/// of `window` slots: its size does not grow with the run and stays out of
/// the peak-RSS metric.
class VerdictLedger {
 public:
  explicit VerdictLedger(std::size_t window) : slots_(window) {}
  /// Returns a message when the slot still holds an unanswered request
  /// (more than `window` in flight).
  std::string expect(std::uint64_t request_id, mccls::svc::Status status);
  /// Records one answer; returns a message on an unknown id, a second
  /// answer, or a wrong verdict.
  std::string answer(std::uint64_t request_id, mccls::svc::Status status);
  /// Every expected id answered? Message with the number missing.
  [[nodiscard]] std::string unanswered() const;
  /// Number of expected ids never answered.
  [[nodiscard]] std::uint64_t missing() const { return expected_ - answered_; }

 private:
  struct Slot {
    std::uint64_t request_id = 0;  ///< 0 = empty
    mccls::svc::Status status = mccls::svc::Status::kRejected;
    bool answered = false;
  };
  std::vector<Slot> slots_;
  std::uint64_t expected_ = 0, answered_ = 0;
};

/// kgc_churn, lookups: an enrolled id answers kOk with exactly the key
/// bytes the benchmark enrolled; a never-enrolled id answers kUnknownId.
std::string check_lookup(const std::string& id,
                         const std::optional<mccls::crypto::Bytes>& enrolled,
                         const mccls::kgc::KgcResponse& response);

/// kgc_churn, enrolls: the issued partial key D for `scoped_id` satisfies
/// ê(D, P) = ê(H1(scoped_id), P_pub).
std::string check_partial_key(const mccls::cls::SystemParams& params,
                              const std::string& scoped_id,
                              const mccls::crypto::Bytes& partial_key);

/// manet_paper / manet_scale: names of every protocol and channel counter
/// (and the placement flag) that differ between two runs; empty when the
/// runs agree bit for bit.
std::vector<std::string> differing_counters(const mccls::aodv::ScenarioResult& a,
                                            const mccls::aodv::ScenarioResult& b);

/// manet_paper: pooled over seeds, secured PDR under black holes must
/// exceed the unsecured PDR.
std::string check_pdr_gain(const mccls::aodv::ScenarioResult& secured,
                           const mccls::aodv::ScenarioResult& unsecured);

/// manet_scale: delivered packets plus attributed drops cannot exceed the
/// packets sent.
std::string check_conservation(const std::string& cell,
                               const mccls::aodv::ScenarioResult& result);

}  // namespace perfbench
