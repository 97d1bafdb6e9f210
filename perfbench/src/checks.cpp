#include "checks.hpp"

#include "crypto/hash.hpp"
#include "pairing/pairing.hpp"

namespace perfbench {

using mccls::svc::Status;

std::string VerdictLedger::expect(std::uint64_t request_id, Status status) {
  Slot& slot = slots_[request_id % slots_.size()];
  if (slot.request_id != 0 && !slot.answered) {
    return "request id " + std::to_string(slot.request_id) + " still unanswered after " +
           std::to_string(slots_.size()) + " newer requests";
  }
  slot = Slot{request_id, status, false};
  ++expected_;
  return {};
}

std::string VerdictLedger::answer(std::uint64_t request_id, Status status) {
  Slot& slot = slots_[request_id % slots_.size()];
  if (request_id == 0 || slot.request_id != request_id) {
    return "answer for unknown request id " + std::to_string(request_id);
  }
  if (slot.answered) return "request id " + std::to_string(request_id) + " answered twice";
  slot.answered = true;
  ++answered_;
  if (status != slot.status) {
    return "request id " + std::to_string(request_id) + " answered status " +
           std::to_string(static_cast<int>(status)) + ", expected " +
           std::to_string(static_cast<int>(slot.status));
  }
  return {};
}

std::string VerdictLedger::unanswered() const {
  if (answered_ == expected_) return {};
  return std::to_string(expected_ - answered_) + " request(s) never answered";
}

std::string check_lookup(const std::string& id,
                         const std::optional<mccls::crypto::Bytes>& enrolled,
                         const mccls::kgc::KgcResponse& response) {
  using mccls::kgc::KgcStatus;
  if (!enrolled) {
    if (response.status != KgcStatus::kUnknownId) {
      return "lookup of never-enrolled " + id + " answered status " +
             std::to_string(static_cast<int>(response.status));
    }
    return {};
  }
  if (response.status != KgcStatus::kOk) {
    return "lookup of enrolled " + id + " answered status " +
           std::to_string(static_cast<int>(response.status));
  }
  if (response.payload != *enrolled) return "lookup of " + id + " returned other key bytes";
  return {};
}

std::string check_partial_key(const mccls::cls::SystemParams& params,
                              const std::string& scoped_id,
                              const mccls::crypto::Bytes& partial_key) {
  const auto d = mccls::ec::G1::from_bytes(partial_key);
  if (!d || d->is_infinity()) return "partial key of " + scoped_id + " does not decode";
  const auto lhs = mccls::pairing::pair(*d, params.p);
  const auto rhs = mccls::pairing::pair(mccls::cls::hash_id(scoped_id), params.p_pub);
  if (!(lhs == rhs)) return "partial key of " + scoped_id + " fails e(D,P)=e(H1(id),Ppub)";
  return {};
}

std::vector<std::string> differing_counters(const mccls::aodv::ScenarioResult& a,
                                            const mccls::aodv::ScenarioResult& b) {
  std::vector<std::string> out;
  const auto cmp = [&](const char* name, auto x, auto y) {
    if (!(x == y)) out.emplace_back(name);
  };
  const auto& m = a.metrics;
  const auto& n = b.metrics;
  cmp("data_sent", m.data_sent, n.data_sent);
  cmp("data_delivered", m.data_delivered, n.data_delivered);
  cmp("data_forwarded", m.data_forwarded, n.data_forwarded);
  cmp("rreq_initiated", m.rreq_initiated, n.rreq_initiated);
  cmp("rreq_forwarded", m.rreq_forwarded, n.rreq_forwarded);
  cmp("rreq_retries", m.rreq_retries, n.rreq_retries);
  cmp("rrep_generated", m.rrep_generated, n.rrep_generated);
  cmp("rrep_forwarded", m.rrep_forwarded, n.rrep_forwarded);
  cmp("rerr_sent", m.rerr_sent, n.rerr_sent);
  cmp("attacker_dropped", m.attacker_dropped, n.attacker_dropped);
  cmp("buffer_drops", m.buffer_drops, n.buffer_drops);
  cmp("no_route_drops", m.no_route_drops, n.no_route_drops);
  cmp("link_fail_drops", m.link_fail_drops, n.link_fail_drops);
  cmp("auth_rejected", m.auth_rejected, n.auth_rejected);
  cmp("replay_rejected", m.replay_rejected, n.replay_rejected);
  cmp("sign_ops", m.sign_ops, n.sign_ops);
  cmp("verify_ops", m.verify_ops, n.verify_ops);
  cmp("total_delay", m.total_delay, n.total_delay);
  cmp("delay_samples", m.delay_samples, n.delay_samples);
  const auto& c = a.channel;
  const auto& d = b.channel;
  cmp("frames_transmitted", c.frames_transmitted, d.frames_transmitted);
  cmp("frames_delivered", c.frames_delivered, d.frames_delivered);
  cmp("collisions", c.collisions, d.collisions);
  cmp("random_losses", c.random_losses, d.random_losses);
  cmp("unicast_failures", c.unicast_failures, d.unicast_failures);
  cmp("queue_drops", c.queue_drops, d.queue_drops);
  cmp("bytes_transmitted", c.bytes_transmitted, d.bytes_transmitted);
  cmp("disconnected_placements", a.disconnected_placements, b.disconnected_placements);
  return out;
}

std::string check_pdr_gain(const mccls::aodv::ScenarioResult& secured,
                           const mccls::aodv::ScenarioResult& unsecured) {
  if (secured.pdr() > unsecured.pdr()) return {};
  return "secured PDR " + std::to_string(secured.pdr()) +
         " does not exceed unsecured PDR " + std::to_string(unsecured.pdr()) +
         " under black holes";
}

std::string check_conservation(const std::string& cell,
                               const mccls::aodv::ScenarioResult& result) {
  const auto& m = result.metrics;
  const std::uint64_t accounted = m.data_delivered + m.attacker_dropped + m.buffer_drops +
                                  m.no_route_drops + m.link_fail_drops;
  if (accounted <= m.data_sent) return {};
  return "cell " + cell + ": delivered + drops = " + std::to_string(accounted) +
         " exceeds sent = " + std::to_string(m.data_sent);
}

}  // namespace perfbench
