// Self-tests of the benchmark: the statistics helpers against hand-computed
// (and Python-statistics-computed) values, and every correctness check fed a
// wrong input to show it can fail — a flipped verdict, one wrong
// public-key byte, one differing protocol counter, a non-identical matrix
// job. Exit 0 when every case passes.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "cls/epoch.hpp"
#include "crypto/drbg.hpp"
#include "scen/matrix.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;
using mccls::svc::Status;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_stats() {
  expect(median({3, 1, 2}) == 2, "median of an odd count");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even count");
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25), "quartiles of 1..10");
  // statistics.quantiles([5, 1, 9, 3, 7, 2], n=4) == [1.75, 4.0, 7.5]
  const Quartiles q6 = quartiles({5, 1, 9, 3, 7, 2});
  expect(near(q6.q1, 1.75) && near(q6.q2, 4.0) && near(q6.q3, 7.5), "quartiles of six");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles q2 = quartiles({1, 2});
  expect(near(q2.q1, 0.75) && near(q2.q3, 2.25), "quartiles extrapolate like Python");
  expect(near(q.relative_spread(), (8.25 - 2.75) / 5.5), "relative spread");

  expect(nearest_rank_index(100, 0.5) == 49, "nearest rank p50 of 100");
  expect(nearest_rank_index(100, 0.99) == 98, "nearest rank p99 of 100");
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(tail_reportable(1000, 0.99), "p99 reportable from 1000 samples");
  expect(!tail_reportable(999, 0.99), "p99 not reportable from 999 samples");
  expect(!tail_reportable(39, 0.5), "nothing beyond the median below 40 samples");
  expect(tail_reportable(40, 0.5), "p50 reportable from 40 samples");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const LatencySummary s = summarize(v);
  expect(s.count == 1000 && s.p50 == 500.5 && s.p99 && *s.p99 == 990, "summary of 1..1000");
  v.pop_back();
  expect(!summarize(v).p99, "summary of 999 samples omits p99");
}

void test_self_time() {
  // parent [0,100] with children [10,30] and [20,50] (overlapping) and
  // [90,120] (clipped): covered = 40 + 10 -> self 50.
  std::vector<Span> spans = {{"p", 0, 100, 1, 0, 0},
                             {"c", 10, 30, 2, 1, 1},
                             {"c", 20, 50, 3, 1, 2},
                             {"c", 90, 120, 4, 1, 3}};
  const auto self = self_times_ns(spans);
  expect(self[0] == 50 && self[1] == 20, "self time subtracts the union of children");
}

void test_verdicts() {
  VerdictLedger ok(4);
  (void)ok.expect(1, Status::kVerified);
  (void)ok.expect(2, Status::kRejected);
  expect(ok.answer(2, Status::kRejected).empty() && ok.answer(1, Status::kVerified).empty() &&
             ok.unanswered().empty(),
         "matching verdicts pass, in any order");

  VerdictLedger flipped(4);
  (void)flipped.expect(1, Status::kRejected);
  expect(!flipped.answer(1, Status::kVerified).empty(), "a flipped verdict fails");

  VerdictLedger twice(4);
  (void)twice.expect(1, Status::kVerified);
  (void)twice.answer(1, Status::kVerified);
  expect(!twice.answer(1, Status::kVerified).empty(), "a second answer fails");
  expect(!twice.answer(7, Status::kVerified).empty(), "an unknown request id fails");
  expect(!twice.answer(5, Status::kVerified).empty(), "an id sharing a used slot fails");

  VerdictLedger missing(4);
  (void)missing.expect(1, Status::kVerified);
  expect(!missing.unanswered().empty(), "an unanswered request fails");

  VerdictLedger window(2);
  (void)window.expect(1, Status::kVerified);
  (void)window.expect(2, Status::kVerified);
  expect(!window.expect(3, Status::kVerified).empty(), "more in flight than the window fails");
  (void)window.answer(1, Status::kVerified);
  expect(window.expect(3, Status::kVerified).empty() && !window.answer(1, Status::kVerified).empty(),
         "a reused slot forgets the old id");
}

void test_failed_count() {
  // The accounting of verify_tcp's answer handler: a wrong verdict and an
  // unanswered request each count one failed operation.
  RunResult r;
  VerdictLedger ledger(8);
  (void)ledger.expect(1, Status::kVerified);
  (void)ledger.expect(2, Status::kRejected);
  (void)ledger.expect(3, Status::kVerified);
  for (const auto& [id, status] : {std::pair{1, Status::kVerified}, {2, Status::kVerified}}) {
    if (auto why = ledger.answer(id, status); !why.empty()) r.op_wrong(why);
  }
  if (auto why = ledger.unanswered(); !why.empty()) r.op_failed(why, ledger.missing());
  expect(r.failed == 2 && !r.correct, "a wrong verdict and a missing answer count as failed");

  RunResult lost;
  lost.op_failed("3 never answered", 3);
  expect(lost.failed == 3 && lost.correct, "operations without an answer count as failed");
  RunResult whole;
  whole.fail("pooled PDR");
  expect(whole.failed == 0 && !whole.correct, "a whole-run check fails the run, not an op");
}

void test_kgc_checks() {
  using mccls::kgc::KgcResponse;
  using mccls::kgc::KgcStatus;
  mccls::crypto::HmacDrbg rng(std::uint64_t{42});
  const auto kgc = mccls::cls::Kgc::setup(rng);
  const mccls::crypto::Bytes key = {0x02, 0x11, 0x22, 0x33};

  const KgcResponse good{.op = mccls::kgc::KgcOp::kLookup,
                         .request_id = 1,
                         .status = KgcStatus::kOk,
                         .payload = key};
  expect(check_lookup("a", key, good).empty(), "the enrolled key bytes pass");
  KgcResponse wrong_byte = good;
  wrong_byte.payload[2] ^= 0x01;
  expect(!check_lookup("a", key, wrong_byte).empty(), "one wrong public-key byte fails");
  expect(!check_lookup("ghost", std::nullopt, good).empty(),
         "a never-enrolled id answered kOk fails");
  KgcResponse unknown = good;
  unknown.status = KgcStatus::kUnknownId;
  unknown.payload.clear();
  expect(check_lookup("ghost", std::nullopt, unknown).empty(), "unknown id answered unknown");
  expect(!check_lookup("a", key, unknown).empty(), "an enrolled id answered unknown fails");

  const std::string scoped = mccls::cls::scoped_identity("alice", 0);
  const auto d = kgc.extract_partial_key(scoped).to_bytes();
  const mccls::crypto::Bytes partial(d.begin(), d.end());
  expect(check_partial_key(kgc.params(), scoped, partial).empty(), "an issued partial key passes");
  expect(!check_partial_key(kgc.params(), mccls::cls::scoped_identity("bob", 0), partial).empty(),
         "a partial key for another identity fails");
  const auto other = kgc.extract_partial_key(mccls::cls::scoped_identity("alice", 1)).to_bytes();
  expect(!check_partial_key(kgc.params(), scoped,
                            mccls::crypto::Bytes(other.begin(), other.end()))
              .empty(),
         "a partial key for another epoch fails");
}

void test_scenario_checks() {
  using namespace mccls;
  scen::Cell cell;
  cell.name = "tiny";
  cell.seeds = 2;
  cell.base.num_nodes = 10;
  cell.base.duration = 8;
  cell.base.traffic_start_min = 1;
  cell.base.traffic_start_max = 2;
  cell.base.num_flows = 3;
  cell.base.security = aodv::SecurityMode::kModeled;
  const auto a = scen::run_cell_seed(cell, 0);
  const auto again = scen::run_cell_seed(cell, 0);
  const auto other = scen::run_cell_seed(cell, 1);
  expect(differing_counters(a, again).empty(), "a re-run of the same job matches");
  expect(!differing_counters(a, other).empty(), "a non-identical matrix job fails");
  auto bumped = a;
  ++bumped.metrics.rreq_forwarded;
  const auto diff = differing_counters(a, bumped);
  expect(diff.size() == 1 && diff[0] == "rreq_forwarded", "one differing protocol counter fails");
  auto delay = a;
  delay.metrics.total_delay = std::nextafter(delay.metrics.total_delay, 1e9);
  expect(!differing_counters(a, delay).empty(), "a one-ulp delay difference fails");
  auto channel = a;
  ++channel.channel.collisions;
  expect(!differing_counters(a, channel).empty(), "one differing channel counter fails");

  expect(check_conservation("tiny", a).empty(), "a real run conserves packets");
  auto inflated = a;
  inflated.metrics.data_delivered = inflated.metrics.data_sent + 1;
  expect(!check_conservation("tiny", inflated).empty(), "delivered beyond sent fails");

  aodv::ScenarioResult hi{}, lo{};
  hi.metrics.data_sent = lo.metrics.data_sent = 100;
  hi.metrics.data_delivered = 90;
  lo.metrics.data_delivered = 40;
  expect(check_pdr_gain(hi, lo).empty(), "secured PDR above unsecured passes");
  expect(!check_pdr_gain(lo, hi).empty(), "secured PDR below unsecured fails");
  expect(!check_pdr_gain(lo, lo).empty(), "equal PDRs fail");
}

}  // namespace

int main() {
  test_stats();
  test_self_time();
  test_verdicts();
  test_failed_count();
  test_kgc_checks();
  test_scenario_checks();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
