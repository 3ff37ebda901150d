// Regression and property tests for the fault-injection harness + coherence oracle.
//
// Two kinds of tests live here:
//  * pinned (scenario, seed) cases the fuzzer once failed on — each is named for the protocol
//    bug it exposed, so a reappearance points straight at the regressed fix;
//  * direct adversarial runs that build a targeted FaultPlan (duplicate every invalidation,
//    duplicate every reply, ...) and assert both the output and the defense counters, proving
//    the defense actually fired rather than the schedule dodging the hazard.
#include <gtest/gtest.h>

#include <string>

#include "src/apps/fuzz_driver.h"
#include "src/apps/jacobi.h"
#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/dsm/coherence_oracle.h"
#include "src/net/packet.h"
#include "src/sim/fault_plan.h"

namespace dfil::apps {
namespace {

core::ClusterConfig AdversarialConfig(int nodes, dsm::Pcp pcp) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 12345;
  cfg.page_shift = 9;  // 512 B pages: small grids still share pages across strips
  cfg.dsm.pcp = pcp;
  cfg.reliable_broadcast = true;
  cfg.packet.retransmit_timeout = Milliseconds(10.0);
  cfg.packet.retransmit_timeout_max = Milliseconds(40.0);
  cfg.max_virtual_time = Seconds(120.0);
  return cfg;
}

DsmStats SumDsm(const core::RunReport& report) {
  DsmStats sum;
  for (const core::NodeReport& nr : report.nodes) {
    sum += nr.dsm;
  }
  return sum;
}

uint64_t SumDuplicateReplies(const core::RunReport& report) {
  uint64_t sum = 0;
  for (const core::NodeReport& nr : report.nodes) {
    sum += nr.packet.duplicate_replies;
  }
  return sum;
}

// --- Seed-replay determinism -----------------------------------------------------------------

TEST(FuzzReplayTest, SameScenarioAndSeedReplayIdentically) {
  const FuzzResult a = RunFuzzCase("mixed", 3, {});
  const FuzzResult b = RunFuzzCase("mixed", 3, {});
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.output_ok, b.output_ok);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.net.messages_dropped, b.net.messages_dropped);
  EXPECT_EQ(a.net.messages_duplicated, b.net.messages_duplicated);
  EXPECT_EQ(a.packet.retransmissions, b.packet.retransmissions);
  EXPECT_EQ(a.dsm.write_faults, b.dsm.write_faults);
  EXPECT_EQ(a.dsm.page_requests_served, b.dsm.page_requests_served);
}

TEST(FuzzReplayTest, CleanScenarioIsAnOracleCanary) {
  // No faults: any oracle violation here is a false positive in the oracle itself.
  const FuzzResult r = RunFuzzCase("clean", 0, {});
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_GT(r.oracle_checks, 0u);
  EXPECT_GT(r.quiescent_points, 0u);
}

TEST(FuzzReplayTest, RollUpsCarryEveryCounter) {
  // The result sums whole stats structs, so a diff-protocol case reports the merges it sent (a
  // roll-up that copied a hand-picked subset of DsmStats left every diff counter at 0).
  const FuzzResult r = RunFuzzCase("clean", 7, {});
  ASSERT_NE(r.config_desc.find("pcp=diff"), std::string::npos) << r.config_desc;
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_GT(r.dsm.diff_merges_sent, 0u);
  EXPECT_GT(r.packet.requests_sent, 0u);
}

// --- Pinned fuzzer finds ---------------------------------------------------------------------

// Found by: dfil_fuzz --scenario stall --seed 11 (also stall/8, stall/13, clean/6). Write-write
// page ping-pong where install+service charges push the node's clock past the next steal
// request's arrival, so the event loop serves the steal before the woken faulting filament ever
// runs — with service latency above the Mirage window the page bounces forever and no writer
// completes an access (virtual time runs to the cap). Fixed by the use-once hold: a page fetched
// for blocked waiters is not served away until one of them has run (PageEntry::pending_use).
TEST(FuzzPinnedRegressionTest, UseOnceHoldBreaksWriteWriteLivelock) {
  for (const uint64_t seed : {uint64_t{11}, uint64_t{8}, uint64_t{13}}) {
    const FuzzResult r = RunFuzzCase("stall", seed, {});
    EXPECT_TRUE(r.ok()) << r.Summary();
    // The livelock ran to the 120 s virtual-time cap; the fixed runs finish in well under a
    // second of virtual time.
    EXPECT_LT(r.makespan, Seconds(10.0)) << r.Summary();
  }
}

// Found by: dfil_fuzz --scenario page-chaos --seed 0. A read-copy install raced with an
// invalidation: the owner served the read, granted the page to a writer, and the writer's
// invalidation overtook the read reply — installing the in-flight bytes would resurrect a stale
// untracked copy. Fixed by PageEntry::discard_install (drop the install, re-fault).
// (Seed re-pinned to page-chaos/113 when the matrix grew the diff protocol and protocol
// adaptation: the extra RNG draws re-rolled every case, and seed 0 no longer hits the race.
// Re-pinned again to page-chaos/181 — a coalesce-off case, keeping the original uncoalesced
// character of the race — when the coalesce dimension flipped 113 on and its timing shift
// stopped the install from racing the invalidation.)
TEST(FuzzPinnedRegressionTest, InvalidationOvertakingReadReplyDiscardsInstall) {
  const FuzzResult r = RunFuzzCase("page-chaos", 181, {});
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_GT(r.dsm.discarded_installs, 0u);
}

// Pins PR 1's idempotent ownership-transfer re-serve: under heavy page-request loss the grant
// record (granted_to, grant_seq == requester fault_seq) re-serves lost transfers instead of
// creating a second owner or deadlocking the pair.
TEST(FuzzPinnedRegressionTest, LostOwnershipTransfersReServeFromGrantRecord) {
  const FuzzResult r = RunFuzzCase("page-chaos", 11, {});
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_GT(r.dsm.grant_reserves, 0u);
}

// Pins PR 1's FaultAndWait re-check after the fault-handling charge (write-invalidate under
// uniform loss: the charge can dispatch the last invalidation ack, completing the upgrade before
// the fault picks a branch — acting on the stale view re-requested an owned page from self).
TEST(FuzzPinnedRegressionTest, WriteInvalidateUnderLossCompletesCorrectly) {
  const FuzzResult r = RunFuzzCase("uniform-loss", 9, {});
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_GT(r.packet.retransmissions, 0u);
}

// Pins the stale-done guard in NodeRuntime's reduce handler (DESIGN.md §11). With coalescing on,
// a reduce-up and its gated diff merge travel unacked; the barrier done broadcast stands in for
// both acks. Under loss the done for epoch E-1 arrives AGAIN — a duplicated raw broadcast, or the
// reliable done request retransmitted because this node's reply to it was lost — after the node
// already sent epoch E's pair. Cancelling E's requests on that stale done orphaned the lost gated
// merge; the parent then deferred the up forever (merge-epoch piggyback guard) until it aborted at
// the retransmission limit. Found by the coalesce fuzz dimension on every one of these seeds.
TEST(FuzzPinnedRegressionTest, StaleDoneMustNotCancelNextEpochSyncRequests) {
  for (const uint64_t seed : {uint64_t{3}, uint64_t{8}, uint64_t{53}}) {
    const FuzzResult r = RunFuzzCase("uniform-loss", seed, {});
    EXPECT_TRUE(r.ok()) << r.Summary();
    EXPECT_NE(r.config_desc.find("coalesce"), std::string::npos) << r.Summary();
  }
  for (const uint64_t seed : {uint64_t{20}, uint64_t{28}}) {
    const FuzzResult r = RunFuzzCase("burst-loss", seed, {});
    EXPECT_TRUE(r.ok()) << r.Summary();
    EXPECT_NE(r.config_desc.find("coalesce"), std::string::npos) << r.Summary();
  }
}

// --- Directed adversarial runs (duplication / reordering defenses) ---------------------------

JacobiParams SmallJacobi() {
  JacobiParams p;
  p.n = 16;
  p.iterations = 4;
  p.pools = 3;
  return p;
}

// Every invalidation is duplicated with up to a full iteration of extra delay, so duplicates
// routinely arrive after the invalidated node write-faulted and re-acquired ownership (jacobi
// swaps grids each iteration: this iteration's invalidated reader is next iteration's writer).
// The stale duplicate must be ignored (before the fix this was a DFIL_CHECK crash; honoring it
// would invalidate a live owner).
TEST(DuplicationDefenseTest, DuplicateInvalidationsIgnoredAfterReacquisition) {
  core::ClusterConfig cfg = AdversarialConfig(3, dsm::Pcp::kWriteInvalidate);
  sim::FaultRule dup;
  dup.type = static_cast<uint32_t>(net::Service::kInvalidate);
  dup.duplicate = 1.0;
  dup.delay_min = Milliseconds(1.0);
  dup.delay_max = Milliseconds(40.0);
  cfg.fault_plan.rules.push_back(dup);
  cfg.fault_plan.seed = 77;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;

  // n=20 rows are 160 B, so 512 B pages straddle the strip boundaries and are read AND written
  // by neighboring nodes, which is what makes an invalidated reader re-acquire ownership (by
  // writing its own rows) while the duplicate is still in flight. Three nodes matter: with two,
  // the writer of a straddling page is always the node that just read it, so the transferred
  // copyset never holds a third party and actual invalidations are rare.
  JacobiParams p = SmallJacobi();
  p.n = 20;
  p.iterations = 6;
  const AppRun faulted = RunJacobiDf(p, cfg);
  const AppRun reference = RunJacobiSeq(p, {});
  ASSERT_TRUE(faulted.report.completed) << faulted.report.deadlock_report;
  EXPECT_EQ(faulted.output, reference.output);
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GT(SumDsm(faulted.report).stale_invalidations_ignored, 0u);
}

// Every page request is duplicated with up to 25 ms of extra delay under migratory, where
// ownership cycles: a duplicated transfer request can chase back to a node that has since
// re-acquired the page. Serving it would demote the owner and orphan the page (the original
// requester is long done with that fault); the grant record recognizes and drops it.
TEST(DuplicationDefenseTest, DuplicateTransferRequestsIgnoredAfterReacquisition) {
  core::ClusterConfig cfg = AdversarialConfig(2, dsm::Pcp::kMigratory);
  sim::FaultRule dup;
  dup.type = static_cast<uint32_t>(net::Service::kPageRequest);
  dup.duplicate = 1.0;
  dup.delay_min = Milliseconds(1.0);
  dup.delay_max = Milliseconds(25.0);
  cfg.fault_plan.rules.push_back(dup);
  cfg.fault_plan.seed = 91;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;

  const JacobiParams p = SmallJacobi();
  const AppRun faulted = RunJacobiDf(p, cfg);
  const AppRun reference = RunJacobiSeq(p, {});
  ASSERT_TRUE(faulted.report.completed) << faulted.report.deadlock_report;
  EXPECT_EQ(faulted.output, reference.output);
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GT(SumDsm(faulted.report).stale_transfer_dups_ignored, 0u);
}

// --- Reply idempotence (property) ------------------------------------------------------------

// Replies are never buffered: a retransmitted or duplicated request makes the service rebuild
// its reply from current state, and receivers drop reply duplicates by sequence number. So
// duplicating (or delaying) EVERY reply must leave the computation bitwise identical, with the
// duplicates visible only in the duplicate_replies counter.
class ReplyIdempotenceTest : public ::testing::TestWithParam<dsm::Pcp> {};

TEST_P(ReplyIdempotenceTest, DuplicatedRepliesLeaveStateIdentical) {
  core::ClusterConfig cfg = AdversarialConfig(3, GetParam());
  sim::FaultRule dup;
  dup.klass = sim::MsgClass::kReply;
  dup.duplicate = 1.0;
  dup.delay_min = Milliseconds(0.1);
  dup.delay_max = Milliseconds(2.0);
  cfg.fault_plan.rules.push_back(dup);
  cfg.fault_plan.seed = 5;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;

  const JacobiParams p = SmallJacobi();
  const AppRun faulted = RunJacobiDf(p, cfg);
  const AppRun reference = RunJacobiSeq(p, {});
  ASSERT_TRUE(faulted.report.completed) << faulted.report.deadlock_report;
  EXPECT_EQ(faulted.output, reference.output);
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  // Every duplicated reply the network delivered was recognized and dropped by a receiver.
  EXPECT_GT(faulted.report.net.messages_duplicated, 0u);
  EXPECT_GT(SumDuplicateReplies(faulted.report), 0u);
}

TEST_P(ReplyIdempotenceTest, ReorderedRepliesLeaveStateIdentical) {
  core::ClusterConfig cfg = AdversarialConfig(3, GetParam());
  sim::FaultRule delay;
  delay.klass = sim::MsgClass::kReply;
  delay.delay = 1.0;
  delay.delay_min = Milliseconds(0.1);
  delay.delay_max = Milliseconds(3.0);
  cfg.fault_plan.rules.push_back(delay);
  cfg.fault_plan.seed = 6;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;

  const JacobiParams p = SmallJacobi();
  const AppRun faulted = RunJacobiDf(p, cfg);
  const AppRun reference = RunJacobiSeq(p, {});
  ASSERT_TRUE(faulted.report.completed) << faulted.report.deadlock_report;
  EXPECT_EQ(faulted.output, reference.output);
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GT(faulted.report.net.messages_delayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Pcps, ReplyIdempotenceTest,
                         ::testing::Values(dsm::Pcp::kMigratory, dsm::Pcp::kWriteInvalidate,
                                           dsm::Pcp::kImplicitInvalidate),
                         [](const auto& info) {
                           switch (info.param) {
                             case dsm::Pcp::kMigratory:
                               return std::string("Migratory");
                             case dsm::Pcp::kWriteInvalidate:
                               return std::string("WriteInvalidate");
                             default:
                               return std::string("ImplicitInvalidate");
                           }
                         });

}  // namespace
}  // namespace dfil::apps
