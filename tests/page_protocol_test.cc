// Tests for the PageProtocol seam: the multiple-writer diff protocol (twin on write, RLE diffs
// merged at the home node at sync points), the per-page-group adapter that flips groups between
// implicit-invalidate and diff, and the padding-allocator / page-group APIs the seam builds on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/global_array.h"
#include "src/core/node_runtime.h"
#include "src/dsm/coherence_oracle.h"
#include "src/dsm/layout.h"
#include "src/sim/fault_plan.h"

namespace dfil::dsm {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::GlobalArray1D;
using core::GlobalRef;
using core::NodeEnv;

ClusterConfig Config(int nodes, Pcp pcp) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.dsm.pcp = pcp;
  return cfg;
}

DsmStats SumDsm(const core::RunReport& r) {
  DsmStats total;
  for (const auto& nr : r.nodes) {
    total += nr.dsm;
  }
  return total;
}

// --- Diff protocol ---------------------------------------------------------------------------

// Four nodes concurrently write disjoint quarters of ONE shared page per epoch. Under any
// single-writer protocol the page ping-pongs; under diff each node twins its copy and the home
// merges O(bytes changed) at the barrier. Everyone must observe all writes afterwards, with no
// invalidation traffic at all.
TEST(DiffProtocolTest, ConcurrentWritersToOnePageMergeAtBarrier) {
  ClusterConfig cfg = Config(4, Pcp::kDiff);
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), 64, "arr");  // 512 B: one page
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int iter = 0; iter < 3; ++iter) {
      for (int i = 0; i < 16; ++i) {
        arr.Write(env, env.node() * 16 + i, iter * 1000 + env.node() * 16 + i);
      }
      env.Barrier();
      for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(arr.Read(env, i), iter * 1000 + i) << "iter " << iter << " index " << i;
      }
      env.Barrier();
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  const DsmStats s = SumDsm(r);
  EXPECT_GT(s.diff_twins_created, 0u);
  EXPECT_GT(s.diff_merges_sent, 0u);
  EXPECT_EQ(s.diff_merges_applied, s.diff_merges_sent);
  EXPECT_GT(s.diff_pages_merged, 0u);
  EXPECT_EQ(s.invalidations_sent, 0u) << "diff must not send invalidations";
}

// A write fault on an already-installed diff read copy is satisfied locally by twinning in
// place: no second page request goes out.
TEST(DiffProtocolTest, WriteFaultOnDiffReadCopyTwinsWithoutRefetch) {
  ClusterConfig cfg = Config(2, Pcp::kDiff);
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  auto x = GlobalRef<int64_t>::Alloc(cluster.layout(), "x");
  int64_t merged = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      x.Write(env, 5);  // home writes in place, no twin
    }
    env.Barrier();
    if (env.node() == 1) {
      EXPECT_EQ(x.Read(env), 5);  // installs a diff-tagged read copy
      x.Write(env, 6);            // upgrade must twin locally, not refetch
    }
    env.Barrier();
    if (env.node() == 0) {
      merged = x.Read(env);
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_EQ(merged, 6);
  EXPECT_EQ(r.nodes[1].dsm.single_page_requests, 1u) << "write upgrade must not refetch";
  EXPECT_EQ(r.nodes[1].dsm.diff_twins_created, 1u);
  EXPECT_EQ(r.nodes[1].dsm.diff_merges_sent, 1u);
  EXPECT_EQ(r.nodes[0].dsm.diff_twins_created, 0u) << "the owner writes in place";
}

// Duplicated merge requests (retransmission-style) must apply exactly once: the flush-epoch
// filter recognizes the replay and re-acks without touching the frame.
TEST(DiffProtocolTest, DuplicatedMergesApplyOnce) {
  ClusterConfig cfg = Config(3, Pcp::kDiff);
  sim::FaultRule dup;
  dup.type = static_cast<uint32_t>(net::Service::kDiffMerge);
  dup.duplicate = 1.0;
  dup.delay_min = Milliseconds(0.1);
  dup.delay_max = Milliseconds(5.0);
  cfg.fault_plan.rules.push_back(dup);
  cfg.fault_plan.seed = 11;
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), 64, "arr");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int iter = 0; iter < 4; ++iter) {
      arr.Write(env, env.node(), iter * 10 + env.node());
      env.Barrier();
      for (int n = 0; n < env.nodes(); ++n) {
        EXPECT_EQ(arr.Read(env, n), iter * 10 + n);
      }
      env.Barrier();
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GT(SumDsm(r).diff_stale_merges_ignored, 0u)
      << "every merge was duplicated; replays must hit the epoch filter";
}

// Diff with coalescing refetches each node's whole flush set from the home after a barrier: 8
// nodes x 4 bulk requests of up to 16 pages, all answered by node 0 over one shared 10 Mb/s wire.
// Each request's first timer must cover the replies queued ahead of it, so a loss-free run never
// retransmits and the home never rebuilds a reply.
TEST(DiffProtocolTest, CoalescedRefetchNeverRetransmitsOnALossFreeWire) {
  ClusterConfig cfg = Config(8, Pcp::kDiff);  // shared Ethernet by default
  cfg.coalesce.enabled = true;
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  constexpr int kPages = 32;
  constexpr int kEpochs = 4;
  const size_t per_page = cluster.layout().page_size() / sizeof(int64_t);
  const size_t strip = per_page / static_cast<size_t>(cfg.nodes);
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), kPages * per_page, "shared");
  // The false-sharing pattern: every node read-modify-writes its own strip of every page each
  // epoch, so every page has 8 concurrent writers.
  const auto step = [](size_t i) { return static_cast<int64_t>(i) * 131 + 1; };
  int bad = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int e = 0; e < kEpochs; ++e) {
      for (size_t p = 0; p < kPages; ++p) {
        const size_t base = p * per_page + static_cast<size_t>(env.node()) * strip;
        for (size_t j = base; j < base + strip; ++j) {
          const int64_t old = arr.Read(env, j);
          bad += old != e * step(j);
          arr.Write(env, j, old + step(j));
        }
      }
      env.Barrier();
    }
    for (size_t i = 0; i < kPages * per_page; ++i) {
      bad += arr.Read(env, i) != kEpochs * step(i);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_EQ(bad, 0);
  net::PacketStats packet;
  for (const auto& nr : r.nodes) {
    packet += nr.packet;
  }
  EXPECT_EQ(packet.retransmissions, 0u);
  EXPECT_EQ(packet.replies_rebuilt, 0u);
  const DsmStats dsm = SumDsm(r);
  EXPECT_GT(dsm.diff_bulk_refetches, 0u);
  // The diff wire output, pinned: each epoch reuses the same 224 twins, so a twin recycled with
  // stale bytes, a changed run rule, a reordered merge or a flush set refetched twice moves these.
  EXPECT_EQ(dsm.diff_bytes_sent, 454260u);
  EXPECT_EQ(dsm.diff_pages_flushed, 896u);
  EXPECT_EQ(dsm.diff_merges_sent, 28u);
  EXPECT_EQ(dsm.diff_bulk_refetches, 28u);
  EXPECT_EQ(packet.datagrams_sent, 636u);
  EXPECT_EQ(packet.wire_bytes, 5130268u);
  EXPECT_EQ(r.makespan, 4206071600);
}

// Pages whose homes interleave (page p's home is node p % 3): every node flushes to both other
// homes each epoch, and each home must get exactly one merge per writer and epoch. A second merge
// of the same epoch would be dropped as a duplicate, and its runs lost.
TEST(DiffProtocolTest, InterleavedHomesGetOneMergePerWriterAndEpoch) {
  ClusterConfig cfg = Config(3, Pcp::kDiff);
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  constexpr size_t kPages = 9;
  constexpr int kEpochs = 2;
  const size_t ps = cluster.layout().page_size();
  const size_t per_page = ps / sizeof(int64_t);
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), kPages * per_page, "arr");
  for (size_t p = 0; p < kPages; ++p) {
    cluster.layout().SetInitialOwner(arr.addr(p * per_page), ps, static_cast<NodeId>(p % 3));
  }
  int bad = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int e = 0; e < kEpochs; ++e) {
      for (size_t i = static_cast<size_t>(env.node()); i < kPages * per_page; i += 3) {
        arr.Write(env, i, arr.Read(env, i) + 1);
      }
      env.Barrier();
      for (size_t i = 0; i < kPages * per_page; ++i) {
        bad += arr.Read(env, i) != e + 1;
      }
      env.Barrier();
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_EQ(bad, 0);
  const DsmStats s = SumDsm(r);
  EXPECT_EQ(s.diff_merges_sent, 3u * 2u * kEpochs);
  EXPECT_EQ(s.diff_merges_applied, s.diff_merges_sent);
  EXPECT_EQ(s.diff_stale_merges_ignored, 0u);
}

// Negative test: two nodes writing the SAME bytes between the same barriers is a data race under
// the multiple-writer protocol. The run still completes (last merge wins at the home), but the
// oracle must flag the overlapping same-epoch merges.
TEST(DiffOracleTest, OverlappingSameEpochWritersAreFlagged) {
  ClusterConfig cfg = Config(3, Pcp::kDiff);
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  auto x = GlobalRef<int64_t>::Alloc(cluster.layout(), "x");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 1) {
      x.Write(env, 111);
    }
    if (env.node() == 2) {
      x.Write(env, 222);  // same 8 bytes, same epoch: overlapping runs at the home
    }
    env.Barrier();
    x.Read(env);
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  ASSERT_FALSE(oracle.violations().empty()) << "overlapping writers must be flagged";
  EXPECT_NE(oracle.violations().front().find("overlapping diff merges"), std::string::npos)
      << oracle.violations().front();
}

// Disjoint-range concurrent writers, by contrast, are legal: same page, same epoch, different
// bytes must stay oracle-clean (this is the whole point of the multiple-writer protocol).
TEST(DiffOracleTest, DisjointSameEpochWritersAreClean) {
  ClusterConfig cfg = Config(3, Pcp::kDiff);
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), 8, "arr");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    arr.Write(env, env.node(), 100 + env.node());
    env.Barrier();
    for (int n = 0; n < env.nodes(); ++n) {
      EXPECT_EQ(arr.Read(env, n), 100 + n);
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
}

// A DiffRun's offset and length are 16 bits, so the diff protocol, configured or adaptive, takes
// pages of at most 32 KB; Validate says so instead of the first flush aborting the run.
TEST(DiffValidateTest, RejectsPagesBeyondSixteenBitRunOffsets) {
  const auto mentions_offsets = [](const ClusterConfig& cfg) {
    for (const std::string& e : cfg.Validate()) {
      if (e.find("16-bit") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  ClusterConfig diff = Config(2, Pcp::kDiff);
  ClusterConfig adaptive = Config(2, Pcp::kImplicitInvalidate);
  adaptive.dsm.adapt_protocols = true;
  for (ClusterConfig* cfg : {&diff, &adaptive}) {
    cfg->page_shift = 16;
    EXPECT_TRUE(mentions_offsets(*cfg)) << "adapt_protocols " << cfg->dsm.adapt_protocols;
    cfg->page_shift = 15;
    EXPECT_TRUE(cfg->Validate().empty()) << cfg->Validate().front();
  }
  ClusterConfig plain = Config(2, Pcp::kImplicitInvalidate);
  plain.page_shift = 16;
  EXPECT_TRUE(plain.Validate().empty()) << "single-writer protocols ship whole pages";
}

// --- Per-page-group adapter ------------------------------------------------------------------

// False sharing under implicit-invalidate makes a page's owner see a stream of write-fault
// traffic; the adapter must flip the group to diff, and once traffic dies down for
// adapt_calm_epochs it must flip back. Values must stay correct across both switches.
TEST(AdapterTest, FalseSharingFlipsToDiffAndCalmsBack) {
  ClusterConfig cfg = Config(4, Pcp::kImplicitInvalidate);
  cfg.dsm.adapt_protocols = true;
  cfg.dsm.adapt_to_diff_threshold = 1;
  cfg.dsm.adapt_calm_epochs = 2;
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), 64, "arr");  // one falsely-shared page
  int64_t final_value = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    // Hot phase: every node writes its own slot of the same page each epoch.
    for (int iter = 0; iter < 6; ++iter) {
      arr.Write(env, env.node() * 16, iter * 1000 + env.node());
      env.Barrier();
      for (int n = 0; n < env.nodes(); ++n) {
        EXPECT_EQ(arr.Read(env, n * 16), iter * 1000 + n) << "iter " << iter;
      }
      env.Barrier();
    }
    // Calm phase: nobody touches the page; the owner must decay the group back to II.
    for (int iter = 0; iter < 4; ++iter) {
      env.Barrier();
    }
    // Post-switch epoch: a single writer again, values must still propagate.
    if (env.node() == 2) {
      arr.Write(env, 5, 4242);
    }
    env.Barrier();
    if (env.node() == 0) {
      final_value = arr.Read(env, 5);
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_EQ(final_value, 4242);
  const DsmStats s = SumDsm(r);
  EXPECT_GE(s.adapter_switches_to_diff, 1u) << "hot false sharing must trigger the diff switch";
  EXPECT_GE(s.adapter_switches_to_ii, 1u) << "calm epochs must decay the group back";
  EXPECT_GT(s.diff_twins_created, 0u) << "the diff phase must actually engage twinning";
  EXPECT_GT(s.diff_merges_sent, 0u);
}

// Adaptation is per GROUP: all pages of a group share one mode, and a writable diff install of
// any member twins the whole group (the group moves as a unit, so every page may be dirtied).
TEST(AdapterTest, GroupedPagesSwitchAsAUnit) {
  ClusterConfig cfg = Config(2, Pcp::kImplicitInvalidate);
  cfg.dsm.adapt_protocols = true;
  cfg.dsm.adapt_to_diff_threshold = 1;
  // A node with no work between barriers enters later barriers early, ticking the owner's calm
  // counter while the peer still computes; pin the mode so the asserts see a stable diff group.
  cfg.dsm.adapt_calm_epochs = 100;
  Cluster cluster(cfg);
  const size_t ps = cluster.layout().page_size();
  GlobalAddr blob = cluster.layout().AllocPadded(2 * ps, "blob");
  const PageId root = cluster.layout().PageOf(blob);
  cluster.layout().GroupPages(root, 2);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 1) {
      env.Write<int64_t>(blob + ps, 7);  // write the SECOND page; node 1 becomes group owner
    }
    env.Barrier();  // owner's sync point: traffic >= 1 flips the group to diff
    if (env.node() == 1) {
      EXPECT_EQ(env.runtime().dsm().page_pcp(root), Pcp::kDiff);
      EXPECT_EQ(env.runtime().dsm().page_pcp(root + 1), Pcp::kDiff)
          << "both group members must switch together";
    }
    env.Barrier();
    if (env.node() == 0) {
      env.Write<int64_t>(blob, 9);  // diff install of the group at a non-owner
      EXPECT_GE(env.runtime().dsm().stats().diff_twins_created, 2u)
          << "a writable diff install twins every page of the group";
    }
    env.Barrier();
    if (env.node() == 1) {
      EXPECT_EQ(env.Read<int64_t>(blob), 9);
      EXPECT_EQ(env.Read<int64_t>(blob + ps), 7);
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
}

// Ungrouped pages adapt independently: hammering one page must not change the protocol of a
// quiet page from a different padded allocation.
TEST(AdapterTest, GroupsAdaptIndependently) {
  ClusterConfig cfg = Config(2, Pcp::kImplicitInvalidate);
  cfg.dsm.adapt_protocols = true;
  cfg.dsm.adapt_to_diff_threshold = 1;
  cfg.dsm.adapt_calm_epochs = 100;  // see GroupedPagesSwitchAsAUnit
  Cluster cluster(cfg);
  const GlobalRef<int64_t> hot(cluster.layout().AllocPadded(sizeof(int64_t), "hot"));
  const GlobalRef<int64_t> cold(cluster.layout().AllocPadded(sizeof(int64_t), "cold"));
  const PageId hot_page = cluster.layout().PageOf(hot.addr());
  const PageId cold_page = cluster.layout().PageOf(cold.addr());
  ASSERT_NE(hot_page, cold_page);  // padded allocations own their pages
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int iter = 0; iter < 3; ++iter) {
      if (env.node() == 1) {
        hot.Write(env, iter);
      }
      env.Barrier();
    }
    if (env.node() == 1) {
      EXPECT_EQ(env.runtime().dsm().page_pcp(hot_page), Pcp::kDiff);
    }
    EXPECT_EQ(env.runtime().dsm().page_pcp(cold_page), Pcp::kImplicitInvalidate)
        << "an untouched group must keep the base protocol";
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
}

// --- Padding allocator through the seam ------------------------------------------------------

TEST(LayoutSeamTest, PaddedAllocationsStartOnAPageBoundary) {
  GlobalLayout layout;
  GlobalAddr a = layout.AllocPadded(100, "a");
  GlobalAddr b = layout.AllocPadded(1, "b");
  EXPECT_EQ(a % layout.page_size(), 0u);
  EXPECT_EQ(b % layout.page_size(), 0u);
  // Even a 1-byte padded allocation owns its whole page.
  EXPECT_EQ(layout.PageOf(b) - layout.PageOf(a), 1u);
}

TEST(LayoutSeamTest, SmallPagesKeepPaddingInvariant) {
  GlobalLayout layout(/*page_shift=*/9);
  GlobalAddr a = layout.AllocPadded(513, "a");  // one byte over a page: must take two pages
  GlobalAddr b = layout.AllocPadded(1, "b");
  EXPECT_EQ(layout.PageOf(b) - layout.PageOf(a), 2u);
  EXPECT_EQ(b % layout.page_size(), 0u);
}

}  // namespace
}  // namespace dfil::dsm
