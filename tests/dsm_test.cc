// Tests for the distributed shared memory: layout/allocator, page groups, and the three page
// consistency protocols' invariants, exercised through full clusters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>

#include "src/apps/jacobi.h"
#include "src/core/cluster.h"
#include "src/core/global_array.h"
#include "src/core/node_runtime.h"
#include "src/dsm/coherence_oracle.h"
#include "src/dsm/layout.h"
#include "src/net/packet.h"
#include "src/sim/fault_plan.h"

namespace dfil::dsm {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::GlobalArray1D;
using core::GlobalRef;
using core::NodeEnv;

// --- Layout / allocator ---

TEST(LayoutTest, AllocRespectsAlignment) {
  GlobalLayout layout;
  GlobalAddr a = layout.Alloc(3, 1);
  GlobalAddr b = layout.Alloc(8, 8);
  GlobalAddr c = layout.Alloc(1, 64);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_EQ(c % 64, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(c, b);
}

TEST(LayoutTest, PaddedAllocationsShareNoPage) {
  GlobalLayout layout;
  GlobalAddr a = layout.AllocPadded(100, "a");
  GlobalAddr b = layout.AllocPadded(100, "b");
  EXPECT_NE(layout.PageOf(a), layout.PageOf(b));
  EXPECT_NE(layout.PageOf(a + 99), layout.PageOf(b));
}

TEST(LayoutTest, RowPaddedArrayPutsEachRowOnItsOwnPage) {
  GlobalLayout layout;
  // 10 doubles per row: far less than a page, padded to one page per row.
  GlobalAddr base = layout.AllocArray2D(4, 10, sizeof(double), /*pad_rows_to_pages=*/true, "m");
  EXPECT_EQ(base % layout.page_size(), 0u);
}

TEST(LayoutTest, SealAssignsOwnersAndRoundsRegion) {
  GlobalLayout layout;
  GlobalAddr a = layout.AllocPadded(layout.page_size() * 2, "a");
  layout.SetInitialOwner(a + layout.page_size(), layout.page_size(), 1);
  layout.Seal(2);
  EXPECT_EQ(layout.InitialOwner(layout.PageOf(a)), 0);
  EXPECT_EQ(layout.InitialOwner(layout.PageOf(a) + 1), 1);
  EXPECT_EQ(layout.region_bytes() % layout.page_size(), 0u);
}

TEST(LayoutTest, GroupsReportAllMembers) {
  GlobalLayout layout;
  layout.AllocPadded(layout.page_size() * 5, "blob");
  uint16_t g = layout.GroupPages(1, 3);
  layout.Seal(1);
  EXPECT_NE(g, kNoGroup);
  const auto group = layout.GroupPagesOf(2);
  EXPECT_EQ(std::vector<PageId>(group.begin(), group.end()), (std::vector<PageId>{1, 2, 3}));
  const auto alone = layout.GroupPagesOf(0);
  EXPECT_EQ(std::vector<PageId>(alone.begin(), alone.end()), (std::vector<PageId>{0}));
}

TEST(LayoutTest, CustomPageSize) {
  GlobalLayout layout(/*page_shift=*/9);  // 512-byte pages
  EXPECT_EQ(layout.page_size(), 512u);
  GlobalAddr a = layout.AllocPadded(100, "a");
  GlobalAddr b = layout.AllocPadded(100, "b");
  EXPECT_EQ(layout.PageOf(b) - layout.PageOf(a), 1u);
}

// --- Protocol behaviour through full clusters ---

ClusterConfig Config(int nodes, Pcp pcp) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.dsm.pcp = pcp;
  return cfg;
}

TEST(DsmReplicaTest, NeverTouchedPagesReadZeroOwnedAndFetched) {
  // Replicas are zeroed on demand, so an 8 MB region is mostly pages no one ever touched. They
  // must read 0 where the reader owns them, and after a read fault fetches the owner's copy.
  Cluster cluster(Config(2, Pcp::kImplicitInvalidate));
  const size_t ps = cluster.layout().page_size();
  const size_t per_page = ps / sizeof(double);
  const size_t pages = (size_t{8} << 20) / ps;
  auto arr = GlobalArray1D<double>::Alloc(cluster.layout(), pages * per_page, "arr");
  cluster.layout().SetInitialOwner(arr.addr(pages / 2 * per_page), pages / 2 * ps, 1);
  std::vector<int> nonzero(2, 0);
  std::vector<double> written_back(2, 0.0);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      arr.Write(env, 0, 7.0);  // one written word, so a fetch cannot pass by shipping nothing
    }
    env.Barrier();
    // Every 16th page from both halves: half owned by this node, half faulted in from the peer.
    for (size_t page = 0; page < pages; page += 16) {
      const size_t i = page * per_page + per_page - 1;
      nonzero[env.node()] += arr.Read(env, i) != 0.0 ? 1 : 0;
    }
    written_back[env.node()] = arr.Read(env, 0);
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(nonzero[n], 0) << "node " << n;
    EXPECT_EQ(written_back[n], 7.0) << "node " << n;
    EXPECT_GT(r.nodes[n].dsm.read_faults, 0u) << "node " << n;
  }
}

TEST(DsmProtocolTest, ImplicitInvalidateSendsNoInvalidationMessages) {
  Cluster cluster(Config(4, Pcp::kImplicitInvalidate));
  auto x = GlobalRef<double>::Alloc(cluster.layout(), "x");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int iter = 0; iter < 5; ++iter) {
      if (env.node() == 0) {
        x.Write(env, iter * 1.0);
      }
      env.Barrier();
      EXPECT_DOUBLE_EQ(x.Read(env), iter * 1.0);
      env.Barrier();
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  uint64_t invalidations = 0, implicit = 0;
  for (const auto& nr : r.nodes) {
    invalidations += nr.dsm.invalidations_sent;
    implicit += nr.dsm.implicit_invalidations;
  }
  EXPECT_EQ(invalidations, 0u);
  EXPECT_GT(implicit, 0u);
}

TEST(DsmProtocolTest, WriteInvalidateSendsInvalidations) {
  Cluster cluster(Config(4, Pcp::kWriteInvalidate));
  auto x = GlobalRef<double>::Alloc(cluster.layout(), "x");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int iter = 0; iter < 5; ++iter) {
      if (env.node() == iter % env.nodes()) {
        x.Write(env, iter * 1.0);
      }
      env.Barrier();
      EXPECT_DOUBLE_EQ(x.Read(env), iter * 1.0);
      env.Barrier();
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  uint64_t invalidations = 0;
  for (const auto& nr : r.nodes) {
    invalidations += nr.dsm.invalidations_sent;
  }
  EXPECT_GT(invalidations, 0u);
}

TEST(DsmProtocolTest, MigratoryKeepsOneCopy) {
  // Under migratory even reads move the page; after the run exactly one node owns it.
  Cluster cluster(Config(4, Pcp::kMigratory));
  auto x = GlobalRef<int64_t>::Alloc(cluster.layout(), "x");
  std::vector<int64_t> seen(4);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      x.Write(env, 7);
    }
    env.Barrier();
    for (int turn = 0; turn < env.nodes(); ++turn) {
      if (turn == env.node()) {
        seen[env.node()] = x.Read(env);
      }
      env.Barrier();
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (int64_t v : seen) {
    EXPECT_EQ(v, 7);
  }
}

TEST(DsmProtocolTest, OwnerForwardingChainsResolve) {
  // Ownership hops 0 -> 1 -> 2 -> 3; then node 0 (whose hint is stale) must chase redirects.
  Cluster cluster(Config(4, Pcp::kMigratory));
  auto x = GlobalRef<int64_t>::Alloc(cluster.layout(), "x");
  int64_t final_value = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int turn = 1; turn < env.nodes(); ++turn) {
      if (env.node() == turn) {
        x.Write(env, x.Read(env) + turn);
      }
      env.Barrier();
    }
    if (env.node() == 0) {
      final_value = x.Read(env);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_EQ(final_value, 1 + 2 + 3);
  uint64_t forwards = 0;
  for (const auto& nr : r.nodes) {
    forwards += nr.dsm.page_forwards;
  }
  EXPECT_GT(forwards, 0u) << "stale hints should have produced at least one redirect";
}

TEST(DsmProtocolTest, PageGroupsFetchTogether) {
  ClusterConfig cfg = Config(2, Pcp::kWriteInvalidate);
  Cluster cluster(cfg);
  const size_t ps = cluster.layout().page_size();
  GlobalAddr blob = cluster.layout().AllocPadded(4 * ps, "blob");
  cluster.layout().GroupPages(cluster.layout().PageOf(blob), 4);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (size_t i = 0; i < 4 * ps; i += sizeof(uint64_t)) {
        env.Write<uint64_t>(blob + i, i);
      }
    }
    env.Barrier();
    if (env.node() == 1) {
      // Touch one byte of the first page: the whole group must arrive with one request.
      EXPECT_EQ(env.Read<uint64_t>(blob), 0u);
      for (size_t i = 0; i < 4 * ps; i += sizeof(uint64_t)) {
        EXPECT_EQ(env.Read<uint64_t>(blob + i), i);
      }
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_EQ(r.nodes[1].dsm.read_faults, 1u);
  EXPECT_EQ(r.nodes[0].dsm.page_requests_served, 1u);
}

TEST(DsmProtocolTest, MirageWindowDefersTransfers) {
  ClusterConfig cfg = Config(2, Pcp::kMigratory);
  cfg.dsm.mirage_window = Milliseconds(50.0);
  Cluster cluster(cfg);
  auto x = GlobalRef<int64_t>::Alloc(cluster.layout(), "x");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      x.Write(env, 1);
    }
    env.Barrier();
    if (env.node() == 1) {
      x.Write(env, 2);  // migrates the page; hold window starts at install
    }
    env.Barrier();
    if (env.node() == 0) {
      // Request arrives inside node 1's hold window: deferred, then satisfied by retransmission.
      EXPECT_EQ(x.Read(env), 2);
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  uint64_t deferrals = 0;
  for (const auto& nr : r.nodes) {
    deferrals += nr.dsm.mirage_deferrals;
  }
  EXPECT_GT(deferrals, 0u);
}

TEST(DsmProtocolTest, LostPageTrafficRecovers) {
  // Packet reliability end-to-end: page requests and transfers survive heavy loss.
  ClusterConfig cfg = Config(3, Pcp::kWriteInvalidate);
  cfg.fault_plan.loss_rate = 0.15;
  cfg.reliable_broadcast = true;  // barrier dissemination must survive loss too
  cfg.packet.retransmit_timeout = Milliseconds(20.0);
  Cluster cluster(cfg);
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), 1024, "arr");
  int64_t sum = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int i = 0; i < 1024; ++i) {
        arr.Write(env, i, i);
      }
    }
    env.Barrier();
    // Every node reads everything; node 2 then rewrites a slice (ownership transfers under loss).
    int64_t local = 0;
    for (int i = 0; i < 1024; ++i) {
      local += arr.Read(env, i);
    }
    EXPECT_EQ(local, 1024 * 1023 / 2);
    env.Barrier();
    if (env.node() == 2) {
      for (int i = 0; i < 100; ++i) {
        arr.Write(env, i, -1);
      }
    }
    env.Barrier();
    if (env.node() == 0) {
      sum = 0;
      for (int i = 0; i < 1024; ++i) {
        sum += arr.Read(env, i);
      }
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_EQ(sum, 1024 * 1023 / 2 - (100 * 99 / 2) - 100);
  EXPECT_GT(r.net.messages_dropped, 0u);
  // Loss recovery for idempotent page traffic never replays buffered replies: re-serves are
  // rebuilt from current state, and the split accounts for every reply sent.
  uint64_t rebuilt = 0;
  for (const auto& nr : r.nodes) {
    EXPECT_EQ(nr.packet.replies_first_serve + nr.packet.replies_rebuilt, nr.packet.replies_sent);
    rebuilt += nr.packet.replies_rebuilt;
  }
  EXPECT_GT(rebuilt, 0u) << "15% loss over hundreds of transfers must rebuild some reply";
}

class PageSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(PageSizeTest, ProtocolsWorkAtAnyPageSize) {
  ClusterConfig cfg = Config(3, Pcp::kWriteInvalidate);
  cfg.page_shift = static_cast<size_t>(GetParam());
  Cluster cluster(cfg);
  auto arr = GlobalArray1D<double>::Alloc(cluster.layout(), 4096, "arr");
  double total = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    const int per = 4096 / env.nodes();
    const int lo = env.node() * per;
    const int hi = env.node() == env.nodes() - 1 ? 4096 : lo + per;
    if (env.node() == 0) {
      for (int i = 0; i < 4096; ++i) {
        arr.Write(env, i, 1.0);
      }
    }
    env.Barrier();
    for (int i = lo; i < hi; ++i) {
      arr.Write(env, i, arr.Read(env, i) + env.node());
    }
    double local = 0;
    for (int i = lo; i < hi; ++i) {
      local += arr.Read(env, i);
    }
    total = env.Reduce(local, core::ReduceOp::kSum);
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  double expected = 4096;
  for (int n = 0; n < 3; ++n) {
    const int per = 4096 / 3;
    const int size = n == 2 ? 4096 - 2 * per : per;
    expected += static_cast<double>(n) * size;
  }
  EXPECT_DOUBLE_EQ(total, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageSizeTest, ::testing::Values(9, 12, 14));

// The diff protocol from the smallest page to the largest its 16-bit run offsets address, with
// and without coalescing (which adds the bulk flush-set refetch). Three nodes interleave their
// elements, so every page has three concurrent writers each epoch.
class DiffPageSizeTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DiffPageSizeTest, DiffMergesAtAnyPageSize) {
  ClusterConfig cfg = Config(3, Pcp::kDiff);
  cfg.page_shift = static_cast<size_t>(std::get<0>(GetParam()));
  cfg.coalesce.enabled = std::get<1>(GetParam());
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  const size_t n = std::max<size_t>(1024, 4 * cluster.layout().page_size() / sizeof(int64_t));
  auto arr = GlobalArray1D<int64_t>::Alloc(cluster.layout(), n, "arr");
  constexpr int kEpochs = 3;
  int bad = 0;
  int64_t total = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int e = 0; e < kEpochs; ++e) {
      for (size_t i = static_cast<size_t>(env.node()); i < n; i += 3) {
        arr.Write(env, i, arr.Read(env, i) + static_cast<int64_t>(i) + 1);
      }
      env.Barrier();
      for (size_t i = 0; i < n; ++i) {
        bad += arr.Read(env, i) != (e + 1) * (static_cast<int64_t>(i) + 1);
      }
      env.Barrier();
    }
    if (env.node() == 0) {
      for (size_t i = 0; i < n; ++i) {
        total += arr.Read(env, i);
      }
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_EQ(bad, 0);
  const int64_t count = static_cast<int64_t>(n);
  EXPECT_EQ(total, kEpochs * count * (count + 1) / 2);
  uint64_t merged = 0;
  for (const auto& nr : r.nodes) {
    merged += nr.dsm.diff_pages_merged;
  }
  EXPECT_GT(merged, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DiffPageSizeTest,
                         ::testing::Combine(::testing::Values(6, 9, 12, 15), ::testing::Bool()));

// --- Bulk transfers / prefetching ---

TEST(DsmPrefetchTest, ExplicitPrefetchCoalescesRequestsIntoOneBulk) {
  Cluster cluster(Config(2, Pcp::kWriteInvalidate));
  const size_t ps = cluster.layout().page_size();
  GlobalAddr blob = cluster.layout().AllocPadded(8 * ps, "blob");
  const PageId first = cluster.layout().PageOf(blob);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int p = 0; p < 8; ++p) {
        env.Write<uint64_t>(blob + p * ps, 100 + p);
      }
    }
    env.Barrier();
    if (env.node() == 1) {
      env.runtime().dsm().Prefetch(first, 8, AccessMode::kRead);
      for (int p = 0; p < 8; ++p) {
        EXPECT_EQ(env.Read<uint64_t>(blob + p * ps), 100u + p);
      }
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  const DsmStats& s1 = r.nodes[1].dsm;
  EXPECT_EQ(s1.bulk_requests, 1u);
  EXPECT_EQ(s1.bulk_pages_requested, 8u);
  EXPECT_EQ(s1.bulk_misses, 0u);
  EXPECT_EQ(s1.single_page_requests, 0u) << "all 8 pages should ride the one bulk request";
  EXPECT_EQ(r.nodes[0].dsm.bulk_pages_served, 8u);
}

TEST(DsmPrefetchTest, DetectorTurnsSequentialFaultsIntoBulkFetches) {
  ClusterConfig cfg = Config(2, Pcp::kWriteInvalidate);
  cfg.dsm.prefetch_detector = true;
  Cluster cluster(cfg);
  const size_t ps = cluster.layout().page_size();
  GlobalAddr blob = cluster.layout().AllocPadded(16 * ps, "blob");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int p = 0; p < 16; ++p) {
        env.Write<uint64_t>(blob + p * ps, p);
      }
    }
    env.Barrier();
    if (env.node() == 1) {
      uint64_t sum = 0;
      for (int p = 0; p < 16; ++p) {
        sum += env.Read<uint64_t>(blob + p * ps);
      }
      EXPECT_EQ(sum, 16u * 15 / 2);
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  const DsmStats& s1 = r.nodes[1].dsm;
  EXPECT_GT(s1.bulk_requests, 0u) << "two adjacent faults should have armed the detector";
  EXPECT_LT(s1.single_page_requests, 16u)
      << "detector prefetches should have absorbed most of the sequential faults";
  EXPECT_GT(s1.prefetched_pages, 0u);
  EXPECT_EQ(s1.prefetch_wasted, 0u) << "every page of the run is eventually read";
}

TEST(DsmPrefetchTest, BulkMissesAreRefaultedThroughOwnerForwarding) {
  // Pages 2 and 3 migrate to node 2 before node 1 prefetches the whole run with a stale hint
  // pointing at node 0: the bulk reply must report them as misses, and node 1 must recover them
  // through single-page requests chasing the owner-forwarding chain.
  Cluster cluster(Config(3, Pcp::kWriteInvalidate));
  const size_t ps = cluster.layout().page_size();
  GlobalAddr blob = cluster.layout().AllocPadded(8 * ps, "blob");
  const PageId first = cluster.layout().PageOf(blob);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int p = 0; p < 8; ++p) {
        env.Write<uint64_t>(blob + p * ps, 100 + p);
      }
    }
    env.Barrier();
    if (env.node() == 2) {
      env.Write<uint64_t>(blob + 2 * ps, 202);
      env.Write<uint64_t>(blob + 3 * ps, 203);
    }
    env.Barrier();
    if (env.node() == 1) {
      env.runtime().dsm().Prefetch(first, 8, AccessMode::kRead);
      EXPECT_EQ(env.Read<uint64_t>(blob + 2 * ps), 202u);
      EXPECT_EQ(env.Read<uint64_t>(blob + 3 * ps), 203u);
      for (int p : {0, 1, 4, 5, 6, 7}) {
        EXPECT_EQ(env.Read<uint64_t>(blob + p * ps), 100u + p);
      }
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  const DsmStats& s1 = r.nodes[1].dsm;
  EXPECT_EQ(s1.bulk_misses, 2u);
  EXPECT_GE(s1.single_page_requests, 2u) << "missed pages re-fault individually";
  EXPECT_EQ(s1.bulk_requests, 1u);
}

TEST(DsmPrefetchTest, MigratoryProtocolNeverUsesBulkTransfers) {
  ClusterConfig cfg = Config(2, Pcp::kMigratory);
  cfg.dsm.prefetch_detector = true;
  Cluster cluster(cfg);
  const size_t ps = cluster.layout().page_size();
  GlobalAddr blob = cluster.layout().AllocPadded(8 * ps, "blob");
  const PageId first = cluster.layout().PageOf(blob);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int p = 0; p < 8; ++p) {
        env.Write<uint64_t>(blob + p * ps, p);
      }
    }
    env.Barrier();
    if (env.node() == 1) {
      env.runtime().dsm().Prefetch(first, 8, AccessMode::kRead);  // must be a no-op
      uint64_t sum = 0;
      for (int p = 0; p < 8; ++p) {
        sum += env.Read<uint64_t>(blob + p * ps);
      }
      EXPECT_EQ(sum, 8u * 7 / 2);
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (const auto& nr : r.nodes) {
    EXPECT_EQ(nr.dsm.bulk_requests, 0u);
    EXPECT_EQ(nr.dsm.bulk_pages_served, 0u);
  }
}

TEST(DsmPrefetchTest, LostBulkRepliesAreRebuiltFromCurrentState) {
  ClusterConfig cfg = Config(2, Pcp::kWriteInvalidate);
  cfg.fault_plan.loss_rate = 0.25;
  cfg.reliable_broadcast = true;
  cfg.packet.retransmit_timeout = Milliseconds(20.0);
  Cluster cluster(cfg);
  const size_t ps = cluster.layout().page_size();
  GlobalAddr blob = cluster.layout().AllocPadded(16 * ps, "blob");
  const PageId first = cluster.layout().PageOf(blob);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int p = 0; p < 16; ++p) {
        env.Write<uint64_t>(blob + p * ps, 100 + p);
      }
    }
    env.Barrier();
    if (env.node() == 1) {
      env.runtime().dsm().Prefetch(first, 16, AccessMode::kRead);
      for (int p = 0; p < 16; ++p) {
        EXPECT_EQ(env.Read<uint64_t>(blob + p * ps), 100u + p);
      }
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_GT(r.net.messages_dropped, 0u);
  EXPECT_GT(r.nodes[1].dsm.bulk_requests, 0u);
}

// --- Prefetch correctness sweep: DF Jacobi must match the sequential program with prefetching
// enabled, across protocols, node counts, and injected loss (the bulk path must not perturb any
// per-PCP state machine). Small pages make boundary rows span several pages, so both the
// detector and the strip hints actually fire.

class PrefetchSweep
    : public ::testing::TestWithParam<std::tuple<int, Pcp, double>> {};

TEST_P(PrefetchSweep, JacobiMatchesSequentialWithPrefetchingOn) {
  const auto [nodes, pcp, loss] = GetParam();
  apps::JacobiParams p;
  p.n = 32;
  p.iterations = 10;
  core::ClusterConfig seq_cfg;
  seq_cfg.nodes = 1;
  apps::AppRun seq = apps::RunJacobiSeq(p, seq_cfg);

  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.dsm.pcp = pcp;
  cfg.dsm.prefetch_detector = true;
  cfg.dsm.prefetch_hints = true;
  cfg.page_shift = 10;  // 32 doubles/row = 256 B: four rows per page, several pages per strip
  if (loss > 0) {
    cfg.fault_plan.loss_rate = loss;
    cfg.reliable_broadcast = true;
    cfg.packet.retransmit_timeout = Milliseconds(20.0);
  }
  apps::AppRun df = apps::RunJacobiDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  ASSERT_EQ(seq.output.size(), df.output.size());
  for (size_t i = 0; i < seq.output.size(); ++i) {
    ASSERT_EQ(seq.output[i], df.output[i]) << "index " << i;
  }
  EXPECT_EQ(seq.checksum, df.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrefetchSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(Pcp::kImplicitInvalidate, Pcp::kWriteInvalidate,
                                         Pcp::kMigratory),
                       ::testing::Values(0.0, 0.05)));

TEST(DsmPrefetchTest, RegularJacobiStripsWasteNoPrefetches) {
  // Property (hints only): with page-aligned strips, every page the hint layer prefetches is one
  // the pool re-reads every sweep, so no prefetched copy may ever die untouched. The detector is
  // off because its fixed lookahead legitimately overshoots the last strip boundary.
  apps::JacobiParams p;
  p.n = 64;
  p.iterations = 10;
  core::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.dsm.pcp = Pcp::kImplicitInvalidate;
  cfg.dsm.prefetch_hints = true;
  cfg.page_shift = 9;  // 64 doubles/row = 512 B = exactly one page: strips are page-aligned
  apps::AppRun df = apps::RunJacobiDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  uint64_t prefetched = 0, wasted = 0;
  for (const auto& nr : df.report.nodes) {
    prefetched += nr.dsm.prefetched_pages;
    wasted += nr.dsm.prefetch_wasted;
  }
  EXPECT_GT(prefetched, 0u) << "the hint layer should have prefetched the boundary rows";
  EXPECT_EQ(wasted, 0u) << "perfectly regular strips must not waste a single prefetch";
}

// --- Inline access hit ---
//
// DsmNode::Access answers a hit inline only on a page that owes no NotePageUsed bookkeeping.
// The first test checks the one-word test against that definition on every entry it can see;
// the two runs after it each hit a page that does owe it, through the public access path.

TEST(DsmAccessTest, OneWordHitMatchesPresentAndNoBookkeeping) {
  int cases = 0;
  for (const PageState state : {PageState::kInvalid, PageState::kReadOnly, PageState::kReadWrite}) {
    for (int flags = 0; flags < 16; ++flags) {
      for (const AccessMode mode : {AccessMode::kRead, AccessMode::kWrite}) {
        PageEntry e;
        e.state = state;
        e.pending_use = (flags & 1) != 0;
        e.prefetched_unused = (flags & 2) != 0;
        e.owner = (flags & 4) != 0;
        e.fetching = (flags & 8) != 0;
        const bool present = mode == AccessMode::kRead ? state != PageState::kInvalid
                                                       : state == PageState::kReadWrite;
        EXPECT_EQ(HitsInline(e, mode), present && !e.pending_use && !e.prefetched_unused)
            << "state " << static_cast<int>(state) << " flags " << flags << " mode "
            << static_cast<int>(mode);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 3 * 16 * 2);
}

TEST(DsmAccessTest, FirstReadOfAPrefetchedCopyCountsAsUse) {
  // A prefetched copy that lands with no waiters is marked unused. The read that first touches it
  // must clear the mark; otherwise the implicit invalidation at the next barrier books the copy
  // as a wasted prefetch, and the hint layer prunes a page the pool does read.
  Cluster cluster(Config(2, Pcp::kImplicitInvalidate));
  const GlobalAddr addr = cluster.layout().AllocPadded(cluster.layout().page_size(), "x");
  const PageId page = cluster.layout().PageOf(addr);
  bool landed_unused = false;
  uint64_t value = 0;
  bool died = false;
  bool reported_wasted = true;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    DsmNode& dsm = env.runtime().dsm();
    if (env.node() == 0) {
      env.Write<uint64_t>(addr, 42);
    }
    env.Barrier();
    if (env.node() == 1) {
      dsm.Prefetch(page, 1, AccessMode::kRead);
      while (dsm.pending_fetches() > 0) {
        env.ChargeWork(Microseconds(100.0));  // the reply installs the copy mid-charge
      }
      landed_unused = dsm.page(page).prefetched_unused;
      value = env.Read<uint64_t>(addr);
    }
    env.Barrier();  // implicit invalidation: node 1's read-only copy dies here
    if (env.node() == 1) {
      died = dsm.page(page).state == PageState::kInvalid;
      reported_wasted = dsm.ConsumePrefetchWasted(page);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  ASSERT_TRUE(landed_unused) << "the prefetched copy must land with no waiters";
  ASSERT_TRUE(died) << "the copy must die at the barrier";
  EXPECT_EQ(value, 42u);
  EXPECT_EQ(r.nodes[1].dsm.prefetched_pages, 1u);
  EXPECT_EQ(r.nodes[1].dsm.prefetch_wasted, 0u);
  EXPECT_FALSE(reported_wasted);
}

// The use-once run below: filaments are plain function pointers, so their context is static.
struct UseOnceRun {
  GlobalAddr addr = 0;
  PageId page = 0;
  bool held_at_read = false;
  bool held_after_read = true;
  uint64_t value = 0;
};
UseOnceRun use_once;

void FaultingRead(NodeEnv& env, int64_t, int64_t, int64_t) {
  env.Read<uint64_t>(use_once.addr);
}

void ReadBeforeTheFaulterRuns(NodeEnv& env, int64_t, int64_t, int64_t) {
  const DsmNode& dsm = env.runtime().dsm();
  while (dsm.page(use_once.page).state == PageState::kInvalid) {
    env.ChargeWork(Microseconds(100.0));  // the reply installs the page mid-charge
  }
  use_once.held_at_read = dsm.page(use_once.page).pending_use;
  use_once.value = env.Read<uint64_t>(use_once.addr);
  use_once.held_after_read = dsm.page(use_once.page).pending_use;
}

TEST(DsmAccessTest, HitBeforeTheWokenFaulterRunsRetiresTheUseOnceHold) {
  // Pool 0's runner faults on node 0's page and blocks; the replacement runner (pool 1) charges
  // until the page is installed for the blocked faulter (pending_use, which defers serves), then
  // reads it before the faulter runs. That read is a local use and must retire the hold.
  Cluster cluster(Config(2, Pcp::kWriteInvalidate));
  use_once = UseOnceRun{};
  use_once.addr = cluster.layout().AllocPadded(cluster.layout().page_size(), "x");
  use_once.page = cluster.layout().PageOf(use_once.addr);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      env.Write<uint64_t>(use_once.addr, 7);
    }
    env.Barrier();
    if (env.node() == 1) {
      env.CreateFilament(env.CreatePool(), &FaultingRead);
      env.CreateFilament(env.CreatePool(), &ReadBeforeTheFaulterRuns);
      env.RunPools();
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  ASSERT_TRUE(use_once.held_at_read) << "the page must be installed for a faulter not yet run";
  EXPECT_EQ(use_once.value, 7u);
  EXPECT_FALSE(use_once.held_after_read);
}

// --- Page re-homing ---

TEST(DsmRehomeTest, DelayedDuplicateRequestNeverOrphansThePage) {
  // Node 1 re-homes node 0's page, then node 0 takes it back with a write. The network delivers a
  // second copy of the re-home request after that, when node 0 owns the page again and still
  // keeps the grant record that names the copy's fault. Serving the copy would demote node 0
  // while node 1 drops the unexpected reply, leaving the page with no owner: the next fault on it
  // would be redirected back to its own node. Node 0 must report the page as a miss instead.
  ClusterConfig cfg = Config(2, Pcp::kWriteInvalidate);
  sim::FaultRule dup;
  dup.type = static_cast<uint32_t>(net::Service::kRehomePages);
  dup.klass = sim::MsgClass::kRequest;
  dup.duplicate = 1.0;
  dup.delay_min = Milliseconds(300.0);
  dup.delay_max = Milliseconds(300.0);
  cfg.fault_plan.rules.push_back(dup);
  CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  const GlobalAddr addr = cluster.layout().AllocPadded(cluster.layout().page_size(), "x");
  const PageId page = cluster.layout().PageOf(addr);
  std::array<bool, 2> owns{};
  bool read = false;
  uint64_t value = 0;
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    DsmNode& dsm = env.runtime().dsm();
    if (env.node() == 1) {
      dsm.RequestRehome({page}, 0);
    }
    env.Barrier();  // the re-home has landed: node 1 owns the page
    if (env.node() == 0) {
      env.Write<uint64_t>(addr, 7);  // takes the page back
    }
    env.Barrier();
    env.ChargeWork(Milliseconds(600.0));  // the duplicate reaches node 0 meanwhile
    env.Barrier();
    owns[env.node()] = dsm.page(page).owner;
    env.Barrier();
    // Read only when exactly one node owns the page: with none, node 1's fault would chase a
    // redirect to itself, a check that ends the process rather than this test.
    if (env.node() == 1 && owns[0] != owns[1]) {
      value = env.Read<uint64_t>(addr);
      read = true;
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_NE(owns[0], owns[1]) << "exactly one node must own the page";
  EXPECT_TRUE(read);
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(r.nodes[1].dsm.pages_rehomed, 1u);
  EXPECT_EQ(r.nodes[0].dsm.rehome_misses_served, 1u) << "the duplicate is a miss";
}

// --- Copy list ---
//
// The implicit-invalidate and diff sync points walk a list of the pages that may hold a copy,
// not the page table. Each run below mixes demand read copies, a bulk prefetch (one of whose
// pages is never read), ownership moves and, on one page, false-sharing writes by every node.
// After every barrier no non-owned, read-only, non-fetching page may be left under a sweeping
// protocol (write-invalidate copies live on by design), and the count of implicit
// invalidations must be the one the full-table sweep gave (pinned from it).

struct CopyListCase {
  const char* name;
  Pcp pcp;
  bool adapt;
  uint64_t implicit_invalidations;  // cluster total under the full-table sweep
};

void PrintTo(const CopyListCase& c, std::ostream* os) { *os << c.name; }

class DsmCopyListTest : public ::testing::TestWithParam<CopyListCase> {};

TEST_P(DsmCopyListTest, SyncPointsLeaveNoReadCopy) {
  const CopyListCase c = GetParam();
  constexpr int kNodes = 4;
  constexpr int kPagesPerNode = 4;
  constexpr int kPages = kNodes * kPagesPerNode;
  ClusterConfig cfg = Config(kNodes, c.pcp);
  cfg.dsm.adapt_protocols = c.adapt;
  Cluster cluster(cfg);
  const size_t ps = cluster.layout().page_size();
  const size_t per_page = ps / sizeof(double);
  auto arr = GlobalArray1D<double>::Alloc(cluster.layout(), kPages * per_page, "arr");
  for (NodeId n = 0; n < kNodes; ++n) {
    cluster.layout().SetInitialOwner(arr.addr(n * kPagesPerNode * per_page), kPagesPerNode * ps,
                                     n);
  }
  const PageId first_page = cluster.layout().PageOf(arr.addr(0));
  const bool sweeps = c.pcp == Pcp::kImplicitInvalidate || c.pcp == Pcp::kDiff;
  std::vector<int> left(kNodes, 0);  // read copies found after a barrier
  std::vector<int> wrong(kNodes, 0);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    DsmNode& dsm = env.runtime().dsm();
    const int me = env.node();
    const auto count_read_copies = [&] {
      for (PageId p = first_page; p < first_page + kPages; ++p) {
        const PageEntry& e = dsm.page(p);
        left[me] += !e.owner && e.state == PageState::kReadOnly && !e.fetching ? 1 : 0;
      }
    };
    for (int epoch = 0; epoch < 5; ++epoch) {
      for (int q = me * kPagesPerNode; q < (me + 1) * kPagesPerNode; ++q) {
        arr.Write(env, q * per_page + epoch, q * 10.0 + epoch);
      }
      arr.Write(env, 100 + me, epoch);  // every node writes its own word of page 0
      if (epoch % 2 == 1) {
        // Take over the last page of the next node's block (an ownership move, or a twin).
        const int q = ((me + 1) % kNodes) * kPagesPerNode + kPagesPerNode - 1;
        arr.Write(env, q * per_page + 200 + me, epoch);
      }
      env.Barrier();
      count_read_copies();
      if (me == 1 && c.pcp != Pcp::kMigratory) {
        // Node 3's block as one bulk fetch; its last page is never read before the barrier.
        dsm.Prefetch(first_page + 3 * kPagesPerNode, kPagesPerNode, AccessMode::kRead);
        while (dsm.pending_fetches() > 0) {
          env.ChargeWork(Microseconds(100.0));
        }
      }
      for (int q = 0; q < kPages - 1; ++q) {
        wrong[me] += arr.Read(env, q * per_page + epoch) != q * 10.0 + epoch ? 1 : 0;
      }
      env.Barrier();
      count_read_copies();
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  uint64_t implicit = 0;
  uint64_t prefetched = 0;
  uint64_t to_diff = 0;
  int copies_left = 0;
  for (const core::NodeReport& nr : r.nodes) {
    implicit += nr.dsm.implicit_invalidations;
    prefetched += nr.dsm.prefetched_pages;
    to_diff += nr.dsm.adapter_switches_to_diff;
    copies_left += left[nr.node];
    EXPECT_EQ(wrong[nr.node], 0) << "node " << nr.node;
  }
  if (sweeps) {
    EXPECT_EQ(copies_left, 0);
  } else if (c.pcp == Pcp::kWriteInvalidate) {
    EXPECT_GT(copies_left, 0) << "write-invalidate copies outlive a barrier";
  }
  if (c.pcp != Pcp::kMigratory) {
    EXPECT_GT(prefetched, 0u);
  }
  if (c.adapt) {
    EXPECT_GT(to_diff, 0u) << "page 0's writers must flip it to diff";
  }
  EXPECT_EQ(implicit, c.implicit_invalidations);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DsmCopyListTest,
    ::testing::Values(CopyListCase{"implicit_invalidate", Pcp::kImplicitInvalidate, false, 228},
                      CopyListCase{"diff", Pcp::kDiff, false, 253},
                      CopyListCase{"adaptive", Pcp::kImplicitInvalidate, true, 236},
                      CopyListCase{"write_invalidate", Pcp::kWriteInvalidate, false, 0},
                      CopyListCase{"migratory", Pcp::kMigratory, false, 0}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace dfil::dsm
