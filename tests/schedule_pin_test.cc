// Pins the complete virtual-time schedule of Jacobi DF at the node counts the host-time benchmark
// runs (64) and at a non-power-of-two count (13), and of fork/join quadrature on shared Ethernet
// at 8 and 13 nodes. The simulator's scheduler must pick the same node at every step however it
// indexes the runnable hosts, and a pruned fork must cost what it did as an out-of-line call, so a
// tie-order slip or a moved charge anywhere shows up here as a changed makespan, event count,
// datagram count, fault or fork count, or trace hash. The 13-node cases also run under the central
// and dissemination barriers, with coalescing, and with the done and termination broadcasts sent
// as reliable requests, so every path of the reduction schedule and the broadcast is pinned.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/apps/jacobi.h"
#include "src/apps/quadrature.h"

namespace dfil::apps {
namespace {

using BarrierKind = core::ClusterConfig::BarrierKind;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

uint64_t TraceHash(const core::RunReport& report) {
  std::ostringstream trace;
  report.trace->WriteChromeTrace(trace);
  return Fnv1a(trace.str());
}

struct Pin {
  int nodes;
  SimTime makespan;
  uint64_t events;
  uint64_t datagrams;
  uint64_t faults;
  uint64_t trace_hash;
  BarrierKind barrier = BarrierKind::kTournamentBroadcast;
  bool coalesce = false;
};

// "" for the paper's tournament barrier, else the barrier kind as a test-name suffix.
std::string BarrierSuffix(BarrierKind barrier) {
  switch (barrier) {
    case BarrierKind::kTournamentBroadcast:
      return "";
    case BarrierKind::kCentral:
      return "_central";
    case BarrierKind::kDissemination:
      return "_dissemination";
  }
  return "_unknown";
}

class SchedulePin : public ::testing::TestWithParam<Pin> {};

TEST_P(SchedulePin, JacobiSwitchedScheduleIsUnchanged) {
  const Pin pin = GetParam();
  JacobiParams p;
  p.n = 256;
  p.iterations = 3;
  p.pools = 3;
  core::ClusterConfig cfg;
  cfg.nodes = pin.nodes;
  cfg.network = core::NetworkKind::kSwitched;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  cfg.barrier = pin.barrier;
  cfg.coalesce.enabled = pin.coalesce;
  cfg.trace_enabled = true;
  const AppRun df = RunJacobiDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  EXPECT_EQ(df.checksum, RunJacobiSeq(p, core::ClusterConfig{}).checksum);

  uint64_t datagrams = 0;
  uint64_t faults = 0;
  for (const core::NodeReport& nr : df.report.nodes) {
    datagrams += nr.packet.datagrams_sent;
    faults += nr.dsm.read_faults + nr.dsm.write_faults;
  }
  ASSERT_NE(df.report.trace, nullptr);

  EXPECT_EQ(df.report.makespan, pin.makespan);
  EXPECT_EQ(df.report.events, pin.events);
  EXPECT_EQ(datagrams, pin.datagrams);
  EXPECT_EQ(faults, pin.faults);
  EXPECT_EQ(TraceHash(df.report), pin.trace_hash);
}

std::string PinName(const Pin& pin) {
  return std::string("p")
      .append(std::to_string(pin.nodes))
      .append(BarrierSuffix(pin.barrier))
      .append(pin.coalesce ? "_coalesced" : "");
}

void PrintTo(const Pin& pin, std::ostream* os) {
  *os << "p=" << pin.nodes << BarrierSuffix(pin.barrier) << (pin.coalesce ? "_coalesced" : "");
}

// Recorded with a scheduler that scanned every host on every step and every Charge, the plain
// definition of the step order and the causal horizon. Any faster scheduler must match them. The
// central, dissemination and coalesced cases were recorded before the three barriers shared one
// reduction schedule.
INSTANTIATE_TEST_SUITE_P(
    Nodes, SchedulePin,
    ::testing::Values(
        Pin{64, 131784202, 1512, 1264, 378, 17992316678045315465ull},
        Pin{13, 305308798, 312, 266, 88, 7536173988298807045ull},
        Pin{13, 304733162, 312, 266, 88, 7879669914165408269ull, BarrierKind::kCentral},
        Pin{13, 313420718, 584, 582, 88, 1132592771355265799ull, BarrierKind::kDissemination},
        Pin{13, 304457308, 454, 208, 88, 11280630722848976799ull, BarrierKind::kCentral,
            /*coalesce=*/true}),
    [](const auto& info) { return PinName(info.param); });

struct FjPin {
  int nodes;
  SimTime makespan;
  uint64_t events;
  uint64_t datagrams;
  uint64_t forks_pruned;
  uint64_t forks_local;
  uint64_t forks_sent;
  uint64_t filaments_run;
  uint64_t steals_succeeded;
  uint64_t trace_hash;
  BarrierKind barrier = BarrierKind::kTournamentBroadcast;
  bool reliable_broadcast = false;
};

class SchedulePinForkJoin : public ::testing::TestWithParam<FjPin> {};

TEST_P(SchedulePinForkJoin, QuadratureEthernetScheduleIsUnchanged) {
  const FjPin pin = GetParam();
  QuadratureParams p;
  p.tolerance = 1e-6;
  core::ClusterConfig cfg;
  cfg.nodes = pin.nodes;
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.barrier = pin.barrier;
  cfg.reliable_broadcast = pin.reliable_broadcast;
  cfg.trace_enabled = true;
  const AppRun df = RunQuadratureDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  EXPECT_EQ(df.checksum, RunQuadratureSeq(p, core::ClusterConfig{}).checksum);

  uint64_t datagrams = 0;
  FilamentStats fs;
  for (const core::NodeReport& nr : df.report.nodes) {
    datagrams += nr.packet.datagrams_sent;
    fs += nr.filaments;
  }
  ASSERT_NE(df.report.trace, nullptr);

  EXPECT_EQ(df.report.makespan, pin.makespan);
  EXPECT_EQ(df.report.events, pin.events);
  EXPECT_EQ(datagrams, pin.datagrams);
  EXPECT_EQ(fs.forks_pruned, pin.forks_pruned);
  EXPECT_EQ(fs.forks_local, pin.forks_local);
  EXPECT_EQ(fs.forks_sent, pin.forks_sent);
  EXPECT_EQ(fs.filaments_run, pin.filaments_run);
  EXPECT_EQ(fs.steals_succeeded, pin.steals_succeeded);
  EXPECT_EQ(TraceHash(df.report), pin.trace_hash);
}

std::string FjPinName(const FjPin& pin) {
  return std::string("p")
      .append(std::to_string(pin.nodes))
      .append(BarrierSuffix(pin.barrier))
      .append(pin.reliable_broadcast ? "_reliable" : "");
}

void PrintTo(const FjPin& pin, std::ostream* os) {
  *os << "p=" << pin.nodes << BarrierSuffix(pin.barrier)
      << (pin.reliable_broadcast ? "_reliable" : "");
}

// Recorded with the pruned fork and its join as out-of-line calls into FjEngine, and with the
// event queue pruning cancelled entries whenever NextTime() or empty() was read. The central
// reliable case, whose done and kTerminate go out as one reliable request per node, was recorded
// before the broadcasts shared one send path.
INSTANTIATE_TEST_SUITE_P(
    Nodes, SchedulePinForkJoin,
    ::testing::Values(
        FjPin{8, 1162213851, 482, 461, 107868, 88079, 7, 88086, 37, 5468970854877725391ull},
        FjPin{13, 712829612, 1117, 1072, 82654, 113288, 12, 113300, 89, 5238769971391085009ull},
        FjPin{13, 745278612, 1205, 1180, 82654, 113288, 12, 113300, 89, 6435737383739716026ull,
              BarrierKind::kCentral, /*reliable_broadcast=*/true}),
    [](const auto& info) { return FjPinName(info.param); });

}  // namespace
}  // namespace dfil::apps
