//===- tests/check_test.cpp - Invariant checker unit tests ----------------===//
///
/// Exercises the src/check subsystem on both sides: hand-built violations
/// must each produce their diagnostic, and real simulations run with
/// MachineConfig::CheckInvariants set must complete cleanly — on both L2
/// organizations and both interleave granularities — without perturbing a
/// single result bit.
///
//===----------------------------------------------------------------------===//

#include "cache/Cache.h"
#include "cache/Directory.h"
#include "check/Invariants.h"
#include "harness/Experiment.h"
#include "noc/Network.h"
#include "sim/Engine.h"
#include "support/Random.h"
#include "workloads/AppModel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace offchip;

namespace {

/// True when some message in \p Out contains \p Needle.
bool anyContains(const std::vector<std::string> &Out,
                 const std::string &Needle) {
  for (const std::string &S : Out)
    if (S.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// RequestLedger
//===----------------------------------------------------------------------===//

TEST(RequestLedgerTest, CleanRunVerifiesEmpty) {
  RequestLedger L(2);
  L.issue(0, 10);
  L.retire(0, 10);
  L.issue(1, 5);
  L.retire(1, 5);
  L.issue(0, 20);
  L.retire(0, 20);
  EXPECT_TRUE(L.verify(3).empty());
}

TEST(RequestLedgerTest, EqualConsecutiveKeysAreLegal) {
  // Zero latency plus a zero compute gap can legally repeat a key; the
  // monotonicity check must be non-strict.
  RequestLedger L(1);
  L.issue(0, 7);
  L.retire(0, 7);
  L.issue(0, 7);
  L.retire(0, 7);
  EXPECT_TRUE(L.verify(2).empty());
}

TEST(RequestLedgerTest, DetectsDoubleIssue) {
  RequestLedger L(1);
  L.issue(0, 1);
  L.issue(0, 2);
  L.retire(0, 2);
  L.retire(0, 2);
  std::vector<std::string> Out = L.verify(2);
  EXPECT_TRUE(anyContains(Out, "while one was in flight"));
}

TEST(RequestLedgerTest, DetectsStrayRetire) {
  RequestLedger L(1);
  L.retire(0, 1);
  std::vector<std::string> Out = L.verify(0);
  EXPECT_TRUE(anyContains(Out, "never issued"));
}

TEST(RequestLedgerTest, DetectsKeyMismatch) {
  RequestLedger L(1);
  L.issue(0, 1);
  L.retire(0, 99);
  std::vector<std::string> Out = L.verify(1);
  EXPECT_TRUE(anyContains(Out, "different key"));
}

TEST(RequestLedgerTest, DetectsBackwardsKeys) {
  RequestLedger L(1);
  L.issue(0, 10);
  L.retire(0, 10);
  L.issue(0, 9);
  L.retire(0, 9);
  std::vector<std::string> Out = L.verify(2);
  EXPECT_TRUE(anyContains(Out, "went backwards"));
}

TEST(RequestLedgerTest, DetectsAccessStillInFlight) {
  RequestLedger L(1);
  L.issue(0, 1);
  std::vector<std::string> Out = L.verify(1);
  EXPECT_TRUE(anyContains(Out, "still in flight"));
}

TEST(RequestLedgerTest, DetectsTotalAccessMismatch) {
  RequestLedger L(1);
  L.issue(0, 1);
  L.retire(0, 1);
  std::vector<std::string> Out = L.verify(2);
  EXPECT_TRUE(anyContains(Out, "the run counted"));
}

//===----------------------------------------------------------------------===//
// MC traffic conservation
//===----------------------------------------------------------------------===//

TEST(McConservationTest, BalancedTablesAreClean) {
  // 2 nodes x 2 MCs: node 0 sent 3 to MC0 and 1 to MC1, node 1 sent 2 to
  // each. Columns: MC0 = 5, MC1 = 3; grand total 8.
  std::vector<std::uint64_t> PerMC = {5, 3};
  std::vector<std::uint64_t> Table = {3, 1, 2, 2};
  std::vector<std::string> Out;
  checkMcConservation(PerMC, Table, 2, 2, 8, Out);
  EXPECT_TRUE(Out.empty());
}

TEST(McConservationTest, DetectsColumnMismatch) {
  std::vector<std::uint64_t> PerMC = {4, 3}; // MC0 claims 4, table says 5
  std::vector<std::uint64_t> Table = {3, 1, 2, 2};
  std::vector<std::string> Out;
  checkMcConservation(PerMC, Table, 2, 2, 8, Out);
  EXPECT_TRUE(anyContains(Out, "MC 0"));
  EXPECT_TRUE(anyContains(Out, "traffic table records"));
}

TEST(McConservationTest, DetectsGrandTotalMismatch) {
  std::vector<std::uint64_t> PerMC = {5, 3};
  std::vector<std::uint64_t> Table = {3, 1, 2, 2};
  std::vector<std::string> Out;
  checkMcConservation(PerMC, Table, 2, 2, 9, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(anyContains(Out, "the run counted 9"));
}

TEST(McConservationTest, DetectsMisSizedTables) {
  std::vector<std::uint64_t> PerMC = {5};
  std::vector<std::uint64_t> Table = {3, 1, 2, 2};
  std::vector<std::string> Out;
  checkMcConservation(PerMC, Table, 2, 2, 8, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(anyContains(Out, "mis-sized"));
}

//===----------------------------------------------------------------------===//
// Directory vs private L2 contents
//===----------------------------------------------------------------------===//

namespace {

std::vector<Cache> makeL2s(unsigned Count) {
  std::vector<Cache> L2s;
  L2s.reserve(Count);
  for (unsigned I = 0; I < Count; ++I)
    L2s.emplace_back(/*SizeBytes=*/16 * 1024, /*LineBytes=*/256, /*Ways=*/4);
  return L2s;
}

} // namespace

TEST(DirectoryL2Test, ConsistentStateIsClean) {
  Directory Dir(4);
  std::vector<Cache> L2s = makeL2s(4);
  for (unsigned Node = 0; Node < 4; ++Node) {
    for (std::uint64_t Line = 1; Line <= 16; ++Line) {
      L2s[Node].insert(Line * 7 + Node, false);
      Dir.addSharer(Line * 7 + Node, Node);
    }
  }
  // A line shared by all four nodes.
  for (unsigned Node = 0; Node < 4; ++Node) {
    L2s[Node].insert(1000, false);
    Dir.addSharer(1000, Node);
  }
  std::vector<std::string> Out;
  checkDirectoryAgainstL2s(Dir, L2s, Out);
  EXPECT_TRUE(Out.empty()) << Out.front();
}

TEST(DirectoryL2Test, DetectsSharerWithoutResidentLine) {
  Directory Dir(2);
  std::vector<Cache> L2s = makeL2s(2);
  Dir.addSharer(42, 1); // node 1 never filled line 42
  std::vector<std::string> Out;
  checkDirectoryAgainstL2s(Dir, L2s, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(anyContains(Out, "its L2 does not hold it"));
  EXPECT_TRUE(anyContains(Out, "node 1"));
}

TEST(DirectoryL2Test, DetectsResidentLineWithoutSharer) {
  Directory Dir(2);
  std::vector<Cache> L2s = makeL2s(2);
  L2s[0].insert(42, false); // resident but never recorded
  std::vector<std::string> Out;
  checkDirectoryAgainstL2s(Dir, L2s, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(anyContains(Out, "the directory does not track it"));
}

TEST(DirectoryL2Test, CapsMismatchFlood) {
  // One aliasing bug corrupts thousands of lines; the report must stay
  // readable. 20 phantom sharers -> 8 reports plus one ellipsis line.
  Directory Dir(1);
  std::vector<Cache> L2s = makeL2s(1);
  for (std::uint64_t Line = 1; Line <= 20; ++Line)
    Dir.addSharer(Line, 0);
  std::vector<std::string> Out;
  checkDirectoryAgainstL2s(Dir, L2s, Out);
  EXPECT_EQ(Out.size(), 9u);
  EXPECT_TRUE(anyContains(Out, "and 12 more"));
}

//===----------------------------------------------------------------------===//
// NoC link calendars
//===----------------------------------------------------------------------===//

TEST(NetworkCalendarTest, WellFormedUnderRandomTraffic) {
  Mesh M(4, 4);
  Network Net(M, NocConfig{});
  SplitMix64 Rng(11);
  for (int I = 0; I < 2000; ++I) {
    unsigned Src = static_cast<unsigned>(Rng.nextBelow(16));
    unsigned Dst = static_cast<unsigned>(Rng.nextBelow(16));
    Net.send(Src, Dst, 16 + static_cast<unsigned>(Rng.nextBelow(256)),
             Rng.nextBelow(10000));
    if (I % 100 == 0) {
      std::string Why;
      ASSERT_TRUE(Net.checkCalendars(&Why)) << Why;
    }
  }
  std::string Why;
  EXPECT_TRUE(Net.checkCalendars(&Why)) << Why;
}

//===----------------------------------------------------------------------===//
// End-to-end: simulations pass their own invariant checks
//===----------------------------------------------------------------------===//

namespace {

/// Runs swim under \p Config with checking on and returns the result; a
/// violated invariant aborts inside runSimulation, failing the test.
SimResult runChecked(MachineConfig Config) {
  Config.CheckInvariants = true;
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer::originalPlan(App.Program);
  ClusterMapping Mapping = makeM1Mapping(Config);
  return runSingle(App.Program, Plan, Config, Mapping);
}

} // namespace

TEST(CheckedRunTest, PrivateL2Serial) {
  SimResult R = runChecked(MachineConfig::scaledDefault());
  EXPECT_GT(R.TotalAccesses, 0u);
}

TEST(CheckedRunTest, SharedL2Serial) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.SharedL2 = true;
  SimResult R = runChecked(C);
  EXPECT_GT(R.RemoteL2Hits, 0u);
}

TEST(CheckedRunTest, PageInterleaveFirstTouch) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Granularity = InterleaveGranularity::Page;
  C.PagePolicy = PageAllocPolicy::FirstTouch;
  SimResult R = runChecked(C);
  EXPECT_GT(R.OffChipAccesses, 0u);
}

TEST(CheckedRunTest, OptimalScheme) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.OptimalScheme = true;
  SimResult R = runChecked(C);
  EXPECT_GT(R.OffChipAccesses, 0u);
}

TEST(CheckedRunTest, CheckingNeverPerturbsResults) {
  MachineConfig C = MachineConfig::scaledDefault();
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer::originalPlan(App.Program);
  ClusterMapping Mapping = makeM1Mapping(C);
  SimResult Plain = runSingle(App.Program, Plan, C, Mapping);
  MachineConfig Checked = C;
  Checked.CheckInvariants = true;
  SimResult WithChecks = runSingle(App.Program, Plan, Checked, Mapping);
  std::string Why;
  EXPECT_TRUE(equalResults(Plain, WithChecks, &Why)) << "diverged on " << Why;
}

//===----------------------------------------------------------------------===//
// equalResults: the fuzzer's comparison primitive
//===----------------------------------------------------------------------===//

TEST(EqualResultsTest, NamesTheFirstDifferingField) {
  MachineConfig C = MachineConfig::scaledDefault();
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer::originalPlan(App.Program);
  ClusterMapping Mapping = makeM1Mapping(C);
  SimResult A = runSingle(App.Program, Plan, C, Mapping);
  SimResult B = A;
  EXPECT_TRUE(equalResults(A, B, nullptr));
  B.L1Hits += 1;
  std::string Why;
  EXPECT_FALSE(equalResults(A, B, &Why));
  EXPECT_EQ(Why, "L1Hits");
  B = A;
  B.NodeToMCTraffic.back() += 1;
  EXPECT_FALSE(equalResults(A, B, &Why));
  EXPECT_EQ(Why, "NodeToMCTraffic");
}

//===----------------------------------------------------------------------===//
// runSimulation refuses invalid configurations
//===----------------------------------------------------------------------===//

TEST(CheckDeathTest, RunSimulationRejectsInvalidConfig) {
  MachineConfig Good = MachineConfig::scaledDefault();
  ClusterMapping Mapping = makeM1Mapping(Good);
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer::originalPlan(App.Program);
  MachineConfig Bad = Good;
  Bad.MeshX = 1; // validate() fires before any constructor can fault
  EXPECT_DEATH(runSingle(App.Program, Plan, Bad, Mapping),
               "invalid machine config: MeshX");
}
