//===- tests/trace_test.cpp -----------------------------------------------===//
///
/// The tracing subsystem promises two things the rest of the repo leans on:
///
///  1. Observation does not perturb: a traced run produces a SimResult
///     identical to the untraced run, field for field, on every config axis.
///  2. Trace output is deterministic: the rendered trace.json and
///     series.csv bytes are identical from run to run, even when the
///     per-node event rings overflow and drop.
///
/// Plus the exporter contracts: the CSV dump round-trips through its parser,
/// and the re-derived node->MC traffic table matches SimResult exactly.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "sim/Engine.h"
#include "trace/ChromeExport.h"
#include "trace/TimeSeries.h"
#include "workloads/AppModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

using namespace offchip;

namespace {

/// Exact equality over the full SimResult (pins "tracing observes, never
/// perturbs").
void expectIdentical(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(A.ExecutionCycles, B.ExecutionCycles);
  EXPECT_EQ(A.ThreadFinishCycles, B.ThreadFinishCycles);
  EXPECT_EQ(A.TotalAccesses, B.TotalAccesses);
  EXPECT_EQ(A.L1Hits, B.L1Hits);
  EXPECT_EQ(A.LocalL2Hits, B.LocalL2Hits);
  EXPECT_EQ(A.RemoteL2Hits, B.RemoteL2Hits);
  EXPECT_EQ(A.OffChipAccesses, B.OffChipAccesses);

  auto ExpectAccEq = [](const Accumulator &X, const Accumulator &Y,
                        const char *Name) {
    EXPECT_EQ(X.count(), Y.count()) << Name;
    EXPECT_EQ(X.sum(), Y.sum()) << Name;
    EXPECT_EQ(X.min(), Y.min()) << Name;
    EXPECT_EQ(X.max(), Y.max()) << Name;
  };
  ExpectAccEq(A.OnChipNetLatency, B.OnChipNetLatency, "OnChipNetLatency");
  ExpectAccEq(A.OffChipNetLatency, B.OffChipNetLatency, "OffChipNetLatency");
  ExpectAccEq(A.MemLatency, B.MemLatency, "MemLatency");
  ExpectAccEq(A.AccessLatency, B.AccessLatency, "AccessLatency");

  auto ExpectHistEq = [](const IntHistogram &X, const IntHistogram &Y,
                         const char *Name) {
    EXPECT_EQ(X.total(), Y.total()) << Name;
    unsigned Top = std::max(X.maxNonEmptyBucket(), Y.maxNonEmptyBucket());
    for (unsigned I = 0; I <= Top; ++I)
      EXPECT_EQ(X.countAt(I), Y.countAt(I)) << Name << " bucket " << I;
  };
  ExpectHistEq(A.OffNetLatencyHist, B.OffNetLatencyHist, "OffNetLatencyHist");
  ExpectHistEq(A.OnChipMsgHops, B.OnChipMsgHops, "OnChipMsgHops");
  ExpectHistEq(A.OffChipMsgHops, B.OffChipMsgHops, "OffChipMsgHops");

  EXPECT_EQ(A.NumNodes, B.NumNodes);
  EXPECT_EQ(A.NumMCs, B.NumMCs);
  EXPECT_EQ(A.NodeToMCTraffic, B.NodeToMCTraffic);

  EXPECT_EQ(A.AvgBankQueueOccupancy, B.AvgBankQueueOccupancy);
  EXPECT_EQ(A.RowHitRate, B.RowHitRate);
  EXPECT_EQ(A.PerMCQueueOccupancy, B.PerMCQueueOccupancy);
  EXPECT_EQ(A.PerMCAccesses, B.PerMCAccesses);

  EXPECT_EQ(A.RedirectedPages, B.RedirectedPages);
  EXPECT_EQ(A.AllocatedPages, B.AllocatedPages);
}

MachineConfig smallConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.MeshY = 4;
  return C;
}

/// Runs \p App with tracing enabled (in-memory only; no files written).
SimResult runTraced(const AppModel &App, MachineConfig Config,
                    RunVariant Variant) {
  Config.Trace.Enabled = true;
  ClusterMapping M = makeM1Mapping(Config);
  return runVariant(App, Config, M, Variant);
}

/// Tracing must not change a single simulated number, on any config axis:
/// the identity-mapped cache-line path, the translated page path, shared L2
/// and the optimized variant.
void checkUnperturbed(const char *AppName, MachineConfig Config,
                      RunVariant Variant) {
  AppModel App = buildApp(AppName, /*SizeScale=*/0.1);
  ClusterMapping M = makeM1Mapping(Config);
  SimResult Plain = runVariant(App, Config, M, Variant);
  EXPECT_EQ(Plain.Trace, nullptr);
  SimResult Traced = runTraced(App, Config, Variant);
  ASSERT_NE(Traced.Trace, nullptr);
  EXPECT_GT(Traced.Trace->EmittedEvents, 0u);
  SCOPED_TRACE(AppName);
  expectIdentical(Plain, Traced);
}

} // namespace

TEST(Trace, UnperturbedPrivateL2CacheLine) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::CacheLine;
  checkUnperturbed("swim", C, RunVariant::Original);
}

TEST(Trace, UnperturbedPageInterleaving) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  checkUnperturbed("swim", C, RunVariant::Original);
}

TEST(Trace, UnperturbedSharedL2) {
  MachineConfig C = smallConfig();
  C.SharedL2 = true;
  checkUnperturbed("mgrid", C, RunVariant::Original);
}

TEST(Trace, UnperturbedOptimalScheme) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  C.OptimalScheme = true;
  checkUnperturbed("wupwise", C, RunVariant::Optimized);
}

TEST(Trace, UnperturbedCoherence) {
  MachineConfig C = smallConfig();
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  checkUnperturbed("swim", C, RunVariant::Original);
}

// Every access that does not complete in L1 emits exactly one Complete
// event, whichever flow serves it: the coherence-free private L2 under
// cache-line and page interleaving, the shared L2, and the MSI flow (whose
// write hits on Shared lines complete through an upgrade, not in L1).
TEST(Trace, OneCompletePerL1Miss) {
  AppModel App = buildApp("swim", 0.1);
  auto Check = [&App](const char *Flow, MachineConfig C) {
    SCOPED_TRACE(Flow);
    C.Trace.Enabled = true;
    C.Trace.MaxEventsPerNode = ~0ull; // uncapped: count every event
    ClusterMapping M = makeM1Mapping(C);
    SimResult R = runVariant(App, C, M, RunVariant::Original);
    ASSERT_NE(R.Trace, nullptr);
    ASSERT_EQ(R.Trace->DroppedEvents, 0u);
    std::uint64_t Completes = 0;
    for (const TraceEvent &E : R.Trace->Events)
      Completes += E.Kind == TraceKind::Complete ? 1 : 0;
    if (!C.SharedL2) {
      EXPECT_GT(R.LocalL2Hits, 0u);
    }
    EXPECT_EQ(Completes, R.TotalAccesses - R.L1Hits);
  };
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::CacheLine;
  Check("private L2, cache-line interleaving", C);
  C.Granularity = InterleaveGranularity::Page;
  Check("private L2, page interleaving", C);
  C = smallConfig();
  C.SharedL2 = true;
  Check("shared L2", C);
  C = smallConfig();
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  Check("MSI", C);
}

// Byte-identity must survive ring overflow: with a tiny per-node cap the
// drops are a pure function of each node's event sequence, so two capped
// runs export the same bytes.
TEST(Trace, RingCapDropsAreDeterministic) {
  MachineConfig C = smallConfig();
  AppModel App = buildApp("mgrid", 0.1);

  C.Trace.Enabled = true;
  C.Trace.MaxEventsPerNode = 64;
  ClusterMapping M = makeM1Mapping(C);
  SimResult First = runVariant(App, C, M, RunVariant::Original);
  ASSERT_NE(First.Trace, nullptr);
  EXPECT_GT(First.Trace->DroppedEvents, 0u);
  EXPECT_LE(First.Trace->Events.size(),
            static_cast<std::size_t>(64) * C.numNodes());
  EXPECT_EQ(First.Trace->EmittedEvents,
            First.Trace->Events.size() + First.Trace->DroppedEvents);

  SimResult Second = runVariant(App, C, M, RunVariant::Original);
  ASSERT_NE(Second.Trace, nullptr);
  EXPECT_EQ(First.Trace->DroppedEvents, Second.Trace->DroppedEvents);
  EXPECT_EQ(renderChromeTrace(*First.Trace),
            renderChromeTrace(*Second.Trace));
  EXPECT_EQ(renderTimeSeriesCsv(*First.Trace),
            renderTimeSeriesCsv(*Second.Trace));
}

// writeChromeTrace streams the file chunk by chunk; the bytes must equal
// the one-string render, across several chunks.
TEST(Trace, WrittenFileEqualsRender) {
  MachineConfig C = smallConfig();
  C.Trace.Enabled = true;
  C.Trace.MaxEventsPerNode = ~0ull;
  AppModel App = buildApp("swim", 0.1);
  ClusterMapping M = makeM1Mapping(C);
  SimResult R = runVariant(App, C, M, RunVariant::Original);
  ASSERT_NE(R.Trace, nullptr);
  std::string Rendered = renderChromeTrace(*R.Trace);
  EXPECT_GT(Rendered.size(), std::size_t(3) << 20);

  std::string Path = ::testing::TempDir() + "trace_written_file.trace.json";
  ASSERT_TRUE(writeChromeTrace(*R.Trace, Path));
  std::ifstream In(Path, std::ios::binary);
  std::string Written((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  std::remove(Path.c_str());
  EXPECT_TRUE(Written == Rendered)
      << "written " << Written.size() << " bytes, rendered "
      << Rendered.size();
}

// The trace-side traffic table is re-derived independently (counted at
// TraceSink::emit) and must agree exactly with the engine's own Figure 13 map.
// The aggregate tables ignore the ring cap, so this holds even when the
// event list is truncated.
TEST(Trace, TrafficTableMatchesSimResult) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  C.Trace.Enabled = true;
  C.Trace.MaxEventsPerNode = 16; // force heavy dropping
  AppModel App = buildApp("swim", 0.1);
  ClusterMapping M = makeM1Mapping(C);
  SimResult R = runVariant(App, C, M, RunVariant::Original);
  ASSERT_NE(R.Trace, nullptr);
  EXPECT_GT(R.Trace->DroppedEvents, 0u);
  ASSERT_EQ(R.Trace->NodeToMCRequests.size(), R.NodeToMCTraffic.size());
  EXPECT_EQ(R.Trace->NodeToMCRequests, R.NodeToMCTraffic);
}

// Events are sorted by access key, and every kind that reaches the export
// is well-formed: nodes, MCs and links stay inside the machine geometry.
TEST(Trace, EventStreamIsSortedAndInBounds) {
  MachineConfig C = smallConfig();
  AppModel App = buildApp("swim", 0.1);
  SimResult R = runTraced(App, C, RunVariant::Original);
  ASSERT_NE(R.Trace, nullptr);
  const TraceData &D = *R.Trace;
  ASSERT_FALSE(D.Events.empty());
  for (std::size_t I = 1; I < D.Events.size(); ++I)
    ASSERT_LE(D.Events[I - 1].Key, D.Events[I].Key) << "event " << I;
  for (const TraceEvent &E : D.Events) {
    ASSERT_LT(E.Node, D.NumNodes);
    switch (E.Kind) {
    case TraceKind::NocHop:
      ASSERT_LT(E.Aux, D.NumNodes * 4u);
      break;
    case TraceKind::MCEnqueue:
      ASSERT_LT(E.Aux, D.NumMCs);
      break;
    case TraceKind::BankService:
      ASSERT_LT(E.Aux >> 16, D.NumMCs);
      break;
    case TraceKind::L2Hit:
    case TraceKind::L2Miss:
    case TraceKind::DirLookup:
    case TraceKind::RemoteL2Hit:
      ASSERT_LT(E.Aux, D.NumNodes);
      break;
    default:
      break;
    }
  }
}

// The CSV dump parses back into the same aggregates: render -> parse ->
// render is a fixed point, and the parsed geometry matches.
TEST(Trace, TimeSeriesCsvRoundTrips) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  AppModel App = buildApp("wupwise", 0.1);
  SimResult R = runTraced(App, C, RunVariant::Original);
  ASSERT_NE(R.Trace, nullptr);

  std::string Csv = renderTimeSeriesCsv(*R.Trace);
  TraceData Parsed;
  std::string Err;
  ASSERT_TRUE(parseTimeSeriesCsv(Csv, Parsed, &Err)) << Err;
  EXPECT_EQ(Parsed.NumNodes, R.Trace->NumNodes);
  EXPECT_EQ(Parsed.MeshX, R.Trace->MeshX);
  EXPECT_EQ(Parsed.NumMCs, R.Trace->NumMCs);
  EXPECT_EQ(Parsed.MCNodes, R.Trace->MCNodes);
  EXPECT_EQ(Parsed.NodeToMCRequests, R.Trace->NodeToMCRequests);
  EXPECT_EQ(Csv, renderTimeSeriesCsv(Parsed));

  // And the parsed dump renders the same human report as the original —
  // trace-report sees no difference between live and round-tripped data.
  EXPECT_EQ(renderTraceReport(*R.Trace), renderTraceReport(Parsed));
}

TEST(Trace, ParserRejectsMalformedDumps) {
  TraceData D;
  std::string Err;
  EXPECT_FALSE(parseTimeSeriesCsv("link,0,0,5\n", D, &Err)); // no meta
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseTimeSeriesCsv(
      "meta,num_nodes,16\nmeta,mesh_x,4\nmeta,num_mcs,2\n"
      "traffic,99,0,1,1\n",
      D, &Err)); // node out of range
  EXPECT_FALSE(parseTimeSeriesCsv(
      "meta,num_nodes,16\nmeta,mesh_x,4\nmeta,num_mcs,2\n"
      "bogus,1,2,3\n",
      D, &Err)); // unknown row kind
}
