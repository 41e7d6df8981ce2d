//===- tests/api_test.cpp - service API unit tests ------------------------===//
//
// Covers the request/response vocabulary underneath offchip-serve: the
// canonical content hash (stability, inclusion/exclusion sets), exact JSON
// roundtrips for every request/response variant, the LRU result cache
// (eviction, stats, concurrent access), the service layer (backpressure,
// drain, served-vs-direct bit identity), and executeRequest error
// reporting.
//
//===----------------------------------------------------------------------===//

#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/ResultCache.h"
#include "api/Serialize.h"
#include "api/Service.h"
#include "support/Format.h"

#include "gtest/gtest.h"

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <utility>

using namespace offchip;

namespace {

const char *TinyProgram = R"(
program tiny
array a dims 32 32 elem 8

nest sweep bounds 0:32 1:31 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)";

SimRequest tinySimulate() {
  SimRequest R;
  R.Kind = RequestKind::Simulate;
  R.Workload.ProgramText = TinyProgram;
  return R;
}

//===----------------------------------------------------------------------===//
// Content hash
//===----------------------------------------------------------------------===//

TEST(ContentHash, StableAcrossProcesses) {
  // The cache key of a canonical request is part of the wire contract: if
  // this value drifts, every deployed cache goes cold and the protocol's
  // "key" field changes meaning. Update only with a protocol bump (last:
  // the key became a walk of the wire field list, hashing each field's
  // wire name with its value, and the legacy engine keys were dropped).
  SimRequest R;
  R.Kind = RequestKind::Simulate;
  R.Workload.App = "swim";
  EXPECT_EQ(requestKey(R).str(), "83ebad93f7b0833ac2645e3e8b12b2c7");
}

TEST(ContentHash, IdAndExecutionKnobsExcluded) {
  SimRequest A = tinySimulate();
  SimRequest B = tinySimulate();
  B.Id = "completely-different";
  B.Config.CheckInvariants = !A.Config.CheckInvariants;
  B.Config.Trace.Enabled = true;
  B.Config.Trace.SampleCycles += 100;
  B.TracePrefix = "some-prefix";
  EXPECT_EQ(requestKey(A), requestKey(B));
}

TEST(ContentHash, ResultAffectingFieldsIncluded) {
  SimRequest Base = tinySimulate();
  CacheKey K = requestKey(Base);

  SimRequest R = Base;
  R.Config.MeshX = 4;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Kind = RequestKind::Optimize;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.MCsPerCluster = 2;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Workload.ProgramText += " ";
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.Dram.Timing.RowMissCycles += 1;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.PagePolicy = PageAllocPolicy::FirstTouch;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  EXPECT_NE(requestKey(R), K);
  CacheKey Msi = requestKey(R);
  R.Config.Coherence.Protocol = MachineConfig::CoherenceProtocol::MESI;
  EXPECT_NE(requestKey(R), Msi);

  R = Base;
  R.Config.Coherence.SparseDirectory = true;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.Coherence.SparseEntries *= 2;
  EXPECT_NE(requestKey(R), K);
}

TEST(ContentHash, AppAndScaleHashDistinctly) {
  SimRequest A;
  A.Workload.App = "swim";
  SimRequest B;
  B.Workload.App = "swim";
  B.Workload.SizeScale = 0.5;
  EXPECT_NE(requestKey(A), requestKey(B));

  SimRequest C;
  C.Workload.App = "mgrid";
  EXPECT_NE(requestKey(A), requestKey(C));
}

//===----------------------------------------------------------------------===//
// JSON roundtrips
//===----------------------------------------------------------------------===//

TEST(Serialize, RequestRoundtripApp) {
  SimRequest R;
  R.Id = "req-1";
  R.Kind = RequestKind::Simulate;
  R.Workload.App = "swim";
  R.Workload.SizeScale = 0.75;
  R.MCsPerCluster = 2;
  R.Config.MeshX = 4;
  R.Config.MeshY = 4;
  R.Config.NumMCs = 4;
  R.Config.SharedL2 = true;

  SimRequest Back;
  std::string Err;
  ASSERT_TRUE(requestFromJson(toJson(R), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Id, "req-1");
  EXPECT_EQ(Back.Kind, RequestKind::Simulate);
  EXPECT_EQ(Back.Workload.App, "swim");
  EXPECT_EQ(Back.Workload.SizeScale, 0.75);
  EXPECT_EQ(Back.MCsPerCluster, 2u);
  EXPECT_EQ(Back.Config.MeshX, 4u);
  EXPECT_TRUE(Back.Config.SharedL2);
  // The canonical hash is the strongest roundtrip check: every hashed
  // field survived.
  EXPECT_EQ(requestKey(Back), requestKey(R));
}

TEST(Serialize, RequestRoundtripProgramText) {
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = "program p\n# with \"quotes\" \\ and\ttabs\n";
  SimRequest Back;
  std::string Err;
  ASSERT_TRUE(requestFromJson(toJson(R), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Kind, RequestKind::Optimize);
  EXPECT_EQ(Back.Workload.ProgramText, R.Workload.ProgramText);
  EXPECT_EQ(requestKey(Back), requestKey(R));
}

TEST(Serialize, RequestRejectsBadInput) {
  auto parseReq = [](const std::string &Text, std::string *Err) {
    std::optional<JsonValue> V = parseJson(Text, Err);
    if (!V)
      return false;
    SimRequest R;
    return requestFromJson(*V, &R, Err);
  };
  std::string Err;
  EXPECT_FALSE(parseReq("{\"method\":\"simulate\"}", &Err));
  EXPECT_NE(Err.find("app"), std::string::npos);
  EXPECT_FALSE(parseReq(
      "{\"method\":\"simulate\",\"app\":\"swim\",\"program\":\"x\"}", &Err));
  EXPECT_FALSE(parseReq("{\"app\":\"swim\"}", &Err));
  EXPECT_NE(Err.find("method"), std::string::npos);
  EXPECT_FALSE(parseReq("{\"method\":\"frobnicate\",\"app\":\"swim\"}", &Err));
  EXPECT_FALSE(
      parseReq("{\"method\":\"simulate\",\"app\":\"swim\",\"bogus\":1}",
               &Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
  EXPECT_FALSE(parseReq("{\"method\":\"simulate\",\"app\":\"swim\","
                        "\"config\":{\"mesh_x\":\"wide\"}}",
                        &Err));
  EXPECT_NE(Err.find("mesh_x"), std::string::npos);
  EXPECT_FALSE(parseReq("{\"method\":\"simulate\",\"app\":\"swim\","
                        "\"config\":{\"mash_x\":8}}",
                        &Err));
  EXPECT_NE(Err.find("mash_x"), std::string::npos);
  EXPECT_FALSE(parseReq("not json at all", &Err));
}

TEST(Serialize, RequestScaleIsBounded) {
  auto parseScale = [](const std::string &Scale, std::string *Err) {
    std::optional<JsonValue> V = parseJson(
        "{\"method\":\"optimize\",\"app\":\"swim\",\"scale\":" + Scale +
            "}",
        Err);
    SimRequest R;
    return V && requestFromJson(*V, &R, Err);
  };
  std::string Err;
  for (const char *Bad : {"0", "-0.5", "1e300", "64.000001", "-1e-300"}) {
    EXPECT_FALSE(parseScale(Bad, &Err)) << Bad;
    EXPECT_NE(Err.find("'scale'"), std::string::npos) << Bad << ": " << Err;
  }
  // Every scale the benches, perfbench and the tests use, and the bound.
  for (const char *Good : {"0.1", "0.25", "0.5", "0.6", "0.75", "1", "1e-9",
                           "10.5", "64"})
    EXPECT_TRUE(parseScale(Good, &Err)) << Good << ": " << Err;
}

TEST(Serialize, MachineConfigFullRoundtrip) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.SharedL2 = true;
  C.Granularity = InterleaveGranularity::Page;
  C.PagePolicy = PageAllocPolicy::CompilerGuided;
  C.Placement = MCPlacementKind::EdgeMidpoints;
  C.Dram.Timing.RowMissCycles = 123;
  C.OptimalScheme = true;
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MESI;
  C.Coherence.SparseDirectory = true;
  C.Coherence.SparseEntries = 512;
  C.Coherence.AckBytes = 16;
  C.Coherence.InvalidateBytes = 12;

  MachineConfig Back = MachineConfig::scaledDefault();
  std::string Err;
  ASSERT_TRUE(machineConfigFromJson(toJson(C), &Back, &Err)) << Err;
  // Serialization covers every hashed field, so hash equality under a
  // fixed workload proves the config roundtrip is lossless.
  SimRequest A = tinySimulate(), B = tinySimulate();
  A.Config = C;
  B.Config = Back;
  EXPECT_EQ(requestKey(A), requestKey(B));
  EXPECT_EQ(toJson(Back).write(), toJson(C).write());
}

TEST(ContentHash, ExplicitNodeListIncluded) {
  // Two searched placements over the same machine are different machines:
  // the node list (and its interleave order) must reach the cache key.
  SimRequest Base = tinySimulate();
  Base.Config.Placement = MCPlacementKind::Explicit;
  Base.Config.MCNodes = {0, 7, 56, 63};
  CacheKey K = requestKey(Base);

  SimRequest R = Base;
  R.Config.MCNodes = {0, 7, 56, 62};
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.MCNodes = {7, 0, 56, 63}; // same set, different interleave order
  EXPECT_NE(requestKey(R), K);
}

TEST(Serialize, ExplicitConfigRoundtripExact) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {2, 13, 50, 61};

  MachineConfig Back = MachineConfig::scaledDefault();
  std::string Err;
  ASSERT_TRUE(machineConfigFromJson(toJson(C), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Placement, MCPlacementKind::Explicit);
  EXPECT_EQ(Back.MCNodes, C.MCNodes);
  EXPECT_EQ(toJson(Back).write(), toJson(C).write());
  SimRequest A = tinySimulate(), B = tinySimulate();
  A.Config = C;
  B.Config = Back;
  EXPECT_EQ(requestKey(A), requestKey(B));

  // mc_nodes is emitted only under the explicit kind, so every
  // pre-Explicit report and golden stays byte-identical...
  EXPECT_EQ(toJson(MachineConfig::scaledDefault()).write().find("mc_nodes"),
            std::string::npos);
  // ...and the wire layer still rejects malformed or unexpected shapes.
  auto parseCfg = [](const std::string &Text, std::string *E) {
    std::optional<JsonValue> V = parseJson(Text, E);
    if (!V)
      return false;
    MachineConfig Cfg = MachineConfig::scaledDefault();
    return machineConfigFromJson(*V, &Cfg, E);
  };
  EXPECT_FALSE(parseCfg("{\"mc_nodes\":5}", &Err));
  EXPECT_NE(Err.find("mc_nodes"), std::string::npos);
  EXPECT_FALSE(parseCfg("{\"mc_nodes\":[\"zero\"]}", &Err));
  EXPECT_FALSE(parseCfg("{\"mc_nodez\":[0]}", &Err));
  EXPECT_NE(Err.find("mc_nodez"), std::string::npos);
  EXPECT_TRUE(
      parseCfg("{\"placement\":\"explicit\",\"mc_nodes\":[0,7,56,63]}",
               &Err))
      << Err;
}

TEST(Serialize, PartialConfigKeepsBaseValues) {
  std::string Err;
  std::optional<JsonValue> V = parseJson("{\"mesh_x\":4,\"mesh_y\":4}", &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  MachineConfig C = MachineConfig::scaledDefault();
  MachineConfig Base = C;
  ASSERT_TRUE(machineConfigFromJson(*V, &C, &Err)) << Err;
  EXPECT_EQ(C.MeshX, 4u);
  EXPECT_EQ(C.MeshY, 4u);
  EXPECT_EQ(C.NumMCs, Base.NumMCs);
  EXPECT_EQ(C.L2SizeBytes, Base.L2SizeBytes);
}

TEST(Serialize, ResponseRoundtripEveryVariant) {
  std::string Err;

  // Overloaded.
  SimResponse Over;
  Over.Id = "r1";
  Over.Status = ResponseStatus::Overloaded;
  SimResponse Back;
  ASSERT_TRUE(responseFromJson(toJson(Over), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Id, "r1");
  EXPECT_EQ(Back.Status, ResponseStatus::Overloaded);

  // Error with text.
  SimResponse ErrResp;
  ErrResp.Id = "r2";
  ErrResp.Status = ResponseStatus::Error;
  ErrResp.ErrorText = "cannot parse program: line 3";
  ASSERT_TRUE(responseFromJson(toJson(ErrResp), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Status, ResponseStatus::Error);
  EXPECT_EQ(Back.ErrorText, ErrResp.ErrorText);

  // Error with config diagnostics.
  SimResponse DiagResp;
  DiagResp.Status = ResponseStatus::Error;
  ConfigDiagnostic D;
  D.Field = "MeshX";
  D.Value = "1";
  D.Constraint = "mesh must be at least 2 columns wide";
  D.Fix = "use a mesh between 2x2 and 8x8";
  DiagResp.Diagnostics.push_back(D);
  ASSERT_TRUE(responseFromJson(toJson(DiagResp), &Back, &Err)) << Err;
  ASSERT_EQ(Back.Diagnostics.size(), 1u);
  EXPECT_EQ(Back.Diagnostics[0].Field, "MeshX");
  EXPECT_EQ(Back.Diagnostics[0].Fix, D.Fix);

  // Ok with plan + both results: the real thing, via executeRequest.
  SimResponse Ok = executeRequest(tinySimulate());
  ASSERT_TRUE(Ok.ok());
  ASSERT_TRUE(Ok.Original.has_value());
  ASSERT_TRUE(Ok.Optimized.has_value());
  Ok.Key = requestKey(tinySimulate()).str();
  ASSERT_TRUE(responseFromJson(toJson(Ok), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Key, Ok.Key);
  EXPECT_EQ(Back.ServerSeconds, Ok.ServerSeconds);
  EXPECT_EQ(toJson(Back.Plan).write(), toJson(Ok.Plan).write());
  std::string Why;
  EXPECT_TRUE(equalResults(*Back.Original, *Ok.Original, &Why)) << Why;
  EXPECT_TRUE(equalResults(*Back.Optimized, *Ok.Optimized, &Why)) << Why;
  // And the whole line survives a second roundtrip byte-identically.
  EXPECT_EQ(writeResponseLine(Back), writeResponseLine(Ok));
}

// Results of scenarios whose burst, coherence and VM counters are non-zero,
// so a field-list entry bound to the wrong member (or missing) cannot hide
// behind a zero that both sides agree on.
TEST(Serialize, ResultRoundtripWithEveryScenarioCounterSet) {
  auto run = [](void (*Setup)(MachineConfig &)) {
    SimRequest R;
    R.Workload.App = "mgrid";
    R.Workload.SizeScale = 0.25;
    Setup(R.Config);
    SimResponse Resp = executeRequest(R);
    EXPECT_TRUE(Resp.ok()) << Resp.ErrorText;
    return Resp.ok() ? *Resp.Original : SimResult();
  };
  SimResult Msi = run([](MachineConfig &C) {
    C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
    C.Coherence.SparseDirectory = true;
    C.Coherence.SparseEntries = 256;
  });
  EXPECT_GT(Msi.CoherenceUpgrades, 0u);
  EXPECT_GT(Msi.Invalidations, 0u);
  EXPECT_GT(Msi.InvalidationAcks, 0u);
  EXPECT_GT(Msi.Downgrades, 0u);
  EXPECT_GT(Msi.CoherenceWritebacks, 0u);
  EXPECT_GT(Msi.DirEvictions, 0u);
  EXPECT_GT(Msi.CohMsgHops.total(), 0u);

  SimResult Burst = run([](MachineConfig &C) { C.Burst.Enabled = true; });
  EXPECT_GT(Burst.BurstTransactions, 0u);
  EXPECT_GT(Burst.BurstLines, 0u);
  EXPECT_FALSE(Burst.PerMCLines.empty());

  SimResult Page = run([](MachineConfig &C) {
    C.Granularity = InterleaveGranularity::Page;
    C.PagePolicy = PageAllocPolicy::FirstTouch;
  });
  EXPECT_GT(Page.AllocatedPages, 0u);

  for (const SimResult *R : {&Msi, &Burst, &Page}) {
    EXPECT_GT(R->LinkBusyCycles, 0u);
    std::string Line = toJson(*R).write();
    std::string Err;
    std::optional<JsonValue> V = parseJson(Line, &Err);
    ASSERT_TRUE(V.has_value()) << Err;
    SimResult Back;
    ASSERT_TRUE(simResultFromJson(*V, &Back, &Err)) << Err;
    std::string Why;
    EXPECT_TRUE(equalResults(Back, *R, &Why)) << Why;
    EXPECT_EQ(toJson(Back).write(), Line);
  }
}

TEST(Serialize, ResultRequiresEveryKey) {
  std::string Line = toJson(SimResult()).write();
  for (const char *Key : {"burst_lines", "dir_evictions", "link_busy_cycles"}) {
    std::string Cut = Line;
    std::size_t Pos = Cut.find(formatString("\"%s\":", Key));
    ASSERT_NE(Pos, std::string::npos) << Key;
    Cut[Pos + 1] = 'X'; // rename the key away
    std::string Err;
    std::optional<JsonValue> V = parseJson(Cut, &Err);
    ASSERT_TRUE(V.has_value()) << Err;
    SimResult Back;
    EXPECT_FALSE(simResultFromJson(*V, &Back, &Err));
    EXPECT_NE(Err.find(Key), std::string::npos) << Err;
  }
}

// Integer fields take digits only and doubles must be finite: a sign,
// fraction or exponent would otherwise wrap or truncate into a different
// machine, and an overflowing double would be written back as 0.
TEST(Serialize, NumbersMustFitTheirField) {
  auto reject = [](const std::string &Field, const std::string &Token,
                   const char *Key) {
    std::string Text = formatString(
        "{\"method\":\"simulate\",\"app\":\"swim\",%s}",
        Field.c_str());
    Text.replace(Text.find("@"), 1, Token);
    std::string Err;
    std::optional<JsonValue> V = parseJson(Text, &Err);
    ASSERT_TRUE(V.has_value()) << Err;
    SimRequest R;
    EXPECT_FALSE(requestFromJson(*V, &R, &Err)) << Text;
    EXPECT_NE(Err.find(Key), std::string::npos) << Err;
  };
  for (const char *Token : {"-1", "4.5", "1e1", "4294967296",
                            "99999999999999999999"})
    reject("\"config\":{\"mesh_x\":@}", Token, "mesh_x");
  reject("\"config\":{\"l2_size_bytes\":@}", "18446744073709551616",
         "l2_size_bytes");
  reject("\"scale\":@", "1e999", "scale");
}

// The config keys of the removed in-simulation parallel engine are gone
// from the wire: a request that still carries one is rejected like any
// other unknown key, naming it.
TEST(Serialize, LegacyEngineWireKeysAreRejected) {
  std::string Line = writeRequestLine(tinySimulate());
  EXPECT_EQ(Line.find("sim_"), std::string::npos) << Line;
  for (const char *Key :
       {"sim_threads", "sim_window_batch", "sim_replica_epochs"}) {
    std::string Bad = Line;
    std::size_t Pos = Bad.find("\"config\":{");
    ASSERT_NE(Pos, std::string::npos);
    Bad.insert(Pos + 10, formatString("\"%s\":1,", Key));
    std::string Err;
    std::optional<JsonValue> V = parseJson(Bad, &Err);
    ASSERT_TRUE(V.has_value()) << Err;
    SimRequest R;
    EXPECT_FALSE(requestFromJson(*V, &R, &Err));
    EXPECT_NE(Err.find(Key), std::string::npos) << Err;
    EXPECT_NE(Err.find("unknown"), std::string::npos) << Err;
  }
}

// The request reader parses network input: seeded truncations, byte flips
// and value-type swaps of a valid line must each parse, or fail with an
// error (naming a key once the JSON itself is well formed), never crash.
// A mutated line that parses must re-serialize to a request with the same
// key.
TEST(Serialize, RequestReaderSurvivesMutations) {
  SimRequest Base;
  Base.Id = "m1";
  Base.Workload.App = "swim";
  Base.Workload.SizeScale = 0.5;
  Base.MCsPerCluster = 2;
  Base.Config.Placement = MCPlacementKind::Explicit;
  Base.Config.MCNodes = {0, 7, 56, 63};
  const std::string Line = writeRequestLine(Base);
  std::optional<JsonValue> Valid = parseJson(Line);
  ASSERT_TRUE(Valid.has_value());

  const std::vector<JsonValue> Swaps = {
      JsonValue::null(),          JsonValue::boolean(true),
      JsonValue::string("x"),     JsonValue::array(),
      JsonValue::object(),        JsonValue::rawNumber("-1"),
      JsonValue::rawNumber("1.5"), JsonValue::rawNumber("1e999"),
      JsonValue::rawNumber("0"),  JsonValue::rawNumber("4294967296"),
      JsonValue::rawNumber("99999999999999999999")};
  // Replaces one member value (top level or inside "config") with a value
  // of another type.
  auto swapValue = [&](std::mt19937 &Rng) {
    JsonValue Req = *Valid;
    JsonValue Config = *Req.find("config");
    bool InConfig = Rng() % 2 == 0;
    JsonValue &Obj = InConfig ? Config : Req;
    std::string Key = Obj.members()[Rng() % Obj.members().size()].first;
    Obj.set(Key, Swaps[Rng() % Swaps.size()]);
    if (InConfig)
      Req.set("config", Config);
    return Req.write();
  };

  std::mt19937 Rng(20261017);
  unsigned Parsed = 0, Rejected = 0;
  for (unsigned Trial = 0; Trial < 3000; ++Trial) {
    std::string Mutated = Line;
    switch (Trial % 3) {
    case 0:
      Mutated.resize(Rng() % Line.size());
      break;
    case 1:
      Mutated[Rng() % Line.size()] = static_cast<char>(Rng() % 256);
      break;
    case 2:
      Mutated = swapValue(Rng);
      break;
    }
    std::string Err;
    std::optional<JsonValue> V = parseJson(Mutated, &Err);
    if (!V) {
      EXPECT_FALSE(Err.empty()) << Mutated;
      continue;
    }
    SimRequest R;
    if (!requestFromJson(*V, &R, &Err)) {
      ++Rejected;
      // "field '<key>': <what>", with a key the request has or must have.
      ASSERT_EQ(Err.rfind("field '", 0), 0u) << Err;
      std::size_t End = Err.find("': ", 7);
      ASSERT_NE(End, std::string::npos) << Err;
      std::string Key = Err.substr(7, End - 7);
      EXPECT_FALSE(Key.empty()) << Err;
      EXPECT_LT(End + 3, Err.size()) << Err;
      const JsonValue *Config = V->find("config");
      EXPECT_TRUE(V->find(Key) || (Config && Config->find(Key)) ||
                  Key == "method" || Key == "app")
          << Err << "\n" << Mutated;
      continue;
    }
    ++Parsed;
    SimRequest Again;
    std::optional<JsonValue> Re = parseJson(writeRequestLine(R), &Err);
    ASSERT_TRUE(Re.has_value()) << Err;
    ASSERT_TRUE(requestFromJson(*Re, &Again, &Err)) << Err;
    EXPECT_EQ(requestKey(Again), requestKey(R)) << Mutated;
  }
  // Both outcomes are exercised.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(Json, ExactNumberTokens) {
  // u64 beyond 2^53 and doubles must survive bit-exactly.
  std::string Err;
  std::optional<JsonValue> V = parseJson(
      "{\"big\":18446744073709551615,\"pi\":3.141592653589793}", &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  EXPECT_EQ(V->find("big")->asU64(), 18446744073709551615ull);
  EXPECT_EQ(V->find("pi")->asDouble(), 3.141592653589793);
  EXPECT_EQ(V->write(),
            "{\"big\":18446744073709551615,\"pi\":3.141592653589793}");
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

SimResponse okResponse(const std::string &Tag) {
  SimResponse R;
  R.Status = ResponseStatus::Ok;
  R.Plan.ProgramName = Tag;
  R.ServerSeconds = 1.0;
  return R;
}

CacheKey keyOf(std::uint64_t N) { return CacheKey{N, ~N}; }

TEST(ResultCache, LruEvictionOrder) {
  ResultCache Cache(2);
  Cache.insert(keyOf(1), okResponse("one"));
  Cache.insert(keyOf(2), okResponse("two"));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(Cache.lookup(keyOf(1)).has_value());
  Cache.insert(keyOf(3), okResponse("three"));
  EXPECT_TRUE(Cache.lookup(keyOf(1)).has_value());
  EXPECT_FALSE(Cache.lookup(keyOf(2)).has_value());
  EXPECT_TRUE(Cache.lookup(keyOf(3)).has_value());

  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache Cache(0);
  Cache.insert(keyOf(1), okResponse("one"));
  EXPECT_FALSE(Cache.lookup(keyOf(1)).has_value());
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ResultCache, ConcurrentHitsAndMisses) {
  ResultCache Cache(64);
  constexpr unsigned NumThreads = 8, OpsPerThread = 2000;
  std::vector<std::thread> Threads;
  std::atomic<std::uint64_t> ObservedHits{0};
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Cache, &ObservedHits, T] {
      for (unsigned I = 0; I < OpsPerThread; ++I) {
        // 32 hot keys shared by all threads plus per-thread cold keys, so
        // lookups, inserts and evictions all race with each other.
        std::uint64_t N = (I % 3 == 0) ? 1000 + T * OpsPerThread + I
                                       : I % 32;
        if (std::optional<SimResponse> Hit = Cache.lookup(keyOf(N))) {
          ObservedHits.fetch_add(1);
          // A hit must be internally consistent, never a torn value.
          ASSERT_EQ(Hit->Plan.ProgramName,
                    "p" + std::to_string(N));
        } else {
          SimResponse R = okResponse("p" + std::to_string(N));
          Cache.insert(keyOf(N), R);
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, ObservedHits.load());
  EXPECT_EQ(S.Hits + S.Misses, NumThreads * OpsPerThread);
  EXPECT_LE(S.Entries, 64u);
  EXPECT_GT(S.Hits, 0u);
  EXPECT_GT(S.Evictions, 0u);
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

/// tinySimulate() made distinct by \p Tag, which Gates reads back.
SimRequest tagged(char Tag, const std::string &Id) {
  SimRequest R = tinySimulate();
  R.Id = Id;
  R.Workload.ProgramText += std::string("# tag ") + Tag + "\n";
  return R;
}

char tagOf(const SimRequest &R) {
  const std::string &Text = R.Workload.ProgramText;
  return Text[Text.size() - 2];
}

/// An executor that holds each request until the gate of its tag opens and
/// counts executions per tag; its answer names the tag as the program.
class Gates {
public:
  SimService::Executor executor() {
    return [this](const SimRequest &R) {
      char Tag = tagOf(R);
      std::unique_lock<std::mutex> Lock(Mu);
      ++Started[Tag];
      Cv.notify_all();
      Cv.wait(Lock, [&] { return Open.count(Tag) != 0; });
      SimResponse Resp;
      Resp.Status = ResponseStatus::Ok;
      Resp.Plan.ProgramName = std::string(1, Tag);
      Resp.ServerSeconds = 0.5;
      return Resp;
    };
  }

  void open(char Tag) {
    std::lock_guard<std::mutex> Lock(Mu);
    Open.insert(Tag);
    Cv.notify_all();
  }

  void awaitStarted(char Tag) {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Started[Tag] != 0; });
  }

  unsigned started(char Tag) {
    std::lock_guard<std::mutex> Lock(Mu);
    return Started[Tag];
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  std::set<char> Open;
  std::map<char, unsigned> Started;
};

/// Collects completion callbacks from any thread.
class Answers {
public:
  SimService::DoneFn done() {
    return [this](SimResponse Resp) {
      std::lock_guard<std::mutex> Lock(Mu);
      Got.push_back(std::move(Resp));
    };
  }

  /// The answers so far, removed from the collector.
  std::vector<SimResponse> take() {
    std::lock_guard<std::mutex> Lock(Mu);
    return std::exchange(Got, {});
  }

private:
  std::mutex Mu;
  std::vector<SimResponse> Got;
};

TEST(Service, ServedEqualsDirectAndSecondCallHits) {
  SimService Service({/*Workers=*/2, /*QueueDepth=*/8, /*CacheCapacity=*/8});
  SimRequest R = tinySimulate();
  R.Id = "first";

  SimResponse Direct = executeRequest(R);
  SimResponse Served = Service.call(R);
  ASSERT_TRUE(Served.ok());
  EXPECT_EQ(Served.Id, "first");
  EXPECT_FALSE(Served.CacheHit);
  EXPECT_EQ(Served.Key, requestKey(R).str());
  std::string Why;
  EXPECT_TRUE(equalResults(*Served.Original, *Direct.Original, &Why)) << Why;
  EXPECT_TRUE(equalResults(*Served.Optimized, *Direct.Optimized, &Why))
      << Why;
  EXPECT_EQ(toJson(Served.Plan).write(), toJson(Direct.Plan).write());

  R.Id = "second"; // the id is not hashed → must still hit
  SimResponse Again = Service.call(R);
  ASSERT_TRUE(Again.ok());
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Id, "second");
  EXPECT_TRUE(equalResults(*Again.Original, *Direct.Original, &Why)) << Why;
  EXPECT_TRUE(equalResults(*Again.Optimized, *Direct.Optimized, &Why))
      << Why;

  // call() returns when the answer is delivered; the Completed counter is
  // bumped just after, under the same lock drain() waits on.
  Service.drain();
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 2u);
  EXPECT_EQ(S.Completed, 2u);
  EXPECT_EQ(S.Cache.Hits, 1u);
  EXPECT_EQ(S.Cache.Misses, 1u);
}

TEST(Service, ErrorResponsesAreNotCached) {
  SimService Service({1, 8, 8});
  SimRequest Bad;
  Bad.Workload.App = "no-such-app";
  SimResponse First = Service.call(Bad);
  EXPECT_EQ(First.Status, ResponseStatus::Error);
  SimResponse Second = Service.call(Bad);
  EXPECT_EQ(Second.Status, ResponseStatus::Error);
  EXPECT_FALSE(Second.CacheHit);
  EXPECT_EQ(Service.stats().Cache.Entries, 0u);
}

TEST(Service, OptimalSchemeUnderCoherenceIsAnErrorWithDiagnostic) {
  // The coherent flow has no optimal-scheme leg; the pair used to run the
  // contended machine under the optimal label.
  std::string Err;
  std::optional<JsonValue> V = parseJson(
      "{\"method\":\"simulate\",\"app\":\"swim\",\"config\":"
      "{\"optimal_scheme\":true,\"coherence\":\"msi\"}}",
      &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  SimRequest Req;
  ASSERT_TRUE(requestFromJson(*V, &Req, &Err)) << Err;
  SimService Service({1, 8, 8});
  SimResponse Resp = Service.call(Req);
  EXPECT_EQ(Resp.Status, ResponseStatus::Error);
  EXPECT_FALSE(Resp.Original.has_value());

  // The diagnostic survives the wire.
  std::optional<JsonValue> Line = parseJson(writeResponseLine(Resp), &Err);
  ASSERT_TRUE(Line.has_value()) << Err;
  SimResponse Back;
  ASSERT_TRUE(responseFromJson(*Line, &Back, &Err)) << Err;
  EXPECT_EQ(Back.Status, ResponseStatus::Error);
  ASSERT_EQ(Back.Diagnostics.size(), 1u);
  EXPECT_EQ(Back.Diagnostics[0].Field, "OptimalScheme");
  EXPECT_FALSE(Back.Diagnostics[0].Fix.empty());
}

TEST(Service, BackpressureOverloadsAndDrains) {
  // A gate executor lets us hold requests in flight deterministically.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  std::atomic<unsigned> Started{0};
  auto GateExec = [&](const SimRequest &R) {
    Started.fetch_add(1);
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Open; });
    SimResponse Resp;
    Resp.Id = R.Id;
    Resp.Status = ResponseStatus::Ok;
    Resp.ServerSeconds = 0.001;
    return Resp;
  };
  SimService Service({/*Workers=*/2, /*QueueDepth=*/3, /*CacheCapacity=*/0},
                     GateExec);

  std::mutex DoneMu;
  std::vector<SimResponse> Answers;
  auto Done = [&](SimResponse Resp) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Answers.push_back(std::move(Resp));
  };

  // Distinct content per request (cache capacity is 0 anyway, but keep the
  // requests honest). 3 admitted, the rest overloaded immediately.
  for (unsigned I = 0; I < 6; ++I) {
    SimRequest R;
    R.Id = "r" + std::to_string(I);
    R.Workload.ProgramText = "program p" + std::to_string(I);
    Service.submit(R, Done);
  }
  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    unsigned Overloaded = 0;
    for (const SimResponse &A : Answers)
      Overloaded += A.Status == ResponseStatus::Overloaded;
    EXPECT_EQ(Overloaded, 3u);
    EXPECT_EQ(Answers.size(), 3u); // only the rejections answered so far
  }

  {
    std::lock_guard<std::mutex> Lock(Mu);
    Open = true;
  }
  Cv.notify_all();
  Service.drain();

  std::lock_guard<std::mutex> Lock(DoneMu);
  EXPECT_EQ(Answers.size(), 6u); // exactly one answer per submit, none lost
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 3u);
  EXPECT_EQ(S.Rejected, 3u);
  EXPECT_EQ(S.Completed, 3u);
}

TEST(Service, SingleflightMergesIdenticalConcurrentRequests) {
  // A stampede of identical requests while the first is still computing
  // must execute exactly once: latecomers attach to the in-flight leader
  // and receive its result, marked Singleflight.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  std::atomic<unsigned> Executions{0};
  auto GateExec = [&](const SimRequest &R) {
    Executions.fetch_add(1);
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Open; });
    SimResponse Resp;
    Resp.Id = R.Id;
    Resp.Status = ResponseStatus::Ok;
    Resp.Plan.ProgramName = "computed-once";
    Resp.ServerSeconds = 0.125;
    return Resp;
  };
  SimService Service({/*Workers=*/4, /*QueueDepth=*/8, /*CacheCapacity=*/8},
                     GateExec);

  std::mutex DoneMu;
  std::vector<SimResponse> Answers;
  auto Done = [&](SimResponse Resp) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Answers.push_back(std::move(Resp));
  };

  constexpr unsigned N = 4;
  for (unsigned I = 0; I < N; ++I) {
    SimRequest R = tinySimulate();
    R.Id = "client" + std::to_string(I);
    Service.submit(R, Done);
  }
  // submit() attaches on the spot, so the three followers are parked on
  // the leader before the gate can open (a follower arriving after
  // completion would be a cache hit instead, which is correct but not what
  // this test pins).
  EXPECT_EQ(Service.stats().SingleflightHits, N - 1);
  while (Executions.load() == 0)
    std::this_thread::yield();
  EXPECT_EQ(Executions.load(), 1u);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Open = true;
  }
  Cv.notify_all();
  Service.drain();

  std::lock_guard<std::mutex> Lock(DoneMu);
  ASSERT_EQ(Answers.size(), N);
  EXPECT_EQ(Executions.load(), 1u);
  unsigned Merged = 0;
  for (const SimResponse &A : Answers) {
    ASSERT_TRUE(A.ok());
    Merged += A.Singleflight;
    EXPECT_FALSE(A.CacheHit);
    // Every answer repeats the one computed result bit-for-bit, modulo the
    // per-client id echo and the merge marker.
    SimResponse Canon = A;
    Canon.Id.clear();
    Canon.Singleflight = false;
    SimResponse Lead = Answers[0];
    Lead.Id.clear();
    Lead.Singleflight = false;
    EXPECT_EQ(writeResponseLine(Canon), writeResponseLine(Lead));
    EXPECT_EQ(A.Plan.ProgramName, "computed-once");
    EXPECT_EQ(A.ServerSeconds, 0.125);
    EXPECT_EQ(A.Key, requestKey(tinySimulate()).str());
  }
  EXPECT_EQ(Merged, N - 1);
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.SingleflightHits, N - 1);
  EXPECT_EQ(S.Admitted, N);
  EXPECT_EQ(S.Completed, N);
  EXPECT_EQ(S.Cache.Misses, 1u); // one lookup miss: the leader's
}

TEST(Service, SingleflightUnderOverloadStillAnswersEverySubmit) {
  // Both workers gated on distinct content and a third leader queued fill
  // the queue. Identical requests still attach (they take no queue slot);
  // new content is rejected, and the rejection leaves nothing behind, so
  // the same content resubmitted later executes. Exactly one answer per
  // submit, one execution per admitted distinct content.
  Gates G;
  SimService Service({/*Workers=*/2, /*QueueDepth=*/3, /*CacheCapacity=*/8},
                     G.executor());
  Answers Got;

  Service.submit(tagged('a', "leader"), Got.done());
  G.awaitStarted('a');
  Service.submit(tagged('b', "other"), Got.done());
  G.awaitStarted('b');
  Service.submit(tagged('c', "queued"), Got.done());
  Service.submit(tagged('a', "w2"), Got.done());
  Service.submit(tagged('a', "w3"), Got.done());
  EXPECT_EQ(Service.stats().SingleflightHits, 2u);
  // Three leaders hold the three queue slots: new content is rejected on
  // the spot.
  Service.submit(tagged('d', "rejected"), Got.done());
  {
    std::vector<SimResponse> Now = Got.take();
    ASSERT_EQ(Now.size(), 1u);
    EXPECT_EQ(Now[0].Status, ResponseStatus::Overloaded);
    EXPECT_EQ(Now[0].Id, "rejected");
  }

  for (char Tag : {'a', 'b', 'c', 'd'})
    G.open(Tag);
  Service.drain();

  std::vector<SimResponse> All = Got.take();
  ASSERT_EQ(All.size(), 5u); // one answer per admitted submit, none lost
  unsigned Merged = 0;
  for (const SimResponse &R : All) {
    ASSERT_TRUE(R.ok()) << R.Id;
    if (R.Plan.ProgramName == "a") {
      Merged += R.Singleflight;
      EXPECT_EQ(R.ServerSeconds, 0.5);
    }
  }
  EXPECT_EQ(Merged, 2u);
  for (char Tag : {'a', 'b', 'c'})
    EXPECT_EQ(G.started(Tag), 1u) << Tag;
  EXPECT_EQ(G.started('d'), 0u);
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 5u);
  EXPECT_EQ(S.Rejected, 1u);
  EXPECT_EQ(S.Completed, 5u);
  EXPECT_EQ(S.SingleflightHits, 2u);

  // The rejected content left no single-flight entry to attach to.
  SimResponse Retry = Service.call(tagged('d', "retry"));
  ASSERT_TRUE(Retry.ok());
  EXPECT_FALSE(Retry.Singleflight);
  EXPECT_FALSE(Retry.CacheHit);
  EXPECT_EQ(G.started('d'), 1u);
}

TEST(Service, HitAnsweredWhileWorkersBusy) {
  // The cache decision is made on the submitting thread, so a hit is
  // answered while every worker is held on a miss.
  Gates G;
  G.open('h');
  SimService Service({/*Workers=*/2, /*QueueDepth=*/8, /*CacheCapacity=*/8},
                     G.executor());
  ASSERT_TRUE(Service.call(tagged('h', "warm")).ok());

  Answers Got;
  Service.submit(tagged('x', "busy1"), Got.done());
  Service.submit(tagged('y', "busy2"), Got.done());
  G.awaitStarted('x');
  G.awaitStarted('y');
  Service.submit(tagged('h', "hit"), Got.done());
  {
    // Answered before submit() returned, with both workers still gated.
    std::vector<SimResponse> Now = Got.take();
    ASSERT_EQ(Now.size(), 1u);
    EXPECT_EQ(Now[0].Id, "hit");
    EXPECT_TRUE(Now[0].ok());
    EXPECT_TRUE(Now[0].CacheHit);
    EXPECT_EQ(Now[0].Key, requestKey(tagged('h', "")).str());
  }
  G.open('x');
  G.open('y');
  Service.drain();
  EXPECT_EQ(Got.take().size(), 2u);
  EXPECT_EQ(G.started('h'), 1u);
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 4u);
  EXPECT_EQ(S.Completed, 4u);
  EXPECT_EQ(S.Cache.Hits, 1u);
}

TEST(Service, AttachWhileLeaderQueued) {
  // One worker, held on other content: the leader for 'a' waits in the
  // queue, and an identical request attaches to it there instead of
  // queueing a second execution.
  Gates G;
  SimService Service({/*Workers=*/1, /*QueueDepth=*/8, /*CacheCapacity=*/8},
                     G.executor());
  Answers Got;
  Service.submit(tagged('x', "busy"), Got.done());
  G.awaitStarted('x');
  Service.submit(tagged('a', "leader"), Got.done());
  Service.submit(tagged('a', "follower"), Got.done());
  EXPECT_EQ(Service.stats().SingleflightHits, 1u);
  EXPECT_EQ(G.started('a'), 0u); // the leader has not started yet

  G.open('x');
  G.open('a');
  Service.drain();
  std::vector<SimResponse> All = Got.take();
  ASSERT_EQ(All.size(), 3u);
  EXPECT_EQ(G.started('a'), 1u);
  unsigned Merged = 0;
  for (const SimResponse &R : All) {
    ASSERT_TRUE(R.ok()) << R.Id;
    Merged += R.Singleflight;
    if (R.Id == "follower") {
      EXPECT_TRUE(R.Singleflight);
      EXPECT_EQ(R.Plan.ProgramName, "a");
    }
  }
  EXPECT_EQ(Merged, 1u);
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 3u);
  EXPECT_EQ(S.Completed, 3u);
}

TEST(Service, OutOfRangeScaleIsAnErrorNamingScale) {
  // An in-process request skips the JSON reader's check; the executor
  // rejects the scale before any workload is built.
  SimService Service({1, 8, 8});
  for (double Scale : {0.0, -1.0, 1e300, MaxSizeScale * 2,
                       std::numeric_limits<double>::quiet_NaN()}) {
    SimRequest R;
    R.Kind = RequestKind::Optimize;
    R.Workload.App = "swim";
    R.Workload.SizeScale = Scale;
    SimResponse Resp = Service.call(R);
    EXPECT_EQ(Resp.Status, ResponseStatus::Error) << Scale;
    ASSERT_EQ(Resp.Diagnostics.size(), 1u) << Scale;
    EXPECT_EQ(Resp.Diagnostics[0].Field, "scale");
  }
  EXPECT_EQ(Service.stats().Cache.Entries, 0u);
}

//===----------------------------------------------------------------------===//
// executeRequest error reporting
//===----------------------------------------------------------------------===//

TEST(Execute, InvalidConfigYieldsDiagnostics) {
  SimRequest R = tinySimulate();
  R.Config.MeshX = 1;
  SimResponse Resp = executeRequest(R);
  EXPECT_EQ(Resp.Status, ResponseStatus::Error);
  ASSERT_FALSE(Resp.Diagnostics.empty());
  EXPECT_EQ(Resp.Diagnostics[0].Field, "MeshX");
}

TEST(Execute, ParseErrorYieldsErrorText) {
  SimRequest R;
  R.Workload.ProgramText = "this is not a program";
  SimResponse Resp = executeRequest(R);
  EXPECT_EQ(Resp.Status, ResponseStatus::Error);
  EXPECT_FALSE(Resp.ErrorText.empty());
  EXPECT_TRUE(Resp.Diagnostics.empty());
}

TEST(Execute, OptimizeCarriesPlanButNoResults) {
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = TinyProgram;
  SimResponse Resp = executeRequest(R);
  ASSERT_TRUE(Resp.ok());
  EXPECT_FALSE(Resp.Original.has_value());
  EXPECT_FALSE(Resp.Optimized.has_value());
  EXPECT_EQ(Resp.Plan.ProgramName, "tiny");
  EXPECT_FALSE(Resp.Plan.TransformedSource.empty());
  EXPECT_FALSE(Resp.Plan.Arrays.empty());
}

} // namespace
