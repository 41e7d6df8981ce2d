//===- tests/wire_bytes_test.cpp - pinned wire bytes ----------------------===//
//
// The exact bytes of one line of each wire shape — an Ok Simulate answer
// with both results, an Optimize-only answer, an Error answer with
// diagnostics, an Overloaded answer and a request — recorded from the
// DOM-building writer (snprintf "%llu" and "%.17g", char-by-char escaping)
// that the streaming writer replaced. The fixtures hit every formatting
// edge: integers above 2^53, 17-digit doubles, -0, subnormals, non-finite
// doubles (written as 0), empty histograms, and strings with quotes,
// backslashes, control characters, DEL and multi-byte UTF-8. Any drift in
// the wire format fails here before it reaches a client or a golden.
//
//===----------------------------------------------------------------------===//

#include "api/Serialize.h"

#include "gtest/gtest.h"

#include <limits>
#include <optional>

using namespace offchip;

namespace {

/// A result whose every value kind is a formatting edge: integers above
/// 2^53, 17-digit doubles, non-finite doubles (written as 0) and a
/// histogram with empty buckets.
SimResult pinnedResult(std::uint64_t Salt) {
  SimResult R;
  R.ExecutionCycles = 18446744073709551615ull - Salt;
  R.ThreadFinishCycles = {9007199254740993ull, 0, 42 + Salt};
  R.TotalAccesses = 123456789012345678ull;
  R.L1Hits = 1;
  R.LocalL2Hits = 2;
  R.RemoteL2Hits = 3;
  R.OffChipAccesses = 4 + Salt;
  R.OnChipNetLatency = Accumulator::fromMoments(3, 0.1 + 0.2, 1.0 / 3.0, 2.5);
  R.OffChipNetLatency = Accumulator::fromMoments(
      9007199254740993ull, 1e300, 5e-324, 1.7976931348623157e308);
  R.MemLatency.addSample(-0.0);
  R.AccessLatency.addSample(12.5 + static_cast<double>(Salt));
  R.AccessLatency.addSample(7.25);
  R.OffNetLatencyHist.addSample(0);
  R.OffNetLatencyHist.addSample(5);
  R.OffNetLatencyHist.addSample(5);
  R.OnChipMsgHops.addSample(2);
  R.NumNodes = 4;
  R.NumMCs = 2;
  R.NodeToMCTraffic = {1, 2, 3, 4, 5, 6, 7, 8 + Salt};
  R.AvgBankQueueOccupancy = 2.0 / 3.0;
  R.RowHitRate = std::numeric_limits<double>::quiet_NaN();
  R.PerMCQueueOccupancy = {0.1, std::numeric_limits<double>::infinity(),
                           -1.5e-7};
  R.PerMCAccesses = {4294967296ull, 7};
  R.RedirectedPages = 11;
  R.AllocatedPages = 4096;
  R.BurstTransactions = 5;
  R.BurstLines = 20;
  R.PerMCLines = {12, 8};
  R.CoherenceUpgrades = 13;
  R.Invalidations = 14;
  R.InvalidationAcks = 15;
  R.Downgrades = 16;
  R.CoherenceWritebacks = 17;
  R.ExclusiveGrants = 18;
  R.DirEvictions = 19;
  R.CohMsgHops.addSample(1);
  R.CohMsgHops.addSample(3);
  R.LinkBusyCycles = 1ull << 60;
  return R;
}

/// A plan whose strings carry every escape class: quotes, backslashes,
/// the named control escapes, a \u00XX one, DEL and multi-byte UTF-8.
PlanSummary pinnedPlan() {
  PlanSummary P;
  P.ProgramName = "swim\t\"v2\"";
  P.NumClusters = 4;
  P.CoresPerClusterX = 4;
  P.CoresPerClusterY = 2;
  P.MCsPerCluster = 1;
  P.Arrays.push_back({"u", true, "[[0, 1], [1, 0]]", "ok\\done"});
  P.Arrays.push_back({"v\x01", false, "-", "kept: \x1f\b\f\r\x7f caf\xc3\xa9"});
  P.ArraysOptimizedFraction = 0.5;
  P.RefsSatisfiedFraction = 2.0 / 3.0;
  P.TransformedSource = "program swim\n  read u [ i0, i1 ]\nend\n";
  return P;
}

SimResponse pinnedSimulateOk() {
  SimResponse R;
  R.Id = "sim\n1";
  R.Status = ResponseStatus::Ok;
  R.Plan = pinnedPlan();
  R.Original = pinnedResult(0);
  R.Optimized = pinnedResult(7);
  R.Singleflight = true;
  R.Key = "0123456789abcdef0123456789abcdef";
  R.ServerSeconds = 0.1 + 0.2;
  return R;
}

SimResponse pinnedOptimizeOk() {
  SimResponse R;
  R.Id = "opt";
  R.Status = ResponseStatus::Ok;
  R.Plan = pinnedPlan();
  R.CacheHit = true;
  R.Key = "fedcba9876543210fedcba9876543210";
  R.ServerSeconds = 1e-7 / 3.0;
  return R;
}

SimResponse pinnedError() {
  SimResponse R;
  R.Id = "bad";
  R.Status = ResponseStatus::Error;
  R.ErrorText = "cannot parse program:\n\tline 3: \"x\"";
  R.Diagnostics.push_back({"MeshX", "1", "must be >= 2", "use 8x8"});
  R.Diagnostics.push_back({"Scale\x02", "1e+300", "0 < s", "a\\b"});
  return R;
}

SimResponse pinnedOverloaded() {
  SimResponse R;
  R.Id = "r\"9";
  R.Status = ResponseStatus::Overloaded;
  return R;
}

SimRequest pinnedRequest() {
  SimRequest R;
  R.Id = "q\x03";
  R.Kind = RequestKind::Simulate;
  R.Workload.App = "swim";
  R.Workload.SizeScale = 0.1 + 3e-7;
  R.MCsPerCluster = 2;
  R.Config.Placement = MCPlacementKind::Explicit;
  R.Config.MCNodes = {0, 7, 56, 63};
  R.Config.BytesPerMC = 18446744073709551615ull;
  return R;
}

const char *const PinnedSimulateOk =
    "{\"id\":\"sim\\n1\",\"status\":\"ok\",\"cache\":\"miss\",\"singlef"
    "light\":true,\"key\":\"0123456789abcdef0123456789abcdef\",\"server"
    "_seconds\":0.30000000000000004,\"plan\":{\"program\":\"swim\\t\\\""
    "v2\\\"\",\"clusters\":4,\"cores_per_cluster_x\":4,\"cores_per_clus"
    "ter_y\":2,\"mcs_per_cluster\":1,\"arrays\":[{\"name\":\"u\",\"opti"
    "mized\":true,\"u\":\"[[0, 1], [1, 0]]\",\"note\":\"ok\\\\done\"},{"
    "\"name\":\"v\\u0001\",\"optimized\":false,\"u\":\"-\",\"note\":\"k"
    "ept: \\u001f\\b\\f\\r\177 caf\303\251\"}],\"arrays_optimized_fract"
    "ion\":0.5,\"refs_satisfied_fraction\":0.66666666666666663,\"source"
    "\":\"program swim\\n  read u [ i0, i1 ]\\nend\\n\"},\"original\":{"
    "\"execution_cycles\":18446744073709551615,\"thread_finish_cycles\""
    ":[9007199254740993,0,42],\"total_accesses\":123456789012345678,\"l"
    "1_hits\":1,\"local_l2_hits\":2,\"remote_l2_hits\":3,\"offchip_acce"
    "sses\":4,\"onchip_net_latency\":{\"count\":3,\"sum\":0.30000000000"
    "000004,\"min\":0.33333333333333331,\"max\":2.5},\"offchip_net_late"
    "ncy\":{\"count\":9007199254740993,\"sum\":1.0000000000000001e+300,"
    "\"min\":4.9406564584124654e-324,\"max\":1.7976931348623157e+308},"
    "\"mem_latency\":{\"count\":1,\"sum\":0,\"min\":-0,\"max\":-0},\"ac"
    "cess_latency\":{\"count\":2,\"sum\":19.75,\"min\":7.25,\"max\":12."
    "5},\"offnet_latency_hist\":{\"cap\":1024,\"buckets\":[1,0,0,0,0,2]"
    "},\"onchip_msg_hops\":{\"cap\":256,\"buckets\":[0,0,1]},\"offchip_"
    "msg_hops\":{\"cap\":256,\"buckets\":[]},\"num_nodes\":4,\"num_mcs"
    "\":2,\"node_to_mc_traffic\":[1,2,3,4,5,6,7,8],\"avg_bank_queue_occ"
    "upancy\":0.66666666666666663,\"row_hit_rate\":0,\"per_mc_queue_occ"
    "upancy\":[0.10000000000000001,0,-1.4999999999999999e-07],\"per_mc_"
    "accesses\":[4294967296,7],\"redirected_pages\":11,\"allocated_page"
    "s\":4096,\"burst_transactions\":5,\"burst_lines\":20,\"per_mc_line"
    "s\":[12,8],\"coherence_upgrades\":13,\"invalidations\":14,\"invali"
    "dation_acks\":15,\"downgrades\":16,\"coherence_writebacks\":17,\"e"
    "xclusive_grants\":18,\"dir_evictions\":19,\"coh_msg_hops\":{\"cap"
    "\":256,\"buckets\":[0,1,0,1]},\"link_busy_cycles\":115292150460684"
    "6976},\"optimized\":{\"execution_cycles\":18446744073709551608,\"t"
    "hread_finish_cycles\":[9007199254740993,0,49],\"total_accesses\":1"
    "23456789012345678,\"l1_hits\":1,\"local_l2_hits\":2,\"remote_l2_hi"
    "ts\":3,\"offchip_accesses\":11,\"onchip_net_latency\":{\"count\":3"
    ",\"sum\":0.30000000000000004,\"min\":0.33333333333333331,\"max\":2"
    ".5},\"offchip_net_latency\":{\"count\":9007199254740993,\"sum\":1."
    "0000000000000001e+300,\"min\":4.9406564584124654e-324,\"max\":1.79"
    "76931348623157e+308},\"mem_latency\":{\"count\":1,\"sum\":0,\"min"
    "\":-0,\"max\":-0},\"access_latency\":{\"count\":2,\"sum\":26.75,\""
    "min\":7.25,\"max\":19.5},\"offnet_latency_hist\":{\"cap\":1024,\"b"
    "uckets\":[1,0,0,0,0,2]},\"onchip_msg_hops\":{\"cap\":256,\"buckets"
    "\":[0,0,1]},\"offchip_msg_hops\":{\"cap\":256,\"buckets\":[]},\"nu"
    "m_nodes\":4,\"num_mcs\":2,\"node_to_mc_traffic\":[1,2,3,4,5,6,7,15"
    "],\"avg_bank_queue_occupancy\":0.66666666666666663,\"row_hit_rate"
    "\":0,\"per_mc_queue_occupancy\":[0.10000000000000001,0,-1.49999999"
    "99999999e-07],\"per_mc_accesses\":[4294967296,7],\"redirected_page"
    "s\":11,\"allocated_pages\":4096,\"burst_transactions\":5,\"burst_l"
    "ines\":20,\"per_mc_lines\":[12,8],\"coherence_upgrades\":13,\"inva"
    "lidations\":14,\"invalidation_acks\":15,\"downgrades\":16,\"cohere"
    "nce_writebacks\":17,\"exclusive_grants\":18,\"dir_evictions\":19,"
    "\"coh_msg_hops\":{\"cap\":256,\"buckets\":[0,1,0,1]},\"link_busy_c"
    "ycles\":1152921504606846976}}\n";

const char *const PinnedOptimizeOk =
    "{\"id\":\"opt\",\"status\":\"ok\",\"cache\":\"hit\",\"key\":\"fedc"
    "ba9876543210fedcba9876543210\",\"server_seconds\":3.33333333333333"
    "34e-08,\"plan\":{\"program\":\"swim\\t\\\"v2\\\"\",\"clusters\":4,"
    "\"cores_per_cluster_x\":4,\"cores_per_cluster_y\":2,\"mcs_per_clus"
    "ter\":1,\"arrays\":[{\"name\":\"u\",\"optimized\":true,\"u\":\"[[0"
    ", 1], [1, 0]]\",\"note\":\"ok\\\\done\"},{\"name\":\"v\\u0001\",\""
    "optimized\":false,\"u\":\"-\",\"note\":\"kept: \\u001f\\b\\f\\r"
    "\177 caf\303\251\"}],\"arrays_optimized_fraction\":0.5,\"refs_sati"
    "sfied_fraction\":0.66666666666666663,\"source\":\"program swim\\n "
    " read u [ i0, i1 ]\\nend\\n\"}}\n";

const char *const PinnedError =
    "{\"id\":\"bad\",\"status\":\"error\",\"error\":\"cannot parse prog"
    "ram:\\n\\tline 3: \\\"x\\\"\",\"diagnostics\":[{\"field\":\"MeshX"
    "\",\"value\":\"1\",\"constraint\":\"must be >= 2\",\"fix\":\"use 8"
    "x8\"},{\"field\":\"Scale\\u0002\",\"value\":\"1e+300\",\"constrain"
    "t\":\"0 < s\",\"fix\":\"a\\\\b\"}]}\n";

const char *const PinnedOverloaded =
    "{\"id\":\"r\\\"9\",\"status\":\"overloaded\"}\n";

const char *const PinnedRequest =
    "{\"id\":\"q\\u0003\",\"method\":\"simulate\",\"app\":\"swim\",\"sc"
    "ale\":0.1000003,\"mcs_per_cluster\":2,\"config\":{\"mesh_x\":8,\"m"
    "esh_y\":8,\"l1_size_bytes\":2048,\"l1_line_bytes\":64,\"l1_ways\":"
    "8,\"l1_latency_cycles\":2,\"l2_size_bytes\":16384,\"l2_line_bytes"
    "\":256,\"l2_ways\":16,\"l2_latency_cycles\":10,\"shared_l2\":false"
    ",\"noc_per_hop_cycles\":4,\"noc_link_bytes\":16,\"num_mcs\":4,\"pl"
    "acement\":\"explicit\",\"mc_nodes\":[0,7,56,63],\"dram_banks\":4,"
    "\"dram_row_buffer_bytes\":4096,\"dram_frfcfs_window_rows\":8,\"dra"
    "m_row_hit_cycles\":28,\"dram_row_miss_cycles\":82,\"bytes_per_mc\""
    ":18446744073709551615,\"granularity\":\"line\",\"page_bytes\":4096"
    ",\"page_policy\":\"round_robin\",\"threads_per_core\":1,\"compute_"
    "gap_cycles\":16,\"transform_overhead_cycles\":1,\"directory_latenc"
    "y_cycles\":6,\"request_bytes\":16,\"optimal_scheme\":false,\"burst"
    "_coalesce\":false,\"burst_window_accesses\":256,\"burst_max_lines"
    "\":8,\"dram_burst_beat_cycles\":8,\"coherence\":\"none\",\"coheren"
    "ce_sparse_dir\":false,\"coherence_sparse_entries\":4096,\"coherenc"
    "e_ack_bytes\":8,\"coherence_invalidate_bytes\":8,\"check_invariant"
    "s\":false}}\n";

/// The line, its DOM (toJson) written back, and the line parsed and
/// written back must all be the pinned bytes.
void expectPinned(const std::string &Line, const JsonValue &Dom,
                  const char *Pinned) {
  EXPECT_EQ(Line, Pinned);
  EXPECT_EQ(Dom.write() + "\n", Pinned);
  std::string Err;
  std::optional<JsonValue> Parsed = parseJson(Line, &Err);
  ASSERT_TRUE(Parsed.has_value()) << Err;
  EXPECT_EQ(Parsed->write() + "\n", Pinned);
}

TEST(WireBytes, SimulateAnswerWithBothResults) {
  SimResponse R = pinnedSimulateOk();
  expectPinned(writeResponseLine(R), toJson(R), PinnedSimulateOk);
}

TEST(WireBytes, OptimizeOnlyAnswer) {
  SimResponse R = pinnedOptimizeOk();
  expectPinned(writeResponseLine(R), toJson(R), PinnedOptimizeOk);
}

TEST(WireBytes, ErrorAnswerWithDiagnostics) {
  SimResponse R = pinnedError();
  expectPinned(writeResponseLine(R), toJson(R), PinnedError);
}

TEST(WireBytes, OverloadedAnswer) {
  SimResponse R = pinnedOverloaded();
  expectPinned(writeResponseLine(R), toJson(R), PinnedOverloaded);
}

TEST(WireBytes, RequestLine) {
  SimRequest R = pinnedRequest();
  expectPinned(writeRequestLine(R), toJson(R), PinnedRequest);
}

TEST(WireBytes, StandaloneDomsMatchTheirSpanInTheLine) {
  // toJson of a nested value is the same text the line embeds.
  SimResponse R = pinnedSimulateOk();
  std::string Line = writeResponseLine(R);
  for (const std::string &Part :
       {toJson(R.Plan).write(), toJson(*R.Original).write(),
        toJson(*R.Optimized).write()})
    EXPECT_NE(Line.find(Part), std::string::npos) << Part;
  SimRequest Q = pinnedRequest();
  EXPECT_NE(writeRequestLine(Q).find(toJson(Q.Config).write()),
            std::string::npos);
}

} // namespace
