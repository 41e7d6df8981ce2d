//===- api/Fields.h - Field lists of the wire value types -------*- C++ -*-===//
///
/// \file
/// One field list per wire type. visitConfigFields() and visitResultFields()
/// name every serialized field of MachineConfig and SimResult exactly once,
/// next to its wire key. The JSON writer and reader (api/Serialize.cpp) and
/// the result-cache key (api/ContentHash.cpp) are walkers over these lists,
/// so a field added here reaches the wire and the cache key together.
///
/// A walker is a callable invoked as F(Key, Field) or F(Key, Field, Opts):
/// Key is the wire name, Field a reference to the member (const when the
/// struct is const), Opts a FieldOpts that defaults to FieldOpts{}. The
/// list order is the JSON member order.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_FIELDS_H
#define OFFCHIP_API_FIELDS_H

#include "sim/MachineConfig.h"
#include "sim/Metrics.h"

#include <type_traits>

namespace offchip {

/// Where a field goes besides the JSON reader, which accepts every field.
struct FieldOpts {
  /// Hashed into requestKey(). Only result-invariant knobs opt out.
  bool Keyed = true;
  /// Emitted by toJson().
  bool Written = true;
};

/// A knob that never changes a simulated result: on the wire, but out of
/// the cache key, so e.g. a checked request hits an unchecked entry.
inline constexpr FieldOpts NotKeyed{/*Keyed=*/false, /*Written=*/true};

/// Walks the MachineConfig fields of the wire format. Trace and
/// CollectPhaseTimes are in-process knobs and travel nowhere.
template <typename Config, typename Fn>
  requires std::is_same_v<std::remove_const_t<Config>, MachineConfig>
void visitConfigFields(Config &C, Fn &&F) {
  F("mesh_x", C.MeshX);
  F("mesh_y", C.MeshY);
  F("l1_size_bytes", C.L1SizeBytes);
  F("l1_line_bytes", C.L1LineBytes);
  F("l1_ways", C.L1Ways);
  F("l1_latency_cycles", C.L1LatencyCycles);
  F("l2_size_bytes", C.L2SizeBytes);
  F("l2_line_bytes", C.L2LineBytes);
  F("l2_ways", C.L2Ways);
  F("l2_latency_cycles", C.L2LatencyCycles);
  F("shared_l2", C.SharedL2);
  F("noc_per_hop_cycles", C.Noc.PerHopCycles);
  F("noc_link_bytes", C.Noc.LinkBytes);
  F("num_mcs", C.NumMCs);
  F("placement", C.Placement);
  // Written only under an explicit placement, the one kind with a node list;
  // always keyed (an empty list hashes as length 0).
  F("mc_nodes", C.MCNodes,
    FieldOpts{true, C.Placement == MCPlacementKind::Explicit});
  F("dram_banks", C.Dram.Banks);
  F("dram_row_buffer_bytes", C.Dram.RowBufferBytes);
  F("dram_frfcfs_window_rows", C.Dram.FrFcfsWindowRows);
  F("dram_row_hit_cycles", C.Dram.Timing.RowHitCycles);
  F("dram_row_miss_cycles", C.Dram.Timing.RowMissCycles);
  F("bytes_per_mc", C.BytesPerMC);
  F("granularity", C.Granularity);
  F("page_bytes", C.PageBytes);
  F("page_policy", C.PagePolicy);
  F("threads_per_core", C.ThreadsPerCore);
  F("compute_gap_cycles", C.ComputeGapCycles);
  F("transform_overhead_cycles", C.TransformOverheadCycles);
  F("directory_latency_cycles", C.DirectoryLatencyCycles);
  F("request_bytes", C.RequestBytes);
  F("optimal_scheme", C.OptimalScheme);
  F("burst_coalesce", C.Burst.Enabled);
  F("burst_window_accesses", C.Burst.WindowAccesses);
  F("burst_max_lines", C.Burst.MaxLines);
  F("dram_burst_beat_cycles", C.Dram.Timing.BurstBeatCycles);
  F("coherence", C.Coherence.Protocol);
  F("coherence_sparse_dir", C.Coherence.SparseDirectory);
  F("coherence_sparse_entries", C.Coherence.SparseEntries);
  F("coherence_ack_bytes", C.Coherence.AckBytes);
  F("coherence_invalidate_bytes", C.Coherence.InvalidateBytes);
  F("check_invariants", C.CheckInvariants, NotKeyed);
}

/// Walks every SimResult field equalResults() compares. Results are never
/// hashed and every field is written, so no entry carries FieldOpts.
template <typename Result, typename Fn>
  requires std::is_same_v<std::remove_const_t<Result>, SimResult>
void visitResultFields(Result &R, Fn &&F) {
  F("execution_cycles", R.ExecutionCycles);
  F("thread_finish_cycles", R.ThreadFinishCycles);
  F("total_accesses", R.TotalAccesses);
  F("l1_hits", R.L1Hits);
  F("local_l2_hits", R.LocalL2Hits);
  F("remote_l2_hits", R.RemoteL2Hits);
  F("offchip_accesses", R.OffChipAccesses);
  F("onchip_net_latency", R.OnChipNetLatency);
  F("offchip_net_latency", R.OffChipNetLatency);
  F("mem_latency", R.MemLatency);
  F("access_latency", R.AccessLatency);
  F("offnet_latency_hist", R.OffNetLatencyHist);
  F("onchip_msg_hops", R.OnChipMsgHops);
  F("offchip_msg_hops", R.OffChipMsgHops);
  F("num_nodes", R.NumNodes);
  F("num_mcs", R.NumMCs);
  F("node_to_mc_traffic", R.NodeToMCTraffic);
  F("avg_bank_queue_occupancy", R.AvgBankQueueOccupancy);
  F("row_hit_rate", R.RowHitRate);
  F("per_mc_queue_occupancy", R.PerMCQueueOccupancy);
  F("per_mc_accesses", R.PerMCAccesses);
  F("redirected_pages", R.RedirectedPages);
  F("allocated_pages", R.AllocatedPages);
  F("burst_transactions", R.BurstTransactions);
  F("burst_lines", R.BurstLines);
  F("per_mc_lines", R.PerMCLines);
  F("coherence_upgrades", R.CoherenceUpgrades);
  F("invalidations", R.Invalidations);
  F("invalidation_acks", R.InvalidationAcks);
  F("downgrades", R.Downgrades);
  F("coherence_writebacks", R.CoherenceWritebacks);
  F("exclusive_grants", R.ExclusiveGrants);
  F("dir_evictions", R.DirEvictions);
  F("coh_msg_hops", R.CohMsgHops);
  F("link_busy_cycles", R.LinkBusyCycles);
}

} // namespace offchip

#endif // OFFCHIP_API_FIELDS_H
