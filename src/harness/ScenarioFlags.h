//===- harness/ScenarioFlags.h - Shared machine-scenario flags --*- C++ -*-===//
///
/// \file
/// The machine-scenario flags of every bench binary and offchip-opt,
/// registered in one place so their spelling, parsing and cross-flag rules
/// cannot drift apart:
///
///   --burst-coalesce         MachineConfig::Burst.Enabled
///   --coherence msi|mesi     MachineConfig::Coherence.Protocol
///   --sparse-dir N           a sparse directory of N > 0 entries
///   --placement <kind>       MachineConfig::Placement
///   --mc-nodes n0,n1,...     an explicit placement
///
/// plus the --mesh XxY parser of the tools that size the mesh.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_HARNESS_SCENARIOFLAGS_H
#define OFFCHIP_HARNESS_SCENARIOFLAGS_H

#include "sim/MachineConfig.h"
#include "support/Options.h"

#include <optional>
#include <vector>

namespace offchip {

class ScenarioFlags {
public:
  /// Registers the scenario flags on \p Parser; parsed values are written
  /// into \p Config. Both must outlive this object.
  ScenarioFlags(OptionsParser &Parser, MachineConfig &Config);
  // The registered parse callbacks point at this object.
  ScenarioFlags(const ScenarioFlags &) = delete;
  ScenarioFlags &operator=(const ScenarioFlags &) = delete;

  /// Parses \p Argv with the parser and reports problems the way every tool
  /// does. \returns 0 after --help (printed to stdout), 2 on a bad flag (a
  /// structured diagnostic for a bad --placement/--mc-nodes, the parser
  /// error plus help otherwise) or on --sparse-dir without --coherence,
  /// std::nullopt to continue.
  std::optional<int> parse(int Argc, char **Argv);

private:
  OptionsParser &Parser;
  MachineConfig &Config;
  /// Recorded by the --placement/--mc-nodes parse callbacks; preferred over
  /// the parser's generic bad-value error.
  std::vector<ConfigDiagnostic> FlagDiags;
  bool SparseDirGiven = false;
};

/// Registers --mesh <X>x<Y> on \p Parser, writing Config.MeshX/MeshY: two
/// nonzero decimal sizes around one 'x', nothing before or after.
void addMeshFlag(OptionsParser &Parser, MachineConfig &Config);

} // namespace offchip

#endif // OFFCHIP_HARNESS_SCENARIOFLAGS_H
